import logging
from dataclasses import replace

import numpy as np
import pytest
from scipy.signal import lfilter

from conftest import FS, two_formant_voice
from rhythmkit import audio_io, cli, dsp, glottal
from rhythmkit.audio_io import AudioBuffer
from rhythmkit.errors import TooShortError, UnstableFrameError
from rhythmkit.glottal import IaifConfig, _iaif_rows, extract_glottal_flow, highpass, iaif_frame


def _band_fraction(power, freq_hz, fs, n_fft, half=3):
    b = int(round(freq_hz * n_fft / fs))
    return power[b - half : b + half + 1].sum() / power.sum()


def _spectral_flatness_db(frame):
    p = np.abs(np.fft.rfft(frame)) ** 2
    p = np.maximum(p[1:], 1e-300)  # skip DC
    return 10.0 * (np.mean(np.log10(p)) - np.log10(np.mean(p)))


def _rbj_highpass(x, fs, fc):
    """Reference 4th-order Butterworth: two audio-EQ-cookbook high-pass biquads."""
    y = np.asarray(x, dtype=np.float64)
    w0 = 2.0 * np.pi * fc / fs
    for q in (1.0 / (2.0 * np.cos(np.pi / 8.0)), 1.0 / (2.0 * np.cos(3.0 * np.pi / 8.0))):
        alpha = np.sin(w0) / (2.0 * q)
        c = np.cos(w0)
        b = np.array([(1.0 + c) / 2.0, -(1.0 + c), (1.0 + c) / 2.0])
        a = np.array([1.0 + alpha, -2.0 * c, 1.0 - alpha])
        y = lfilter(b / a[0], a / a[0], y)
    return y


class TestHighpass:
    def test_kills_dc(self):
        y = highpass(np.ones(8000), FS, 70.0)
        assert np.max(np.abs(y[4000:])) < 1e-3

    def test_passes_speech_band(self):
        t = np.arange(8000) / FS
        x = np.sin(2 * np.pi * 1000.0 * t)
        y = highpass(x, FS, 70.0)
        gain = np.sqrt(np.mean(y[2000:] ** 2) / np.mean(x[2000:] ** 2))
        assert 0.9 < gain < 1.1

    def test_matches_bilinear_butterworth(self):
        fs, fc, n = 16000, 70.0, 2**17
        impulse = np.zeros(n)
        impulse[0] = 1.0
        response = np.abs(np.fft.rfft(highpass(impulse, fs, fc)))
        bins = np.rint(np.array([17.5, 35.0, 70.0, 140.0, 1000.0]) * n / fs).astype(int)
        f = bins * fs / n
        analytic = 1.0 / np.sqrt(1.0 + (np.tan(np.pi * fc / fs) / np.tan(np.pi * f / fs)) ** 8)
        np.testing.assert_allclose(response[bins], analytic, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize(
        "x", [two_formant_voice(seconds=10.0)[0].samples, np.eye(1, FS)[0]], ids=["voice", "impulse"]
    )
    def test_matches_rbj_biquad_cascade(self, x):
        diff = np.max(np.abs(highpass(x, FS, 70.0) - _rbj_highpass(x, FS, 70.0)))
        assert diff <= 1e-12 * np.max(np.abs(x))

    def test_zero_cutoff_is_identity(self):
        x = np.linspace(-1, 1, 100)
        assert np.array_equal(highpass(x, FS, 0.0), x)


class TestIaifFrame:
    def test_all_zero_frame(self):
        cfg = IaifConfig()
        win = cfg.frame_spec(FS).win_length
        res = iaif_frame(np.zeros(win), cfg, FS)
        assert np.all(res.glottal == 0.0)
        assert np.all(res.vocal_tract.coeffs == 0.0)
        assert np.all(res.glottal_source_model.coeffs == 0.0)
        assert len(res.glottal) == win

    def test_white_noise_stays_flat(self):
        # No pole structure to remove: after compensating the fixed final
        # integrator (whose tilt is part of the pipeline by construction),
        # flatness may drop at most 3 dB.
        cfg = IaifConfig()
        win = cfg.frame_spec(FS).win_length
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(5):
            frame = rng.standard_normal(win)
            res = iaif_frame(frame, cfg, FS)
            detilted = res.glottal - cfg.lip_d * np.concatenate([[0.0], res.glottal[:-1]])
            drop = _spectral_flatness_db(frame) - _spectral_flatness_db(detilted)
            worst = max(worst, drop)
        assert worst <= 3.0

    def test_wrong_length_rejected(self):
        cfg = IaifConfig()
        with pytest.raises(ValueError):
            iaif_frame(np.zeros(10), cfg, FS)

    def test_models_minimum_phase(self):
        voice, _ = two_formant_voice()
        cfg = IaifConfig()
        spec = cfg.frame_spec(FS)
        frame = voice.samples[4000 : 4000 + spec.win_length]
        res = iaif_frame(frame, cfg, FS)
        assert np.all(np.abs(res.vocal_tract.reflections) < 1.0)
        assert res.vocal_tract.order == cfg.tract_order(FS)
        assert res.glottal_source_model.order == cfg.glottal_order


    @pytest.mark.parametrize("stage", [0, 1, 2, 3])
    def test_unstable_stage_raises(self, monkeypatch, stage):
        # Flag the frame unstable at one of the four LPC stages through the
        # batched Levinson's mask, as the utterance-level test below does.
        voice, _ = two_formant_voice()
        cfg = IaifConfig()
        frame = voice.samples[4000 : 4000 + cfg.frame_spec(FS).win_length]
        real = dsp.levinson_rows
        calls = []

        def flaky(r, order):
            rows = real(r, order)
            calls.append(order)
            if len(calls) - 1 != stage:
                return rows
            return replace(rows, coeffs=0.0 * rows.coeffs, unstable=np.ones(len(r), dtype=bool))

        monkeypatch.setattr(dsp, "levinson_rows", flaky)
        with pytest.raises(UnstableFrameError):
            iaif_frame(frame, cfg, FS)
        assert len(calls) == 4


class TestExtractGlottalFlow:
    def test_output_length_contract(self):
        voice, _ = two_formant_voice()
        cfg = IaifConfig()
        spec = cfg.frame_spec(FS)
        res = extract_glottal_flow(voice, cfg)
        n = dsp.num_frames(len(voice), spec)
        assert len(res.flow) == (n - 1) * spec.hop_length + spec.win_length
        assert res.total_frames == n
        assert res.flow.sample_rate == FS

    def test_peak_normalized(self):
        voice, _ = two_formant_voice()
        res = extract_glottal_flow(voice)
        assert np.max(np.abs(res.flow.samples)) == pytest.approx(0.95)

    def test_deterministic(self):
        voice, _ = two_formant_voice()
        a = extract_glottal_flow(voice).flow.samples
        b = extract_glottal_flow(voice).flow.samples
        assert np.array_equal(a, b)

    def test_too_short(self):
        with pytest.raises(TooShortError):
            extract_glottal_flow(AudioBuffer(samples=np.zeros(100), sample_rate=FS))

    def test_block_boundary_is_seamless(self, monkeypatch):
        # One frame past a block: the second block is integrated and padded on
        # its own, and its one frame must match the single-block run.
        spec = IaifConfig().frame_spec(FS)
        n = spec.win_length + glottal.IAIF_BLOCK_FRAMES * spec.hop_length
        samples = two_formant_voice(seconds=2.0)[0].samples[:n]
        voice = AudioBuffer(samples=samples, sample_rate=FS)
        split = extract_glottal_flow(voice)
        assert split.total_frames == glottal.IAIF_BLOCK_FRAMES + 1
        monkeypatch.setattr(glottal, "IAIF_BLOCK_FRAMES", 10 * split.total_frames)
        whole = extract_glottal_flow(voice)
        np.testing.assert_allclose(split.flow.samples, whole.flow.samples, rtol=0, atol=1e-12)

    def test_rows_do_not_leak_into_each_other(self):
        # A silent row between voiced ones: each row of the shared padded,
        # integrated block must come out as it does alone.
        cfg = IaifConfig()
        spec = cfg.frame_spec(FS)
        voice, _ = two_formant_voice()
        x = highpass(voice.samples, FS, cfg.highpass_cutoff)
        frames = dsp.frame_signal(x, dsp.FrameSpec(spec.win_length, spec.hop_length, "rect"))
        stack = np.stack([frames[20], np.zeros(spec.win_length), frames[80]])
        args = (cfg, cfg.tract_order(FS), spec.window_array())
        rows, _, _, unstable = _iaif_rows(stack, *args)
        assert not unstable.any()
        for row, got in zip(stack, rows):
            solo = _iaif_rows(row[None, :], *args)[0][0]
            scale = np.max(np.abs(solo))
            np.testing.assert_allclose(got, solo, rtol=0, atol=1e-12 * scale)
        assert np.all(rows[1] == 0.0)

    def test_formant_suppression_and_rhythm_survival(self):
        # Oracle: the synthetic construction fixes formants (700/1200 Hz) and
        # the source fundamental; measured on full-signal power spectra.
        voice, _ = two_formant_voice()
        res = extract_glottal_flow(voice, IaifConfig())
        n_fft = 16384
        p_in = np.abs(np.fft.rfft(voice.samples, n_fft)) ** 2
        p_out = np.abs(np.fft.rfft(res.flow.samples, n_fft)) ** 2
        for f in (700.0, 1200.0):
            drop_db = 10.0 * np.log10(
                _band_fraction(p_in, f, FS, n_fft) / _band_fraction(p_out, f, FS, n_fft)
            )
            assert drop_db >= 12.0
        lo, hi = int(60 * n_fft / FS), int(250 * n_fft / FS)
        assert abs(int(np.argmax(p_in[lo:hi])) - int(np.argmax(p_out[lo:hi]))) <= 1

    def test_energy_envelope_correlates(self):
        voice, _ = two_formant_voice()
        res = extract_glottal_flow(voice, IaifConfig())
        spec = dsp.FrameSpec(400, 80, "rect")
        f_in = dsp.frame_signal(voice.samples, spec)
        f_out = dsp.frame_signal(res.flow.samples, spec)
        m = min(f_in.shape[0], f_out.shape[0])
        rms_in = np.sqrt((f_in[:m] ** 2).mean(axis=1))
        rms_out = np.sqrt((f_out[:m] ** 2).mean(axis=1))
        assert np.corrcoef(rms_in, rms_out)[0, 1] >= 0.8

    def test_unstable_frames_passed_through_raw(self, monkeypatch):
        voice, _ = two_formant_voice(seconds=0.2)
        cfg = IaifConfig()
        injected = set()
        real = dsp.levinson_rows

        def flaky(r, order):
            rows = real(r, order)
            flag = np.zeros(len(r), dtype=bool)
            flag[4::5] = True
            injected.update(np.flatnonzero(flag))
            return replace(
                rows,
                coeffs=np.where(flag[:, None], 0.0, rows.coeffs),
                unstable=rows.unstable | flag,
            )

        blocks = []
        real_ola = dsp.ola_accumulate

        def recording_ola(out, frames, hop):
            blocks.append(np.array(frames))
            real_ola(out, frames, hop)

        monkeypatch.setattr(dsp, "levinson_rows", flaky)
        monkeypatch.setattr(dsp, "ola_accumulate", recording_ola)
        res = extract_glottal_flow(voice, cfg)
        assert res.unstable_frames == len(injected)
        assert res.unstable_frames > 0
        assert np.all(np.isfinite(res.flow.samples))
        # Flagged frames reach the overlap-add raw (hann-weighted highpassed input).
        spec = cfg.frame_spec(FS)
        x = highpass(voice.samples, FS, cfg.highpass_cutoff)
        raw = dsp.frame_signal(x, spec)
        frames = blocks[-1]  # the one block of frames; earlier calls build the envelope
        assert len(frames) == res.total_frames
        flagged = sorted(injected)
        assert np.array_equal(frames[flagged], raw[flagged])
        stable = np.setdiff1d(np.arange(len(frames)), flagged)
        assert not np.allclose(frames[stable], raw[stable])

    @staticmethod
    def _batch_warnings(tmp_path, caplog):
        """WARNING messages of `rhythmkit glottal` on three files, by --jobs value."""
        voice, _ = two_formant_voice(seconds=0.2)
        for i in range(3):
            audio_io.write_wav(tmp_path / f"v{i}.wav", voice)
        manifest = tmp_path / "m.tsv"
        manifest.write_text("".join(f"v{i}\tv{i}.wav\tbonafide\t-\n" for i in range(3)))
        warnings = {}
        for jobs in ("1", "2"):
            caplog.clear()
            argv = ["glottal", str(manifest), "--out", str(tmp_path / jobs), "--jobs", jobs]
            assert cli.main(argv) == 0
            warnings[jobs] = sorted(rec.getMessage() for rec in caplog.records
                                    if rec.levelno == logging.WARNING)
        return warnings

    def test_one_warning_per_utterance(self, tmp_path, monkeypatch, caplog):
        voice, _ = two_formant_voice(seconds=0.2)
        real = dsp.levinson_rows

        def all_unstable(r, order):
            rows = real(r, order)
            return replace(rows, coeffs=0.0 * rows.coeffs, unstable=np.ones(len(r), dtype=bool))

        monkeypatch.setattr(dsp, "levinson_rows", all_unstable)
        # The library counts the forced frames and logs nothing; the CLI logs per utterance.
        with caplog.at_level(logging.DEBUG):
            res = extract_glottal_flow(voice)
        assert not caplog.records
        assert res.unstable_frames == res.total_frames > 0
        want = [f"v{i}: unstable LPC in {res.total_frames} of {res.total_frames} frames; "
                "passed them through raw" for i in range(3)]
        assert self._batch_warnings(tmp_path, caplog) == {"1": want, "2": want}

    def test_no_warning_when_stable(self, tmp_path, caplog):
        voice, _ = two_formant_voice(seconds=0.2)
        with caplog.at_level(logging.DEBUG):
            assert extract_glottal_flow(voice).unstable_frames == 0
        assert not caplog.records
        assert self._batch_warnings(tmp_path, caplog) == {"1": [], "2": []}

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IaifConfig(lip_d=1.0)
        with pytest.raises(ValueError):
            IaifConfig(hop_ms=30.0, win_ms=25.0)
        with pytest.raises(ValueError):
            IaifConfig(vocal_tract_order=3, glottal_order=4).frame_spec(FS)

    @pytest.mark.parametrize("rate, key", [(8, "iaif.win_ms"), (100, "iaif.hop_ms")])
    def test_rate_too_low_names_rate_and_key(self, rate, key):
        with pytest.raises(ValueError, match=rf"{key} = .* at sample rate {rate} Hz"):
            IaifConfig().frame_spec(rate)

    def test_default_orders_follow_rate(self):
        assert IaifConfig().tract_order(16000) == 18
        assert IaifConfig().tract_order(8000) == 10
        spec = IaifConfig().frame_spec(16000)
        assert spec.win_length == 400 and spec.hop_length == 80
