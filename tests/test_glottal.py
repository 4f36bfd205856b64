import logging
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from conftest import FS, two_formant_voice
from rhythmkit import audio_io, cli, dsp, glottal
from rhythmkit.audio_io import AudioBuffer
from rhythmkit.errors import TooShortError, UnstableFrameError
from rhythmkit.glottal import IaifConfig, _iaif, extract_glottal_flow, highpass, iaif_frame


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


def _reference_flow(x, cfg, unstable_at):
    """Per-frame IAIF from the 1-D kernels, as extract_glottal_flow without its
    high-pass: each frame integrated alone, one dsp.levinson_durbin model per
    stage (a silent stage input gets the identity model), frames in
    unstable_at or whose Levinson raises passed through raw, then a hann
    overlap-add one frame at a time (not dsp's shifted sum) and peak
    normalisation.  Returns (flow, unstable frames)."""
    spec = cfg.frame_spec(FS)
    p, w = cfg.tract_order(FS), spec.window_array()

    def lpc(y, order):
        r = dsp.autocorrelation(y * w, order)
        if not r[0] > 0.0:
            return dsp.LpcModel(np.zeros(order), 0.0)
        return dsp.levinson_durbin(r, order)

    frames = dsp.frame_signal(x, spec)
    out = np.zeros((len(frames) - 1) * spec.hop_length + spec.win_length)
    env = np.zeros_like(out)
    unstable = 0
    for i, frame in enumerate(frames):
        integrated = dsp.leaky_integrate(frame, cfg.lip_d)
        try:
            if i in unstable_at:
                raise UnstableFrameError(f"frame {i} flagged")
            vt1 = lpc(dsp.inverse_filter(frame, lpc(frame, 1)), p)
            source = lpc(dsp.inverse_filter(integrated, vt1), cfg.glottal_order)
            vt2 = lpc(dsp.inverse_filter(integrated, source), p)
            row = dsp.inverse_filter(integrated, vt2)
        except UnstableFrameError:
            row, unstable = frame, unstable + 1
        at = slice(i * spec.hop_length, i * spec.hop_length + spec.win_length)
        out[at] += row * w
        env[at] += w
    return dsp.peak_normalize(out / np.maximum(env, dsp.OLA_ENVELOPE_FLOOR)), unstable


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


class TestIntegratedFrames:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.9, 0.99, 0.999]),
        st.integers(32, 400),
        st.floats(0.01, 1.0),
        st.integers(1, 40),
        st.integers(0, 200),
        st.integers(1, 16),
    )
    def test_match_integrating_each_frame(self, seed, lip_d, win, hop_frac, frames, tail, chunk):
        # Every frame's integral derived from the whole-signal integral, written
        # chunk by chunk into rows with zero history columns in front as IAIF's
        # buffer has them, equals dsp.leaky_integrate of that frame alone.  The
        # derivation rounds at about eps * |integral[s-1]|; windows start at 32
        # samples (IAIF's are hundreds), as a frame of a few samples can sit
        # far enough below the integral carried into it to exceed 1e-12 of it.
        hop = max(1, int(hop_frac * win))
        spec = dsp.FrameSpec(win, hop)
        x = np.random.default_rng(seed).standard_normal((frames - 1) * hop + win + tail)
        fill = glottal._integrated_frames(dsp.leaky_integrate(x, lip_d), spec, lip_d)
        alone = dsp.leaky_integrate(dsp.frame_signal(x, spec), lip_d)
        derived = np.zeros((len(alone), 3 + win))[:, 3:]
        for lo in range(0, len(alone), chunk):
            fill(derived[lo : lo + chunk], lo)
        scale = np.max(np.abs(alone), axis=1, keepdims=True)
        assert np.all(np.abs(derived - alone) <= 1e-12 * scale)


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
        assert len(res.vocal_tract.coeffs) == cfg.tract_order(FS)
        assert len(res.glottal_source_model.coeffs) == cfg.glottal_order


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
        n = 1 + (len(voice) - spec.win_length) // spec.hop_length
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
        # One frame past a block: the second chunk's autocorrelation and filter
        # stacks hold that one frame, in the buffer the first chunk used, and it
        # must match the single-chunk run.
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
        # A silent frame beside voiced ones: each frame of the utterance, whose
        # chunks share one buffer and whose stages share one Levinson call,
        # must come out as it does alone with the same integrated frame.
        cfg = IaifConfig()
        spec = cfg.frame_spec(FS)
        x = highpass(two_formant_voice()[0].samples, FS, cfg.highpass_cutoff)
        x[: spec.win_length] = 0.0
        integral = dsp.leaky_integrate(x, cfg.lip_d)
        args = (cfg, spec, cfg.tract_order(FS))
        _, _, unstable, chunks = _iaif(x, integral, *args)
        rows = np.concatenate([g for _, g in chunks])
        assert not unstable.any()
        raw = dsp.frame_signal(x, spec)
        integrated = np.empty_like(raw)
        glottal._integrated_frames(integral, spec, cfg.lip_d)(integrated, 0)
        for frame, own, got in zip(raw, integrated, rows):
            solo = next(_iaif(frame, own, *args)[3])[1][0]
            scale = np.max(np.abs(solo))
            np.testing.assert_allclose(got, solo, rtol=0, atol=1e-12 * scale)
        assert np.all(rows[0] == 0.0)

    def test_matches_per_frame_reference_over_blocks(self, monkeypatch):
        # Two and a half blocks of white noise with a run of exact zeros across
        # the first block boundary (no high-pass, so the zeros stay exact), and
        # unstable frames flagged at different stages in two blocks.  White
        # noise keeps the LPC normal equations well conditioned, so the frames
        # integrated from the whole-signal integral and those integrated alone
        # give flows within rounding.  On formant-shaped input the near-singular
        # equations amplify the integrals' last-bit differences to about 1e-11
        # of the peak (a 3.5 s two-formant voice); the goldens bound that at 1e-9.
        cfg = IaifConfig(highpass_cutoff=0.0)
        spec = cfg.frame_spec(FS)
        x = np.random.default_rng(3).standard_normal(56000)
        x[20000:23000] = 0.0
        n = 1 + (len(x) - spec.win_length) // spec.hop_length
        assert n >= 2.5 * glottal.IAIF_BLOCK_FRAMES
        ref, ref_unstable = _reference_flow(x, cfg, {40, 300})
        real = dsp.levinson_rows
        flagged = iter([[40], [], [], [300]])

        def flaky(r, order):
            rows = real(r, order)
            flag = np.zeros(len(r), dtype=bool)
            flag[next(flagged)] = True
            return replace(rows, coeffs=np.where(flag[:, None], 0.0, rows.coeffs),
                           unstable=rows.unstable | flag)

        monkeypatch.setattr(dsp, "levinson_rows", flaky)
        res = extract_glottal_flow(AudioBuffer(x, FS), cfg)
        assert res.unstable_frames == ref_unstable >= 2
        np.testing.assert_allclose(res.flow.samples, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))

    def test_one_levinson_per_stage_and_one_integral_per_utterance(self, monkeypatch):
        spec = IaifConfig().frame_spec(FS)
        n = spec.win_length + 3 * glottal.IAIF_BLOCK_FRAMES * spec.hop_length
        voice = AudioBuffer(two_formant_voice(seconds=4.0)[0].samples[:n], FS)
        calls = {"levinson_rows": 0, "leaky_integrate": 0}
        for name in calls:
            real = getattr(dsp, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(dsp, name, counted)
        res = extract_glottal_flow(voice)
        assert res.total_frames > 3 * glottal.IAIF_BLOCK_FRAMES
        assert calls == {"levinson_rows": 4, "leaky_integrate": 1}

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
        spec = dsp.FrameSpec(400, 80)
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

        chunks = []
        real_ola = dsp.ola_accumulate

        def recording_ola(out, frames, hop):
            chunks.append(np.array(frames))
            real_ola(out, frames, hop)

        monkeypatch.setattr(dsp, "levinson_rows", flaky)
        monkeypatch.setattr(dsp, "ola_accumulate", recording_ola)
        monkeypatch.setattr(glottal, "IAIF_BLOCK_FRAMES", 8)
        res = extract_glottal_flow(voice, cfg)
        assert res.unstable_frames == len(injected)
        assert res.unstable_frames > 0
        assert np.all(np.isfinite(res.flow.samples))
        # Flagged frames reach the overlap-add raw (hann-weighted highpassed input).
        spec = cfg.frame_spec(FS)
        x = highpass(voice.samples, FS, cfg.highpass_cutoff)
        raw = dsp.frame_signal(x, spec) * spec.window_array()
        frames = np.concatenate(chunks[:-1])  # chunks of 8 frames; the last call is the envelope
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
            IaifConfig(vocal_tract_order=3, glottal_order=4).frame_spec(FS)
        # A non-finite value must fail here: frame_spec would overflow on it, and
        # highpass would take an argmin of nothing behind scipy warnings.
        for key, value in [("hop_ms", 30.0), ("win_ms", np.inf), ("win_ms", np.nan),
                           ("hop_ms", np.nan), ("highpass_cutoff", np.inf),
                           ("highpass_cutoff", np.nan)]:
            with pytest.raises(ValueError, match=key):
                IaifConfig(**{key: value})

    @pytest.mark.parametrize("rate, key", [(8, "iaif.win_ms"), (100, "iaif.hop_ms")])
    def test_rate_too_low_names_rate_and_key(self, rate, key):
        with pytest.raises(ValueError, match=rf"{key} = .* at sample rate {rate} Hz"):
            IaifConfig().frame_spec(rate)

    def test_default_orders_follow_rate(self):
        assert IaifConfig().tract_order(16000) == 18
        assert IaifConfig().tract_order(8000) == 10
        spec = IaifConfig().frame_spec(16000)
        assert spec.win_length == 400 and spec.hop_length == 80
