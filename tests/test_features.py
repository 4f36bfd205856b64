import numpy as np
import pytest

from conftest import FS, sine
from rhythmkit import audio_io, dsp
from rhythmkit.audio_io import AudioBuffer
from rhythmkit.errors import TooManyMelsError, TooShortError
from rhythmkit.features import (
    MEL_LOG_FLOOR,
    FeatureConfig,
    estimate_f0,
    extract_features,
    hz_to_mel,
    mel_filterbank,
    mel_spectrogram,
    stft_magnitude,
)


class TestStft:
    def test_bin_centered_sine_peaks_at_its_bin(self):
        k = 32
        freq = k * FS / 1024
        mags = stft_magnitude(sine(freq), FeatureConfig())
        assert np.all(np.argmax(mags, axis=1) == k)

    def test_zero_signal(self):
        buf = AudioBuffer(samples=np.zeros(4096), sample_rate=FS)
        assert np.all(stft_magnitude(buf, FeatureConfig()) == 0.0)

    def test_parseval_per_frame(self):
        # Oracle: direct time-domain energy of the windowed frame.
        rng = np.random.default_rng(0)
        buf = AudioBuffer(samples=rng.uniform(-1, 1, 4096), sample_rate=FS)
        cfg = FeatureConfig()
        mags = stft_magnitude(buf, cfg)
        frames = dsp.frame_signal(buf.samples, cfg.frame) * cfg.frame.window_array()
        for i in range(frames.shape[0]):
            freq_energy = mags[i, 0] ** 2 + mags[i, -1] ** 2 + 2.0 * np.sum(mags[i, 1:-1] ** 2)
            time_energy = cfg.win_length * np.sum(frames[i] ** 2)
            assert freq_energy == pytest.approx(time_energy, rel=1e-6)

    def test_too_short(self):
        with pytest.raises(TooShortError):
            stft_magnitude(AudioBuffer(samples=np.zeros(100), sample_rate=FS), FeatureConfig())


class TestMelFilterbank:
    def test_shape_and_support(self):
        fb = mel_filterbank(FeatureConfig(), FS)
        assert fb.shape == (80, 513)
        assert np.all(fb.max(axis=1) == 1.0)
        assert np.all(fb.sum(axis=1) > 0.0)

    def test_column_sums_bounded(self):
        fb = mel_filterbank(FeatureConfig(), FS)
        assert np.all(fb.sum(axis=0) <= 2.0 + 1e-12)

    def test_mel_scale_formula(self):
        assert hz_to_mel(700.0) == pytest.approx(2595.0 * np.log10(2.0))
        assert float(hz_to_mel(700.0)) == pytest.approx(781.17, abs=0.01)

    def test_too_many_mels(self):
        with pytest.raises(TooManyMelsError):
            mel_filterbank(FeatureConfig(n_mels=400), FS)

    def test_fmax_validation(self):
        with pytest.raises(ValueError):
            mel_filterbank(FeatureConfig(fmax=9000.0), FS)


class TestMelSpectrogram:
    def test_zero_signal_floors(self):
        buf = AudioBuffer(samples=np.zeros(4096), sample_rate=FS)
        mel = mel_spectrogram(buf, FeatureConfig())
        assert np.all(mel == np.log(MEL_LOG_FLOOR))

    def test_power_homogeneity(self):
        buf = sine(440.0)
        doubled = AudioBuffer(samples=2.0 * buf.samples, sample_rate=FS)
        cfg = FeatureConfig()
        a = mel_spectrogram(buf, cfg)
        b = mel_spectrogram(doubled, cfg)
        above = a > np.log(MEL_LOG_FLOOR) + 1e-9
        assert np.allclose(b[above] - a[above], np.log(4.0), atol=1e-9)

    def test_sine_lands_in_nearest_band(self):
        # Oracle: band centers recomputed from the mel-spacing formula.
        cfg = FeatureConfig()
        mel = mel_spectrogram(sine(1000.0), cfg)
        pts = np.linspace(hz_to_mel(cfg.fmin), hz_to_mel(FS / 2.0), cfg.n_mels + 2)
        centers_hz = 700.0 * (10.0 ** (pts[1:-1] / 2595.0) - 1.0)
        expected = int(np.argmin(np.abs(centers_hz - 1000.0)))
        assert np.all(np.argmax(mel, axis=1) == expected)

    def test_never_below_floor_never_nan(self):
        rng = np.random.default_rng(1)
        buf = AudioBuffer(samples=rng.uniform(-1, 1, 8000), sample_rate=FS)
        mel = mel_spectrogram(buf, FeatureConfig())
        assert np.all(np.isfinite(mel))
        assert np.all(mel >= np.log(MEL_LOG_FLOOR))


class TestEstimateF0:
    def test_pure_tone(self):
        f0 = estimate_f0(sine(220.0), FeatureConfig())
        interior = f0[1:-1]
        assert np.all(np.abs(interior - 220.0) <= 2.0)

    def test_white_noise_mostly_unvoiced(self):
        rng = np.random.default_rng(11)
        buf = AudioBuffer(samples=0.3 * rng.standard_normal(FS), sample_rate=FS)
        f0 = estimate_f0(buf, FeatureConfig())
        assert np.mean(f0 == 0.0) >= 0.9

    def test_silence_unvoiced(self):
        buf = AudioBuffer(samples=np.zeros(4096), sample_rate=FS)
        assert np.all(estimate_f0(buf, FeatureConfig()) == 0.0)

    def test_no_admissible_lag_is_unvoiced(self):
        # At 8 kHz no integer lag lies in [8000/402, 8000/401] = [19.9, 19.95].
        f0 = estimate_f0(sine(400.0, fs=8000), FeatureConfig(f0_min=401.0, f0_max=402.0))
        assert len(f0) > 0 and np.all(f0 == 0.0)

    def test_range_invariant(self):
        rng = np.random.default_rng(12)
        cfg = FeatureConfig()
        for freq in (70.0, 150.0, 333.0, 480.0):
            mix = sine(freq).samples + 0.05 * rng.standard_normal(FS)
            f0 = estimate_f0(AudioBuffer(samples=mix, sample_rate=FS), cfg)
            voiced = f0[f0 > 0.0]
            assert np.all((voiced >= cfg.f0_min) & (voiced <= cfg.f0_max))


class TestExtractFeatures:
    def test_frame_counts_match(self):
        bundle = extract_features(sine(220.0), FeatureConfig())
        assert bundle.mel.shape[0] == bundle.f0.shape[0]

    def test_expected_frame_count(self):
        bundle = extract_features(sine(220.0, seconds=1.0), FeatureConfig())
        assert bundle.n_frames == 1 + (16000 - 1024) // 256  # 59

    def test_survives_file_round_trip(self, tmp_path):
        bundle = extract_features(sine(180.0), FeatureConfig())
        path = tmp_path / "x.rfb"
        audio_io.write_features(path, bundle)
        assert audio_io.read_features(path) == bundle

    def test_hop_delay_shifts_frames(self):
        cfg = FeatureConfig()
        rng = np.random.default_rng(5)
        x = rng.uniform(-0.5, 0.5, 8192)
        a = mel_spectrogram(AudioBuffer(samples=x, sample_rate=FS), cfg)
        delayed = np.concatenate([np.zeros(cfg.frame.hop_length), x])
        b = mel_spectrogram(AudioBuffer(samples=delayed, sample_rate=FS), cfg)
        n = min(a.shape[0], b.shape[0] - 1)
        assert np.allclose(b[1 : 1 + n], a[:n], atol=1e-8)

    def test_metadata_copied(self):
        cfg = FeatureConfig()
        bundle = extract_features(sine(220.0), cfg)
        assert bundle.sample_rate == float(FS)
        assert bundle.hop_length == cfg.frame.hop_length
        assert bundle.win_length == cfg.frame.win_length

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FeatureConfig(win_length=1023)  # the window is the FFT frame and must be even
        with pytest.raises(ValueError):
            FeatureConfig(f0_min=300.0, f0_max=200.0)
        with pytest.raises(ValueError):
            FeatureConfig(voicing_threshold=1.5)
