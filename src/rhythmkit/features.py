"""Vocoder-facing features: log-mel spectrogram and F0 track, time-aligned.

Both extractors share one FrameSpec so mel and F0 always have the same
number of frames. Unvoiced frames carry F0 = 0.0 exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dsp
from .audio_io import AudioBuffer, FeatureBundle
from .errors import TooManyMelsError

MEL_LOG_FLOOR = 1e-10


def hz_to_mel(f: np.ndarray | float) -> np.ndarray | float:
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m: np.ndarray | float) -> np.ndarray | float:
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@dataclass(frozen=True)
class FeatureConfig:
    win_length: int = 1024
    hop_length: int = 256
    n_mels: int = 80
    fmin: float = 0.0
    fmax: float | None = None  # None -> Nyquist
    f0_min: float = 50.0
    f0_max: float = 500.0
    voicing_threshold: float = 0.3

    def __post_init__(self) -> None:
        dsp.check_field_types(self)
        # FrameSpec checks win_length and hop_length.  The window is the FFT
        # frame, and Griffin-Lim's objective counts the last rfft bin once, as
        # a Nyquist bin, which only an even frame has.
        if self.frame.win_length % 2:
            raise ValueError(f"win_length must be even, got {self.win_length}")
        if self.n_mels < 1:
            raise ValueError(f"n_mels must be positive, got {self.n_mels}")
        if self.n_mels > self.win_length // 2 + 1:  # centres are distinct bins in [0, win/2]
            raise ValueError(f"n_mels must be at most win_length // 2 + 1, got {self.n_mels}")
        if self.fmin < 0.0:
            raise ValueError(f"fmin must be nonnegative, got {self.fmin}")
        if self.fmax is not None and self.fmax <= self.fmin:  # Nyquist is checked per file
            raise ValueError(f"fmax must exceed fmin, got [{self.fmin}, {self.fmax}]")
        if not 0.0 < self.f0_min < self.f0_max:
            raise ValueError(f"need 0 < f0_min < f0_max, got [{self.f0_min}, {self.f0_max}]")
        if not 0.0 < self.voicing_threshold < 1.0:
            raise ValueError(f"voicing_threshold must lie in (0,1), got {self.voicing_threshold}")

    @property
    def frame(self) -> dsp.FrameSpec:
        return dsp.FrameSpec(self.win_length, self.hop_length)

    def effective_fmax(self, sample_rate: int) -> float:
        nyquist = sample_rate / 2.0
        fmax = nyquist if self.fmax is None else self.fmax
        if not self.fmin < fmax <= nyquist:
            raise ValueError(f"need fmin < fmax <= Nyquist, got [{self.fmin}, {fmax}] at fs={sample_rate}")
        return fmax


def stft_magnitude(audio: AudioBuffer, cfg: FeatureConfig) -> np.ndarray:
    """Magnitude spectrogram of Hann-weighted frames, shape (n_frames, win_length//2 + 1)."""
    spec = cfg.frame
    return np.abs(np.fft.rfft(dsp.frame_signal(audio.samples, spec) * spec.window_array()))


def mel_filterbank(cfg: FeatureConfig, sample_rate: int) -> np.ndarray:
    """Triangular mel filters, shape (n_mels, win_length//2 + 1), each peaking at 1."""
    fmax = cfg.effective_fmax(sample_rate)
    win = cfg.win_length
    mel_pts = np.linspace(hz_to_mel(cfg.fmin), hz_to_mel(fmax), cfg.n_mels + 2)
    hz_pts = np.asarray(mel_to_hz(mel_pts))
    center_bins = np.rint(hz_pts[1:-1] * win / sample_rate).astype(int)
    if np.any(np.diff(center_bins) < 1):
        raise TooManyMelsError(
            f"{cfg.n_mels} filters over [{cfg.fmin}, {fmax}] Hz collide on the "
            f"{win}-point DFT grid"
        )
    freqs = np.arange(win // 2 + 1) * (sample_rate / win)
    lower, center, upper = hz_pts[:-2], hz_pts[1:-1], hz_pts[2:]
    rising = (freqs[None, :] - lower[:, None]) / (center - lower)[:, None]
    falling = (upper[:, None] - freqs[None, :]) / (upper - center)[:, None]
    fb = np.maximum(0.0, np.minimum(rising, falling))
    return fb / fb.max(axis=1, keepdims=True)


def mel_spectrogram(audio: AudioBuffer, cfg: FeatureConfig) -> np.ndarray:
    """log(max(filterbank @ power_spectrum, floor)) per frame, shape (n_frames, n_mels)."""
    power = stft_magnitude(audio, cfg) ** 2
    fb = mel_filterbank(cfg, audio.sample_rate)
    return np.log(np.maximum(power @ fb.T, MEL_LOG_FLOOR))


def estimate_f0(audio: AudioBuffer, cfg: FeatureConfig) -> np.ndarray:
    """Autocorrelation F0 track with parabolic lag refinement.

    Frames are raw (unwindowed) slices on the config's framing grid.  A frame
    is unvoiced (0.0) when the normalized autocorrelation peak over the
    admissible lag range stays below the voicing threshold.
    """
    fs = audio.sample_rate
    spec = cfg.frame
    frames = dsp.frame_signal(audio.samples, spec)
    lag_lo = max(1, int(np.ceil(fs / cfg.f0_max)))
    lag_hi = min(int(np.floor(fs / cfg.f0_min)), spec.win_length - 1)
    n = frames.shape[0]
    if lag_lo > lag_hi:
        return np.zeros(n)
    r = dsp.autocorrelation(frames, lag_hi, min_lag=lag_lo)
    voiced = r[:, 0] > 0.0
    rho = r / np.where(voiced, r[:, 0], 1.0)[:, None]
    k = lag_lo + np.argmax(rho[:, lag_lo : lag_hi + 1], axis=1)
    rows = np.arange(n)
    peak = rho[rows, k]
    voiced &= peak >= cfg.voicing_threshold
    # Parabolic refinement through the peak and its neighbours, interior lags only.
    interior = (lag_lo < k) & (k < lag_hi)
    y_prev = rho[rows, np.where(interior, k - 1, k)]
    y_next = rho[rows, np.where(interior, k + 1, k)]
    denom = y_prev - 2.0 * peak + y_next
    refine = interior & (denom != 0.0)
    delta = np.where(refine, 0.5 * (y_prev - y_next) / np.where(refine, denom, 1.0), 0.0)
    f0 = np.clip(fs / (k + delta), cfg.f0_min, cfg.f0_max)
    return np.where(voiced, f0, 0.0)


def extract_features(audio: AudioBuffer, cfg: FeatureConfig) -> FeatureBundle:
    """Mel spectrogram + F0 on one framing grid; frame counts match by construction."""
    mel = mel_spectrogram(audio, cfg)
    f0 = estimate_f0(audio, cfg)
    return FeatureBundle(
        mel=mel,
        f0=f0,
        sample_rate=float(audio.sample_rate),
        hop_length=cfg.hop_length,
        win_length=cfg.win_length,
    )
