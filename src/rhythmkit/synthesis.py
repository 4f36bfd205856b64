"""Desk-scale copy-synthesis: mel inversion plus iterative phase estimation.

Stands in for a neural vocoder so the augmentation loop closes locally; the
F0 track is kept for external vocoders that want it. Under RPM, apply_plan
resamples it with the mel and zeroes values below f0_floor, so a voicing edge
can carry a pitch no input frame had (ROADMAP item 15).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dsp
from .audio_io import AudioBuffer
from .errors import ShapeMismatchError
from .features import FeatureBundle, FeatureConfig, extract_features, mel_filterbank
from .rpm import RpmConfig, SegmentPlan, rhythm_perturb

# Tikhonov weight for the mel pseudo-inverse, scaled by the mean diagonal
# energy of filterbank @ filterbank.T.
MEL_INV_LAMBDA = 1e-5


@dataclass(frozen=True)
class GriffinLimConfig:
    n_iters: int = 60

    def __post_init__(self) -> None:
        dsp.check_field_types(self)
        if self.n_iters < 1:
            raise ValueError(f"n_iters must be >= 1, got {self.n_iters}")


@dataclass(frozen=True, eq=False)  # a generated == would compare arrays
class GriffinLimResult:
    audio: AudioBuffer
    # Spectral distance || |STFT(x_k)| - target || after each iteration,
    # objective[0] being the initial waveform's distance.
    objective: np.ndarray


@dataclass(frozen=True, eq=False)  # identity ==, like the AudioBuffer it holds
class CopySynthesisResult:
    audio: AudioBuffer
    plan: SegmentPlan | None
    features: FeatureBundle


def mel_to_linear(mel: np.ndarray, filterbank: np.ndarray) -> np.ndarray:
    """Invert log-mel frames to linear magnitude frames.

    Solves the underdetermined power reconstruction with a Tikhonov-regularized
    pseudo-inverse of the filterbank, clips negatives to zero and takes the
    square root (power -> magnitude).
    """
    mel = np.asarray(mel, dtype=np.float64)
    fb = np.asarray(filterbank, dtype=np.float64)
    if mel.ndim != 2 or mel.shape[1] != fb.shape[0]:
        raise ShapeMismatchError(
            f"mel frames of shape {mel.shape} do not match filterbank with {fb.shape[0]} bands"
        )
    gram = fb @ fb.T
    lam = MEL_INV_LAMBDA * np.trace(gram) / fb.shape[0]
    weights = np.linalg.solve(gram + lam * np.eye(fb.shape[0]), np.exp(mel).T)
    power = np.maximum(fb.T @ weights, 0.0)
    return np.sqrt(power).T


def griffin_lim(
    magnitudes: np.ndarray,
    spec: dsp.FrameSpec,
    cfg: GriffinLimConfig,
    sample_rate: int,
) -> GriffinLimResult:
    """Classic momentum-free alternating projection onto the target magnitudes.

    The spectral distance || |STFT(x_k)| - M ||_F is non-increasing across
    iterations; the final waveform is peak-normalized to 0.95.
    """
    # C order like the buffers below: mel_to_linear returns a transposed
    # view, and mixed layouts slow every elementwise step of the loop.
    target = np.ascontiguousarray(magnitudes, dtype=np.float64)
    if target.ndim != 2 or target.shape[0] == 0:
        raise ShapeMismatchError(f"magnitudes must be a 2-D frame stack, got shape {target.shape}")
    if not np.all(np.isfinite(target)) or np.any(target < 0.0):
        raise ValueError("magnitudes must be finite and nonnegative")
    win, hop = spec.win_length, spec.hop_length
    # The window is the FFT frame; the objective's Nyquist bin needs it even.
    if win % 2 or target.shape[1] != win // 2 + 1:
        raise ShapeMismatchError(
            f"need an even win_length and win_length//2 + 1 bins, "
            f"got {target.shape[1]} bins for win_length {win}"
        )
    # Least-squares inverse STFT: frames weighted once more by the window,
    # over the squared-window envelope (computed once for every iteration).
    # This is the projection Griffin-Lim's convergence proof needs.
    w = spec.window_array()
    envelope = dsp.ola_envelope(spec, target.shape[0], window_power=2)
    # Every iteration reuses these buffers; x's analysis frames are a view of x.
    frames = np.empty((target.shape[0], win))
    spectra = np.empty(target.shape, dtype=np.complex128)
    mags = np.empty_like(target)
    scratch = np.empty_like(target)
    x = np.empty_like(envelope)
    x_frames = dsp.frame_signal(x, spec)

    spectra[...] = target  # zero initial phase
    objective = np.empty(cfg.n_iters + 1)
    for it in range(cfg.n_iters + 1):
        np.fft.irfft(spectra, n=win, axis=1, out=frames)
        frames *= w
        x.fill(0.0)
        dsp.ola_accumulate(x, frames, hop)
        x /= envelope
        np.multiply(x_frames, w, out=frames)
        np.fft.rfft(frames, axis=1, out=spectra)
        np.abs(spectra, out=mags)
        # Interior rfft bins double-weighted: the full-spectrum Frobenius norm.
        # Per-row dots keep each BLAS call below OpenBLAS's threading size.
        d = np.subtract(mags, target, out=scratch)
        edges = np.vecdot(d[:, 0], d[:, 0]) + np.vecdot(d[:, -1], d[:, -1])
        objective[it] = np.sqrt(2.0 * np.vecdot(d, d).sum() - edges)
        if it == cfg.n_iters:
            break
        # Keep measured phase, impose target magnitude: a real rescale in
        # place; zero bins have no phase and take the target as is.
        np.maximum(mags, 1e-300, out=scratch)
        np.divide(target, scratch, out=scratch)
        spectra *= scratch
        np.copyto(spectra, target, where=mags == 0.0)
    audio = AudioBuffer(samples=dsp.peak_normalize(x), sample_rate=sample_rate)
    return GriffinLimResult(audio=audio, objective=objective)


def copy_synthesize(
    audio: AudioBuffer,
    feat_cfg: FeatureConfig,
    rpm_cfg: RpmConfig | None,
    gl_cfg: GriffinLimConfig,
    utt_id: str,
) -> CopySynthesisResult:
    """Re-synthesize an utterance from its own features, optionally passing the
    feature timeline through the rhythm perturbation module first.

    Returns the audio, the segment plan (None without RPM) and the features
    actually rendered, so callers can serialize all three.
    """
    bundle = extract_features(audio, feat_cfg)
    plan = None
    if rpm_cfg is not None:
        bundle, plan = rhythm_perturb(bundle, rpm_cfg, utt_id, f0_floor=feat_cfg.f0_min)
    fb = mel_filterbank(feat_cfg, audio.sample_rate)
    magnitudes = mel_to_linear(bundle.mel, fb)
    result = griffin_lim(magnitudes, feat_cfg.frame, gl_cfg, audio.sample_rate)
    return CopySynthesisResult(audio=result.audio, plan=plan, features=bundle)
