"""Glottal flow estimation by iterative adaptive inverse filtering.

Per frame, alternating low-order source and high-order vocal-tract LPC
estimates strip the vocal tract and lip radiation from the speech signal
(IAIF, Alku 1992); the residual source frames are hann-weighted and
overlap-added into one utterance-level glottal flow.  Every stage runs as one
array operation over a block of frames; as integration and inverse filtering
commute, each block is integrated once, not once per integrating stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from . import dsp
from .audio_io import AudioBuffer
from .errors import UnstableFrameError

# Frames per IAIF block: bounds the per-stage frame stacks, so peak memory does
# not grow with utterance length beyond the output itself.
IAIF_BLOCK_FRAMES = 256


@dataclass(frozen=True)
class IaifConfig:
    """Analysis settings; framing is in milliseconds so one config serves any rate.

    vocal_tract_order None resolves to round(2 + sample_rate/1000).
    """

    vocal_tract_order: int | None = None
    glottal_order: int = 4
    lip_d: float = 0.99
    win_ms: float = 25.0
    hop_ms: float = 5.0
    highpass_cutoff: float = 70.0

    def __post_init__(self) -> None:
        if not 0.0 < self.lip_d < 1.0:
            raise ValueError(f"lip_d must lie in (0, 1), got {self.lip_d}")
        if self.glottal_order < 1:
            raise ValueError(f"glottal_order must be positive, got {self.glottal_order}")
        if self.vocal_tract_order is not None and self.vocal_tract_order <= self.glottal_order:
            raise ValueError(
                f"need glottal_order < vocal_tract_order, "
                f"got g={self.glottal_order} p={self.vocal_tract_order}"
            )
        if self.win_ms <= 0 or self.hop_ms <= 0 or self.hop_ms > self.win_ms:
            raise ValueError(f"need 0 < hop_ms <= win_ms, got hop={self.hop_ms} win={self.win_ms}")
        if self.highpass_cutoff < 0:
            raise ValueError(f"highpass_cutoff must be nonnegative, got {self.highpass_cutoff}")

    def tract_order(self, sample_rate: int) -> int:
        p = self.vocal_tract_order
        if p is None:
            p = int(round(2 + sample_rate / 1000.0))
        return p

    def frame_spec(self, sample_rate: int) -> dsp.FrameSpec:
        win = int(round(self.win_ms * sample_rate / 1000.0))
        hop = int(round(self.hop_ms * sample_rate / 1000.0))
        for key, ms, n in (("win_ms", self.win_ms, win), ("hop_ms", self.hop_ms, hop)):
            if n < 1:
                raise ValueError(
                    f"iaif.{key} = {ms} rounds to 0 samples at sample rate {sample_rate} Hz"
                )
        spec = dsp.FrameSpec(win, hop)
        p = self.tract_order(sample_rate)
        if not 0 < self.glottal_order < p < win:
            raise ValueError(
                f"need 0 < glottal_order < vocal_tract_order < win_length, "
                f"got g={self.glottal_order} p={p} win={win}"
            )
        return spec


@dataclass(frozen=True, eq=False)  # a generated == would compare arrays
class GlottalFrameResult:
    glottal: np.ndarray
    vocal_tract: dsp.LpcModel
    glottal_source_model: dsp.LpcModel


@dataclass(frozen=True, eq=False)  # identity ==, like the AudioBuffer it holds
class GlottalFlowResult:
    flow: AudioBuffer
    unstable_frames: int
    total_frames: int


@cache
def _highpass_sos(sample_rate: int, cutoff: float) -> np.ndarray:
    from scipy.signal import butter

    return butter(4, cutoff, "highpass", fs=sample_rate, output="sos")


def highpass(x: np.ndarray, sample_rate: int, cutoff: float) -> np.ndarray:
    """4th-order Butterworth high-pass from zero state, designed once per rate and cutoff."""
    if cutoff <= 0.0:
        return np.asarray(x, dtype=np.float64).copy()
    if cutoff >= sample_rate / 2.0:
        raise ValueError(f"cutoff {cutoff} Hz must be below Nyquist ({sample_rate / 2} Hz)")
    from scipy.signal import sosfilt

    return sosfilt(_highpass_sos(sample_rate, cutoff), np.asarray(x, dtype=np.float64))


def _lpc_rows(frames: np.ndarray, window: np.ndarray, order: int) -> dsp.LpcRows:
    """LPC model of each row: windowed autocorrelation analysis.

    Silent rows (zero energy) get the zero-coefficient identity model, so the
    surrounding stage sequence degrades to a pass-through.
    """
    return dsp.levinson_rows(dsp.autocorrelation(frames * window, order), order)


def _iaif_rows(
    frames: np.ndarray, cfg: IaifConfig, tract_order: int, window: np.ndarray
) -> tuple[np.ndarray, dsp.LpcRows, dsp.LpcRows, np.ndarray]:
    """IAIF on a (rows, win) stack of raw frames, every stage over all rows.

    The block is zero-padded once with tract_order columns of history (which
    stay exactly zero under the integrator) and integrated once: inverse
    filter and leaky integrator are linear and time-invariant from zero
    state, so they commute, and each stage slices the history it needs.

    Returns the glottal rows, the final vocal-tract and glottal-source
    models, and the mask of rows whose LPC went unstable at some stage; an
    unstable row's models are zeroed from that stage on, so its glottal row
    is finite but meaningless.
    """
    padded = np.pad(frames, ((0, 0), (tract_order, 0)))
    integrated = dsp.leaky_integrate(padded, cfg.lip_d)
    tilt = _lpc_rows(frames, window, 1)
    y1 = dsp.inverse_filter_rows(padded[:, tract_order - 1 :], tilt.coeffs)

    vt1 = _lpc_rows(y1, window, tract_order)
    del y1
    g1 = dsp.inverse_filter_rows(integrated, vt1.coeffs)

    source = _lpc_rows(g1, window, cfg.glottal_order)
    del g1
    y2 = dsp.inverse_filter_rows(integrated[:, tract_order - cfg.glottal_order :], source.coeffs)

    vt2 = _lpc_rows(y2, window, tract_order)
    del y2
    glottal = dsp.inverse_filter_rows(integrated, vt2.coeffs)

    unstable = tilt.unstable | vt1.unstable | source.unstable | vt2.unstable
    return glottal, vt2, source, unstable


def iaif_frame(frame: np.ndarray, cfg: IaifConfig, sample_rate: int) -> GlottalFrameResult:
    """Estimate one frame's glottal source and the models that produced it.

    Stage sequence (models estimated on the windowed frame, filtering applied
    to the raw frame, or to the raw frame integrated once, since inverse
    filtering and integration commute):
      1. order-1 LPC on the input, inverse filter: coarse tilt removal
      2. order-p LPC on (1), inverse filter integrated input: first source estimate
      3. order-g LPC on (2), inverse filter integrated input: tilt-free signal
      4. order-p LPC on (3) = final vocal tract; inverse filter integrated
         input: glottal flow

    Raises UnstableFrameError when any LPC stage goes non-minimum-phase.
    """
    x = np.asarray(frame, dtype=np.float64)
    spec = cfg.frame_spec(sample_rate)
    if x.shape != (spec.win_length,):
        raise ValueError(f"frame shape {x.shape} != ({spec.win_length},)")
    glottal, vt, source, unstable = _iaif_rows(
        x[None, :], cfg, cfg.tract_order(sample_rate), spec.window_array()
    )
    if unstable[0]:
        raise UnstableFrameError("a reflection coefficient reached |k| >= 1")
    return GlottalFrameResult(
        glottal=glottal[0], vocal_tract=vt.model(0), glottal_source_model=source.model(0)
    )


def extract_glottal_flow(audio: AudioBuffer, cfg: IaifConfig | None = None) -> GlottalFlowResult:
    """Utterance-level glottal flow via frame-batched IAIF and hann overlap-add.

    Frames are processed IAIF_BLOCK_FRAMES at a time and each block is
    overlap-added straight into the output.  Frames whose LPC goes unstable
    are passed through raw and tallied; the output is peak-normalized to 0.95.
    """
    cfg = cfg or IaifConfig()
    spec = cfg.frame_spec(audio.sample_rate)
    x = highpass(audio.samples, audio.sample_rate, cfg.highpass_cutoff)
    frames = dsp.frame_signal(x, dsp.FrameSpec(spec.win_length, spec.hop_length, "rect"))
    n = frames.shape[0]
    w = spec.window_array()
    p = cfg.tract_order(audio.sample_rate)
    envelope = dsp.ola_envelope(spec, n)
    flow = np.zeros_like(envelope)
    unstable = 0
    for start in range(0, n, IAIF_BLOCK_FRAMES):
        raw = frames[start : start + IAIF_BLOCK_FRAMES]
        glottal, _, _, bad = _iaif_rows(raw, cfg, p, w)
        glottal[bad] = raw[bad]
        glottal *= w
        unstable += int(np.count_nonzero(bad))
        dsp.ola_accumulate(flow[start * spec.hop_length :], glottal, spec.hop_length)
    flow /= envelope
    return GlottalFlowResult(
        flow=AudioBuffer(samples=dsp.peak_normalize(flow), sample_rate=audio.sample_rate),
        unstable_frames=unstable,
        total_frames=n,
    )
