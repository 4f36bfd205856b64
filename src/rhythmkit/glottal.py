"""Glottal flow estimation by iterative adaptive inverse filtering.

Per frame, alternating low-order source and high-order vocal-tract LPC
estimates strip the vocal tract and lip radiation from the speech signal
(IAIF, Alku 1992); the residual source frames are hann-weighted and
overlap-added into one utterance-level glottal flow.  IAIF runs stage by
stage: each LPC stage computes its rows chunk by chunk and solves Levinson
once per utterance.  As integration and inverse filtering commute, the
utterance is integrated once, and each frame's integral from zero state is
derived from that whole-signal integral.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import dsp
from .audio_io import AudioBuffer
from .errors import UnstableFrameError

# Frames per IAIF chunk: bounds the filter and autocorrelation stacks, so memory
# grows with utterance length only by the output, the whole-signal integral and
# one row of LPC lags per frame and stage.
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
        dsp.check_field_types(self)
        if not 0.0 < self.lip_d < 1.0:
            raise ValueError(f"lip_d must lie in (0, 1), got {self.lip_d}")
        if self.glottal_order < 1:
            raise ValueError(f"glottal_order must be positive, got {self.glottal_order}")
        if self.vocal_tract_order is not None and self.vocal_tract_order <= self.glottal_order:
            raise ValueError(
                f"need glottal_order < vocal_tract_order, "
                f"got g={self.glottal_order} p={self.vocal_tract_order}"
            )
        if not 0.0 < self.hop_ms <= self.win_ms:
            raise ValueError(f"need 0 < hop_ms <= win_ms, got hop={self.hop_ms} win={self.win_ms}")
        if self.highpass_cutoff < 0.0:
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


def _integrated_frames(
    integral: np.ndarray, spec: dsp.FrameSpec, lip_d: float
) -> Callable[[np.ndarray, int], None]:
    """fill(out, lo) writes frames lo, lo+1, ... of x, each leaky-integrated from
    zero state, into the rows of out.  integral = dsp.leaky_integrate(x, lip_d);
    the frame that starts at sample s integrates to
    integral[s:s+win] - lip_d**(1..win) * integral[s-1], with integral[-1] = 0.
    """
    hop = spec.hop_length
    summed = dsp.frame_signal(integral, spec)
    carry = np.zeros(len(summed))
    carry[1:] = integral[hop - 1 : (len(summed) - 1) * hop : hop]
    decay = lip_d ** np.arange(1.0, spec.win_length + 1)

    def fill(out: np.ndarray, lo: int) -> None:
        hi = lo + len(out)
        np.einsum("i,j->ij", carry[lo:hi], decay, out=out)
        np.subtract(summed[lo:hi], out, out=out)

    return fill


def _iaif(
    x: np.ndarray, integral: np.ndarray, cfg: IaifConfig, spec: dsp.FrameSpec, tract_order: int
) -> tuple[dsp.LpcRows, dsp.LpcRows, np.ndarray, Iterator[tuple[int, np.ndarray]]]:
    """IAIF on every frame of x, one stage at a time; integral is
    dsp.leaky_integrate(x, cfg.lip_d).

    Stage sequence (models estimated on the windowed frame, filtering applied
    to the raw frame, or to the raw frame integrated once, since inverse
    filtering and integration commute):
      1. order-1 LPC on the input, inverse filter: coarse tilt removal
      2. order-p LPC on (1), inverse filter integrated input: first source estimate
      3. order-g LPC on (2), inverse filter integrated input: tilt-free signal
      4. order-p LPC on (3) = final vocal tract; inverse filter integrated
         input: glottal flow

    Each stage fills one (frames, order+1) autocorrelation array chunk by
    chunk, then solves Levinson once for all frames.  Every chunk's frames go
    through one reused buffer behind tract_order zero history columns.

    Returns the final vocal-tract and glottal-source models, the mask of
    frames whose LPC went unstable at some stage (their models are zeroed
    from that stage on), and a lazy iterator of (first frame, glottal rows)
    per chunk, in which an unstable frame's row is the raw frame.
    """
    p = tract_order
    raw = dsp.frame_signal(x, spec)
    n, size = len(raw), min(len(raw), IAIF_BLOCK_FRAMES)
    chunks = [(lo, min(lo + size, n)) for lo in range(0, n, size)]
    padded = np.zeros((size, p + spec.win_length))
    windowed = np.empty((size, spec.win_length))
    window = spec.window_array()
    integrate = _integrated_frames(integral, spec, cfg.lip_d)

    def filtered(coeffs: np.ndarray, lo: int, hi: int, integrated: bool = True) -> np.ndarray:
        if integrated:
            integrate(padded[: hi - lo, p:], lo)
        else:
            padded[: hi - lo, p:] = raw[lo:hi]
        return dsp.inverse_filter_rows(padded[: hi - lo, p - coeffs.shape[1] :], coeffs[lo:hi])

    def lpc(order: int, stage_rows: Callable[[int, int], np.ndarray]) -> dsp.LpcRows:
        r = np.empty((n, order + 1))
        for lo, hi in chunks:
            np.multiply(stage_rows(lo, hi), window, out=windowed[: hi - lo])
            r[lo:hi] = dsp.autocorrelation(windowed[: hi - lo], order)
        return dsp.levinson_rows(r, order)

    tilt = lpc(1, lambda lo, hi: raw[lo:hi])
    vt1 = lpc(p, lambda lo, hi: filtered(tilt.coeffs, lo, hi, integrated=False))
    source = lpc(cfg.glottal_order, lambda lo, hi: filtered(vt1.coeffs, lo, hi))
    vt2 = lpc(p, lambda lo, hi: filtered(source.coeffs, lo, hi))
    unstable = tilt.unstable | vt1.unstable | source.unstable | vt2.unstable

    def glottal() -> Iterator[tuple[int, np.ndarray]]:
        for lo, hi in chunks:
            rows = filtered(vt2.coeffs, lo, hi)
            bad = unstable[lo:hi]
            rows[bad] = raw[lo:hi][bad]
            yield lo, rows

    return vt2, source, unstable, glottal()


def iaif_frame(frame: np.ndarray, cfg: IaifConfig, sample_rate: int) -> GlottalFrameResult:
    """One frame's glottal source and models: _iaif on the frame, with its own integral.
    Raises UnstableFrameError when any LPC stage goes non-minimum-phase."""
    x = np.asarray(frame, dtype=np.float64)
    spec = cfg.frame_spec(sample_rate)
    if x.shape != (spec.win_length,):
        raise ValueError(f"frame shape {x.shape} != ({spec.win_length},)")
    integral = dsp.leaky_integrate(x, cfg.lip_d)
    vt, source, unstable, chunks = _iaif(x, integral, cfg, spec, cfg.tract_order(sample_rate))
    if unstable[0]:
        raise UnstableFrameError("a reflection coefficient reached |k| >= 1")
    ((_, glottal),) = chunks
    return GlottalFrameResult(
        glottal=glottal[0], vocal_tract=vt.model(0), glottal_source_model=source.model(0)
    )


def extract_glottal_flow(audio: AudioBuffer, cfg: IaifConfig | None = None) -> GlottalFlowResult:
    """Utterance-level glottal flow via stage-major IAIF and hann overlap-add.

    Each chunk of glottal rows is overlap-added straight into the output.
    Frames whose LPC goes unstable are passed through raw and tallied; the
    output is peak-normalized to 0.95.
    """
    cfg = cfg or IaifConfig()
    spec = cfg.frame_spec(audio.sample_rate)
    x = highpass(audio.samples, audio.sample_rate, cfg.highpass_cutoff)
    p = cfg.tract_order(audio.sample_rate)
    _, _, unstable, chunks = _iaif(x, dsp.leaky_integrate(x, cfg.lip_d), cfg, spec, p)
    w = spec.window_array()
    n = len(unstable)
    flow = np.zeros((n - 1) * spec.hop_length + spec.win_length)
    for lo, glottal in chunks:
        glottal *= w
        dsp.ola_accumulate(flow[lo * spec.hop_length :], glottal, spec.hop_length)
    flow /= dsp.ola_envelope(spec, n)  # made after the last chunk, when IAIF has freed its buffers
    return GlottalFlowResult(
        flow=AudioBuffer(samples=dsp.peak_normalize(flow), sample_rate=audio.sample_rate),
        unstable_frames=int(np.count_nonzero(unstable)),
        total_frames=n,
    )
