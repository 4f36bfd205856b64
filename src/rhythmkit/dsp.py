"""Numeric kernel: framing, windowing, overlap-add, LPC, filtering, resampling.

All functions operate on plain float64 numpy arrays and are pure; audio
container types live in audio_io.  The LPC kernels work on stacks of frames
(one row per frame) and loop only over lag or order; their 1-D forms are
one-row calls into the same code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    InconsistentFrameLengthError,
    LagTooLargeError,
    TooShortError,
    UnstableFrameError,
)

# Multiplicative white-noise floor on r[0]; keeps |k| < 1 on
# near-deterministic frames.
AUTOCORR_REG = 1e-6

# Overlap-add divides by the summed window envelope; floor avoids blowup at
# the tapered edges.
OLA_ENVELOPE_FLOOR = 1e-8

# Periodic (DFT-even) cosine windows a - b*cos(2*pi*n/N): name -> (a, b).
WINDOW_KINDS: dict[str, tuple[float, float]] = {
    "hann": (0.5, 0.5),
    "hamming": (0.54, 0.46),
    "rect": (1.0, 0.0),
}

# Largest magnitude of every synthesized or extracted output waveform.
OUTPUT_PEAK = 0.95


@dataclass(frozen=True)
class FrameSpec:
    """Analysis framing: window length, hop and window shape (samples)."""

    win_length: int
    hop_length: int
    window: str = "hann"

    def __post_init__(self) -> None:
        if self.win_length <= 0:
            raise ValueError(f"win_length must be positive, got {self.win_length}")
        if not 0 < self.hop_length <= self.win_length:
            raise ValueError(
                f"need 0 < hop_length <= win_length, got hop={self.hop_length} win={self.win_length}"
            )
        if self.window not in WINDOW_KINDS:
            raise ValueError(f"unknown window {self.window!r}, expected one of {list(WINDOW_KINDS)}")

    def window_array(self) -> np.ndarray:
        """The analysis window, win_length samples of WINDOW_KINDS[window]."""
        a, b = WINDOW_KINDS[self.window]
        return a - b * np.cos(2.0 * np.pi * np.arange(self.win_length) / self.win_length)


@dataclass(frozen=True)
class LpcModel:
    """All-pole model A(z) = 1 + sum_k coeffs[k-1] z^-k with residual gain.

    ``reflections`` records the Levinson reflection coefficients so the
    minimum-phase invariant (every |k| < 1) stays checkable after the fact.
    """

    order: int
    coeffs: np.ndarray
    gain: float
    reflections: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coeffs, dtype=np.float64)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "reflections", np.asarray(self.reflections, dtype=np.float64))
        if self.order < 0:
            raise ValueError(f"order must be nonnegative, got {self.order}")
        if coeffs.shape != (self.order,):
            raise ValueError(f"expected {self.order} coefficients, got shape {coeffs.shape}")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("LPC coefficients must be finite")
        if not (np.isfinite(self.gain) and self.gain >= 0):
            raise ValueError(f"gain must be finite and nonnegative, got {self.gain}")


@dataclass(frozen=True)
class LpcRows:
    """Levinson solutions for a stack of autocorrelation rows.

    Silent rows (r[0] <= 0) carry the identity model.  A row whose recursion
    reaches a reflection coefficient with |k| >= 1 is flagged in ``unstable``:
    its coefficients and gain are zeroed (the identity model, so filters
    built from it stay finite) and ``reflections`` keeps the offending k.
    """

    coeffs: np.ndarray  # (rows, order)
    reflections: np.ndarray  # (rows, order)
    gain: np.ndarray  # (rows,)
    unstable: np.ndarray  # (rows,) bool

    def model(self, row: int) -> LpcModel:
        return LpcModel(
            order=self.coeffs.shape[1],
            coeffs=self.coeffs[row],
            gain=float(self.gain[row]),
            reflections=self.reflections[row],
        )


def num_frames(length: int, spec: FrameSpec) -> int:
    if length < spec.win_length:
        raise TooShortError(
            f"signal of {length} samples is shorter than win_length={spec.win_length}"
        )
    return 1 + (length - spec.win_length) // spec.hop_length


def frame_signal(x: np.ndarray, spec: FrameSpec) -> np.ndarray:
    """Window-weighted frames, shape (n_frames, win_length).

    Trailing samples that do not fill a whole window are dropped.  Rect
    frames are a read-only strided view of x, not a copy.
    """
    x = np.asarray(x, dtype=np.float64)
    num_frames(len(x), spec)  # raises TooShortError below one window
    frames = sliding_window_view(x, spec.win_length)[:: spec.hop_length]
    if spec.window != "rect":
        frames = frames * spec.window_array()[None, :]
    return frames


def stft(x: np.ndarray, spec: FrameSpec, n_fft: int) -> np.ndarray:
    """Complex spectra of frame_signal's frames, shape (n_frames, n_fft//2 + 1)."""
    return np.fft.rfft(frame_signal(x, spec), n=n_fft, axis=1)


def ola_accumulate(out: np.ndarray, frames: np.ndarray, hop: int) -> None:
    """Add frame i into ``out`` at sample i * hop, in place (slice ``out`` to offset).

    A shifted sum: one strided slice-add per hop-wide column band of the
    stack, ceil(win/hop) adds in all, however many frames there are.
    """
    rows = frames.shape[0]
    for lo in range(0, frames.shape[1], hop):
        band = frames[:, lo : lo + hop]
        span = out[lo : lo + (rows - 1) * hop + band.shape[1]]
        sliding_window_view(span, band.shape[1], writeable=True)[::hop] += band


def ola_envelope(spec: FrameSpec, n_frames: int, window_power: int = 1) -> np.ndarray:
    """Summed window**window_power over n_frames hops, floored: the divisor of
    overlap_add (power 1) and of the least-squares inverse STFT (power 2)."""
    w = spec.window_array() ** window_power
    env = np.zeros((n_frames - 1) * spec.hop_length + spec.win_length)
    ola_accumulate(env, np.broadcast_to(w, (n_frames, len(w))), spec.hop_length)
    return np.maximum(env, OLA_ENVELOPE_FLOOR)


def overlap_add(frames: np.ndarray, spec: FrameSpec) -> np.ndarray:
    """Reassemble already window-weighted frames into one signal.

    Each output sample is the sum of frame contributions divided by the
    summed window envelope at that sample, so frame_signal -> overlap_add
    recovers the input on the fully overlapped interior.
    """
    try:
        frames = np.asarray(frames, dtype=np.float64)
    except ValueError as exc:  # ragged input cannot form a rectangular stack
        raise InconsistentFrameLengthError(str(exc)) from exc
    if frames.ndim != 2 or frames.shape[0] == 0:
        raise InconsistentFrameLengthError("overlap_add needs a non-empty 2-D frame stack")
    if frames.shape[1] != spec.win_length:
        raise InconsistentFrameLengthError(
            f"frames have length {frames.shape[1]}, spec expects {spec.win_length}"
        )
    envelope = ola_envelope(spec, frames.shape[0])
    out = np.zeros_like(envelope)
    ola_accumulate(out, frames, spec.hop_length)
    return out / envelope


def autocorrelation(frames: np.ndarray, max_lag: int) -> np.ndarray:
    """Biased autocorrelation r[..., k] = sum_n x[..., n]*x[..., n+k], k = 0..max_lag,
    of each row of (..., n) input."""
    x = np.asarray(frames, dtype=np.float64)
    n = x.shape[-1]
    if max_lag >= n:
        raise LagTooLargeError(f"max_lag={max_lag} must be below frame length {n}")
    r = np.empty(x.shape[:-1] + (max_lag + 1,))
    for k in range(max_lag + 1):
        r[..., k] = np.einsum("...i,...i->...", x[..., : n - k], x[..., k:])
    return r


def levinson_rows(r: np.ndarray, order: int) -> LpcRows:
    """Levinson-Durbin on every row of a (rows, >= order+1) autocorrelation stack.

    r[:, 0] is inflated by AUTOCORR_REG before the recursion, which runs over
    the order with all rows at once.  See LpcRows for silent and unstable rows.
    """
    r = np.asarray(r, dtype=np.float64)
    if r.ndim != 2 or r.shape[1] < order + 1:
        raise LagTooLargeError(f"need {order + 1} autocorrelation lags per row, got shape {r.shape}")
    rows = r.shape[0]
    err = r[:, 0] * (1.0 + AUTOCORR_REG)
    live = err > 0.0
    err = np.where(live, err, 1.0)
    unstable = np.zeros(rows, dtype=bool)
    a = np.zeros((rows, order))
    ks = np.zeros((rows, order))
    for i in range(1, order + 1):
        head = a[:, : i - 1]
        acc = r[:, i] + np.einsum("ij,ij->i", head, r[:, i - 1 : 0 : -1])
        k = np.where(live, -acc / err, 0.0)
        ks[:, i - 1] = k
        bad = live & ~(np.abs(k) < 1.0)
        unstable |= bad
        live &= ~bad
        k[bad] = 0.0  # a flagged row stops updating
        head += k[:, None] * head[:, ::-1]
        a[:, i - 1] = k
        err *= 1.0 - k * k
    a[unstable] = 0.0
    gain = np.where(live, np.sqrt(err), 0.0)
    return LpcRows(coeffs=a, reflections=ks, gain=gain, unstable=unstable)


def levinson_durbin(r: np.ndarray, order: int) -> LpcModel:
    """Solve the normal equations for an all-pole model of the given order.

    r[0] is inflated by AUTOCORR_REG before the recursion.  Raises
    UnstableFrameError if any reflection coefficient reaches magnitude 1,
    so a returned model is always minimum-phase.
    """
    r = np.asarray(r, dtype=np.float64)
    if len(r) < order + 1:
        raise LagTooLargeError(f"need {order + 1} autocorrelation lags, got {len(r)}")
    if not r[0] * (1.0 + AUTOCORR_REG) > 0.0:
        raise ValueError(f"autocorrelation r[0] must be positive, got {r[0]}")
    rows = levinson_rows(r[None, :], order)
    if rows.unstable[0]:
        ks = rows.reflections[0]
        i = int(np.argmin(np.abs(ks) < 1.0))
        raise UnstableFrameError(f"reflection coefficient |k_{i + 1}| = {abs(ks[i]):.6g} >= 1")
    return rows.model(0)


def inverse_filter_rows(frames: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Per-row prediction residual e[j, n] = x[j, n] + sum_k coeffs[j, k-1] x[j, n-k],
    zero initial state, as one einsum over windows of the zero-padded rows."""
    x = np.asarray(frames, dtype=np.float64)
    a = np.asarray(coeffs, dtype=np.float64)
    rows, order = a.shape
    if x.ndim != 2 or x.shape[0] != rows:
        raise ValueError(f"{rows} coefficient rows do not match frames of shape {x.shape}")
    padded = np.concatenate([np.zeros((rows, order)), x], axis=1)
    windows = sliding_window_view(padded, order + 1, axis=1)  # [j, n, m] = x[j, n + m - order]
    taps = np.concatenate([a[:, ::-1], np.ones((rows, 1))], axis=1)
    return np.einsum("jnm,jm->jn", windows, taps)


def inverse_filter(x: np.ndarray, model: LpcModel) -> np.ndarray:
    """Prediction residual e[n] = x[n] + sum_k a[k] x[n-k], zero initial state."""
    x = np.asarray(x, dtype=np.float64)
    return inverse_filter_rows(x[None, :], model.coeffs[None, :])[0]


def iir_filter(
    b: np.ndarray | list[float], a: np.ndarray | list[float], x: np.ndarray
) -> np.ndarray:
    """Direct-form IIR filter b(z)/a(z) along the last axis, zero initial state.

    The package's one use of scipy: scipy.signal is imported here, on first
    call, because loading it costs about a second that commands which never
    filter (features, augment, eer, speedperturb) should not pay.
    """
    from scipy.signal import lfilter

    return lfilter(b, a, x, axis=-1)


def allpole_filter(e: np.ndarray, model: LpcModel) -> np.ndarray:
    """Synthesis counterpart: y[n] = e[n] - sum_k a[k] y[n-k], zero initial state."""
    a = np.concatenate(([1.0], model.coeffs))
    return iir_filter([1.0], a, e)


def leaky_integrate(x: np.ndarray, d: float) -> np.ndarray:
    """y[n] = x[n] + d*y[n-1] along the last axis; inverse of the differentiator 1 - d z^-1."""
    if not 0.0 < d <= 1.0:
        raise ValueError(f"leak coefficient must lie in (0, 1], got {d}")
    return iir_filter([1.0], [1.0, -d], x)


def peak_normalize(x: np.ndarray) -> np.ndarray:
    """Scale x so its largest magnitude is OUTPUT_PEAK; all-zero input is returned as is."""
    peak = np.max(np.abs(x))
    return x * (OUTPUT_PEAK / peak) if peak > 0.0 else x


def resampled_length(length: int, factor: float) -> int:
    """Output length under a resampling factor: max(1, round(L*r)), half away from zero."""
    if factor <= 0.0:
        raise ValueError(f"resampling factor must be positive, got {factor}")
    return max(1, int(np.floor(length * factor + 0.5)))


def linear_resample(seq: np.ndarray, factor: float) -> np.ndarray:
    """Time-axis linear interpolation onto an endpoint-anchored grid.

    1-D input is resampled directly; frame-major 2-D input is resampled per
    column over axis 0.  Output position i maps to input position
    i*(L-1)/(L'-1), so the first and last samples are preserved and every
    output value lies within the input range of its bracketing samples.
    factor == 1.0 is a bit-exact identity.
    """
    x = np.asarray(seq, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ValueError(f"expected 1-D or 2-D input, got ndim={x.ndim}")
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]
    length = x.shape[0]
    if length < 1:
        raise ValueError("cannot resample an empty sequence")
    if factor == 1.0:
        out = x.copy()
    else:
        out_len = resampled_length(length, factor)
        if out_len == 1:
            out = x[:1].copy()
        elif length == 1:
            out = np.repeat(x, out_len, axis=0)
        else:
            # Multiply before dividing so position L'-1 lands on L-1 exactly.
            pos = (np.arange(out_len) * float(length - 1)) / float(out_len - 1)
            lo = np.minimum(pos.astype(np.int64), length - 2)
            frac = (pos - lo)[:, None]
            xlo = x[lo]
            xhi = x[lo + 1]
            out = xlo + frac * (xhi - xlo)
            # Rounding must not push values outside the bracketing samples.
            np.clip(out, np.minimum(xlo, xhi), np.maximum(xlo, xhi), out=out)
            out[0] = x[0]
            out[-1] = x[length - 1]
    return out[:, 0] if squeeze else out
