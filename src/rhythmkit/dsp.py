"""Numeric kernel: framing, the Hann window, overlap-add, LPC, filtering, resampling.

Functions take float64 numpy arrays and are pure, but ola_accumulate adds into
``out`` and check_field_types checks a config's fields and stores its numbers
as Python ints and floats.  Audio container types live in audio_io.  The LPC
kernels work on stacks of frames (one row per frame) and loop only over lag
or order; their 1-D forms are one-row calls into the same code.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from types import NoneType, UnionType
from typing import Any, get_args, get_type_hints

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import LagTooLargeError, ShapeMismatchError, TooShortError, UnstableFrameError

# Multiplicative white-noise floor on r[0]; keeps |k| < 1 on
# near-deterministic frames.
AUTOCORR_REG = 1e-6

# Overlap-add divides by the summed window envelope; floor avoids blowup at
# the tapered edges.
OLA_ENVELOPE_FLOOR = 1e-8

# Largest magnitude of every synthesized or extracted output waveform.
OUTPUT_PEAK = 0.95

_FIELD_KINDS: dict[type, type] = {int: numbers.Integral, float: numbers.Real}  # numpy scalars too


def check_field_types(config: Any) -> None:
    """Raise ValueError naming the first config field whose value does not fit its hint:
    int takes integers, float reals, each finite as a float; no bool; only ``X | None`` None.
    A number is stored back as a Python int or float (numpy scalars and ints in float fields)."""
    for name, hint in get_type_hints(type(config)).items():
        value = getattr(config, name)
        kinds = get_args(hint) if isinstance(hint, UnionType) else (hint,)
        admitted = tuple(_FIELD_KINDS.get(kind, kind) for kind in kinds)
        if isinstance(value, bool) or not isinstance(value, admitted):
            names = " or ".join("None" if kind is NoneType else kind.__name__ for kind in kinds)
            raise ValueError(f"{name} must be {names}, got {value!r}")
        try:  # NaN and +-inf are not finite; an int past float range raises OverflowError
            finite = not isinstance(value, numbers.Real) or math.isfinite(value)
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"{name} must be finite, got {value!r}")
        if isinstance(value, numbers.Real):
            object.__setattr__(config, name, int(value) if int in kinds else float(value))


@dataclass(frozen=True)
class FrameSpec:
    """Analysis framing: window length and hop (samples); the window is Hann."""

    win_length: int
    hop_length: int

    def __post_init__(self) -> None:
        if self.win_length <= 0:
            raise ValueError(f"win_length must be positive, got {self.win_length}")
        if not 0 < self.hop_length <= self.win_length:
            raise ValueError(
                f"need 0 < hop_length <= win_length, got hop={self.hop_length} win={self.win_length}"
            )

    def window_array(self) -> np.ndarray:
        """The analysis window: win_length samples of the periodic (DFT-even) Hann."""
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(self.win_length) / self.win_length)


@dataclass(frozen=True, eq=False)  # a generated == would compare arrays
class LpcModel:
    """All-pole model A(z) = 1 + sum_k coeffs[k-1] z^-k with residual gain.

    ``reflections`` records the Levinson reflection coefficients so the
    minimum-phase invariant (every |k| < 1) stays checkable after the fact.
    """

    coeffs: np.ndarray
    gain: float
    reflections: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coeffs, dtype=np.float64)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "reflections", np.asarray(self.reflections, dtype=np.float64))
        if coeffs.ndim != 1:
            raise ValueError(f"coefficients must be 1-D, got shape {coeffs.shape}")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("LPC coefficients must be finite")
        if not (np.isfinite(self.gain) and self.gain >= 0):
            raise ValueError(f"gain must be finite and nonnegative, got {self.gain}")


@dataclass(frozen=True, eq=False)  # a generated == would compare arrays
class LpcRows:
    """Levinson solutions for a stack of autocorrelation rows.

    Silent rows (r[0] <= 0) carry the identity model.  A row whose recursion
    reaches a k with |k| >= 1 or NaN is flagged in ``unstable``: its model is
    zeroed (the identity, so filters built from it stay finite), and
    ``reflections`` keeps that first k and reads 0.0 after it.
    """

    coeffs: np.ndarray  # (rows, order)
    reflections: np.ndarray  # (rows, order)
    gain: np.ndarray  # (rows,)
    unstable: np.ndarray  # (rows,) bool

    def model(self, row: int) -> LpcModel:
        return LpcModel(
            coeffs=self.coeffs[row],
            gain=float(self.gain[row]),
            reflections=self.reflections[row],
        )


def frame_signal(x: np.ndarray, spec: FrameSpec) -> np.ndarray:
    """Raw (unweighted) frames, shape (n_frames, win_length): a read-only
    strided view of x, not a copy.  Callers weight them by spec.window_array().

    Trailing samples that do not fill a whole window are dropped.
    """
    x = np.asarray(x, dtype=np.float64)
    if len(x) < spec.win_length:
        raise TooShortError(f"signal of {len(x)} samples is shorter than win_length={spec.win_length}")
    return sliding_window_view(x, spec.win_length)[:: spec.hop_length]


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
    summed window envelope at that sample, so
    overlap_add(frame_signal(x, spec) * spec.window_array(), spec) recovers x
    on the fully overlapped interior.
    """
    try:
        frames = np.asarray(frames, dtype=np.float64)
    except ValueError as exc:  # ragged input cannot form a rectangular stack
        raise ShapeMismatchError(str(exc)) from exc
    if frames.ndim != 2 or frames.shape[0] == 0:
        raise ShapeMismatchError("overlap_add needs a non-empty 2-D frame stack")
    if frames.shape[1] != spec.win_length:
        raise ShapeMismatchError(
            f"frames have length {frames.shape[1]}, spec expects {spec.win_length}"
        )
    envelope = ola_envelope(spec, frames.shape[0])
    out = np.zeros_like(envelope)
    ola_accumulate(out, frames, spec.hop_length)
    return out / envelope


def autocorrelation(frames: np.ndarray, max_lag: int, min_lag: int = 1) -> np.ndarray:
    """Biased autocorrelation r[..., k] = sum_n x[..., n]*x[..., n+k] of each row of
    (..., n) input, at k = 0 and k = min_lag..max_lag; skipped lags 1..min_lag-1 read NaN."""
    x = np.asarray(frames, dtype=np.float64)
    n = x.shape[-1]
    if max_lag >= n:
        raise LagTooLargeError(f"max_lag={max_lag} must be below frame length {n}")
    r = np.empty(x.shape[:-1] + (max_lag + 1,))
    r[..., 1:min_lag] = np.nan
    for k in (0, *range(min_lag, max_lag + 1)):
        r[..., k] = np.vecdot(x[..., : n - k], x[..., k:])
    return r


def levinson_rows(r: np.ndarray, order: int) -> LpcRows:
    """Levinson-Durbin on every row of a (rows, >= order+1) autocorrelation stack.

    r[:, 0] is inflated by AUTOCORR_REG before the recursion, which runs over
    the order with all rows at once and no masks; stability is decided after
    it (see LpcRows).  Past its first |k| >= 1 a row may overflow or divide by
    zero; errstate silences that, as those values are discarded.
    """
    r = np.asarray(r, dtype=np.float64)
    if r.ndim != 2 or r.shape[1] < order + 1:
        raise LagTooLargeError(f"need {order + 1} autocorrelation lags per row, got shape {r.shape}")
    err = r[:, 0] * (1.0 + AUTOCORR_REG)
    silent = ~(err > 0.0)
    # Lag-major (lags, rows) stacks make each step's dot product one einsum over
    # contiguous rows, about 1.7x faster than a per-row np.vecdot on (rows, lags).
    lags = r[:, : order + 1].T.copy()
    lags[:, silent] = 0.0  # a silent row's k is then 0 and its err stays 1
    err[silent] = 1.0
    a = np.zeros((order, r.shape[0]))
    ks = np.empty((order, r.shape[0]))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for i in range(1, order + 1):
            head = a[: i - 1]
            k = -(lags[i] + np.einsum("ij,ij->j", head, lags[i - 1 : 0 : -1])) / err
            ks[i - 1] = k
            head += k * head[::-1]
            a[i - 1] = k
            err *= 1.0 - k * k
    a, ks = np.ascontiguousarray(a.T), np.ascontiguousarray(ks.T)  # a row is a filter's taps
    bad = ~(np.abs(ks) < 1.0)
    unstable = bad.any(axis=1)
    ks[:, 1:][np.logical_or.accumulate(bad[:, :-1], axis=1)] = 0.0
    ks[silent] = 0.0  # +0.0, where the recursion left -0.0
    dead = silent | unstable
    a[dead] = 0.0
    gain = np.sqrt(np.where(dead, 0.0, err))
    return LpcRows(coeffs=a, reflections=ks, gain=gain, unstable=unstable)


def levinson_durbin(r: np.ndarray, order: int) -> LpcModel:
    """Solve the normal equations for an all-pole model of the given order.

    r[0] is inflated by AUTOCORR_REG before the recursion.  Raises
    UnstableFrameError if any reflection coefficient reaches magnitude 1,
    so a returned model is always minimum-phase.
    """
    r = np.asarray(r, dtype=np.float64)
    rows = levinson_rows(r[None, :], order)
    if not r[0] * (1.0 + AUTOCORR_REG) > 0.0:
        raise ValueError(f"autocorrelation r[0] must be positive, got {r[0]}")
    if rows.unstable[0]:
        ks = rows.reflections[0]
        i = int(np.argmin(np.abs(ks) < 1.0))
        raise UnstableFrameError(f"reflection coefficient |k_{i + 1}| = {abs(ks[i]):.6g} >= 1")
    return rows.model(0)


def inverse_filter_rows(padded: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Per-row prediction residual e[j, n] = x[j, n] + sum_k coeffs[j, k-1] x[j, n-k],
    as one einsum over windows of padded[j] = (order columns of history, x[j]).

    One coefficient takes the two-term form x + a * (x delayed), the same sum:
    einsum's per-output overhead would cost as much as a 19-tap filter.
    The output drops the history columns; zero history is zero initial state."""
    x = np.asarray(padded, dtype=np.float64)
    a = np.asarray(coeffs, dtype=np.float64)
    rows, order = a.shape
    if x.ndim != 2 or x.shape[0] != rows:
        raise ValueError(f"{rows} coefficient rows do not match padded rows of shape {x.shape}")
    if order == 1:
        return x[:, 1:] + a * x[:, :-1]
    windows = sliding_window_view(x, order + 1, axis=1)  # [j, n, m] = x[j, n + m - order]
    taps = np.concatenate([a[:, ::-1], np.ones((rows, 1))], axis=1)
    return np.einsum("jnm,jm->jn", windows, taps)


def inverse_filter(x: np.ndarray, model: LpcModel) -> np.ndarray:
    """Prediction residual e[n] = x[n] + sum_k a[k] x[n-k], zero initial state."""
    padded = np.concatenate([np.zeros(len(model.coeffs)), np.asarray(x, dtype=np.float64)])
    return inverse_filter_rows(padded[None, :], model.coeffs[None, :])[0]


def allpole_filter(e: np.ndarray, model: LpcModel) -> np.ndarray:
    """Synthesis counterpart: y[n] = e[n] - sum_k a[k] y[n-k], zero initial state."""
    # scipy.signal is imported on first call here, in leaky_integrate and in
    # glottal.highpass: loading it costs about a second that commands which
    # never filter (features, augment, eer) should not pay.
    from scipy.signal import lfilter

    return lfilter([1.0], np.concatenate(([1.0], model.coeffs)), e, axis=-1)


def leaky_integrate(x: np.ndarray, d: float) -> np.ndarray:
    """y[n] = x[n] + d*y[n-1] along the last axis; inverse of the differentiator 1 - d z^-1."""
    if not 0.0 < d <= 1.0:
        raise ValueError(f"leak coefficient must lie in (0, 1], got {d}")
    from scipy.signal import lfilter  # lazily, as in allpole_filter

    return lfilter([1.0], [1.0, -d], x, axis=-1)


def peak_normalize(x: np.ndarray) -> np.ndarray:
    """Scale x so its largest magnitude is OUTPUT_PEAK; all-zero input is returned as is."""
    peak = np.max(np.abs(x))
    return x * (OUTPUT_PEAK / peak) if peak > 0.0 else x


def resampled_length(length: int, factor: float) -> int:
    """Output length under a resampling factor: max(1, round(L*r)), half away from zero."""
    if not 0.0 < factor < np.inf:
        raise ValueError(f"resampling factor must be positive and finite, got {factor}")
    return max(1, int(np.floor(length * float(factor) + 0.5)))


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
    length = x.shape[0]
    if length < 1:
        raise ValueError("cannot resample an empty sequence")
    if factor == 1.0:
        return x.copy()
    out_len = resampled_length(length, factor)
    if out_len == 1 or length == 1:
        return np.repeat(x[:1], out_len, axis=0)
    # Multiply before dividing so position L'-1 lands on L-1 exactly.
    pos = (np.arange(out_len) * float(length - 1)) / float(out_len - 1)
    lo = np.minimum(pos.astype(np.int64), length - 2)
    frac = pos - lo
    if x.ndim == 2:
        frac = frac[:, None]
    xlo = x[lo]
    xhi = x[lo + 1]
    out = xlo + frac * (xhi - xlo)
    # Rounding must not push values outside the bracketing samples.
    np.clip(out, np.minimum(xlo, xhi), np.maximum(xlo, xhi), out=out)
    out[0] = x[0]
    out[-1] = x[length - 1]
    return out
