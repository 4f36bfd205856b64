"""Rhythm perturbation: random segmentation of the feature timeline with
per-segment linear-interpolation time resampling.

Segment lengths and resampling factors are drawn from a self-contained
splitmix64 stream so identical (seed, utt_id) pairs reproduce bit-identical
output on every platform, independent of batch order or parallelism.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from itertools import accumulate
from pathlib import Path

import numpy as np

from . import audio_io, dsp
from .audio_io import AudioBuffer
from .errors import ShapeMismatchError
from .features import FeatureBundle, FeatureConfig

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Deterministic 64-bit generator (splitmix64 update, bit-exact).

    Uniform floats in [0, 1) take the high 53 bits of each output word.
    """

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def next_int(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], both ends inclusive."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return min(lo + int(self.next_float() * (hi - lo + 1)), hi)

    def next_uniform(self, lo: float, hi: float) -> float:
        return lo + self.next_float() * (hi - lo)


def fnv1a64(text: str) -> int:
    """FNV-1a 64-bit hash of the UTF-8 encoding of ``text``."""
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


@dataclass(frozen=True)
class RpmConfig:
    seg_min: int = 19
    seg_max: int = 32
    factor_lo: float = 0.5
    factor_hi: float = 1.5
    seed: int = 0

    def __post_init__(self) -> None:
        dsp.check_field_types(self)
        if not 1 <= self.seg_min <= self.seg_max:
            raise ValueError(f"need 1 <= seg_min <= seg_max, got [{self.seg_min}, {self.seg_max}]")
        if not 0.0 < self.factor_lo <= self.factor_hi:
            raise ValueError(f"need 0 < factor_lo <= factor_hi, got [{self.factor_lo}, {self.factor_hi}]")
        if not 0 <= self.seed < 2**64:  # rng_for_utterance keeps only 64 bits
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")


@dataclass(frozen=True)
class Segment:
    length: int
    factor: float

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError(f"segment length must be >= 1, got {self.length}")


@dataclass(frozen=True)
class SegmentPlan:
    """Consecutive segments, in order from frame 0, each with its own factor."""

    segments: tuple[Segment, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("a segment plan needs at least one segment")

    @property
    def total_frames(self) -> int:
        return sum(s.length for s in self.segments)

    def output_frames(self) -> int:
        return sum(dsp.resampled_length(s.length, s.factor) for s in self.segments)

    def tiles(self, total_frames: int) -> bool:
        return self.total_frames == total_frames

    def starts(self) -> list[int]:
        """First frame of each segment: the sum of the lengths before it."""
        return list(accumulate((s.length for s in self.segments), initial=0))[:-1]

    def to_json(self, utt_id: str, seed: int) -> str:
        doc = {
            "utt_id": utt_id,
            "seed": seed,
            "segments": [
                {"start": start, "len": s.length, "factor": s.factor}
                for start, s in zip(self.starts(), self.segments)
            ],
        }
        return json.dumps(doc, indent=2)


def sample_segment_plan(total_frames: int, cfg: RpmConfig, rng: SplitMix64) -> SegmentPlan:
    """Tile the timeline with segments of random length and factor.

    Per segment two draws, length then factor; the final segment is clipped
    to the frames that remain.
    """
    if total_frames < 1:
        raise ValueError(f"total_frames must be >= 1, got {total_frames}")
    segments = []
    pos = 0
    while pos < total_frames:
        length = rng.next_int(cfg.seg_min, cfg.seg_max)
        factor = rng.next_uniform(cfg.factor_lo, cfg.factor_hi)
        length = min(length, total_frames - pos)
        segments.append(Segment(length=length, factor=factor))
        pos += length
    return SegmentPlan(segments=tuple(segments))


def apply_plan(
    bundle: FeatureBundle, plan: SegmentPlan, f0_floor: float = FeatureConfig.f0_min
) -> FeatureBundle:
    """Resample each segment's mel block and F0 slice by the segment's factor.

    F0 is interpolated through unvoiced 0.0 sentinels; interpolated values
    that fall below ``f0_floor`` snap back to 0.0 so no impossible pitch is
    emitted; a bundle from a non-default FeatureConfig needs
    ``f0_floor=cfg.f0_min``. Framing metadata is copied unchanged.
    """
    if not plan.tiles(bundle.n_frames):
        raise ShapeMismatchError(
            f"plan covers {plan.total_frames} frames, bundle has {bundle.n_frames}"
        )
    frames = np.column_stack([bundle.mel, bundle.f0])
    cuts = np.split(frames, plan.starts()[1:])
    out = np.concatenate([dsp.linear_resample(c, s.factor) for c, s in zip(cuts, plan.segments)])
    f0 = out[:, -1]
    f0[f0 < f0_floor] = 0.0
    return replace(bundle, mel=out[:, :-1], f0=f0)


def rng_for_utterance(seed: int, utt_id: str) -> SplitMix64:
    return SplitMix64(seed ^ fnv1a64(utt_id))


def rhythm_perturb(
    bundle: FeatureBundle,
    cfg: RpmConfig,
    utt_id: str,
    f0_floor: float = FeatureConfig.f0_min,
) -> tuple[FeatureBundle, SegmentPlan]:
    """Sample a segment plan keyed on (seed, utt_id) and apply it.

    Returns the perturbed bundle together with the plan for provenance.
    ``f0_floor`` is as in apply_plan: pass the extracting config's f0_min.
    """
    rng = rng_for_utterance(cfg.seed, utt_id)
    plan = sample_segment_plan(bundle.n_frames, cfg, rng)
    return apply_plan(bundle, plan, f0_floor=f0_floor), plan


def speed_perturb(audio: AudioBuffer, factor: float) -> AudioBuffer:
    """Waveform-domain time scaling: duration scales by ``factor`` while the
    sample_rate field is kept, so every frequency shifts by 1/factor on
    playback. Contrast case to feature-domain rhythm perturbation.
    """
    return AudioBuffer(
        samples=dsp.linear_resample(audio.samples, factor),
        sample_rate=audio.sample_rate,
    )


def write_plan(path: str | Path, plan: SegmentPlan, utt_id: str, seed: int) -> None:
    audio_io.write_file(path, plan.to_json(utt_id, seed) + "\n")
