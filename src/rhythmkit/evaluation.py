"""Equal error rate over detector score files, pooled and per attack.

Convention, fixed so every consumer agrees: FRR(t) is the fraction of
bonafide trials scoring strictly below t, FAR(t) the fraction of spoof
trials scoring at or above t (ties accepted). The EER is read off the
linearly interpolated crossing of those two step functions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio_io import MANIFEST_KEYS, read_tsv
from .errors import InsufficientClassesError, UnknownAttackError

# ASVspoof 2019 LA evaluation protocol: A07-A16 synthesize from text,
# A17-A19 convert voices.
DEFAULT_ATTACK_GROUPS: dict[str, str] = {
    **{f"A{i:02d}": "TTS" for i in range(7, 17)},
    **{f"A{i:02d}": "VC" for i in range(17, 20)},
}


@dataclass(frozen=True, eq=False)  # a generated == would compare arrays
class ScoreSet:
    """Trials as three equal-length columns: finite float64 scores, a bool
    bonafide mask and the attack label (str) of each trial. Labels are held
    as objects, so one long label does not widen a fixed-width str column."""

    scores: np.ndarray
    bonafide: np.ndarray
    attack: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in (("scores", np.float64), ("bonafide", bool), ("attack", object)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        shape = self.scores.shape
        if len(shape) != 1 or self.bonafide.shape != shape or self.attack.shape != shape:
            raise ValueError("scores, bonafide and attack must be equal-length 1-D arrays")
        if not np.all(np.isfinite(self.scores)):
            raise ValueError("scores must be finite")


@dataclass(frozen=True)
class EerResult:
    eer: float


@dataclass(frozen=True)
class EerBreakdown:
    total: EerResult
    tts: EerResult | None
    vc: EerResult | None
    per_attack: dict[str, EerResult]


def _score_set(columns: list[list[str]]) -> ScoreSet:
    """The ScoreSet of a score file's columns; a bad row raises ValueError:
    first an unparsable score, then a key not in MANIFEST_KEYS, then a
    non-finite score."""
    _, keys, attack, score_texts = columns
    scores = np.fromiter(map(float, score_texts), np.float64, len(score_texts))
    if not set(keys) <= set(MANIFEST_KEYS):
        key = next(k for k in keys if k not in MANIFEST_KEYS)
        raise ValueError(f"key must be one of {MANIFEST_KEYS}, got {key!r}")
    finite = np.isfinite(scores)
    if not finite.all():
        raise ValueError(f"score must be finite, got {score_texts[int(np.argmin(finite))]!r}")
    return ScoreSet(scores, np.array(keys, dtype=object) == "bonafide", attack)


def read_scores(path: str | Path) -> ScoreSet:
    """Parse a score TSV: utt_id, key, attack, score; one trial per line."""
    return read_tsv(path, 4, "score file", _score_set)


def _sorted_scores(name: str, values: np.ndarray) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} scores must be a 1-D array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} scores must be finite")
    return np.sort(arr)


def eer_from_scores(bonafide: np.ndarray, spoof: np.ndarray) -> EerResult:
    """EER of raw 1-D finite score arrays (higher score = more bonafide)."""
    bona = _sorted_scores("bonafide", bonafide)
    spoof = _sorted_scores("spoof", spoof)
    if len(bona) == 0 or len(spoof) == 0:
        raise InsufficientClassesError(
            f"need at least one bonafide and one spoof trial, got {len(bona)}/{len(spoof)}"
        )
    # The two sorted runs laid end to end: a stable argsort merges them in
    # linear time. At the first occurrence of each distinct score t, the
    # trials before it are exactly those scoring below t.
    both = np.concatenate([bona, spoof])
    order = np.argsort(both, kind="stable")
    merged = both[order]
    first = np.flatnonzero(np.concatenate([[True], merged[1:] != merged[:-1]]))
    bona_below = np.concatenate([[0], np.cumsum(order < len(bona))])
    # A sentinel past every score: FAR 0, FRR 1, so a crossing always exists.
    at = np.append(first, len(merged))
    frr = bona_below[at] / len(bona)
    far = (len(spoof) - (at - bona_below[at])) / len(spoof)
    diff = far - frr  # non-increasing, starts at +1, ends at -1
    idx = int(np.argmax(diff <= 0.0))
    if diff[idx] == 0.0:
        return EerResult(eer=float((far[idx] + frr[idx]) / 2.0))
    prev = idx - 1
    alpha = diff[prev] / (diff[prev] - diff[idx])
    eer_far = far[prev] + alpha * (far[idx] - far[prev])
    eer_frr = frr[prev] + alpha * (frr[idx] - frr[prev])
    return EerResult(eer=float((eer_far + eer_frr) / 2.0))


def eer_breakdown(scores: ScoreSet, attack_groups: dict[str, str] | None = None) -> EerBreakdown:
    """Pooled total, per-group (TTS/VC) and per-attack EER.

    Every pool reuses all bonafide trials against the selected spoof trials.
    An attack label missing from the mapping raises UnknownAttackError.
    """
    groups = DEFAULT_ATTACK_GROUPS if attack_groups is None else attack_groups
    spoof_mask = ~scores.bonafide
    bona = scores.scores[scores.bonafide]
    spoof_attack = scores.attack[spoof_mask]
    attacks = sorted(set(spoof_attack))
    unknown = [a for a in attacks if a not in groups]
    if unknown:
        raise UnknownAttackError(f"attacks with no TTS/VC mapping: {unknown}")
    spoof = scores.scores[spoof_mask]
    # Code each spoof trial's label once: pools are then integer compares, not np.isin over objects.
    code = {a: i for i, a in enumerate(attacks)}
    codes = np.fromiter(map(code.__getitem__, spoof_attack), np.intp, len(spoof))
    per_attack = {a: eer_from_scores(bona, spoof[codes == i]) for i, a in enumerate(attacks)}
    result: dict[str, EerResult | None] = {}
    for group in ("TTS", "VC"):
        member = np.array([groups[a] == group for a in attacks], dtype=bool)
        pooled = spoof[member[codes]]
        result[group] = eer_from_scores(bona, pooled) if len(pooled) else None
    return EerBreakdown(
        total=eer_from_scores(bona, spoof),
        tts=result["TTS"],
        vc=result["VC"],
        per_attack=per_attack,
    )


def _group_map(columns: list[list[str]]) -> dict[str, str]:
    attacks, groups = columns
    if not set(groups) <= {"TTS", "VC"}:
        raise ValueError("expected '<attack>\\tTTS|VC'")
    return dict(zip(attacks, groups))


def load_attack_groups(path: str | Path) -> dict[str, str]:
    """Read an attack -> {TTS, VC} mapping file (TSV, one pair per line)."""
    return read_tsv(path, 2, "mapping file", _group_map)


def _pct(result: EerResult | None) -> str:
    return "-" if result is None else f"{100.0 * result.eer:.2f}"


def format_report(breakdown: EerBreakdown) -> str:
    """Aligned-column text: TTS, VC, Total, then one column per attack."""
    headers = ["TTS", "VC", "Total"] + sorted(breakdown.per_attack)
    values = [_pct(breakdown.tts), _pct(breakdown.vc), _pct(breakdown.total)]
    values += [_pct(breakdown.per_attack[a]) for a in sorted(breakdown.per_attack)]
    widths = [max(len(h), len(v)) for h, v in zip(headers, values)]
    head = "  ".join(h.rjust(w) for h, w in zip(headers, widths))
    body = "  ".join(v.rjust(w) for v, w in zip(values, widths))
    return head + "\n" + body + "\n"


def report_json(breakdown: EerBreakdown) -> str:
    """EER percentages as JSON: {total, tts, vc, per_attack}."""
    doc = {
        "total": 100.0 * breakdown.total.eer,
        "tts": None if breakdown.tts is None else 100.0 * breakdown.tts.eer,
        "vc": None if breakdown.vc is None else 100.0 * breakdown.vc.eer,
        "per_attack": {a: 100.0 * r.eer for a, r in sorted(breakdown.per_attack.items())},
    }
    return json.dumps(doc, indent=2)
