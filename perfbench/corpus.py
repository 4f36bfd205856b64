"""Deterministic benchmark inputs, built with numpy and scipy only.

Nothing here imports rhythmkit, so a change to the program under test can
never change the inputs it is measured on.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np
from scipy.signal import lfilter

FS = 16000

# Durations of the batch corpus in seconds. The multiset and the order are
# fixed so that every seed does the same amount of IAIF and Griffin-Lim work
# and `--jobs N` always meets the 10 s file at the same place in the queue;
# the seed varies the content (signal shape parameters, F0, formants, noise).
DURATIONS = (3.0, 1.0, 10.0, 2.0, 1.5)

# Fixed-content inputs for the reference-summary check; independent of --seed.
GOLDEN = (
    ("gold_voice", "voice", 1.5, {"f0": 120.0, "f1": 700.0, "f2": 1200.0}),
    ("gold_am", "am", 1.0, {"f0": 220.0}),
)
GOLDEN_SEED = 20231018

# ASVspoof 2019 LA evaluation list size: 7,355 bonafide and 63,882 spoof trials.
SCORE_BONAFIDE = 7355
SCORE_SPOOF = 63882
SCORE_ATTACKS = tuple(f"A{i:02d}" for i in range(7, 20))


def write_pcm16(path: Path, samples: np.ndarray, fs: int = FS) -> None:
    """Mono PCM16 RIFF/WAVE, same quantisation rule as the program's writer."""
    pcm = np.clip(np.rint(np.clip(samples, -1.0, 1.0) * 32768.0), -32768, 32767)
    payload = pcm.astype("<i2").tobytes()
    fmt = struct.pack("<HHIIHH", 1, 1, fs, 2 * fs, 2, 16)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


def _resonator(formants, bandwidths, fs=FS) -> np.ndarray:
    poly = np.array([1.0])
    for f, b in zip(formants, bandwidths):
        r = np.exp(-np.pi * b / fs)
        theta = 2.0 * np.pi * f / fs
        poly = np.convolve(poly, [1.0, -2.0 * r * np.cos(theta), r * r])
    return poly


def two_formant_voice(n: int, f0: float, f1: float, f2: float, rng) -> np.ndarray:
    """Smoothed pulse train in syllable-like bursts through two formants plus
    lip radiation, peak 0.5, with a -60 dB noise floor."""
    period = int(round(FS / f0))
    src = np.zeros(n)
    src[::period] = 1.0
    for _ in range(2):
        src = lfilter([1.0], [1.0, -0.97], src)
    env = np.zeros(n)
    burst, gap = int(0.26 * FS), int(0.08 * FS)
    pos = 0
    while pos + burst <= n:
        env[pos : pos + burst] = np.hanning(burst)
        pos += burst + gap
    if pos == 0:
        env = np.hanning(n)
    speech = lfilter([1.0], _resonator([f1, f2], [80.0, 100.0]), src * env)
    speech = speech - 0.99 * np.concatenate([[0.0], speech[:-1]])
    speech = 0.5 * speech / np.max(np.abs(speech))
    return speech + 5e-4 * rng.standard_normal(n)


def am_harmonic(n: int, f0: float, rng) -> np.ndarray:
    """Harmonic stack at f0, 2f0, 4f0 under 3 Hz amplitude modulation, peak 0.7."""
    t = np.arange(n) / FS
    sig = (
        np.sin(2 * np.pi * f0 * t)
        + 0.5 * np.sin(2 * np.pi * 2 * f0 * t)
        + 0.2 * np.sin(2 * np.pi * 4 * f0 * t)
    )
    sig *= 0.5 + 0.5 * np.sin(2 * np.pi * 3 * t)
    sig += 0.01 * rng.standard_normal(n)
    return 0.7 * sig / np.max(np.abs(sig))


def _render(shape: str, seconds: float, params: dict, rng) -> np.ndarray:
    n = int(round(seconds * FS))
    if shape == "voice":
        return two_formant_voice(n, params["f0"], params["f1"], params["f2"], rng)
    return am_harmonic(n, params["f0"], rng)


def _write_manifest(path: Path, utt_ids: list[str]) -> None:
    path.write_text("".join(f"{u}\t{u}.wav\tbonafide\t-\n" for u in utt_ids), encoding="utf-8")


def make_corpus(root: Path, seed: int) -> dict:
    """Write the seeded batch corpus, its manifest and an empty manifest.

    Returns {"manifest", "empty_manifest", "lengths": {utt_id: samples}}.
    """
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    lengths = {}
    for i, seconds in enumerate(DURATIONS):
        utt = f"utt{i:02d}"
        if i % 2 == 0:
            shape = "voice"
            params = {
                "f0": rng.uniform(90.0, 240.0),
                "f1": rng.uniform(550.0, 850.0),
                "f2": rng.uniform(1100.0, 1700.0),
            }
        else:
            shape, params = "am", {"f0": rng.uniform(140.0, 320.0)}
        x = _render(shape, seconds, params, rng)
        write_pcm16(root / f"{utt}.wav", x)
        lengths[utt] = len(x)
    _write_manifest(root / "manifest.tsv", list(lengths))
    (root / "empty.tsv").write_text("", encoding="utf-8")
    return {
        "manifest": root / "manifest.tsv",
        "empty_manifest": root / "empty.tsv",
        "lengths": lengths,
    }


def make_golden(root: Path) -> Path:
    """Write the fixed reference inputs and their manifest."""
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(GOLDEN_SEED)
    for utt, shape, seconds, params in GOLDEN:
        write_pcm16(root / f"{utt}.wav", _render(shape, seconds, params, rng))
    _write_manifest(root / "manifest.tsv", [g[0] for g in GOLDEN])
    return root / "manifest.tsv"


def make_scores(root: Path, seed: int) -> dict:
    """Write an ASVspoof-2019-LA-sized score file and a 2-trial score file.

    Scores are Gaussian: bonafide around +2, each attack around its own mean
    between -2 and +1, so the per-attack EERs spread from easy to hard. Scores
    carry 6 decimals, which makes ties occur as they do in real score files.
    """
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    attack_means = rng.uniform(-2.0, 1.0, len(SCORE_ATTACKS))
    keys = ["bonafide"] * SCORE_BONAFIDE + ["spoof"] * SCORE_SPOOF
    attacks = ["-"] * SCORE_BONAFIDE + [
        SCORE_ATTACKS[i] for i in rng.integers(0, len(SCORE_ATTACKS), SCORE_SPOOF)
    ]
    means = np.array([2.0] * SCORE_BONAFIDE + [attack_means[SCORE_ATTACKS.index(a)]
                                               for a in attacks[SCORE_BONAFIDE:]])
    scores = np.round(means + rng.standard_normal(len(means)), 6)
    order = rng.permutation(len(keys))
    lines = [
        f"LA_E_{i:07d}\t{keys[j]}\t{attacks[j]}\t{scores[j]:.6f}\n"
        for i, j in enumerate(order)
    ]
    (root / "scores.tsv").write_text("".join(lines), encoding="utf-8")
    (root / "scores2.tsv").write_text(
        "LA_T_0000001\tbonafide\t-\t1.000000\nLA_T_0000002\tspoof\tA07\t-1.000000\n",
        encoding="utf-8",
    )
    return {"scores": root / "scores.tsv", "scores2": root / "scores2.tsv"}
