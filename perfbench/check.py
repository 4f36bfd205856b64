"""Output checks, written against the file formats and the documented
contracts, not against rhythmkit's own code.

Each check returns the ids of the items (utterances, or one whole EER report)
whose outputs are wrong; an empty list means the outputs passed.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

PCM16_STEP = 1.0 / 32768.0
OUTPUT_PEAK = 0.95

# IAIF framing at 16 kHz (25 ms window, 5 ms hop) and feature framing.
IAIF_WIN, IAIF_HOP = 400, 80
FEAT_WIN, FEAT_HOP, N_FFT = 1024, 256, 1024
SEG_MIN, SEG_MAX, FACTOR_LO, FACTOR_HI = 19, 32, 0.5, 1.5
MEL_LOG_FLOOR = 1e-10
DB_PER_NEPER_POWER = 10.0 / np.log(10.0)

TTS_ATTACKS = tuple(f"A{i:02d}" for i in range(7, 17))
VC_ATTACKS = tuple(f"A{i:02d}" for i in range(17, 20))

# Reference summaries may move by FFT/ulp drift (a few PCM16 steps on a few
# samples) but not by an algorithmic change, which moves them by percents.
SUMMARY_RTOL = 1e-3
SUMMARY_DB_ATOL = 0.1
MEL_ERR_RTOL = 1e-2
F0_RTOL = 5e-3


def read_wav(path: Path) -> np.ndarray:
    """Samples of a mono PCM16 or float32 RIFF/WAVE file as float64."""
    raw = path.read_bytes()
    if raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise ValueError(f"{path}: not RIFF/WAVE")
    chunks, off = {}, 12
    while off + 8 <= len(raw):
        cid, size = raw[off : off + 4], struct.unpack_from("<I", raw, off + 4)[0]
        chunks.setdefault(cid, raw[off + 8 : off + 8 + size])
        off += 8 + size + (size & 1)
    fmt, bits = struct.unpack_from("<H", chunks[b"fmt "])[0], struct.unpack_from("<H", chunks[b"fmt "], 14)[0]
    if (fmt, bits) == (1, 16):
        return np.frombuffer(chunks[b"data"], dtype="<i2").astype(np.float64) / 32768.0
    if (fmt, bits) == (3, 32):
        return np.frombuffer(chunks[b"data"], dtype="<f4").astype(np.float64)
    raise ValueError(f"{path}: unsupported format {fmt}/{bits}")


def read_rfb(path: Path) -> tuple[np.ndarray, np.ndarray, int, int, float]:
    """(mel, f0, hop, win, sample_rate) of a feature file."""
    raw = path.read_bytes()
    if raw[:4] != b"RFB1":
        raise ValueError(f"{path}: bad magic")
    version, n_frames, n_mels, fs, hop, win = struct.unpack_from("<IIIdII", raw, 4)
    off = 4 + struct.calcsize("<IIIdII")
    if version != 1 or len(raw) != off + 8 * n_frames * (n_mels + 1):
        raise ValueError(f"{path}: bad header or payload size")
    mel = np.frombuffer(raw, "<f8", n_frames * n_mels, off).reshape(n_frames, n_mels)
    f0 = np.frombuffer(raw, "<f8", n_frames, off + 8 * n_frames * n_mels)
    return mel, f0, hop, win, fs


def summary(x: np.ndarray) -> dict:
    """Length, RMS, the level of 16 equal-width frequency bands and of each
    100 ms block, both in dB relative to the whole signal."""
    power = np.abs(np.fft.rfft(x)) ** 2
    bands = np.array([b.sum() for b in np.array_split(power, 16)])
    blocks = np.array([np.mean(b * b) for b in np.array_split(x, max(1, len(x) // 1600))])
    return {
        "n": int(len(x)),
        "rms": float(np.sqrt(np.mean(x * x))),
        "bands_db": (10.0 * np.log10(bands / bands.sum() + 1e-30)).tolist(),
        "blocks_db": (10.0 * np.log10(blocks / np.mean(x * x) + 1e-30)).tolist(),
    }


def summary_matches(got: dict, want: dict) -> bool:
    return (
        got["n"] == want["n"]
        and abs(got["rms"] - want["rms"]) <= SUMMARY_RTOL * want["rms"]
        and np.allclose(got["bands_db"], want["bands_db"], rtol=0.0, atol=SUMMARY_DB_ATOL)
        and np.allclose(got["blocks_db"], want["blocks_db"], rtol=0.0, atol=SUMMARY_DB_ATOL)
    )


def f0_summary(f0: np.ndarray) -> dict:
    voiced = f0[f0 > 0.0]
    return {"voiced": int(len(voiced)), "mean_hz": float(voiced.mean()) if len(voiced) else 0.0}


def f0_matches(got: dict, want: dict) -> bool:
    """One frame may flip voicing at the threshold; the mean may not move by 0.5%."""
    return (
        abs(got["voiced"] - want["voiced"]) <= 1
        and abs(got["mean_hz"] - want["mean_hz"]) <= F0_RTOL * want["mean_hz"]
    )


def _ola_length(n_samples: int, win: int, hop: int) -> int:
    frames = 1 + (n_samples - win) // hop
    return (frames - 1) * hop + win


# --- glottal -----------------------------------------------------------------

def check_glottal(out_dir: Path, lengths: dict[str, int]) -> list[str]:
    """Each flow exists, has the overlap-add length and peaks at 0.95."""
    bad = []
    for utt, n in lengths.items():
        path = out_dir / f"{utt}.glottal.wav"
        try:
            x = read_wav(path)
        except (OSError, ValueError, KeyError):
            bad.append(utt)
            continue
        if len(x) != _ola_length(n, IAIF_WIN, IAIF_HOP) or not (
            abs(np.max(np.abs(x)) - OUTPUT_PEAK) <= PCM16_STEP
        ):
            bad.append(utt)
    return bad


def same_bytes(out_dir: Path, ref_dir: Path, names: list[str]) -> list[str]:
    """Names whose files differ from (or are missing next to) the reference."""
    bad = []
    for name in names:
        try:
            if (out_dir / name).read_bytes() != (ref_dir / name).read_bytes():
                bad.append(name)
        except OSError:
            bad.append(name)
    return bad


# --- augment -----------------------------------------------------------------

_MASK64 = (1 << 64) - 1


def _fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


def expected_plan(n_frames: int, seed: int, utt: str) -> list[dict]:
    """Segment plan per the README: splitmix64 seeded with seed ^ fnv1a64(utt),
    one length draw then one factor draw per segment, last one clipped."""
    state = (seed ^ _fnv1a64(utt)) & _MASK64

    def next_float() -> float:
        nonlocal state
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return ((z ^ (z >> 31)) >> 11) * (2.0 ** -53)

    segments, pos = [], 0
    while pos < n_frames:
        length = min(SEG_MIN + int(next_float() * (SEG_MAX - SEG_MIN + 1)), SEG_MAX)
        factor = FACTOR_LO + next_float() * (FACTOR_HI - FACTOR_LO)
        length = min(length, n_frames - pos)
        segments.append({"start": pos, "len": length, "factor": factor})
        pos += length
    return segments


def _resampled_length(length: int, factor: float) -> int:
    return max(1, int(np.floor(length * factor + 0.5)))


def _mel_filterbank(n_mels: int, fs: float) -> np.ndarray:
    def hz_to_mel(f):
        return 2595.0 * np.log10(1.0 + np.asarray(f) / 700.0)

    mel_pts = np.linspace(hz_to_mel(0.0), hz_to_mel(fs / 2.0), n_mels + 2)
    hz = 700.0 * (10.0 ** (mel_pts / 2595.0) - 1.0)
    freqs = np.arange(N_FFT // 2 + 1) * (fs / N_FFT)
    lo, mid, hi = hz[:-2, None], hz[1:-1, None], hz[2:, None]
    fb = np.maximum(0.0, np.minimum((freqs - lo) / (mid - lo), (hi - freqs) / (hi - mid)))
    return fb / fb.max(axis=1, keepdims=True)


def log_mel(x: np.ndarray, n_mels: int, fs: float) -> np.ndarray:
    """Natural-log mel power per frame, the feature-file definition."""
    n = 1 + (len(x) - FEAT_WIN) // FEAT_HOP
    idx = np.arange(FEAT_WIN)[None, :] + FEAT_HOP * np.arange(n)[:, None]
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(FEAT_WIN) / FEAT_WIN)
    power = np.abs(np.fft.rfft(x[idx] * window, n=N_FFT, axis=1)) ** 2
    return np.log(np.maximum(power @ _mel_filterbank(n_mels, fs).T, MEL_LOG_FLOOR))


def mel_error_sq(synth: np.ndarray, mel: np.ndarray, fs: float) -> tuple[float, int]:
    """(sum of squared dB differences, count) between the synth's log-mel and
    the rendered features, after removing the mean (gain) offset."""
    d = DB_PER_NEPER_POWER * (log_mel(synth, mel.shape[1], fs) - mel)
    d -= d.mean()
    return float(np.sum(d * d)), d.size


def check_augment(
    out_dir: Path, lengths: dict[str, int], seed: int, want_mel_err: bool = False
) -> tuple[list[str], float | None]:
    """Plans tile the input frames and follow the seeded plan law, synth and
    feature lengths follow the duration law, manifest rows read spoof/RPM.

    Returns the failed utterances and, when asked, the pooled mel_err_db."""
    bad, sq, count = [], 0.0, 0
    try:
        rows = (out_dir / "manifest.tsv").read_text(encoding="utf-8").splitlines()
    except OSError:
        rows = []
    want_rows = [f"{u}\t{u}.synth.wav\tspoof\tRPM" for u in lengths]
    for utt, n in lengths.items():
        try:
            plan = json.loads((out_dir / f"{utt}.plan.json").read_text(encoding="utf-8"))
            synth = read_wav(out_dir / f"{utt}.synth.wav")
            mel, f0, hop, win, fs = read_rfb(out_dir / f"{utt}.rfb")
            segs = plan["segments"]
            starts = list(np.cumsum([0] + [s["len"] for s in segs])[:-1])
            tiles = [s["start"] for s in segs] == starts
            out_frames = sum(_resampled_length(s["len"], s["factor"]) for s in segs)
        except (OSError, ValueError, KeyError, TypeError):
            bad.append(utt)
            continue
        in_frames = 1 + (n - FEAT_WIN) // FEAT_HOP
        ok = (
            tiles
            and sum(s["len"] for s in segs) == in_frames
            and plan.get("utt_id") == utt
            and plan.get("seed") == seed
            and segs == expected_plan(in_frames, seed, utt)
            and mel.shape[0] == out_frames
            and (hop, win) == (FEAT_HOP, FEAT_WIN)
            and len(synth) == (out_frames - 1) * FEAT_HOP + FEAT_WIN
            and abs(np.max(np.abs(synth)) - OUTPUT_PEAK) <= PCM16_STEP
            and bool(np.all(np.isfinite(mel)))
            and bool(np.all((f0 == 0.0) | ((f0 >= 50.0) & (f0 <= 500.0))))
        )
        if not ok:
            bad.append(utt)
        elif want_mel_err:
            s, c = mel_error_sq(synth, mel, fs)
            sq, count = sq + s, count + c
    if rows != want_rows:
        bad.extend(u for u in lengths if u not in bad)
    mel_err = float(np.sqrt(sq / count)) if want_mel_err and count else None
    return bad, mel_err


# --- eer ---------------------------------------------------------------------

def read_score_file(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    keys, attacks, scores = [], [], []
    for line in path.read_text(encoding="utf-8").splitlines():
        _, key, attack, score = line.split("\t")
        keys.append(key)
        attacks.append(attack)
        scores.append(float(score))
    return np.array(keys), np.array(attacks), np.array(scores)


def sweep_eer(bona: np.ndarray, spoof: np.ndarray) -> float:
    """EER by evaluating FRR (bonafide < t) and FAR (spoof >= t) at every
    distinct score plus one sentinel above them all, then interpolating the
    first crossing linearly. Counts come from one merged sort."""
    scores = np.concatenate([bona, spoof])
    is_bona = np.concatenate([np.ones(len(bona)), np.zeros(len(spoof))])
    order = np.argsort(scores, kind="stable")
    scores, is_bona = scores[order], is_bona[order]
    thr, first = np.unique(scores, return_index=True)
    bona_below = np.concatenate([[0.0], np.cumsum(is_bona)])
    below = np.append(first, len(scores))  # trials strictly below each threshold
    n_bona_lt = bona_below[below]
    n_spoof_lt = below - n_bona_lt
    frr = n_bona_lt / len(bona)
    far = (len(spoof) - n_spoof_lt) / len(spoof)
    diff = far - frr
    i = int(np.argmax(diff <= 0.0))
    if diff[i] == 0.0:
        return float((far[i] + frr[i]) / 2.0)
    alpha = diff[i - 1] / (diff[i - 1] - diff[i])
    far_x = far[i - 1] + alpha * (far[i] - far[i - 1])
    frr_x = frr[i - 1] + alpha * (frr[i] - frr[i - 1])
    return float((far_x + frr_x) / 2.0)


def reference_report(path: Path) -> dict:
    """Percent EERs for the pooled total, TTS, VC and each attack."""
    keys, attacks, scores = read_score_file(path)
    bona = scores[keys == "bonafide"]
    spoof = keys == "spoof"

    def pool(members) -> float:
        return 100.0 * sweep_eer(bona, scores[spoof & np.isin(attacks, members)])

    present = sorted(set(attacks[spoof]))
    return {
        "total": 100.0 * sweep_eer(bona, scores[spoof]),
        "tts": pool(TTS_ATTACKS),
        "vc": pool(VC_ATTACKS),
        "per_attack": {a: pool([a]) for a in present},
    }


def check_eer(output: str, want: dict, atol: float = 1e-9) -> bool:
    try:
        got = json.loads(output)
    except json.JSONDecodeError:
        return False
    if not isinstance(got, dict) or set(got) != set(want):
        return False
    if set(got["per_attack"]) != set(want["per_attack"]):
        return False
    pairs = [(got[k], want[k]) for k in ("total", "tts", "vc")]
    pairs += [(got["per_attack"][a], v) for a, v in want["per_attack"].items()]
    return all(isinstance(g, (int, float)) and abs(g - w) <= atol for g, w in pairs)
