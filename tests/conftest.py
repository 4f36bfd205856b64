"""Shared synthetic-signal builders for the test suite."""

from __future__ import annotations

import numpy as np

from rhythmkit import AudioBuffer
from rhythmkit import dsp

FS = 16000


def formant_model(formants, bandwidths, fs=FS) -> dsp.LpcModel:
    """All-pole resonator cascade with the given formant frequencies/bandwidths."""
    poly = np.array([1.0])
    for f, b in zip(formants, bandwidths):
        r = np.exp(-np.pi * b / fs)
        theta = 2.0 * np.pi * f / fs
        poly = np.convolve(poly, [1.0, -2.0 * r * np.cos(theta), r * r])
    return dsp.LpcModel(coeffs=poly[1:], gain=1.0)


def two_formant_voice(fs=FS, seconds=1.0, f0=120.0):
    """Synthetic vowel-like utterance: smoothed 120 Hz pulse train with three
    syllable-like bursts, shaped by known 700/1200 Hz formants plus lip
    radiation. Returns (speech AudioBuffer, raw source array)."""
    n = int(seconds * fs)
    period = int(round(fs / f0))
    src = np.zeros(n)
    src[::period] = 1.0
    src = dsp.leaky_integrate(dsp.leaky_integrate(src, 0.97), 0.97)
    env = np.zeros(n)
    burst = int(0.26 * fs)
    gap = int(0.08 * fs)
    pos = 0
    while pos + burst <= n:
        env[pos : pos + burst] = np.hanning(burst)
        pos += burst + gap
    if pos == 0:  # clip shorter than one burst: single full-length burst
        env = np.hanning(n)
    src = src * env
    speech = dsp.allpole_filter(src, formant_model([700.0, 1200.0], [80.0, 100.0], fs))
    speech = speech - 0.99 * np.concatenate([[0.0], speech[:-1]])
    speech = 0.5 * speech / np.max(np.abs(speech))
    return AudioBuffer(samples=speech, sample_rate=fs), src


def irregular_voice(seed, seconds=10.0, fs=FS) -> AudioBuffer:
    """Vowel-like utterance with irregular rhythm: voiced bursts of lognormal
    length (median 0.18 s, log-sigma 0.45), each under a sqrt-Hann envelope,
    split by lognormal pauses (median 0.06 s, log-sigma 0.5).  F0 is drawn in
    100-220 Hz, falls 10% over the utterance and moves +-10% per burst, through
    two_formant_voice's pulse source; two formants are drawn in 550-850 and
    1100-1700 Hz, plus lip radiation; noise sits 60 dB below the peak."""
    rng = np.random.default_rng(seed)
    n = int(seconds * fs)
    f0_start = rng.uniform(100.0, 220.0)
    f0 = np.zeros(n)  # 0 in pauses: no pulses there
    env = np.zeros(n)
    pos = int(fs * 0.06 * np.exp(0.5 * rng.standard_normal()))
    while (burst := int(fs * 0.18 * np.exp(0.45 * rng.standard_normal()))) <= n - pos:
        env[pos : pos + burst] = np.sqrt(np.hanning(burst))
        f0[pos : pos + burst] = f0_start * (1.0 - 0.1 * pos / n) * rng.uniform(0.9, 1.1)
        pos += burst + int(fs * 0.06 * np.exp(0.5 * rng.standard_normal()))
    src = np.diff(np.floor(np.cumsum(f0) / fs), prepend=0.0)  # one pulse per period
    src = dsp.leaky_integrate(dsp.leaky_integrate(src, 0.97), 0.97) * env
    formants = [rng.uniform(550.0, 850.0), rng.uniform(1100.0, 1700.0)]
    speech = dsp.allpole_filter(src, formant_model(formants, [80.0, 100.0], fs))
    speech = speech - 0.99 * np.concatenate([[0.0], speech[:-1]])
    speech = 0.5 * speech / np.max(np.abs(speech))
    speech += 0.5e-3 * rng.standard_normal(n)
    return AudioBuffer(samples=speech, sample_rate=fs)


def sine(freq, fs=FS, seconds=1.0, amp=0.5) -> AudioBuffer:
    t = np.arange(int(seconds * fs)) / fs
    return AudioBuffer(samples=amp * np.sin(2.0 * np.pi * freq * t), sample_rate=fs)


def am_harmonic_signal(seed=7, fs=FS, seconds=1.0) -> AudioBuffer:
    """Amplitude-modulated harmonic stack with a touch of noise; converges
    well under Griffin-Lim and has a non-trivial energy envelope."""
    rng = np.random.default_rng(seed)
    t = np.arange(int(seconds * fs)) / fs
    sig = (
        np.sin(2 * np.pi * 220 * t)
        + 0.5 * np.sin(2 * np.pi * 440 * t)
        + 0.2 * np.sin(2 * np.pi * 880 * t)
    )
    sig *= 0.5 + 0.5 * np.sin(2 * np.pi * 3 * t)
    sig += 0.01 * rng.standard_normal(len(t))
    return AudioBuffer(samples=0.7 * sig / np.max(np.abs(sig)), sample_rate=fs)


def random_stable_model(rng: np.random.Generator, order: int) -> dsp.LpcModel:
    """Random minimum-phase all-pole model from conjugate pole pairs (plus one
    real pole when the order is odd)."""
    poly = np.array([1.0])
    pairs, odd = divmod(order, 2)
    for _ in range(pairs):
        radius = rng.uniform(0.3, 0.95)
        theta = rng.uniform(0.05, np.pi - 0.05)
        poly = np.convolve(poly, [1.0, -2.0 * radius * np.cos(theta), radius * radius])
    if odd:
        poly = np.convolve(poly, [1.0, -rng.uniform(-0.9, 0.9)])
    return dsp.LpcModel(coeffs=poly[1:], gain=1.0)


def separated_stable_model(rng: np.random.Generator, pairs: int) -> dsp.LpcModel:
    """Random all-pole model with one conjugate pole pair per frequency slot,
    keeping coefficient recovery well-conditioned (no near-repeated poles)."""
    edges = np.linspace(0.15, np.pi - 0.15, pairs + 1)
    poly = np.array([1.0])
    for lo, hi in zip(edges[:-1], edges[1:]):
        radius = rng.uniform(0.5, 0.9)
        theta = rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo))
        poly = np.convolve(poly, [1.0, -2.0 * radius * np.cos(theta), radius * radius])
    return dsp.LpcModel(coeffs=poly[1:], gain=1.0)
