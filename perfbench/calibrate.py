"""A fixed CPU kernel that measures how fast this machine is running right now.

On a shared host the speed of identical work drifts by up to 2x over seconds
to minutes (another tenant on the same physical core, frequency changes).
That drift is far wider than any change to the program a benchmark should
resolve, and it lasts longer than a run, so no in-run statistic of raw wall
times averages it out. The benchmark therefore times this kernel between
passes and scales every timing by `kernel time / REF_KERNEL_S`: a pass that
ran while the machine was slow is credited with the time it would have taken
at the reference speed.

The kernel mixes the kinds of work the program does (interpreted Python with
dict and string handling, small-array numpy calls in a recursion like the
LPC loop, batched real FFTs). It imports nothing from rhythmkit, so a change
to the program can never change the yardstick it is measured with.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Kernel time at the reference speed: the fast state of a 2-vCPU Intel Xeon
# VM with Python 3.11.7 and numpy 2.4.6. It only sets the scale of the
# normalised numbers; every run divides by the same constant.
REF_KERNEL_S = 0.16

_X = np.random.default_rng(20231018).standard_normal((64, 1024))
_LINES = [f"LA_E_{i:07d}\tspoof\tA{7 + i % 13:02d}\t{_X[i % 64, i % 1024]:.6f}" for i in range(2000)]


def _interpreted() -> float:
    s, d = 0.0, {}
    for i in range(400_000):
        s += (i * 3) % 7
        d[i & 255] = s
    return s


def _parse() -> float:
    total = 0.0
    for _ in range(30):
        rows = {}
        for line in _LINES:
            utt, key, attack, score = line.split("\t")
            rows[utt] = (key == "bonafide", attack, float(score))
        total += sum(r[2] for r in rows.values())
    return total


def _small_arrays() -> float:
    x = _X[1]
    e = 0.0
    for _ in range(600):
        r = np.correlate(x[:400], x[:400], "full")[399:418]
        a = np.zeros(19)
        a[0], e = 1.0, r[0] + 1.0
        for i in range(1, 18):
            k = -(r[i] + np.dot(a[1:i], r[i - 1 : 0 : -1])) / e
            a[1:i] = a[1:i] + k * a[i - 1 : 0 : -1]
            a[i] = k
            e *= 1.0 - k * k
    return e


def _fft() -> float:
    acc = 0.0
    for _ in range(200):
        acc += float((np.abs(np.fft.rfft(_X, axis=1)) ** 2)[0, 1])
    return acc


def kernel_seconds() -> float:
    """Wall time of one run of the fixed kernel (about REF_KERNEL_S at the
    reference speed, longer while the machine is slow)."""
    start = perf_counter()
    _interpreted()
    _parse()
    _small_arrays()
    _fft()
    return perf_counter() - start
