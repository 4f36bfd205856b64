"""Outside-in tracing of rhythmkit's layers.

The tracer rebinds module attributes that callers look up at run time (for
example ``rhythmkit.dsp.levinson_durbin``, or ``rhythmkit.cli.extract_glottal_flow``
where cli imported the name) to wrappers that record spans. Nothing under
``src/`` is edited; ``restore()`` puts every original back.

A span is [name, start, end, parent span, utterance id, raised]. Spans are
kept in memory and written out once, when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path
from statistics import median
from time import perf_counter

# Public functions per layer, as "module.function". Each is wrapped wherever
# a rhythmkit module holds a reference to it.
TRACED = (
    "audio_io.read_wav", "audio_io.write_wav", "audio_io.write_features",
    "audio_io.read_manifest", "audio_io.write_manifest",
    "dsp.frame_signal", "dsp.overlap_add", "dsp.autocorrelation",
    "dsp.levinson_durbin", "dsp.inverse_filter", "dsp.leaky_integrate",
    "glottal.highpass", "glottal.iaif_frame", "glottal.extract_glottal_flow",
    "features.mel_filterbank", "features.mel_spectrogram", "features.estimate_f0",
    "features.extract_features",
    "rpm.rhythm_perturb", "rpm.write_plan",
    "synthesis.mel_to_linear", "synthesis.griffin_lim", "synthesis.copy_synthesize",
    "evaluation.read_scores", "evaluation.eer_breakdown", "evaluation.eer_from_scores",
    "evaluation.report_json",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args=(), kwargs=None, parent=None, utt=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        if utt is None and parent is not None:
            utt = parent[4]
        span = [name, 0.0, 0.0, parent, utt, False]
        stack.append(span)
        span[1] = perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        except BaseException:
            span[5] = True
            raise
        finally:
            span[2] = perf_counter()
            stack.pop()
            self.spans.append(span)

    def count(self, key: str, value: float) -> None:
        with self._lock:
            self.counters[key] += value

    def sample(self, key: str, value: float) -> None:
        with self._lock:
            self.samples[key].append(value)

    def take(self) -> tuple[list[list], dict, dict]:
        """Hand over and clear what the last pass recorded."""
        taken = (self.spans, dict(self.counters), dict(self.samples))
        self.spans, self.counters, self.samples = [], defaultdict(float), defaultdict(list)
        return taken

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = tracer.call(name, fn, args, kwargs)
            if observe is not None:
                observe(tracer, args, result)
            return result

        return traced

    def _rebind(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "rhythmkit" and not mod_name.startswith("rhythmkit."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        """Wrap every TRACED function and the per-utterance worker in cli."""
        for qual in TRACED:
            mod_name, fn_name = qual.split(".")
            module = importlib.import_module(f"rhythmkit.{mod_name}")
            original = getattr(module, fn_name)
            self._rebind(original, self._wrap(qual, original, OBSERVERS.get(qual)))

        cli = importlib.import_module("rhythmkit.cli")
        run_batch = cli._run_batch
        tracer = self

        @functools.wraps(run_batch)
        def traced_run_batch(entries, worker, jobs):
            parent = tracer.current()
            tracer.count("cli.jobs", jobs)

            def traced_worker(entry):
                return tracer.call("cli.worker", worker, (entry,), parent=parent, utt=entry.utt_id)

            return run_batch(entries, traced_worker, jobs)

        self._rebind(run_batch, traced_run_batch)

    def restore(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()


def write_spans(path: Path, passes: list[list[list]]) -> None:
    """TSV: pass, index, name, start, end, parent index, utterance id, raised."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pass\tindex\tname\tstart\tend\tparent\tutt\traised\n")
        for k, spans in enumerate(passes):
            index = {id(s): i for i, s in enumerate(spans)}
            for i, (name, start, end, parent, utt, raised) in enumerate(spans):
                p = index.get(id(parent), -1)
                fh.write(f"{k}\t{i}\t{name}\t{start:.9f}\t{end:.9f}\t{p}\t{utt or '-'}\t{int(raised)}\n")


# -- observers: counters read from arguments and results ----------------------

def _bytes_written(tracer, args, result):
    tracer.count("audio_io.bytes_written", os.path.getsize(args[0]))


def _voiced(tracer, args, result):
    tracer.count("features.voiced_frames", float((result > 0.0).sum()))
    tracer.count("features.f0_frames", float(len(result)))


def _frame_ratio(tracer, args, result):
    tracer.count("rpm.frames_in", args[0].n_frames)
    tracer.count("rpm.frames_out", result[0].n_frames)


def _griffin_lim(tracer, args, result):
    objective = result.objective
    tracer.count("synthesis.griffin_lim.iters", len(objective) - 1)
    tracer.sample("synthesis.objective_ratio", objective[-1] / objective[0])


OBSERVERS = {
    "audio_io.write_wav": _bytes_written,
    "audio_io.write_features": _bytes_written,
    "audio_io.write_manifest": _bytes_written,
    "features.estimate_f0": _voiced,
    "rpm.rhythm_perturb": _frame_ratio,
    "synthesis.griffin_lim": _griffin_lim,
}


# -- per-pass statistics --------------------------------------------------------

def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def pass_stats(spans: list[list], counters: dict, samples: dict) -> dict[str, float]:
    """Per-name calls, errors, total and self seconds for one pass, plus the
    derived ratios named in BENCHMARK.json."""
    children = defaultdict(list)
    for s in spans:
        if s[3] is not None:
            children[id(s[3])].append((s[1], s[2]))
    stats: dict[str, float] = defaultdict(float)
    for s in spans:
        name, start, end = s[0], s[1], s[2]
        stats[f"{name}.calls"] += 1
        stats[f"{name}.errors"] += s[5]
        stats[f"{name}.s"] += end - start
        stats[f"{name}.self_s"] += (end - start) - _covered(children.get(id(s), []), start, end)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out = dict(stats)
    out["cli.self_s"] = stats["cli.main.self_s"]
    jobs = counters.get("cli.jobs", 0.0)
    out["cli.pool_busy_frac"] = ratio(stats["cli.worker.s"], stats["cli.main.s"] * jobs)
    out["glottal.unstable_frame_frac"] = ratio(
        stats["glottal.iaif_frame.errors"], stats["glottal.iaif_frame.calls"]
    )
    out["features.voiced_frac"] = ratio(
        counters.get("features.voiced_frames", 0.0), counters.get("features.f0_frames", 0.0)
    )
    out["rpm.frame_ratio"] = ratio(counters.get("rpm.frames_out", 0.0), counters.get("rpm.frames_in", 0.0))
    iters = counters.get("synthesis.griffin_lim.iters", 0.0)
    out["synthesis.griffin_lim.iters"] = iters
    out["synthesis.griffin_lim.ms_per_iter"] = ratio(1000.0 * stats["synthesis.griffin_lim.s"], iters)
    ratios = samples.get("synthesis.objective_ratio", [])
    out["synthesis.griffin_lim.objective_ratio"] = float(median(ratios)) if ratios else 0.0
    out["audio_io.bytes_written"] = counters.get("audio_io.bytes_written", 0.0)
    return out


def combine(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median over passes of each per-pass value (counts repeat exactly)."""
    keys = set().union(*per_pass)
    return {k: float(median(p.get(k, 0.0) for p in per_pass)) for k in keys}
