"""rhythmkit benchmark: four CLI workloads, checked outputs, one JSON result.

    python3 perfbench/run.py --workload glottal --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 0

Run from the repository root; the program is imported from ./src. With
--trace 0 the last stdout line carries the end-to-end metrics listed in
BENCHMARK.json, with --trace 1 the per-layer metrics. Lines before it start
with '#' and give the environment and a readable summary. Scratch files go to
.perfbench_work/<workload>/.
"""

from __future__ import annotations

import os

# One thread per BLAS/OpenMP pool, here and in every child process, so that
# `--jobs` is the only parallelism. Must be set before numpy is imported.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median, quantiles  # noqa: E402
from time import perf_counter  # noqa: E402

import calibrate  # noqa: E402
import check  # noqa: E402
import corpus  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("glottal", "glottal-par", "augment", "eer")
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
MIN_BLOCKS = 3
BLOCK_S = 1.5
CHILD_TIMEOUT_S = 150.0

IMPORT_PROBE = """
import json, time
t0 = time.perf_counter(); import numpy
t1 = time.perf_counter(); import scipy.signal
t2 = time.perf_counter(); import rhythmkit.cli
t3 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t1, t3 - t2]))
"""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads_per_pool": 1,
    }


def load_program():
    """Import rhythmkit from ./src and nowhere else."""
    if not (SRC / "rhythmkit" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no rhythmkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rhythmkit.cli

    if not Path(rhythmkit.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: rhythmkit was imported from {rhythmkit.cli.__file__}")
    return rhythmkit.cli


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def fresh_process(argv: list[str], log_path: Path) -> tuple[int, float, float]:
    """Run the CLI in a new interpreter: (exit code, wall s, peak RSS MB)."""
    with open(log_path, "ab") as log:
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "rhythmkit.cli", *argv],
            stdout=log, stderr=log, env=child_env(), cwd=ROOT,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def measure_imports(log_path: Path) -> dict[str, float]:
    """Median import times in fresh interpreters; the rest of the process
    wall time is the interpreter's own start and exit."""
    rows = []
    for _ in range(IMPORT_REPEATS):
        start = perf_counter()
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=child_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        wall = perf_counter() - start
        numpy_s, scipy_s, rk_s = json.loads(out.stdout.strip().splitlines()[-1])
        rows.append((wall - numpy_s - scipy_s - rk_s, numpy_s, scipy_s, rk_s))
    names = ("import.interpreter_s", "import.numpy_s", "import.scipy_signal_s", "import.rhythmkit_s")
    return {n: float(median(r[i] for r in rows)) for i, n in enumerate(names)}


class Workload:
    """Inputs, CLI arguments and output checks of one workload."""

    def __init__(self, name: str, seed: int, work: Path) -> None:
        self.name, self.seed, self.work = name, seed, work
        self.jobs = nproc() if name == "glottal-par" else 1
        inputs = work / "inputs"
        if name == "eer":
            files = corpus.make_scores(inputs, seed)
            self.input, self.empty_input = files["scores"], files["scores2"]
            self.reference = check.reference_report(self.input)
            self.units = corpus.SCORE_BONAFIDE + corpus.SCORE_SPOOF
            self.unit_name = "trials_per_s"
        else:
            files = corpus.make_corpus(inputs, seed)
            self.input, self.empty_input = files["manifest"], files["empty_manifest"]
            self.lengths = files["lengths"]
            self.units = sum(self.lengths.values()) / corpus.FS
            self.unit_name = "audio_s_per_s"
        self.ref_dir = work / "ref_jobs1"
        self.mel_err_db: float | None = None

    def argv(self, manifest: Path, out: Path, jobs: int | None = None) -> list[str]:
        if self.name == "eer":
            return ["eer", str(manifest), "--json"]
        command = "augment" if self.name == "augment" else "glottal"
        return batch_argv(command, manifest, out, self.jobs if jobs is None else jobs, self.seed)

    def attempted(self) -> int:
        return self.units if self.name == "eer" else len(self.lengths)

    def failures(self, rc: int, out: Path, stdout: str) -> int:
        """Number of utterances (or trials) whose outputs are wrong."""
        if self.name == "eer":
            ok = rc == 0 and check.check_eer(stdout, self.reference)
            return 0 if ok else self.units
        if self.name == "augment":
            bad, mel_err = check.check_augment(
                out, self.lengths, self.seed, want_mel_err=self.mel_err_db is None
            )
            if mel_err is not None:
                self.mel_err_db = mel_err
        else:
            bad = check.check_glottal(out, self.lengths)
            if self.name == "glottal-par" and self.ref_dir.is_dir():
                names = [f"{u}.glottal.wav" for u in self.lengths]
                bad += [n.split(".")[0] for n in check.same_bytes(out, self.ref_dir, names)]
        bad = set(bad)
        if rc != 0 and not bad:
            bad = set(self.lengths)
        return len(bad)


class Runner:
    """In-process CLI passes, timed after set-up, checked after timing."""

    def __init__(self, cli, wl: Workload) -> None:
        self.cli, self.wl = cli, wl
        self.attempted = 0
        self.failed = 0
        self.kernel_s: list[float] = []

    def calibrate(self) -> float:
        self.kernel_s.append(calibrate.kernel_seconds())
        return self.kernel_s[-1]

    def one_pass(self, manifest: Path, out: Path, jobs=None, tracer=None, verify=True) -> float:
        shutil.rmtree(out, ignore_errors=True)
        argv = self.wl.argv(manifest, out, jobs)
        captured = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(captured):
            if tracer is None:
                rc = self.cli.main(argv)
            else:
                rc = tracer.call("cli.main", self.cli.main, (argv,))
        wall = perf_counter() - start
        if verify:
            self.attempted += self.wl.attempted()
            self.failed += self.wl.failures(rc, out, captured.getvalue())
        return wall

    def warm_up(self) -> None:
        """Fill caches and finish lazy set-up before timing. For glottal-par
        this is the `--jobs 1` run whose bytes every parallel pass must match."""
        wl = self.wl
        if wl.name == "glottal-par":
            self.one_pass(wl.input, wl.ref_dir, jobs=1)
        elif wl.name == "eer":
            self.one_pass(wl.empty_input, wl.work / "warm", verify=False)
        else:
            first = next(iter(wl.lengths))
            warm = wl.work / "inputs" / "warm.tsv"
            warm.write_text(f"{first}\t{first}.wav\tbonafide\t-\n", encoding="utf-8")
            self.one_pass(warm, wl.work / "warm", verify=False)

    def timed(self, seconds: float, tracer=None, on_pass=None) -> tuple[list[float], list[float]]:
        """Blocks of passes until `seconds` of pass time (at least MIN_BLOCKS).

        A block is whole passes adding up to at least BLOCK_S. The calibration
        kernel runs between blocks. Returns, per block, work per wall-second
        and the same scaled to the reference speed by the mean kernel time on
        either side of the block."""
        raw, scaled, spent = [], [], 0.0
        kernel = self.calibrate()
        while spent < seconds or len(raw) < MIN_BLOCKS:
            block, passes = 0.0, 0
            while block < BLOCK_S:
                block += self.one_pass(self.wl.input, self.wl.work / "out", tracer=tracer)
                passes += 1
                if on_pass is not None:
                    on_pass()
            after = self.calibrate()
            rate = passes * self.wl.units / block
            raw.append(rate)
            scaled.append(rate * 0.5 * (kernel + after) / calibrate.REF_KERNEL_S)
            kernel = after
            spent += block
        return raw, scaled


def batch_argv(command: str, manifest: Path, out: Path, jobs: int, seed: int) -> list[str]:
    argv = [command, str(manifest), "--out", str(out), "--jobs", str(jobs)]
    if command == "augment":
        argv += ["--save-features", "--seed", str(seed)]
    return argv


def golden_outputs(cli, kind: str, work: Path, jobs: int) -> dict:
    """Run the fixed reference inputs and summarise what the program wrote."""
    manifest = corpus.make_golden(work / "golden_in")
    out = work / f"golden_{kind}"
    shutil.rmtree(out, ignore_errors=True)
    rc = cli.main(batch_argv(kind, manifest, out, jobs, seed=0))
    result = {}
    for utt, *_ in corpus.GOLDEN:
        try:
            if kind == "glottal":
                result[utt] = check.summary(check.read_wav(out / f"{utt}.glottal.wav"))
            else:
                synth = check.read_wav(out / f"{utt}.synth.wav")
                mel, f0, _, _, fs = check.read_rfb(out / f"{utt}.rfb")
                sq, n = check.mel_error_sq(synth, mel, fs)
                plan = json.loads((out / f"{utt}.plan.json").read_text(encoding="utf-8"))
                result[utt] = {"synth": check.summary(synth), "mel_err_db": (sq / n) ** 0.5,
                               "segments": plan["segments"], "f0": check.f0_summary(f0)}
        except (OSError, ValueError, KeyError):
            result[utt] = None
    return {"rc": rc, "utts": result}


def golden_failures(cli, wl: Workload) -> int:
    """Reference-summary check on the fixed inputs: failed utterance count."""
    kind = "augment" if wl.name == "augment" else "glottal"
    want = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))[kind]
    got = golden_outputs(cli, kind, wl.work, wl.jobs)
    bad = 0
    for utt, ref in want.items():
        g = got["utts"].get(utt)
        if g is None or got["rc"] != 0:
            bad += 1
        elif kind == "glottal":
            bad += not check.summary_matches(g, ref)
        else:
            bad += not (
                check.summary_matches(g["synth"], ref["synth"])
                and g["segments"] == ref["segments"]
                and check.f0_matches(g["f0"], ref["f0"])
                and g["mel_err_db"] <= ref["mel_err_db"] * (1.0 + check.MEL_ERR_RTOL)
            )
    return bad


def record_reference(cli) -> None:
    work = WORK / "record"
    doc = {kind: golden_outputs(cli, kind, work, 1)["utts"] for kind in ("glottal", "augment")}
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {HERE / 'reference.json'}")


def spread(values: list[float]) -> dict:
    q = quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "median": median(values), "q1": q[0], "q3": q[2],
            "min": min(values), "max": max(values)}


def metric_specs(kind: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[kind]


def run_workload(args) -> int:
    cli = load_program()
    specs = metric_specs("per_layer" if args.trace else "end_to_end")
    env = environment()
    print("# env " + json.dumps(env, sort_keys=True), flush=True)
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    log_path = work / "program.log"
    # The program logs per utterance; keep that cost but send it to a file.
    handler = logging.FileHandler(log_path)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logging.basicConfig(level=logging.INFO, handlers=[handler])

    setup_start = perf_counter()
    wl = Workload(args.workload, args.seed, work)
    runner = Runner(cli, wl)
    if wl.name != "eer":
        runner.attempted += len(corpus.GOLDEN)
        runner.failed += golden_failures(cli, wl)
    print(f"# inputs and reference check: {perf_counter() - setup_start:.2f} s", flush=True)

    values: dict[str, float] = {}
    detail: dict = {"workload": wl.name, "seed": wl.seed, "jobs": wl.jobs, "work_units": wl.units}
    calibrate.kernel_seconds()  # the first call pays numpy's one-time costs
    if not args.trace:
        # Set-up runs alternate with kernel runs. One fresh process is too
        # short to pair with one kernel run, so their median is scaled by the
        # median kernel time of the whole run.
        runner.calibrate()
        setup = []
        for _ in range(SETUP_REPEATS):
            rc, wall, _ = fresh_process(wl.argv(wl.empty_input, work / "setup_out"), log_path)
            runner.calibrate()
            setup.append(wall)
            runner.failed += rc != 0
            runner.attempted += 1
        runner.warm_up()
        rc, _, rss = fresh_process(wl.argv(wl.input, work / "rss_out"), log_path)
        if wl.name != "eer":
            runner.attempted += wl.attempted()
            runner.failed += wl.failures(rc, work / "rss_out", "")
        raw, scaled = runner.timed(args.seconds)
        values = {"throughput": median(scaled),
                  "setup_s": median(setup) * calibrate.REF_KERNEL_S / median(runner.kernel_s),
                  "peak_rss_mb": rss}
        detail.update(blocks=spread(scaled), blocks_wall=spread(raw), setup_runs_wall=setup,
                      kernel_s=runner.kernel_s)
    else:
        import tracing

        values.update(measure_imports(log_path))
        runner.warm_up()
        _, plain = runner.timed(args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        passes: list[list] = []
        per_pass: list[dict] = []

        def collect() -> None:
            spans, counters, samples = tracer.take()
            passes.append(spans)
            per_pass.append(tracing.pass_stats(spans, counters, samples))

        try:
            _, traced = runner.timed(args.seconds / 2, tracer=tracer, on_pass=collect)
        finally:
            tracer.restore()
        tracing.write_spans(work / "spans.tsv", passes)
        values.update(tracing.combine(per_pass))
        values["mel_err_db"] = wl.mel_err_db or 0.0
        values["trace.overhead_frac"] = 1.0 - median(traced) / median(plain)
        detail.update(untraced=spread(plain), traced=spread(traced))

    correct = runner.failed == 0
    metrics = {s["name"]: {"value": float(values.get(s["name"], 0.0)), "unit": s["unit"]}
               for s in specs}
    detail.update(env=env, mel_err_db=wl.mel_err_db, attempted=runner.attempted,
                  failed=runner.failed, metrics=metrics)
    (work / "result.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print_summary(wl, values, runner, detail, args.trace)
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}), flush=True)
    return 0


def print_summary(wl: Workload, values: dict, runner: Runner, detail: dict, traced: int) -> None:
    fail_frac = runner.failed / runner.attempted
    print(f"# {wl.name} seed={wl.seed} jobs={wl.jobs} work={wl.units:.6g} "
          f"{'audio-s' if wl.unit_name == 'audio_s_per_s' else 'trials'}", flush=True)
    if not traced:
        p, w = detail["blocks"], detail["blocks_wall"]
        unit = "audio-s/s" if wl.unit_name == "audio_s_per_s" else "trials/s"
        print(f"#   {wl.unit_name} = {p['median']:.4f} {unit} at reference speed (median of "
              f"{p['n']} blocks, q1 {p['q1']:.4f}, q3 {p['q3']:.4f}); wall clock "
              f"{w['median']:.4f} (q1 {w['q1']:.4f}, q3 {w['q3']:.4f})")
        print(f"#   setup_s = {values['setup_s']:.4f} s at reference speed (median of "
              f"{SETUP_REPEATS} fresh processes); wall clock {median(detail['setup_runs_wall']):.4f} s")
        print(f"#   peak_rss_mb = {values['peak_rss_mb']:.1f} MB")
    else:
        print(f"#   {wl.unit_name} untraced {detail['untraced']['median']:.4f}, "
              f"traced {detail['traced']['median']:.4f}, overhead "
              f"{100.0 * values['trace.overhead_frac']:.1f} %")
    print(f"#   fail_frac = {fail_frac:.6g} ratio ({runner.failed}/{runner.attempted})")
    if wl.mel_err_db is not None:
        print(f"#   mel_err_db = {wl.mel_err_db:.4f} dB")


def run_all(args) -> int:
    """Every workload in its own process, with its summary lines."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            if not line.startswith("# env") or name == WORKLOADS[0]:
                print(line)
        if proc.returncode != 0 or not lines:
            print(f"# {name}: failed with exit code {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        for metric, v in result["metrics"].items():
            print(f"{name:12s} {metric:45s} {v['value']:14.6g} {v['unit']}")
        print(f"{name:12s} {'correct':45s} {str(result['correct']):>14s} "
              f"({result['failed']}/{result['attempted']} failed)")
        status |= not result["correct"]
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    if sys.argv[1:] == ["--record-reference"]:
        record_reference(load_program())
        sys.exit(0)
    sys.exit(main())
