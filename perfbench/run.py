"""ccdscore performance benchmark.

    python3 perfbench/run.py --workload cli-sparse --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Runs one workload (see README.md) in this process, single-threaded: the
BLAS thread pools are pinned to one thread and cKDTree keeps its default
of one worker. The workload is set up SETUP_REPEATS times (generate the
inputs, write them, one checked warm-up pass); then passes run until
--seconds have gone by and at least MIN_PASSES were made. Every pass is
checked. Times are reported in reference seconds (see SpeedSampler).
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1. The line before it carries the run
context, the output digest, fail_frac and the wall-clock figures.

--trace 1 alternates untraced and traced passes; per-layer figures are
medians over the traced ones, in wall seconds, and the tracing overhead
is the median traced pass minus the median untraced one, in reference
seconds. --workload all runs every workload in its own process and
prints a table."""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("cli-sparse", "lib-dense", "bench-mc")
SETUP_REPEATS = 3
MIN_PASSES = 3
SAMPLE_PERIOD_S = 0.02
SAMPLE_LOOP = 3000
# Duration of one sample loop on an idle core of the 2-vCPU Intel Xeon VM
# the benchmark was defined on; reference seconds are seconds on a host
# where the loop takes this long.
REF_SAMPLE_S = 0.16e-3

END_TO_END_UNITS = {
    "setup_s": "s",
    "points_per_s": "points/s",
    "peak_rss_mb": "MB",
    "f2_mean": "ratio",
}
PER_LAYER_UNITS = {
    "dataset.load_csv.s": "s",
    "dataset.robust_normalize.s": "s",
    "dataset.build_index.s": "s",
    "dataset.knn.calls": "count",
    "dataset.knn.s": "s",
    "dataset.range_query.calls": "count",
    "dataset.range_query.s": "s",
    "dataset.kth_distances.s": "s",
    "graph.estimate_radii.s": "s",
    "graph.build_catch_digraph.s": "s",
    "graph.cluster_digraph.s": "s",
    "graph.edges": "count",
    "graph.clusters": "count",
    "scores.vicinity_density.s": "s",
    "scores.oos.s": "s",
    "scores.ios_raw.s": "s",
    "scores.standardize.s": "s",
    "scores.break_ties.s": "s",
    "scores.flags.s": "s",
    "scores.score_point_set.self_s": "s",
    "scores.write_csv.s": "s",
    "scores.write_json.s": "s",
    "scores.report_bytes": "bytes",
    "baselines.lof.s": "s",
    "baselines.odin.s": "s",
    "simgen.generate.s": "s",
    "bench.cells": "count",
    "bench.ccd_reports": "count",
    "bench.report_reuse": "ratio",
    "bench.write.s": "s",
    "bench.run_monte_carlo.self_s": "s",
    "cli.main.self_s": "s",
    "trace.pass.s": "s",
    "trace.overhead.s": "s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs and one set-up, for the benchmark's own tests")
    return p.parse_args(argv)


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_context() -> dict:
    import numpy
    import scipy

    cpu = {}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                cpu.setdefault(key.strip(), value.strip())
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu.get("model name"),
        "cache_size": cpu.get("cache size"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_pins": {v: os.environ.get(v) for v in THREAD_PINS},
        "git_commit": git_commit(),
    }


class SpeedSampler:
    """Measures how fast the core runs while the program runs on it.

    On a shared host the speed of a core drifts by tens of percent within
    seconds, and a pass slows with it. Every SAMPLE_PERIOD_S of wall time
    a SIGALRM handler times a fixed pure-Python loop. Python runs the
    handler between the program's own bytecodes, in the same thread and
    on the same core, so the samples see the host's state at the moments
    the program saw it. An interval's wall time scaled by REF_SAMPLE_S
    over the median sample inside it is its length in reference seconds.
    The loop uses no ccdscore code, so no change to the program moves it.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        x = 0
        for i in range(SAMPLE_LOOP):
            x += i * i
        self.samples.append((t0, time.perf_counter() - t0))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def reference_s(self, start: float, end: float) -> float:
        """The interval [start, end) of perf_counter time in reference seconds."""
        inside = [d for t, d in self.samples if start <= t < end]
        return (end - start) * REF_SAMPLE_S / statistics.median(
            inside or [d for _, d in self.samples]
        )


class Tally:
    """Checked items of every pass: counts, problems and F2 values."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.f2: list[float] = []
        self.reference: str | None = None

    def check(self, wl, out, label: str) -> None:
        import workloads

        try:
            items, digest = wl.check(out)
        except Exception as exc:  # noqa: BLE001 - unreadable output is a failure
            items, digest = [workloads.Item("outputs", [f"{type(exc).__name__}: {exc}"])], ""
        self.add(items, digest, label)

    def add(self, items, digest: str, label: str) -> None:
        if self.reference is None:
            self.reference = digest
        drifted = digest != self.reference
        for item in items:
            problems = list(item.problems)
            if drifted:
                problems.append("outputs differ from the warm-up pass")
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.extend(f"{label} {item.name}: {p}" for p in problems)
            self.f2.extend(item.f2)


def measure(wl, args, sampler: SpeedSampler) -> tuple[dict, dict, Tally]:
    """Set up, warm up and time the workload; returns the metrics for the
    final line, extra figures for the info line, and the check tally."""
    import_span = (_T0, time.perf_counter())
    tally = Tally()
    setups = []
    for r in range(1 if args.smoke else SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        out = wl.run()
        setups.append((t0, time.perf_counter()))
        tally.check(wl, out, f"warm-up {r}")

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while True:
        tracing = tracer is not None and len(plain) > len(traced)
        if tracing:
            tracer.reset()
            tracer.install()
        t0 = time.perf_counter()
        try:
            out = wl.run()
        finally:
            (traced if tracing else plain).append((t0, time.perf_counter()))
            if tracing:
                tracer.uninstall()
        if tracing:
            layers.append(tracer.layer_metrics())
        tally.check(wl, out, f"pass {len(plain) + len(traced)}")
        enough = len(plain) >= MIN_PASSES and (tracer is None or len(traced) >= MIN_PASSES)
        if enough and time.perf_counter() - start >= args.seconds:
            break

    def wall(spans_):
        return [b - a for a, b in spans_]

    def ref(spans_):
        return [sampler.reference_s(a, b) for a, b in spans_]

    med = statistics.median
    end_to_end = {
        "setup_s": sampler.reference_s(*import_span) + med(ref(setups)),
        "points_per_s": wl.points_per_pass / med(ref(plain)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "f2_mean": statistics.fmean(tally.f2) if tally.f2 else 0.0,
    }
    extra = {
        "end_to_end": end_to_end,
        "wall": {
            "setup_s": wall([import_span])[0] + med(wall(setups)),
            "points_per_s": wl.points_per_pass / med(wall(plain)),
        },
        "import_s": wall([import_span])[0],
        "setup_runs_s": wall(setups),
        "pass_s": wall(plain),
        "pass_ref_s": ref(plain),
        "speed_samples": len(sampler.samples),
        "sample_median_s": med(d for _, d in sampler.samples),
    }
    if tracer is None:
        return end_to_end, extra, tally
    per_layer = {k: med(m[k] for m in layers) for k in layers[0]}
    per_layer["trace.pass.s"] = med(ref(plain))
    per_layer["trace.overhead.s"] = med(ref(traced)) - med(ref(plain))
    extra["traced_pass_s"] = wall(traced)
    return per_layer, extra, tally


def run_one(args, sampler: SpeedSampler) -> int:
    import workloads

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir, smoke=args.smoke)
        metrics, extra, tally = measure(wl, args, sampler)
    finally:
        sampler.stop()
        shutil.rmtree(workdir)
        if not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "fail_frac": {"value": tally.failed / tally.attempted, "unit": "ratio"},
        "digest": tally.reference, "problems": tally.problems[:10],
        "context": run_context(), **extra,
    }
    print(json.dumps(info))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then a table of the results."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        info_line, result_line = proc.stdout.strip().splitlines()[-2:]
        info, result = json.loads(info_line), json.loads(result_line)
        result["fail_frac"] = info["fail_frac"]
        result["digest"] = info["digest"]
        results[name] = result
        shown = dict(result["metrics"])
        if not args.trace:
            shown["fail_frac"] = info["fail_frac"]
        for metric, m in shown.items():
            print(f"{name:<11} {metric:<30} {m['value']:>16.6g} {m['unit']}")
        print(f"{name:<11} {'digest':<30} {info['digest']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ccdscore" / "__init__.py").is_file():
        print(f"error: no ccdscore sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_PINS:
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args)
    sampler = SpeedSampler()
    sampler.start()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # noqa: F401 - imports numpy, scipy and ccdscore

    return run_one(args, sampler)


if __name__ == "__main__":
    raise SystemExit(main())
