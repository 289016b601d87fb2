"""Fidelity run: every bench method on a committed grid, at a development
and a held-out master seed, written as one FIDELITY_*.json.

    python fidelity/run.py --held-out-seed 3737 --out FIDELITY_37.json

Run it from the repository root. The grid (default fidelity/grid.json) is
in the format `ccdscore bench --grid` reads. The development seed is
DEV_SEED; the held-out seed is fixed before the run and named on the
command line. The BLAS thread pools are pinned to one thread before
numpy loads, so the numbers do not depend on the host's core count. Rows,
aggregates and per-config ranks come from bench.run_monte_carlo,
bench.aggregate and bench.rank_methods; this script only averages the
aggregate rows per method, overall and per dimension. Nothing in the
file reads a clock, so a rerun writes the same bytes.
"""

from __future__ import annotations

import os

THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for var in THREAD_PINS:
    os.environ[var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from ccdscore import __version__, bench  # noqa: E402
from ccdscore.scores import dump_json  # noqa: E402
from ccdscore.simgen import SimConfig  # noqa: E402

DEV_SEED = 7
# bench results do not depend on the worker count; two keep the
# paper-scale grid near 10 s
WORKERS = 2


def _mean(values) -> float:
    return float(np.mean(values)) if values else float("nan")


def method_summary(agg, configs, methods) -> dict:
    """Per method: the mean F2 over the configs with a successful
    replicate, overall and per d, and the mean dense rank per config."""
    ranks = bench.rank_methods(agg)
    out = {}
    for m in methods:
        f2 = [(configs[a.config_index].d, a.f2) for a in agg if a.method == m and a.replicates_ok]
        by_d = {}
        for d, v in f2:
            by_d.setdefault(str(d), []).append(v)
        out[m] = {
            "mean_f2": _mean([v for _, v in f2]),
            "mean_f2_by_d": {d: _mean(v) for d, v in by_d.items()},
            "mean_rank": _mean([r.rank for r in ranks if r.method == m]),
        }
    return out


def run_seed(configs, replicates, seed) -> dict:
    methods = list(bench.METHODS)
    rows = bench.run_monte_carlo(configs, methods, replicates, seed, WORKERS)
    agg = bench.aggregate(rows, methods)
    errors = Counter(r.error for r in rows if r.error)
    return {
        "seed": seed,
        "failed_rows": sum(errors.values()),
        "errors": dict(sorted(errors.items())),
        "methods": method_summary(agg, configs, methods),
        "aggregate": [asdict(a) for a in agg],
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--grid", default="fidelity/grid.json")
    p.add_argument("--held-out-seed", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    with open(args.grid, encoding="utf-8") as fh:
        grid = json.load(fh)
    configs = [SimConfig.from_dict(c) for c in grid["configs"]]
    replicates = grid.get("replicates", bench.DEFAULT_REPLICATES)
    seeds = {"development": DEV_SEED, "held_out": args.held_out_seed}
    runs = {role: run_seed(configs, replicates, s) for role, s in seeds.items()}
    doc = {
        "command": " ".join(["python", "fidelity/run.py", *argv]),
        "versions": {
            "ccdscore": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        "blas_pin": {var: os.environ[var] for var in THREAD_PINS},
        "grid": args.grid,
        "replicates": replicates,
        "seeds": seeds,
        "runs": runs,
    }
    dump_json(doc, args.out)
    for role, run in runs.items():
        print(f"{role} seed {run['seed']}: {run['failed_rows']} failed rows")
        for m, s in run["methods"].items():
            print(f"  {m:10s} mean F2 {s['mean_f2']:.3f}  mean rank {s['mean_rank']:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
