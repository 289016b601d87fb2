"""Evaluation metrics and the Monte Carlo comparison harness.

Every (config, replicate) cell derives its own seed from the master seed
and the cell coordinates, so results do not depend on scheduling: any
worker count, and any ordering of the methods list, produces the same
numbers.
"""

from __future__ import annotations

import csv
import os
import time
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from functools import cached_property, partial

import numpy as np

from .baselines import LofParams, OdinParams, lof, odin
from .dataset import NeighborIndex, PointSet, build_index, index_over
from .errors import ConfigError, DegenerateLabelsError, check_int
from .graph import RadiusStrategy, default_k, fixed_k, rk_approx, un_approx
from .scores import SCORE_KINDS, check_s_min, dump_json, score_families, score_point_set
from .simgen import CLUSTER_SHAPE_OF, REGIMES, SimConfig, generate

BETA = 2.0


@dataclass(frozen=True)
class Method:
    """A detector: the neighbor-table width it reads at n, and a CCD
    method's score kind and radius rule or a baseline's (scores, flags)
    over an index with the sign under which higher scores are outlying.
    Its callables pickle, so a bench worker under any start method can
    run an entry it is given."""

    width: Callable[[int], int]
    kind: str | None = None
    strategy: RadiusStrategy | None = None
    scores: Callable[[NeighborIndex], tuple] | None = None
    sign: int = 1

    def flags(self, cell: "Cell") -> np.ndarray:
        if self.strategy is not None:
            return cell.report(self.strategy).flags_for(self.kind)
        return self.scores(cell.idx)[1]


def _baseline_scores(name: str, idx: NeighborIndex) -> tuple:
    # lof or odin, looked up by its name here at each call, so that a
    # wrapper set on that name sees the call
    return globals()[name](idx)


def _lof_width(n: int) -> int:
    return LofParams().k_max


# Every method, in the order the bench runs them by default; a CCD method
# is "<score kind>-<radius family>".
METHODS = {
    **{f"{kind}-{family}": Method(default_k, kind, strategy)
       for family, strategy in (("fixed", fixed_k()), ("rk", rk_approx()), ("un", un_approx()))
       for kind in SCORE_KINDS},
    "lof": Method(_lof_width, scores=partial(_baseline_scores, "lof")),
    "odin": Method(OdinParams().k_for, scores=partial(_baseline_scores, "odin"), sign=-1),
}
ALL_METHODS = tuple(METHODS)
CCD_METHODS = tuple(m for m, e in METHODS.items() if e.strategy is not None)
BASELINE_METHODS = tuple(m for m, e in METHODS.items() if e.strategy is None)

# Fraction below which a cluster counts as too small to be real; applied
# to the inbound score only.
DEFAULT_S_MIN = 0.04

# Fresh datasets per config when a grid does not say how many.
DEFAULT_REPLICATES = 10


@dataclass(frozen=True)
class Confusion:
    tp: int
    fp: int
    tn: int
    fn: int

    @staticmethod
    def from_flags(labels: np.ndarray, flags: np.ndarray) -> "Confusion":
        labels = np.asarray(labels).astype(bool)
        flags = np.asarray(flags).astype(bool)
        if labels.shape != flags.shape:
            raise ValueError("labels and flags must have the same length")
        if not labels.any() or labels.all():
            raise DegenerateLabelsError(
                "need at least one outlier and one inlier label"
            )
        return Confusion(
            tp=int(np.sum(labels & flags)),
            fp=int(np.sum(~labels & flags)),
            tn=int(np.sum(~labels & ~flags)),
            fn=int(np.sum(labels & ~flags)),
        )


@dataclass(frozen=True)
class MetricSet:
    tpr: float
    tnr: float
    ba: float
    f_beta: float


def metrics(c: Confusion, beta: float = BETA) -> MetricSet:
    """Detection metrics from a confusion. Precision is defined as zero
    when nothing was flagged, and F_beta as zero when the numerator is.
    """
    if not 0.0 <= beta < np.inf:
        raise ConfigError(f"beta must be finite and non-negative, got {beta!r}")
    if c.tp + c.fn == 0 or c.tn + c.fp == 0:
        raise DegenerateLabelsError("confusion lacks a positive or negative class")
    tpr = c.tp / (c.tp + c.fn)
    tnr = c.tn / (c.tn + c.fp)
    ba = (tpr + tnr) / 2.0
    precision = c.tp / (c.tp + c.fp) if (c.tp + c.fp) > 0 else 0.0
    num = (1.0 + beta * beta) * precision * tpr
    f_beta = num / (beta * beta * precision + tpr) if num > 0 else 0.0
    return MetricSet(tpr=tpr, tnr=tnr, ba=ba, f_beta=f_beta)


def _check_method(method: str, regime: str | None = None) -> None:
    """Raise ConfigError unless method is in METHODS and regime, when
    given, one of the simgen regimes."""
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}; choose from {tuple(METHODS)}")
    if regime is not None and regime not in REGIMES:
        raise ConfigError(f"regime must be one of {REGIMES}, got {regime!r}")


@dataclass
class Cell:
    """A labeled point set as its methods (name to entry) see it: ps, the
    index over it they share, and the reports of the radius families they
    read, from one pass made on first use and timed in report_time."""

    ps: PointSet
    idx: NeighborIndex
    methods: dict[str, Method]
    regime: str
    s_min: float
    report_time: float | None = None

    @cached_property
    def _reports(self) -> dict:
        # should the one score_families pass raise over several families,
        # each is scored alone and one that fails maps to its exception
        t0 = time.perf_counter()
        strategies = [s for s in dict.fromkeys(e.strategy for e in self.methods.values())
                      if s is not None]
        options = {"cluster_shape": CLUSTER_SHAPE_OF[self.regime], "s_min": self.s_min,
                   "idx": self.idx}
        try:
            reports = score_families(self.ps, strategies, **options)
        except Exception as exc:  # noqa: BLE001 - each family's own error goes to its rows
            reports = [exc]
            if len(strategies) > 1:
                reports = []
                for strategy in strategies:
                    try:
                        reports.append(score_point_set(self.ps, strategy, **options))
                    except Exception as err:  # noqa: BLE001
                        reports.append(err)
        self.report_time = time.perf_counter() - t0
        return dict(zip(strategies, reports))

    def report(self, strategy: RadiusStrategy):
        if isinstance(report := self._reports[strategy], Exception):
            raise report
        return report


def evaluate_method(method: str, ps: PointSet, regime: str, s_min: float = DEFAULT_S_MIN,
                    idx: NeighborIndex | None = None) -> np.ndarray:
    """Run one named method on a labeled point set, in a cell of its own;
    returns boolean flags.

    idx, when given, is a neighbor index over this very ps that other
    callers share; called alone, the method builds its own. Every method
    checks the regime, which only the CCD methods read.
    """
    _check_method(method, regime)
    entry = METHODS[method]
    return entry.flags(Cell(ps, index_over(ps, idx), {method: entry}, regime, s_min))


@dataclass
class BenchRow:
    """One method on one generated replicate."""

    config_index: int
    replicate: int
    method: str
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0
    tpr: float = float("nan")
    tnr: float = float("nan")
    ba: float = float("nan")
    f2: float = float("nan")
    error: str = ""
    wall_time: float = 0.0
    # Seconds spent on the cell's one CCD scoring pass, when this row ran
    # it; wall_time leaves them out.
    report_time: float | None = None


# The columns of raw.csv and of the raw rows of results.json. Wall clock
# readings are left out, so reruns produce the same bytes.
RAW_COLUMNS = tuple(
    f.name for f in fields(BenchRow) if f.name not in ("wall_time", "report_time")
)
# The scores that aggregate averages, in AggregateRow's order.
SCORES = ("tpr", "tnr", "ba", "f2")


def _derive_seed(master_seed: int, config_index: int, replicate: int) -> int:
    ss = np.random.SeedSequence([master_seed, config_index, replicate])
    return int(ss.generate_state(1, np.uint64)[0])


def _run_cell(args) -> list[BenchRow]:
    """The rows of one cell, each method run by the entry args gives it."""
    cfg, ci, ri, master_seed, methods, s_min = args
    cfg = replace(cfg, seed=_derive_seed(master_seed, ci, ri))
    try:
        ps = generate(cfg)
        # one index, and one table at the widest k the methods read, clipped
        # to n - 1, serve every method of the cell: each narrower k reads a
        # prefix. A lone point has no table; its methods fail in their rows.
        idx = build_index(ps)
        if ps.n > 1:
            idx.knn_table(min(max(e.width(ps.n) for e in methods.values()), ps.n - 1))
    except Exception as exc:  # noqa: BLE001 - one bad cell must not sink the run
        return [BenchRow(ci, ri, m, error=str(exc)) for m in methods]
    cell = Cell(ps, idx, methods, cfg.regime, s_min)
    rows = []
    for m, entry in methods.items():
        unscored = cell.report_time is None
        t0 = time.perf_counter()
        try:
            conf = Confusion.from_flags(ps.labels, entry.flags(cell))
            ms = metrics(conf)
            row = BenchRow(ci, ri, m, conf.tp, conf.fp, conf.tn, conf.fn,
                           ms.tpr, ms.tnr, ms.ba, ms.f_beta)
        except Exception as exc:  # noqa: BLE001
            row = BenchRow(ci, ri, m, error=str(exc))
        # the row whose method made the cell's scoring pass carries its
        # seconds apart from its own
        row.report_time = cell.report_time if unscored else None
        row.wall_time = time.perf_counter() - t0 - (row.report_time or 0.0)
        rows.append(row)
    return rows


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, which a pinned process sets below the host's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_monte_carlo(
    configs: list[SimConfig | dict],
    methods: list[str] | None = None,
    replicates: int = DEFAULT_REPLICATES,
    master_seed: int = 0,
    workers: int = 1,
    s_min: float = DEFAULT_S_MIN,
) -> list[BenchRow]:
    """All methods on all configs, `replicates` fresh datasets each.

    Raw rows come back sorted by (config, replicate, method position);
    per-cell failures are recorded in their rows, not raised. The pool
    starts no more processes than there are cells or CPUs this process
    may run on.
    """
    methods = list(methods) if methods is not None else list(METHODS)
    for m in methods:
        _check_method(m)
        if methods.count(m) > 1:
            raise ConfigError(f"method {m!r} is listed more than once")
    check_int(replicates, "replicates", 1)
    check_int(workers, "workers", 1)
    check_int(master_seed, "master_seed", 0)
    check_s_min(s_min)
    configs = [c if isinstance(c, SimConfig) else SimConfig.from_dict(c) for c in configs]
    if not configs:
        raise ConfigError("the configs list is empty; a bench needs at least one config")
    tasks = [
        (cfg, ci, ri, master_seed, {m: METHODS[m] for m in methods}, s_min)
        for ci, cfg in enumerate(configs)
        for ri in range(replicates)
    ]
    workers = min(workers, len(tasks), _usable_cpus())
    if workers <= 1:
        per_cell = [_run_cell(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_cell = list(pool.map(_run_cell, tasks))
    rows: list[BenchRow] = []
    for cell in per_cell:
        rows.extend(cell)
    return rows


@dataclass
class AggregateRow:
    config_index: int
    method: str
    replicates_ok: int
    tpr: float
    tnr: float
    ba: float
    f2: float
    tpr_sd: float
    tnr_sd: float
    ba_sd: float
    f2_sd: float


def aggregate(rows: list[BenchRow], methods: list[str]) -> list[AggregateRow]:
    """Mean and SD of each score per (config, method) over the successful
    replicates; NaN where none succeeded."""
    out = []
    config_ids = sorted({r.config_index for r in rows})
    for ci in config_ids:
        for m in methods:
            ok = [
                r
                for r in rows
                if r.config_index == ci and r.method == m and not r.error
            ]
            if not ok:
                out.append(AggregateRow(ci, m, 0, *[float("nan")] * (2 * len(SCORES))))
                continue
            # one contiguous row per score, so each reduces with the same
            # pairwise sum as np.mean and np.std of that score alone
            vals = np.array([[getattr(r, s) for r in ok] for s in SCORES])
            out.append(AggregateRow(ci, m, len(ok), *vals.mean(axis=1).tolist(),
                                    *vals.std(axis=1).tolist()))
    return out


@dataclass
class RankRow:
    config_index: int
    method: str
    f2: float
    rank: int
    top3: int  # 1 for the top three ranks, else 0, as ranking.csv writes it


def rank_methods(agg: list[AggregateRow]) -> list[RankRow]:
    """Dense rank per config by descending mean F2; ties share the better
    rank, and the top three ranks are marked.
    """
    out = []
    config_ids = sorted({a.config_index for a in agg})
    for ci in config_ids:
        group = [a for a in agg if a.config_index == ci and not np.isnan(a.f2)]
        distinct = sorted({a.f2 for a in group}, reverse=True)
        rank_of = {v: i + 1 for i, v in enumerate(distinct)}
        for a in group:
            r = rank_of[a.f2]
            out.append(RankRow(ci, a.method, a.f2, r, int(r <= 3)))
    return out


def _write_table(rows, cols, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        writer.writerows([getattr(r, c) for c in cols] for r in rows)


def write_raw_csv(rows: list[BenchRow], path) -> None:
    _write_table(rows, RAW_COLUMNS, path)


def write_timings_csv(rows: list[BenchRow], path) -> None:
    """Wall time per row; the cell's one CCD scoring pass gets its own
    row, method report-ccd, just before the row of the first CCD method,
    which ran it. The cell's neighbor index and table are built before its
    rows and charged to none."""
    # Kept apart from the result files, which must be reproducible byte
    # for byte; wall clock readings are not.
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["config_index", "replicate", "method", "wall_time"])
        for r in rows:
            if r.report_time is not None:
                writer.writerow([r.config_index, r.replicate, "report-ccd", r.report_time])
            writer.writerow([r.config_index, r.replicate, r.method, r.wall_time])


def write_aggregate_csv(agg: list[AggregateRow], path) -> None:
    _write_table(agg, [f.name for f in fields(AggregateRow)], path)


def write_results_json(
    rows: list[BenchRow], agg: list[AggregateRow], path
) -> None:
    """Raw and aggregate tables in one JSON document. Wall time is left
    out, like in the CSVs, so reruns produce the same bytes."""
    doc = {
        "raw": [{c: getattr(r, c) for c in RAW_COLUMNS} for r in rows],
        "aggregate": [asdict(a) for a in agg],
    }
    dump_json(doc, path)


def write_ranking_csv(ranks: list[RankRow], path) -> None:
    _write_table(ranks, [f.name for f in fields(RankRow)], path)
