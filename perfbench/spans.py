"""Spans around the calls into each ccdscore layer, recorded from outside.

The tracer swaps each traced function or method for a wrapper in every
ccdscore module that holds it, so calls between the package's own modules
go through the wrapper too. Spans nest on a stack: a span's self time is
its duration minus the durations of the spans opened directly inside it.
Spans are folded into per-name totals as they close, so memory stays flat
however many neighbor queries a pass makes.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter, defaultdict

from ccdscore import baselines, bench, cli, dataset, graph, scores, simgen


def _count_edges(counts, args, out):
    counts["graph.edges"] += int(out.covered_count.sum()) - out.n


def _count_clusters(counts, args, out):
    counts["graph.clusters"] += out.n_clusters


def _count_ccd_rows(counts, args, out):
    counts["bench.ccd_rows"] += sum(r.method in bench.CCD_METHODS for r in out)


def _count_report_bytes(counts, args, out):
    counts["scores.report_bytes"] += os.path.getsize(args[1])


# (span name, owner, attribute, optional hook run on the call's result)
TARGETS = [
    ("dataset.load_csv", dataset, "load_csv", None),
    ("dataset.robust_normalize", dataset, "robust_normalize", None),
    ("dataset.build_index", dataset, "build_index", None),
    ("dataset.knn", dataset.NeighborIndex, "knn", None),
    ("dataset.range_query", dataset.NeighborIndex, "range_query", None),
    ("dataset.kth_distances", dataset.NeighborIndex, "kth_distances", None),
    ("graph.estimate_radii", graph, "estimate_radii", None),
    ("graph.build_catch_digraph", graph, "build_catch_digraph", _count_edges),
    ("graph.cluster_digraph", graph, "cluster_digraph", _count_clusters),
    ("scores.vicinity_density", scores, "vicinity_density", None),
    ("scores.oos", scores, "oos", None),
    ("scores.ios_raw", scores, "ios_raw", None),
    ("scores.standardize_ios", scores, "standardize_ios", None),
    ("scores.standardize_naive", scores, "standardize_naive", None),
    ("scores.break_ties", scores, "break_ties", None),
    ("scores.default_threshold", scores, "default_threshold", None),
    ("scores.flag_outliers", scores, "flag_outliers", None),
    ("scores.score_point_set", scores, "score_point_set", None),
    ("scores.write_csv", scores.ScoreReport, "write_csv", _count_report_bytes),
    ("scores.write_json", scores.ScoreReport, "write_json", _count_report_bytes),
    ("baselines.lof", baselines, "lof", None),
    ("baselines.odin", baselines, "odin", None),
    ("simgen.generate", simgen, "generate", None),
    ("bench.run_monte_carlo", bench, "run_monte_carlo", _count_ccd_rows),
    ("bench.write_raw_csv", bench, "write_raw_csv", None),
    ("bench.write_aggregate_csv", bench, "write_aggregate_csv", None),
    ("bench.write_ranking_csv", bench, "write_ranking_csv", None),
    ("bench.write_timings_csv", bench, "write_timings_csv", None),
    ("bench.write_results_json", bench, "write_results_json", None),
    ("cli.main", cli, "main", None),
]

BENCH_SPAN = "bench.run_monte_carlo"


class Tracer:
    """Per-name call counts, inclusive seconds and self seconds of spans."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list[float]] = []
        self._open: Counter = Counter()
        self.reset()

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.calls_in_bench: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()

    def _wrap(self, name, fn, hook):
        def traced(*args, **kwargs):
            child = [0.0]
            self._stack.append(child)
            self._open[name] += 1
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                self._stack.pop()
                self._open[name] -= 1
                self.calls[name] += 1
                if self._open[BENCH_SPAN]:
                    self.calls_in_bench[name] += 1
                self.total[name] += dur
                self.self_time[name] += dur - child[0]
                if self._stack:
                    self._stack[-1][0] += dur
            if hook is not None:
                hook(self.counts, args, out)
            return out

        return traced

    def install(self) -> None:
        """Swap every target for its traced wrapper wherever it is bound."""
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "ccdscore"]
        for name, owner, attr, hook in TARGETS:
            fn = getattr(owner, attr)
            wrapped = self._wrap(name, fn, hook)
            holders = [owner] if isinstance(owner, type) else [
                m for m in modules if m.__dict__.get(attr) is fn
            ]
            for holder in holders:
                self._patches.append((holder, attr, fn))
                setattr(holder, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            holder, attr, fn = self._patches.pop()
            setattr(holder, attr, fn)

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of everything recorded since the last reset."""
        t, c = self.total, self.calls
        ccd_reports = self.calls_in_bench["scores.score_point_set"]
        return {
            "dataset.load_csv.s": t["dataset.load_csv"],
            "dataset.robust_normalize.s": t["dataset.robust_normalize"],
            "dataset.build_index.s": t["dataset.build_index"],
            "dataset.knn.calls": c["dataset.knn"],
            "dataset.knn.s": t["dataset.knn"],
            "dataset.range_query.calls": c["dataset.range_query"],
            "dataset.range_query.s": t["dataset.range_query"],
            "dataset.kth_distances.s": t["dataset.kth_distances"],
            "graph.estimate_radii.s": t["graph.estimate_radii"],
            "graph.build_catch_digraph.s": t["graph.build_catch_digraph"],
            "graph.cluster_digraph.s": t["graph.cluster_digraph"],
            "graph.edges": self.counts["graph.edges"],
            "graph.clusters": self.counts["graph.clusters"],
            "scores.vicinity_density.s": t["scores.vicinity_density"],
            "scores.oos.s": t["scores.oos"],
            "scores.ios_raw.s": t["scores.ios_raw"],
            "scores.standardize.s": t["scores.standardize_ios"]
            + t["scores.standardize_naive"],
            "scores.break_ties.s": t["scores.break_ties"],
            "scores.flags.s": t["scores.default_threshold"] + t["scores.flag_outliers"],
            "scores.score_point_set.self_s": self.self_time["scores.score_point_set"],
            "scores.write_csv.s": t["scores.write_csv"],
            "scores.write_json.s": t["scores.write_json"],
            "scores.report_bytes": self.counts["scores.report_bytes"],
            "baselines.lof.s": t["baselines.lof"],
            "baselines.odin.s": t["baselines.odin"],
            "simgen.generate.s": t["simgen.generate"],
            "bench.cells": self.calls_in_bench["simgen.generate"],
            "bench.ccd_reports": ccd_reports,
            "bench.report_reuse": (
                self.counts["bench.ccd_rows"] / ccd_reports if ccd_reports else 0.0
            ),
            "bench.write.s": sum(
                v for k, v in t.items() if k.startswith("bench.write_")
            ),
            "bench.run_monte_carlo.self_s": self.self_time[BENCH_SPAN],
            "cli.main.self_s": self.self_time["cli.main"],
        }
