import csv
import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, replace
from functools import partial

import numpy as np
import pytest

from ccdscore import bench, dataset, graph, scores
from ccdscore.bench import (
    ALL_METHODS,
    BASELINE_METHODS,
    CCD_METHODS,
    DEFAULT_S_MIN,
    AggregateRow,
    Confusion,
    _derive_seed,
    aggregate,
    evaluate_method,
    metrics,
    rank_methods,
    run_monte_carlo,
    write_aggregate_csv,
    write_ranking_csv,
    write_raw_csv,
    write_results_json,
    write_timings_csv,
)
from ccdscore.cli import main
from ccdscore.errors import ConfigError, DegenerateDataError, DegenerateLabelsError
from ccdscore.graph import build_catch_digraph, estimate_radii, fixed_k, un_approx
from ccdscore.simgen import SimConfig, generate

from _oracles import (
    loop_aggregate,
    loop_json_float,
    loop_raw_json_dicts,
    loop_write_aggregate_csv,
    loop_write_json,
    loop_write_ranking_csv,
    loop_write_raw_csv,
    strict_json,
)

CFG_A = {"regime": "uniform", "d": 2, "n": 80, "outlier_fraction": 0.05}
CFG_B = {"regime": "gaussian", "d": 2, "n": 70, "outlier_fraction": 0.05}
# d=10 takes its neighbor table from the dense screen
CFG_DENSE = {"regime": "thomas", "d": 10, "n": 120, "outlier_fraction": 0.05,
             "gaussian_scale": 0.05, "outlier_min_separation": 1.5}


def test_metrics_worked_confusion():
    ms = metrics(Confusion(tp=8, fp=5, tn=85, fn=2))
    assert ms.tpr == pytest.approx(0.8)
    assert ms.tnr == pytest.approx(85 / 90)
    assert ms.ba == pytest.approx((0.8 + 85 / 90) / 2)
    assert ms.f_beta == pytest.approx(0.7547169811320755, abs=1e-5)


def test_confusion_from_flags():
    labels = np.array([1, 1, 0, 0, 0, 1])
    flags = np.array([True, False, True, False, False, True])
    c = Confusion.from_flags(labels, flags)
    assert (c.tp, c.fp, c.tn, c.fn) == (2, 1, 2, 1)


def test_metrics_match_formulas_on_random_confusions():
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        tp, fp, tn, fn = (int(v) for v in rng.integers(0, 40, size=4))
        if tp + fn == 0 or tn + fp == 0:
            continue
        ms = metrics(Confusion(tp=tp, fp=fp, tn=tn, fn=fn))
        tpr = tp / (tp + fn)
        tnr = tn / (tn + fp)
        assert ms.ba == pytest.approx((tpr + tnr) / 2, abs=1e-15)
        p = tp / (tp + fp) if tp + fp else 0.0
        want = 5 * p * tpr / (4 * p + tpr) if p * tpr > 0 else 0.0
        assert ms.f_beta == pytest.approx(want, abs=1e-15)


def test_metrics_reject_a_nan_infinite_or_negative_beta():
    c = Confusion(tp=8, fp=5, tn=85, fn=2)
    for beta in (np.nan, np.inf, -np.inf, -1.0, -0.0 - 1e-300):
        with pytest.raises(ConfigError, match="beta"):
            metrics(c, beta=beta)
    assert metrics(c, beta=0.0).f_beta == pytest.approx(8 / 13)


def test_metrics_zero_flag_guards():
    ms = metrics(Confusion(tp=0, fp=0, tn=90, fn=10))
    assert ms.f_beta == 0.0 and ms.tpr == 0.0
    ms = metrics(Confusion(tp=0, fp=5, tn=85, fn=10))
    assert ms.f_beta == 0.0


def test_degenerate_labels_raise():
    with pytest.raises(DegenerateLabelsError):
        metrics(Confusion(tp=0, fp=3, tn=7, fn=0))
    with pytest.raises(DegenerateLabelsError):
        Confusion.from_flags(np.zeros(5), np.zeros(5, dtype=bool))
    with pytest.raises(DegenerateLabelsError):
        Confusion.from_flags(np.ones(5), np.zeros(5, dtype=bool))


def test_monte_carlo_row_counts_and_order():
    methods = ["oos-fixed", "ios-fixed", "odin"]
    rows = run_monte_carlo([CFG_A, CFG_B], methods, replicates=3, master_seed=7)
    assert len(rows) == 2 * 3 * 3
    keys = [(r.config_index, r.replicate, methods.index(r.method)) for r in rows]
    assert keys == sorted(keys)
    assert all(not r.error for r in rows)


def test_aggregate_means_and_spreads():
    methods = ["oos-fixed", "odin"]
    rows = run_monte_carlo([CFG_A], methods, replicates=4, master_seed=1)
    agg = aggregate(rows, methods)
    assert len(agg) == 2
    for a in agg:
        sub = [r for r in rows if r.method == a.method]
        assert a.replicates_ok == 4
        assert a.f2 == pytest.approx(np.mean([r.f2 for r in sub]), abs=1e-12)
        assert a.f2_sd == pytest.approx(np.std([r.f2 for r in sub]), abs=1e-12)
        assert a.ba == pytest.approx(np.mean([r.ba for r in sub]), abs=1e-12)


def test_replicate_data_independent_of_method_list():
    wide = run_monte_carlo([CFG_A], ["oos-fixed", "lof", "odin"], replicates=2,
                           master_seed=5)
    narrow = run_monte_carlo([CFG_A], ["odin"], replicates=2, master_seed=5)
    pick = lambda rows: [
        (r.replicate, r.tp, r.fp, r.tn, r.fn) for r in rows if r.method == "odin"
    ]
    assert pick(wide) == pick(narrow)
    other = run_monte_carlo([CFG_A], ["odin"], replicates=2, master_seed=6)
    assert pick(other) != pick(narrow)


def test_worker_pool_matches_inline():
    methods = ["ios-fixed", "odin"]
    a = run_monte_carlo([CFG_A, CFG_B], methods, replicates=2, master_seed=3)
    b = run_monte_carlo([CFG_A, CFG_B], methods, replicates=2, master_seed=3,
                        workers=2)
    strip = lambda rows: [
        (r.config_index, r.replicate, r.method, r.tp, r.fp, r.tn, r.fn, r.error)
        for r in rows
    ]
    assert strip(a) == strip(b)


def test_shared_index_rows_do_not_depend_on_method_order():
    # the cell builds its one table at the widest k its methods need before
    # any of them runs, so every method reads a prefix whatever the order,
    # and each row must equal the method run alone on a fresh index, which
    # builds only the table that method needs. The d=10 config takes its
    # table from the dense screen.
    configs = [CFG_A, CFG_DENSE]
    strip = lambda rows: sorted(
        (r.config_index, r.replicate, r.method, r.tp, r.fp, r.tn, r.fn, r.error)
        for r in rows
    )
    ccd_first = run_monte_carlo(configs, list(ALL_METHODS), replicates=2, master_seed=8)
    lof_first = run_monte_carlo(configs, [*BASELINE_METHODS, *CCD_METHODS],
                                replicates=2, master_seed=8)
    assert strip(ccd_first) == strip(lof_first)
    assert not any(r.error for r in ccd_first)
    for r in ccd_first:
        cfg = SimConfig.from_dict(
            {**configs[r.config_index], "seed": _derive_seed(8, r.config_index, r.replicate)}
        )
        ps = generate(cfg)
        conf = Confusion.from_flags(
            ps.labels, evaluate_method(r.method, ps, cfg.regime, DEFAULT_S_MIN)
        )
        assert (conf.tp, conf.fp, conf.tn, conf.fn) == (r.tp, r.fp, r.tn, r.fn), r


@pytest.mark.parametrize("method", ALL_METHODS)
def test_evaluate_method_rejects_an_index_over_other_points(method):
    # an equal copy is still another point set: the index must be built
    # over the very ps the method scores
    ps, twin = (generate(SimConfig.from_dict(CFG_A)) for _ in range(2))
    with pytest.raises(ValueError, match="built over ps itself"):
        evaluate_method(method, ps, "uniform", DEFAULT_S_MIN, dataset.build_index(twin))


@pytest.mark.parametrize("method", ALL_METHODS)
def test_evaluate_method_rejects_an_unknown_regime(method):
    # lof and odin read no regime, but a bogus one is still refused
    ps = generate(SimConfig.from_dict(CFG_A))
    with pytest.raises(ConfigError, match="regime must be one of"):
        evaluate_method(method, ps, "bogus")


@pytest.mark.parametrize("cfg, source", [
    (CFG_A, "_tree_table_candidates"),
    (CFG_DENSE, "_dense_table_candidates"),
])
def test_cell_builds_one_table_at_its_widest_k(cfg, source, monkeypatch):
    # LOF's k_max = 30 is the widest, so the kept table is 31 wide; the
    # radii and ODIN, at k about round(sqrt(n)), read prefixes of it
    calls = []
    for name in ("_tree_table_candidates", "_dense_table_candidates"):
        real = getattr(dataset.NeighborIndex, name)

        def counted(self, rows, w, k, real=real, name=name):
            calls.append((name, w))
            return real(self, rows, w, k)

        monkeypatch.setattr(dataset.NeighborIndex, name, counted)
    rows = run_monte_carlo([cfg], list(ALL_METHODS), replicates=2, master_seed=8)
    assert not any(r.error for r in rows)
    assert calls == [(source, 31), (source, 31)]


def test_a_method_added_to_the_table_runs_in_every_caller(tmp_path, monkeypatch):
    # one table entry, a copy of ODIN under a new name, and no other edit
    monkeypatch.setitem(bench.METHODS, "odin-copy", replace(bench.METHODS["odin"]))
    ps = generate(SimConfig.from_dict(CFG_A))
    assert np.array_equal(evaluate_method("odin-copy", ps, "uniform"),
                          evaluate_method("odin", ps, "uniform"))
    rows = run_monte_carlo([CFG_A], ["odin", "odin-copy"], replicates=2, master_seed=3)
    counts = lambda rows, m: [(r.replicate, r.tp, r.fp, r.tn, r.fn, r.error)
                              for r in rows if r.method == m]
    assert counts(rows, "odin-copy") == counts(rows, "odin")
    assert not any(r.error for r in rows)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"configs": [CFG_A], "replicates": 2}))
    assert main(["bench", "--grid", str(grid), "--methods", "odin-copy", "--seed", "3",
                 "--out", str(tmp_path / "b")]) == 0
    with open(tmp_path / "b" / "raw.csv", newline="") as fh:
        raw = list(csv.DictReader(fh))
    assert [(int(r["replicate"]), int(r["tp"]), int(r["fp"]), int(r["tn"]), int(r["fn"]),
             r["error"]) for r in raw if r["method"] == "odin-copy"] == counts(rows, "odin")
    assert len(raw) == 2


def test_spawned_workers_run_the_method_entries_they_are_given(monkeypatch):
    # under the spawn start method (macOS and Windows, and forkserver on
    # Linux from Python 3.14) a worker imports bench afresh, so a method
    # added at run time reaches it only inside its task
    monkeypatch.setitem(bench.METHODS, "odin-copy", replace(bench.METHODS["odin"]))
    spawn = multiprocessing.get_context("spawn")
    monkeypatch.setattr(bench, "ProcessPoolExecutor", partial(ProcessPoolExecutor, mp_context=spawn))
    monkeypatch.setattr(bench, "_usable_cpus", lambda: 2)
    rows = run_monte_carlo([CFG_A], ["odin", "odin-copy"], replicates=2, master_seed=3,
                           workers=2)
    assert not any(r.error for r in rows)
    counts = lambda m: [(r.replicate, r.tp, r.fp, r.tn, r.fn) for r in rows if r.method == m]
    assert counts("odin-copy") == counts("odin")
    serial = run_monte_carlo([CFG_A], ["odin"], replicates=2, master_seed=3)
    assert counts("odin") == [(r.replicate, r.tp, r.fp, r.tn, r.fn) for r in serial]


@pytest.mark.parametrize("master_seed", [-1, -(2**40), True, 1.5, 2.0, "3", None])
def test_monte_carlo_rejects_a_bad_master_seed_before_any_cell(master_seed, monkeypatch):
    # numpy's SeedSequence would raise a ValueError inside every cell
    def no_cell(task):
        raise AssertionError("a cell ran before the arguments were checked")

    monkeypatch.setattr(bench, "_run_cell", no_cell)
    with pytest.raises(ConfigError, match="master_seed must be"):
        run_monte_carlo([CFG_A], ["odin"], replicates=1, master_seed=master_seed)


def test_monte_carlo_validation(monkeypatch):
    with pytest.raises(ConfigError):
        run_monte_carlo([CFG_A], ["knn-mean"], replicates=2)
    with pytest.raises(ConfigError):
        run_monte_carlo([CFG_A], ["odin"], replicates=0)

    def no_cell(task):
        raise AssertionError("a cell ran before the arguments were checked")

    monkeypatch.setattr(bench, "_run_cell", no_cell)
    for bad in ({"workers": 0}, {"workers": -2}, {"s_min": np.nan}, {"s_min": -0.5},
                {"s_min": 1.5}):
        with pytest.raises(ConfigError):
            run_monte_carlo([CFG_A], ["ios-fixed"], replicates=2, **bad)
    for methods in (["odin", "odin"], ["ios-fixed", "lof", "ios-fixed"]):
        with pytest.raises(ConfigError, match="more than once"):
            run_monte_carlo([CFG_A], methods, replicates=2)
    for replicates in (2.5, 2.0, True, "2"):
        with pytest.raises(ConfigError, match="must be an integer"):
            run_monte_carlo([CFG_A], ["odin"], replicates=replicates)
    for workers in (1.5, 2.5, 2.0, True, "2", None):
        with pytest.raises(ConfigError, match="workers must be an integer"):
            run_monte_carlo([CFG_A], ["odin"], replicates=2, workers=workers)


def test_monte_carlo_rejects_an_empty_config_list(monkeypatch):
    def no_cell(task):
        raise AssertionError("a cell ran for an empty config list")

    monkeypatch.setattr(bench, "_run_cell", no_cell)
    with pytest.raises(ConfigError, match="configs list is empty"):
        run_monte_carlo([], ["odin"], replicates=2)


# the radius rule of each family, in the method table's order
FAMILY_STRATEGIES = list(dict.fromkeys(
    e.strategy for e in bench.METHODS.values() if e.strategy is not None))


def strip_times(rows):
    return [{k: v for k, v in vars(r).items() if k not in ("wall_time", "report_time")}
            for r in rows]


def cell_data(cfg, master_seed, ci=0, ri=0):
    """The point set _run_cell generates for that cell, with a fresh index."""
    ps = generate(SimConfig.from_dict({**cfg, "seed": _derive_seed(master_seed, ci, ri)}))
    return ps, dataset.build_index(ps)


def test_a_failing_family_keeps_its_error_on_its_own_rows(monkeypatch):
    # the density check rejects the un-approx family alone, so the cell's
    # one pass over the union raises and each family is scored apart
    task = (SimConfig.from_dict(CFG_A), 0, 0, 6, dict(bench.METHODS), DEFAULT_S_MIN)
    want = bench._run_cell(task)
    assert not any(r.error for r in want)
    ps, idx = cell_data(CFG_A, 6)
    bad = estimate_radii(idx, un_approx())
    assert not np.array_equal(bad, estimate_radii(idx, fixed_k()))
    real = scores.vicinity_density
    calls = []

    def picky(dg):
        calls.append(dg.families)
        m = dg.n // dg.families
        for f in range(dg.families):
            if np.array_equal(dg.radii[f * m : (f + 1) * m], bad):
                raise DegenerateDataError("un-approx densities rejected")
        return real(dg)

    monkeypatch.setattr(scores, "vicinity_density", picky)
    got = bench._run_cell(task)
    assert calls == [3, 1, 1, 1]
    for g, w in zip(strip_times(got), strip_times(want)):
        if g["method"].endswith("-un"):
            assert g["error"] == "un-approx densities rejected"
        else:
            assert g == w
    # a lone family's failed pass is its own error, not scored again
    calls.clear()
    un = {m: bench.METHODS[m] for m in ("oos-un", "ios-un")}
    alone = bench._run_cell((*task[:4], un, DEFAULT_S_MIN))
    assert calls == [1]
    assert [r.error for r in alone] == ["un-approx densities rejected"] * 2


def test_a_union_past_the_edge_limit_scores_each_family_alone(monkeypatch):
    # every family fits the int32 limit on its own, their union does not
    task = (SimConfig.from_dict(CFG_A), 0, 1, 6, dict(bench.METHODS), DEFAULT_S_MIN)
    want = bench._run_cell(task)
    ps, idx = cell_data(CFG_A, 6, ri=1)
    edges = [build_catch_digraph(idx, estimate_radii(idx, s)).out_ids.size
             for s in FAMILY_STRATEGIES]
    assert 3 * ps.n <= max(edges) < sum(edges)
    monkeypatch.setattr(graph, "INDEX_MAX", max(edges))
    passes = []
    real = scores.score_families

    def counted(ps, strategies, **kw):
        try:
            return real(ps, strategies, **kw)
        except DegenerateDataError:
            passes.append(len(strategies))
            raise

    monkeypatch.setattr(bench, "score_families", counted)
    got = bench._run_cell(task)
    assert passes == [3]
    assert strip_times(got) == strip_times(want)
    assert not any(r.error for r in got)


def test_bench_reads_no_naive_column_and_no_rank(monkeypatch):
    # the cached columns are computed on first read, which the bench never
    # makes; read, they equal the eager functions
    calls = []
    for name in ("standardize_naive", "descending_ranks"):
        real = getattr(scores, name)

        def recording(*args, real=real, name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(scores, name, recording)
    rows = run_monte_carlo([CFG_A, CFG_DENSE], list(ALL_METHODS), replicates=2,
                           master_seed=8)
    assert not any(r.error for r in rows)
    assert calls == []
    ps, idx = cell_data(CFG_DENSE, 8)
    for rep in scores.score_families(ps, FAMILY_STRATEGIES, cluster_shape="gaussian",
                                     idx=idx):
        assert calls == []
        naive = rep.ios_std_naive
        assert calls == ["standardize_naive"]
        assert rep.ios_std_naive is naive
        assert np.array_equal(
            naive, scores.standardize_naive(rep.cluster_of, rep.ios_raw))
        assert np.array_equal(rep.oos_rank, scores.descending_ranks(rep.oos))
        assert np.array_equal(rep.ios_rank, scores.descending_ranks(rep.ios_std))
        calls.clear()


def inline_pool(monkeypatch):
    """Replace the bench pool by one that maps in this process; returns the
    list of pool sizes asked for."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(bench, "ProcessPoolExecutor", InlinePool)
    return sizes


def test_pool_starts_no_more_processes_than_cells_or_cpus(monkeypatch):
    # a platform without an affinity mask counts the host's CPUs
    sizes = inline_pool(monkeypatch)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    want = run_monte_carlo([CFG_A, CFG_B], ["odin"], replicates=2, master_seed=4)
    assert sizes == []
    run_monte_carlo([CFG_A], ["odin"], replicates=2, master_seed=4, workers=64)  # 2 cells
    run_monte_carlo([CFG_A, CFG_B], ["odin"], replicates=2, master_seed=4, workers=64)  # 3 CPUs
    assert sizes == [2, 3]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    got = run_monte_carlo([CFG_A, CFG_B], ["odin"], replicates=2, master_seed=4, workers=64)
    assert sizes == [2, 3]
    strip = lambda rows: [vars(r) | {"wall_time": 0.0} for r in rows]
    assert strip(got) == strip(want)


def test_pool_is_bounded_by_the_cpus_this_process_may_run_on(monkeypatch):
    # pinned to fewer CPUs than the host has, the pool follows the pin
    sizes = inline_pool(monkeypatch)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    run_monte_carlo([CFG_A, CFG_B], ["odin"], replicates=2, master_seed=4, workers=8)
    assert sizes == []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    run_monte_carlo([CFG_A, CFG_B], ["odin"], replicates=2, master_seed=4, workers=8)
    assert sizes == [3]


def test_failed_cell_is_recorded_not_raised():
    # lof needs n > 30; n=25 makes every lof row an error row. The cell's
    # table is clipped to k = n - 1, and every other row is the row of a
    # run without lof
    cfg = {"regime": "uniform", "d": 2, "n": 25, "outlier_fraction": 0.08}
    rows = run_monte_carlo([cfg], list(ALL_METHODS), replicates=2, master_seed=2)
    lof_rows = [r for r in rows if r.method == "lof"]
    assert len(lof_rows) == 2
    assert all(r.error == "need n > 30, got n=25" for r in lof_rows)
    others = [m for m in ALL_METHODS if m != "lof"]
    without = run_monte_carlo([cfg], others, replicates=2, master_seed=2)
    assert not any(r.error for r in without)
    strip = lambda r: {k: v for k, v in vars(r).items()
                       if k not in ("wall_time", "report_time")}
    assert [strip(r) for r in rows if r.method != "lof"] == [strip(r) for r in without]
    agg = aggregate(rows, list(ALL_METHODS))
    lof_agg = next(a for a in agg if a.method == "lof")
    assert lof_agg.replicates_ok == 0
    assert np.isnan(lof_agg.f2)


def test_rank_dense_with_ties():
    agg = [
        AggregateRow(0, "a", 3, 0, 0, 0, 0.9, 0, 0, 0, 0),
        AggregateRow(0, "b", 3, 0, 0, 0, 0.7, 0, 0, 0, 0),
        AggregateRow(0, "c", 3, 0, 0, 0, 0.9, 0, 0, 0, 0),
    ]
    got = {r.method: r.rank for r in rank_methods(agg)}
    assert got == {"a": 1, "b": 2, "c": 1}


def test_rank_orders_descending_and_marks_top3():
    agg = [
        AggregateRow(0, m, 3, 0, 0, 0, f2, 0, 0, 0, 0)
        for m, f2 in [("a", 0.5), ("b", 0.6), ("c", 0.2), ("d", 0.1), ("e", 0.05)]
    ]
    rows = rank_methods(agg)
    by = {r.method: r for r in rows}
    assert by["b"].rank == 1 and by["a"].rank == 2 and by["c"].rank == 3
    assert by["b"].top3 and by["c"].top3 and not by["d"].top3
    allsame = [AggregateRow(0, m, 3, 0, 0, 0, 0.4, 0, 0, 0, 0) for m in "abc"]
    assert {r.rank for r in rank_methods(allsame)} == {1}


def test_rank_skips_all_failed_methods():
    agg = [
        AggregateRow(0, "a", 3, 0, 0, 0, 0.8, 0, 0, 0, 0),
        AggregateRow(0, "b", 0, *([float("nan")] * 8)),
    ]
    rows = rank_methods(agg)
    assert [r.method for r in rows] == ["a"]


def test_writers_are_deterministic(tmp_path):
    methods = ["oos-fixed", "odin"]
    rows = run_monte_carlo([CFG_A], methods, replicates=2, master_seed=9)
    agg = aggregate(rows, methods)
    ranks = rank_methods(agg)
    for name, writer, arg in [
        ("raw.csv", write_raw_csv, rows),
        ("agg.csv", write_aggregate_csv, agg),
        ("timings.csv", write_timings_csv, rows),
    ]:
        p1, p2 = tmp_path / name, tmp_path / ("b_" + name)
        writer(arg, p1)
        writer(arg, p2)
        if name == "timings.csv":
            continue  # wall clock is the one column allowed to move
        assert p1.read_bytes() == p2.read_bytes()
    write_ranking_csv(ranks, tmp_path / "rank.csv")
    head = (tmp_path / "rank.csv").read_text().splitlines()[0]
    assert head == "config_index,method,f2,rank,top3"
    raw_head = (tmp_path / "raw.csv").read_text().splitlines()[0]
    assert "wall_time" not in raw_head
    assert "wall_time" in (tmp_path / "timings.csv").read_text().splitlines()[0]


def test_timings_give_each_shared_report_its_own_row(tmp_path):
    # one scoring pass per cell serves the reports of both families; it
    # gets its own row ahead of the first CCD method, which ran it
    methods = ["odin", "oos-fixed", "ios-fixed", "ios-rk"]
    rows = run_monte_carlo([CFG_A], methods, replicates=2, master_seed=9)
    write_timings_csv(rows, tmp_path / "timings.csv")
    with open(tmp_path / "timings.csv", newline="") as fh:
        timed = list(csv.DictReader(fh))
    per_cell = ["odin", "report-ccd", "oos-fixed", "ios-fixed", "ios-rk"]
    assert [(int(t["replicate"]), t["method"]) for t in timed] == [
        (ri, m) for ri in range(2) for m in per_cell
    ]
    assert all(float(t["wall_time"]) >= 0.0 for t in timed)
    write_raw_csv(rows, tmp_path / "raw.csv")
    with open(tmp_path / "raw.csv", newline="") as fh:
        assert [r["method"] for r in csv.DictReader(fh)] == methods * 2


def test_results_json_layout(tmp_path):
    methods = ["ios-fixed"]
    rows = run_monte_carlo([CFG_A], methods, replicates=2, master_seed=4)
    agg = aggregate(rows, methods)
    path = tmp_path / "results.json"
    write_results_json(rows, agg, path)
    got = json.loads(path.read_text())
    assert set(got) == {"raw", "aggregate"}
    assert len(got["raw"]) == 2 and len(got["aggregate"]) == 1
    assert got["aggregate"][0]["method"] == "ios-fixed"
    assert "wall_time" not in got["raw"][0]
    write_results_json(rows, agg, tmp_path / "again.json")
    assert path.read_bytes() == (tmp_path / "again.json").read_bytes()


def test_result_files_equal_hand_listed_writers_byte_for_byte(tmp_path):
    # 11 replicates: from 8 values up numpy's pairwise sum differs from a
    # value-by-value sum, so aggregate must reduce each score as np.mean and
    # np.std of that score alone do. LOF at n=25 leaves one aggregate row
    # all NaN, and oos-fixed flags nothing in some rows.
    cfgs = [{"regime": "uniform", "d": 2, "n": 25, "outlier_fraction": 0.08},
            {"regime": "gaussian", "d": 2, "n": 60, "outlier_fraction": 0.05}]
    methods = list(ALL_METHODS)
    rows = run_monte_carlo(cfgs, methods, replicates=11, master_seed=5)
    assert any(not r.error and r.tp + r.fp == 0 for r in rows)
    agg = aggregate(rows, methods)
    ref = loop_aggregate(rows, methods)
    assert any(a.replicates_ok == 0 for a in agg)

    got, want = tmp_path / "got", tmp_path / "want"
    got.mkdir()
    want.mkdir()
    write_raw_csv(rows, got / "raw.csv")
    loop_write_raw_csv(rows, want / "raw.csv")
    write_aggregate_csv(agg, got / "aggregate.csv")
    loop_write_aggregate_csv(ref, want / "aggregate.csv")
    write_ranking_csv(rank_methods(agg), got / "ranking.csv")
    loop_write_ranking_csv(rank_methods(ref), want / "ranking.csv")
    write_results_json(rows, agg, got / "results.json")
    loop_write_json({"raw": loop_raw_json_dicts(rows),
                     "aggregate": [{k: loop_json_float(v) if isinstance(v, float) else v
                                    for k, v in asdict(a).items()} for a in ref]},
                    want / "results.json")
    for name in ("raw.csv", "aggregate.csv", "ranking.csv", "results.json"):
        assert (got / name).read_bytes() == (want / name).read_bytes(), name
    doc = strict_json(got / "results.json")
    assert "nan" in [row["f2"] for row in doc["aggregate"]]
