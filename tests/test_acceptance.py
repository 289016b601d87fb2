"""End-to-end gate: ten numbered checks, one verdict line printed each.

Run with -v to see one pass/fail line per check; the prints carry the
measured numbers for the record.
"""

import json
import time

import numpy as np
import pytest
from _oracles import brute_lof, brute_scores

from ccdscore.baselines import LofParams, OdinParams, lof, odin
from ccdscore.bench import (
    Confusion,
    aggregate,
    metrics,
    run_monte_carlo,
)
from ccdscore.cli import main
from ccdscore.dataset import PointSet, build_index, madn
from ccdscore import graph
from ccdscore.graph import fixed_k, un_approx
from ccdscore.scores import (
    break_ties,
    cumulative_influence,
    default_threshold,
    score_point_set,
    standardize_ios,
)
from ccdscore.simgen import masking_fixture


def verdict(num: int, ok: bool, detail: str = "") -> None:
    word = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {word} {detail}".rstrip())


def test_criterion_01_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    ok = True
    for trial in range(50):
        d = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(20, 61))
        pts = rng.uniform(size=(n, d))
        rep = score_point_set(PointSet(pts), fixed_k(k=min(5, n - 1)))
        rho, o, ci, ir = brute_scores(pts, rep.digraph.radii, rep.cluster_of, d)
        got_ci = cumulative_influence(rep.digraph, rep.cluster_of, rep.rho)
        fin = np.isfinite(o)
        ok = ok and np.array_equal(np.isfinite(rep.oos), fin)
        ok = ok and np.allclose(rep.oos[fin], o[fin], rtol=1e-12)
        ok = ok and np.allclose(got_ci, ci, rtol=1e-12, atol=1e-300)
        ok = ok and np.allclose(rep.ios_raw, ir, rtol=1e-12)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    verdict(1, ok, f"50 datasets vs brute force, {elapsed:.1f}s")
    assert ok


def test_criterion_02_invariance_suite():
    rng = np.random.default_rng(202)
    violations = {"cluster": 0, "scale": 0, "perm": 0, "bound": 0, "ties": 0}
    for _ in range(1000):
        d = int(rng.choice([2, 3]))
        n = int(rng.integers(15, 36))
        pts = rng.uniform(size=(n, d))
        ps = PointSet(pts)
        k = int(rng.integers(2, 6))
        base = score_point_set(ps, fixed_k(k=k))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph, "ATTACH_FACTOR", 0.0)
            detached = score_point_set(ps, fixed_k(k=k))
        if not np.array_equal(base.oos, detached.oos):
            violations["cluster"] += 1

        c = float(rng.uniform(0.5, 20.0))
        scaled = score_point_set(PointSet(pts * c), fixed_k(k=k))
        fin = np.isfinite(base.oos)
        if not (
            np.array_equal(np.isfinite(scaled.oos), fin)
            and np.allclose(base.oos[fin], scaled.oos[fin], rtol=1e-9)
            and np.array_equal(base.oos_flag, scaled.oos_flag)
            and np.array_equal(base.ios_flag, scaled.ios_flag)
        ):
            violations["scale"] += 1

        perm = rng.permutation(n)
        shuffled = score_point_set(PointSet(pts[perm]), fixed_k(k=k))
        if not (
            np.allclose(base.oos[perm], shuffled.oos, rtol=1e-9)
            and np.allclose(base.ios_raw[perm], shuffled.ios_raw, rtol=1e-9)
        ):
            violations["perm"] += 1

        if not np.all(base.ios_raw <= 1.0 / base.rho + 1e-12):
            violations["bound"] += 1

    for _ in range(1000):
        m = int(rng.integers(2, 5))
        lows = np.sort(rng.uniform(-3, 0, size=int(rng.integers(1, 3))))
        highs = np.sort(rng.uniform(1, 4, size=int(rng.integers(1, 3))))
        vals = np.concatenate([lows, np.full(m, 0.5), highs])
        nn = vals.size
        rho = rng.uniform(0.1, 4.0, size=nn)
        got = break_ties(np.zeros(nn, dtype=np.int64), vals, rho)
        sl = slice(lows.size, lows.size + m)
        inside = np.all(got[sl] > lows[-1]) and np.all(got[sl] < highs[0])
        order = np.argsort(rho[sl])
        mono = np.all(np.diff(got[sl][order]) <= 0)
        if not (inside and mono):
            violations["ties"] += 1

    ok = all(v == 0 for v in violations.values())
    verdict(2, ok, f"1000 trials per property, violations={violations}")
    assert ok


def test_criterion_03_robust_statistics():
    t0 = time.perf_counter()
    draws = np.random.default_rng(303).normal(0.0, 2.0, size=100_000)
    got = madn(draws)
    elapsed = time.perf_counter() - t0
    ok = 1.9 <= got <= 2.1 and elapsed < 5.0
    verdict(3, ok, f"MADN={got:.4f} on 1e5 draws, {elapsed:.2f}s")
    assert ok


def test_criterion_04_masking_scenario():
    fx = masking_fixture()
    rep = score_point_set(
        fx.ps, fixed_k(), cluster_shape=fx.threshold_shape, s_min=0.04
    )
    out_ids = np.flatnonzero(fx.ps.labels == 1)
    group_ids = [fx.ids_of(r)[0] for r in ("o1", "o2", "o3", "o4")]
    ios_all = bool(rep.ios_flag[out_ids].all())
    oos_misses_one = bool((~rep.oos_flag[group_ids]).any())
    i7 = fx.ids_of("o7")[0]
    i8 = fx.ids_of("o8")[0]
    axis_ios = bool(rep.ios_std[i7] > rep.ios_std[i8])
    axis_oos = bool(rep.oos[i7] > rep.oos[i8])
    ok = ios_all and oos_misses_one and axis_ios and axis_oos
    verdict(
        4,
        ok,
        f"ios 9/9={ios_all} oos misses group member={oos_misses_one} "
        f"off-axis>on-axis ios={axis_ios} oos={axis_oos}",
    )
    assert ok


def test_criterion_05_desk_scale_trend():
    t0 = time.perf_counter()
    cfg = {"regime": "uniform", "d": 5, "n": 200, "outlier_fraction": 0.05}
    rows = run_monte_carlo([cfg], ["ios-un"], replicates=10, master_seed=2024)
    agg = aggregate(rows, ["ios-un"])[0]
    elapsed = time.perf_counter() - t0
    ok = agg.ba >= 0.85 and agg.f2 >= 0.75 and elapsed < 120.0
    verdict(5, ok, f"BA={agg.ba:.4f} F2={agg.f2:.4f}, {elapsed:.1f}s")
    assert ok


def test_criterion_06_high_dimension_trend():
    t0 = time.perf_counter()
    cfg = {"regime": "gaussian", "d": 50, "n": 200, "outlier_fraction": 0.05}
    methods = ["oos-un", "ios-un", "odin"]
    rows = run_monte_carlo([cfg], methods, replicates=10, master_seed=2024)
    agg = {a.method: a for a in aggregate(rows, methods)}
    elapsed = time.perf_counter() - t0
    f2 = {m: agg[m].f2 for m in methods}
    ok = (
        f2["ios-un"] >= f2["oos-un"] - 0.05
        and f2["ios-un"] > f2["odin"]
        and f2["oos-un"] > f2["odin"]
        and elapsed < 300.0
    )
    verdict(
        6,
        ok,
        f"F2 ios={f2['ios-un']:.4f} oos={f2['oos-un']:.4f} "
        f"odin={f2['odin']:.4f}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_07_baseline_sanity():
    xs, ys = np.meshgrid(np.arange(20.0), np.arange(20.0))
    pts = np.column_stack([xs.ravel(), ys.ravel()])
    ps = PointSet(pts)
    idx = build_index(ps)
    scores, _ = lof(idx, LofParams(k_min=5, k_max=10))
    interior = (
        (pts[:, 0] >= 5) & (pts[:, 0] <= 14) & (pts[:, 1] >= 5) & (pts[:, 1] <= 14)
    )
    lof_ok = bool(np.all((scores[interior] > 0.95) & (scores[interior] < 1.05)))

    rng = np.random.default_rng(707)
    upts = rng.uniform(size=(80, 3))
    ups = PointSet(upts)
    uidx = build_index(ups)
    indeg, _ = odin(uidx, OdinParams(k=6, t=0))
    odin_ok = int(indeg.sum()) == 80 * 6

    opts = rng.uniform(size=(40, 2))
    ops = PointSet(opts)
    oidx = build_index(ops)
    got, _ = lof(oidx, LofParams(k_min=5, k_max=5))
    oracle_ok = bool(np.allclose(got, brute_lof(opts, 5), rtol=1e-9))

    ok = lof_ok and odin_ok and oracle_ok
    verdict(
        7, ok, f"grid lof={lof_ok} indegree mass={odin_ok} lof oracle={oracle_ok}"
    )
    assert ok


def test_criterion_08_threshold_table_fidelity():
    table = {
        ("oos", "rk", "uniform"): [6, 6.5, 5, 4, 4, 14, 13],
        ("oos", "un", "uniform"): [4, 4, 4, 3, 3, 5, 13],
        ("ios", "rk", "uniform"): [4.5, 4, 4.5, 5, 4.5, 6, 7],
        ("ios", "un", "uniform"): [6, 4.5, 4, 3.5, 4.5, 3.5, 6],
        ("oos", "rk", "gaussian"): [6, 5.5, 4.5, 3.5, 3.5, 6.5, 10],
        ("oos", "un", "gaussian"): [5.5, 4.5, 4, 3.5, 3, 3, 2.5],
        ("ios", "rk", "gaussian"): [35, 17, 13, 6.5, 2.5, 2.5, 2.5],
        ("ios", "un", "gaussian"): [35, 17, 13, 6.5, 6, 2.5, 2.5],
    }
    dims = (2, 3, 5, 10, 20, 50, 100)
    family_flag = {"rk": "rk-approx", "un": "un-approx"}
    bad = []
    for (score, fam, shape), vals in table.items():
        for dim, want in zip(dims, vals):
            got = default_threshold(score, family_flag[fam], shape, dim)
            if got != float(want):
                bad.append((score, fam, shape, dim, got, want))
    mixed = default_threshold("oos", "rk-approx", "mixed", 100)
    ok = not bad and mixed == 11.5
    verdict(8, ok, f"56 entries verbatim, mixed example={mixed}")
    assert ok


def test_criterion_09_metric_identities():
    ms = metrics(Confusion(tp=8, fp=5, tn=85, fn=2))
    f2_ok = abs(ms.f_beta - 0.75472) <= 1e-5
    rng = np.random.default_rng(909)
    ba_ok = True
    for _ in range(10_000):
        tp, fp, tn, fn = (int(v) for v in rng.integers(0, 50, size=4))
        if tp + fn == 0 or tn + fp == 0:
            continue
        got = metrics(Confusion(tp=tp, fp=fp, tn=tn, fn=fn))
        if got.ba != (got.tpr + got.tnr) / 2.0:
            ba_ok = False
            break
    ok = f2_ok and ba_ok
    verdict(9, ok, f"F2={ms.f_beta:.6f} ba identity={ba_ok}")
    assert ok


def test_criterion_10_bench_determinism(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(
        json.dumps(
            {
                "configs": [
                    {"regime": "uniform", "d": 2, "n": 80, "outlier_fraction": 0.05},
                    {"regime": "gaussian", "d": 3, "n": 70, "outlier_fraction": 0.05},
                ],
                "replicates": 2,
            }
        )
    )
    runs = {
        "r1": ["--workers", "1"],
        "r2": ["--workers", "1"],
        "w4": ["--workers", "4"],
    }
    for name, extra in runs.items():
        rc = main(
            [
                "bench",
                "--grid",
                str(grid),
                "--methods",
                "oos-fixed,ios-fixed,odin",
                "--seed",
                "13",
                "--out",
                str(tmp_path / name),
            ]
            + extra
        )
        assert rc == 0
    ok = True
    for fname in ("raw.csv", "aggregate.csv", "ranking.csv", "results.json"):
        b1 = (tmp_path / "r1" / fname).read_bytes()
        ok = ok and b1 == (tmp_path / "r2" / fname).read_bytes()
        ok = ok and b1 == (tmp_path / "w4" / fname).read_bytes()
    verdict(10, ok, "byte-identical across reruns and worker counts 1/4")
    assert ok
