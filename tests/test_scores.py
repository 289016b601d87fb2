import numpy as np
import pytest
from _oracles import (
    brute_scores,
    keysort_digraph,
    loop_ios_raw,
    loop_oos,
    loop_small_cluster_flags,
    loop_standardize_naive,
    strict_json,
)

from ccdscore.dataset import PointSet, build_index
from ccdscore.errors import ConfigError, DegenerateDataError
from ccdscore import graph
from ccdscore.graph import fixed_k, un_approx
from ccdscore.scores import (
    _row_sums,
    THRESHOLDS,
    break_ties,
    cumulative_influence,
    default_threshold,
    flag_outliers,
    ios_raw,
    nearest_tabulated_dim,
    oos,
    score_point_set,
    small_cluster_flags,
    standardize_ios,
    standardize_naive,
    vicinity_density,
)
from ccdscore.simgen import SimConfig, generate


def make_dg(radii, covers, dim):
    src = np.array([i for i, cs in enumerate(covers) for _ in cs], dtype=np.int64)
    dst = np.array([j for cs in covers for j in cs], dtype=np.int64)
    return keysort_digraph(np.asarray(radii, dtype=np.float64), dim, src, dst)


def one_cluster(n):
    return np.zeros(n, dtype=np.int64)


def test_density_worked_values():
    # occupancy 2, radius 1, d=1
    dg = make_dg([1.0, 5.0], [[1], []], dim=1)
    assert vicinity_density(dg)[0] == 2.0
    # occupancy 8, radius 2, d=2
    dg = make_dg([2.0] + [9.0] * 7, [[1, 2, 3, 4, 5, 6, 7]] + [[]] * 7, dim=2)
    assert vicinity_density(dg)[0] == pytest.approx(2.0)
    # occupancy 16, radius 1, d=4
    dg = make_dg([1.0] * 16, [list(range(1, 16))] + [[]] * 15, dim=4)
    assert vicinity_density(dg)[0] == pytest.approx(2.0)
    # occupancy 9, radius 2, d=2: the root of the ratio, not 9 / 2**2
    dg = make_dg([2.0] + [9.0] * 8, [list(range(1, 9))] + [[]] * 8, dim=2)
    assert vicinity_density(dg)[0] == pytest.approx(np.sqrt(4.5))


def test_oos_mean_over_own():
    dg = make_dg([1.0, 1.0, 1.0], [[1, 2], [], []], dim=2)
    rho = np.array([1.0, 2.0, 4.0])
    assert oos(dg, rho)[0] == pytest.approx(3.0)


def test_oos_symmetric_config_is_one():
    # four points covering each other with identical densities
    covers = [[j for j in range(4) if j != i] for i in range(4)]
    dg = make_dg([1.0] * 4, covers, dim=2)
    got = oos(dg, np.full(4, 1.7))
    assert np.allclose(got, 1.0)


def test_oos_empty_ball_is_inf():
    dg = make_dg([0.5, 1.0], [[], [0]], dim=2)
    got = oos(dg, np.array([1.0, 1.0]))
    assert np.isinf(got[0]) and got[0] > 0
    assert np.isfinite(got[1])


def test_cumulative_influence_sums_same_cluster_sources():
    dg = make_dg([1.0, 1.0, 1.0], [[], [0], [0]], dim=2)
    rho = np.array([5.0, 1.0, 2.0])
    ci = cumulative_influence(dg, one_cluster(3), rho)
    assert ci[0] == pytest.approx(3.0)
    assert ci[1] == 0.0 and ci[2] == 0.0


def test_cumulative_influence_ignores_other_clusters():
    dg = make_dg([1.0, 1.0, 1.0], [[], [0], [0]], dim=2)
    rho = np.array([5.0, 1.0, 2.0])
    cluster_of = np.array([0, 0, 1], dtype=np.int64)
    assert cumulative_influence(dg, cluster_of, rho)[0] == pytest.approx(1.0)


def test_ios_raw_worked_values():
    dg = make_dg([1.0, 1.0], [[], [0]], dim=2)
    # point 0: influence 3, own density 1 -> 1/4
    assert ios_raw(dg, one_cluster(2), np.array([1.0, 3.0]))[0] == pytest.approx(0.25)
    # isolated point: influence 0, density 0.5 -> 2
    dg = make_dg([1.0], [[]], dim=2)
    assert ios_raw(dg, one_cluster(1), np.array([0.5]))[0] == pytest.approx(2.0)


def test_standardize_worked_column():
    vals = np.array([0.1, 0.2, 0.3])
    got = standardize_ios(one_cluster(3), vals)
    assert got[2] == pytest.approx(0.6745, abs=1e-12)
    assert np.allclose(got, [-0.6745, 0.0, 0.6745])


def test_standardize_singleton_and_tied_clusters_zero():
    cluster_of = np.array([0, 0, 0, 1], dtype=np.int64)
    got = standardize_ios(cluster_of, np.array([4.0, 4.0, 4.0, 9.0]))
    assert np.all(got == 0.0)


def test_standardize_zero_madn_keeps_members_off_the_median():
    got = standardize_ios(one_cluster(4), np.array([4.0, 4.0, 4.0, 9.0]))
    assert got.tolist() == [0.0, 0.0, 0.0, np.inf]
    got = standardize_ios(one_cluster(4), np.array([4.0, 4.0, 4.0, 1.0]))
    assert got.tolist() == [0.0, 0.0, 0.0, -np.inf]


def test_standardize_recenters_gaussian_cluster():
    rng = np.random.default_rng(7)
    vals = rng.normal(3.0, 2.0, size=5000)
    got = standardize_ios(one_cluster(5000), vals)
    med = np.median(got)
    madn = np.median(np.abs(got - med)) / 0.6745
    assert abs(med) < 0.05
    assert abs(madn - 1.0) < 0.05


def test_standardize_naive_mean_sd():
    vals = np.array([1.0, 2.0, 3.0, 6.0])
    got = standardize_naive(one_cluster(4), vals)
    assert abs(np.mean(got)) < 1e-12
    assert np.std(got) == pytest.approx(1.0)


def test_break_ties_worked_pair():
    vals = np.array([1.0, 1.5, 1.5, 2.0])
    rho = np.array([9.0, 1.0, 3.0, 7.0])
    got = break_ties(one_cluster(4), vals, rho)
    assert got[1] == pytest.approx(1.75)
    assert got[2] == pytest.approx(1.25)
    assert got[0] == 1.0 and got[3] == 2.0


def test_break_ties_equal_density_stays_tied():
    vals = np.array([1.0, 2.0, 2.0, 6.0])
    got = break_ties(one_cluster(4), vals, np.array([1.0, 5.0, 5.0, 1.0]))
    assert got[1] == got[2] == pytest.approx(3.5)


def test_break_ties_minimum_group_uses_own_lower_bracket():
    vals = np.array([1.0, 1.0, 3.0])
    got = break_ties(one_cluster(3), vals, np.array([1.0, 3.0, 1.0]))
    assert got[0] == pytest.approx(2.5)
    assert got[1] == pytest.approx(1.5)
    assert got[2] == 3.0


def test_break_ties_maximum_group_uses_own_upper_bracket():
    vals = np.array([0.0, 5.0, 5.0])
    got = break_ties(one_cluster(3), vals, np.array([1.0, 1.0, 4.0]))
    assert got[1] == pytest.approx(4.0)
    assert got[2] == pytest.approx(1.0)
    assert got[0] == 0.0


def test_break_ties_fully_tied_cluster_unchanged():
    vals = np.array([2.0, 2.0, 2.0])
    got = break_ties(one_cluster(3), vals, np.array([1.0, 2.0, 3.0]))
    assert np.all(got == 2.0)


def test_break_ties_infinite_brackets_count_as_missing():
    rho = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    # a tied run between -inf and +inf keeps its own value on both sides
    vals = np.array([-np.inf, 0.0, 0.0, 0.0, np.inf, np.inf])
    got = break_ties(one_cluster(6), vals, rho)
    assert got.tolist() == vals.tolist()
    # one infinite and one finite bracket: the run spreads toward the finite one
    vals = np.array([-1.0, 0.5, 0.5, 0.5, np.inf, -np.inf])
    got = break_ties(one_cluster(6), vals, rho)
    assert not np.isnan(got).any()
    assert np.all((got[1:4] > -1.0) & (got[1:4] < 0.5))
    assert got[0] == -1.0 and got[4] == np.inf and got[5] == -np.inf
    vals = np.array([-np.inf, 2.0, 2.0, 3.0, np.inf, np.inf])
    got = break_ties(one_cluster(6), vals, rho)
    assert not np.isnan(got).any()
    assert np.all((got[1:3] > 2.0) & (got[1:3] < 3.0))
    assert got[0] == -np.inf and got[3] == 3.0 and np.all(got[4:] == np.inf)


def test_break_ties_leaves_other_clusters_alone():
    cluster_of = np.array([0, 0, 0, 1, 1], dtype=np.int64)
    vals = np.array([3.0, 3.0, 5.0, 3.0, 8.0])
    got = break_ties(cluster_of, vals, np.array([1.0, 2.0, 1.0, 5.0, 5.0]))
    # the duplicate inside cluster 0 separates; the lone 3.0 in cluster 1
    # has no duplicate in its own cluster and stays put
    assert got[0] != got[1]
    assert 3.0 < got[0] < 5.0 and 3.0 < got[1] < 5.0
    assert got[3] == 3.0 and got[4] == 8.0


def test_break_ties_interior_group_brackets_and_order():
    rng = np.random.default_rng(42)
    for _ in range(200):
        m = int(rng.integers(2, 5))
        lows = np.sort(rng.uniform(-4, 0, size=int(rng.integers(1, 4))))
        highs = np.sort(rng.uniform(1, 5, size=int(rng.integers(1, 4))))
        tied = np.full(m, 0.5)
        vals = np.concatenate([lows, tied, highs])
        n = vals.size
        rho = rng.uniform(0.1, 5.0, size=n)
        got = break_ties(one_cluster(n), vals, rho)
        lo, hi = lows[-1], highs[0]
        sl = slice(lows.size, lows.size + m)
        assert np.all(got[sl] > lo) and np.all(got[sl] < hi)
        # denser members land lower
        order = np.argsort(rho[sl])
        assert np.all(np.diff(got[sl][order]) <= 0)
        # untouched values stay put
        assert np.array_equal(got[: lows.size], lows)
        assert np.array_equal(got[lows.size + m :], highs)


def test_break_ties_distinct_densities_give_distinct_scores():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(4, 10))
        vals = np.round(rng.uniform(0, 2, size=n), 1)
        rho = rng.uniform(0.5, 4.0, size=n)
        got = break_ties(one_cluster(n), vals, rho)
        assert np.unique(got).size == n


def test_threshold_table_spot_values():
    assert default_threshold("oos", "rk-approx", "uniform", 2) == 6.0
    assert default_threshold("ios", "un-approx", "gaussian", 100) == 2.5
    assert default_threshold("ios", "rk-approx", "gaussian", 2) == 35.0
    assert default_threshold("oos", "un-approx", "uniform", 50) == 5.0


def test_threshold_mixed_shape_averages():
    assert default_threshold("oos", "rk-approx", "mixed", 100) == pytest.approx(11.5)
    u = THRESHOLDS[("ios", "un", "uniform")][5]
    g = THRESHOLDS[("ios", "un", "gaussian")][5]
    assert default_threshold("ios", "un-approx", "mixed", 5) == pytest.approx((u + g) / 2)


def test_threshold_snaps_to_nearest_dimension():
    assert nearest_tabulated_dim(1) == 2
    assert nearest_tabulated_dim(4) == 3  # tie with 5 prefers the smaller
    assert nearest_tabulated_dim(7) == 5
    assert nearest_tabulated_dim(15) == 10
    assert nearest_tabulated_dim(35) == 20
    assert nearest_tabulated_dim(75) == 50
    assert nearest_tabulated_dim(200) == 100
    assert default_threshold("oos", "rk-approx", "uniform", 4) == 6.5


def test_threshold_fixed_k_borrows_un_column():
    want = THRESHOLDS[("oos", "un", "uniform")][10]
    assert default_threshold("oos", "fixed-k", "uniform", 10) == want


def test_threshold_override_and_validation():
    ps = PointSet(np.random.default_rng(1).uniform(size=(30, 2)))
    rep = score_point_set(ps, fixed_k(k=4), threshold=7.25)
    assert rep.oos_threshold == rep.ios_threshold == 7.25
    assert not score_point_set(ps, fixed_k(k=4), threshold=np.inf).oos_flag.any()
    for bad in ({"threshold": np.nan}, {"s_min": np.nan}, {"s_min": -0.5}, {"s_min": 1.5}):
        with pytest.raises(ConfigError):
            score_point_set(ps, fixed_k(k=4), **bad)
    with pytest.raises(ConfigError):
        default_threshold("auc", "fixed-k", "uniform", 2)
    with pytest.raises(ConfigError):
        default_threshold("oos", "qq-approx", "uniform", 2)
    with pytest.raises(ConfigError):
        default_threshold("oos", "fixed-k", "triangular", 2)


def test_flag_outliers_strictly_above():
    got = flag_outliers(np.array([1.9, 2.1]), 2.0)
    assert got.tolist() == [False, True]
    assert flag_outliers(np.array([2.0]), 2.0).tolist() == [False]
    assert flag_outliers(np.array([np.inf]), 1e300).tolist() == [True]


def test_flag_outliers_small_cluster_filter():
    n = 100
    scores = np.zeros(n)
    scores[0] = 6.0
    cluster_of = np.array([0] * 97 + [1] * 3, dtype=np.int64)
    # the inbound flag: above the threshold, or a member of a small cluster
    got = flag_outliers(scores, 5.0) | small_cluster_flags(cluster_of, 0.04)
    assert got[:97].tolist() == [True] + [False] * 96
    assert got[97:].all()
    assert small_cluster_flags(cluster_of, 0.0).sum() == 0
    # share exactly at the cutoff is kept
    cluster_of = np.array([0] * 96 + [1] * 4, dtype=np.int64)
    assert small_cluster_flags(cluster_of, 0.04).sum() == 0


def test_small_cluster_flags_match_the_loop_on_random_partitions():
    rng = np.random.default_rng(28)
    for _ in range(200):
        n = int(rng.integers(1, 80))
        labels = rng.integers(0, rng.integers(1, 12), size=n)
        cluster_of = np.unique(labels, return_inverse=True)[1].astype(np.int64)
        shares = np.unique(np.bincount(cluster_of)) / n
        # 0 flags nothing, 1 every cluster short of all the points, and a
        # share between two cluster sizes splits the clusters
        s_mins = [0.0, 1.0]
        if shares.size > 1:
            i = int(rng.integers(shares.size - 1))
            s_mins.append(float(shares[i:i + 2].mean()))
        for s_min in s_mins:
            got = small_cluster_flags(cluster_of, s_min)
            assert np.array_equal(got, loop_small_cluster_flags(cluster_of, s_min))


def test_pipeline_matches_brute_oracle():
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(50, 3))
    from ccdscore.dataset import PointSet

    rep = score_point_set(PointSet(pts), fixed_k(k=5))
    rho, o, ci, ir = brute_scores(pts, rep.digraph.radii, rep.cluster_of, 3)
    assert np.allclose(rep.rho, rho, rtol=1e-12)
    finite = np.isfinite(o)
    assert np.array_equal(np.isfinite(rep.oos), finite)
    assert np.allclose(rep.oos[finite], o[finite], rtol=1e-12)
    assert np.allclose(rep.ios_raw, ir, rtol=1e-12)


def test_ios_raw_upper_bound():
    from ccdscore.dataset import PointSet

    for seed in range(20):
        pts = np.random.default_rng(seed).uniform(size=(40, 2))
        rep = score_point_set(PointSet(pts), fixed_k(k=4))
        bound = 1.0 / rep.rho
        assert np.all(rep.ios_raw <= bound + 1e-12)
        ci = cumulative_influence(rep.digraph, rep.cluster_of, rep.rho)
        tight = np.isclose(rep.ios_raw, bound, rtol=1e-12)
        assert np.array_equal(tight, ci == 0.0)


def test_oos_ignores_clustering(monkeypatch):
    rng = np.random.default_rng(5)
    pts = np.vstack(
        [
            rng.normal((0, 0), 0.3, size=(30, 2)),
            rng.normal((6, 6), 0.3, size=(30, 2)),
            np.array([[3.0, 3.0]]),
        ]
    )
    from ccdscore.dataset import PointSet

    ps = PointSet(pts)
    a = score_point_set(ps, fixed_k(k=5))
    monkeypatch.setattr(graph, "ATTACH_FACTOR", 0.0)
    b = score_point_set(ps, fixed_k(k=5))
    assert np.array_equal(a.oos, b.oos)
    assert a.params == b.params  # the report writes the package constant


def test_scores_scale_invariant_under_fixed_k():
    rng = np.random.default_rng(17)
    pts = rng.uniform(size=(60, 2))
    from ccdscore.dataset import PointSet

    a = score_point_set(PointSet(pts), fixed_k(k=6))
    b = score_point_set(PointSet(pts * 2.0), fixed_k(k=6))
    assert np.allclose(a.oos, b.oos, rtol=1e-12)
    assert np.array_equal(a.cluster_of, b.cluster_of)
    # the tie-separation pass spreads tied groups by density weights that
    # re-round under scaling, so compare the standardized values before it
    sa = standardize_ios(a.cluster_of, a.ios_raw)
    sb = standardize_ios(b.cluster_of, b.ios_raw)
    assert np.allclose(sa, sb, rtol=1e-9, atol=1e-9)
    assert np.array_equal(a.oos_flag, b.oos_flag)
    assert np.array_equal(a.ios_flag, b.ios_flag)


def test_scores_permutation_equivariant():
    rng = np.random.default_rng(29)
    pts = rng.uniform(size=(45, 3))
    from ccdscore.dataset import PointSet

    perm = rng.permutation(45)
    a = score_point_set(PointSet(pts), fixed_k(k=5))
    b = score_point_set(PointSet(pts[perm]), fixed_k(k=5))
    assert np.allclose(a.oos[perm], b.oos, rtol=1e-12)
    assert np.allclose(a.ios_raw[perm], b.ios_raw, rtol=1e-12)


def test_report_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(31)
    pts = rng.uniform(size=(30, 2))
    from ccdscore.dataset import PointSet

    rep = score_point_set(PointSet(pts), fixed_k(k=4))
    csv_path = tmp_path / "r.csv"
    json_path = tmp_path / "r.json"
    rep.write_csv(csv_path, method="ios")
    rep.write_json(json_path, method="ios")
    import csv as csvmod
    import json as jsonmod

    with open(csv_path, newline="") as fh:
        rows = list(csvmod.reader(fh))
    assert rows[0][:4] == ["id", "cluster", "rho", "oos"]
    assert len(rows) == 31
    got = jsonmod.loads(json_path.read_text())
    assert got["n"] == 30
    assert len(got["points"]["rho"]) == 30
    assert len(got["digraph"]["radii"]) == 30
    # inf survives both formats as the string "inf"
    if any(v == "inf" for v in got["points"]["oos"]):
        assert any(r[3] == "inf" for r in rows[1:])


def test_report_round_trips_both_infinities(tmp_path):
    import csv as csvmod
    from dataclasses import replace

    rng = np.random.default_rng(31)
    rep = score_point_set(PointSet(rng.uniform(size=(30, 2))), fixed_k(k=4))
    ios_std = rep.ios_std.copy()
    ios_std[[3, 7]] = [np.inf, -np.inf]
    oos_vals = rep.oos.copy()
    oos_vals[5] = np.inf
    rep = replace(rep, ios_std=ios_std, oos=oos_vals)
    csv_path = tmp_path / "r.csv"
    json_path = tmp_path / "r.json"
    rep.write_csv(csv_path, method="ios")
    rep.write_json(json_path, method="ios")

    with open(csv_path, newline="") as fh:
        rows = list(csvmod.DictReader(fh))
    assert [r["score"] for r in rows[3:8:4]] == ["inf", "-inf"]
    assert [r["ios_std"] for r in rows[3:8:4]] == ["inf", "-inf"]
    assert rows[5]["oos"] == "inf"
    assert np.array_equal([float(r["score"]) for r in rows], ios_std)
    assert np.array_equal([float(r["oos"]) for r in rows], oos_vals)
    got = strict_json(json_path)
    pts = got["points"]
    assert pts["ios_std"][3] == "inf" and pts["ios_std"][7] == "-inf"
    assert pts["oos"][5] == "inf"
    assert np.array_equal([float(v) for v in pts["ios_std"]], ios_std)
    assert np.array_equal([float(v) for v in pts["oos"]], oos_vals)


def test_report_ranks_descend_with_ties_by_id():
    rng = np.random.default_rng(37)
    pts = rng.uniform(size=(25, 2))
    from ccdscore.dataset import PointSet

    rep = score_point_set(PointSet(pts), fixed_k(k=3))
    order = np.argsort(rep.oos_rank)
    vals = rep.oos[order]
    assert np.all(np.diff(vals) <= 0)
    assert sorted(rep.ios_rank.tolist()) == list(range(1, 26))


def test_high_dimension_un_approx_keeps_outliers_without_nan():
    # the criterion-6 setting: un-approx balls at d=50 cover whole clusters,
    # so the inliers tie exactly and their clusters have zero MADN
    for seed in range(3):
        ps = generate(
            SimConfig(regime="gaussian", d=50, n=200, outlier_fraction=0.05, seed=seed)
        )
        rep = score_point_set(ps, un_approx(), cluster_shape="gaussian")
        assert not np.isnan(rep.ios_std).any()
        outlier = ps.labels.astype(bool)
        for c in range(rep.cluster_of.max() + 1):
            mem = np.flatnonzero(rep.cluster_of == c)
            out, inl = mem[outlier[mem]], mem[~outlier[mem]]
            if out.size and inl.size:
                assert rep.ios_std[out].min() > rep.ios_std[inl].max()


@pytest.mark.parametrize("scale", [1e200, 1e300])
def test_extreme_scale_is_a_data_error(scale):
    # squared distances overflow float64; the tree would raise a bare ValueError
    pts = np.random.default_rng(0).random((40, 3)) * scale
    with pytest.raises(DegenerateDataError, match="overflows"):
        score_point_set(PointSet(pts), fixed_k())


@pytest.mark.parametrize("scale", [1e-155, 1e-160, 1e-200, 1e-300])
def test_tiny_scale_is_a_data_error(scale):
    # squared distances underflow: to zero, so the points would read as one,
    # or to subnormal numbers, which keep only some of their bits
    pts = np.random.default_rng(0).random((40, 3)) * scale
    with pytest.raises(DegenerateDataError, match="underflows"):
        score_point_set(PointSet(pts), fixed_k())


def test_small_normal_scale_ranks_like_the_unscaled_points():
    pts = np.random.default_rng(0).random((40, 3))
    want = score_point_set(PointSet(pts), fixed_k())
    got = score_point_set(PointSet(pts * 1e-150), fixed_k())
    assert np.array_equal(got.oos_rank, want.oos_rank)
    assert np.array_equal(got.ios_rank, want.ios_rank)
    assert np.array_equal(got.cluster_of, want.cluster_of)


@pytest.mark.parametrize("scale", [1e70, 1e-70])
def test_density_out_of_float_range_is_a_data_error(scale):
    # r**5 leaves float64 range on these points, the d-th root does not
    pts = np.random.default_rng(0).random((200, 5)) * scale
    rep = score_point_set(PointSet(pts))
    assert np.isfinite(rep.rho).all() and not np.isnan(rep.oos).any()
    # at d=1 the density is occupancy over radius, so radii near 1e-151
    # put it above sqrt(M) / n, where the scores' sums of squares overflow
    tiny = np.random.default_rng(0).standard_normal((300, 1)) * 1e-150
    with pytest.raises(DegenerateDataError, match="ball density"):
        score_point_set(PointSet(tiny))
    rep = score_point_set(PointSet(tiny * 1e150))
    assert np.isfinite(rep.rho).all() and not np.isnan(rep.oos).any()


def test_density_rejects_subnormal_values():
    # radius 1e-310 is subnormal, so 1 / 1e-310 overflows
    dg = make_dg([1e-310, 1.0], [[], []], dim=1)
    with pytest.raises(DegenerateDataError, match="density of 1 of 2 points"):
        vicinity_density(dg)
    # radius 1e308: the density 1e-308 is subnormal
    dg = make_dg([1e308, 1.0], [[], []], dim=1)
    with pytest.raises(DegenerateDataError, match="density of 1 of 2 points"):
        vicinity_density(dg)


def test_score_point_set_takes_an_index_over_the_same_point_set_only():
    pts = np.random.default_rng(3).random((60, 2))
    ps = PointSet(pts)
    twin = build_index(PointSet(pts.copy()))
    with pytest.raises(ValueError, match="built over ps"):
        score_point_set(ps, fixed_k(), idx=twin)
    assert twin.last_table is None  # rejected before any neighbor work
    shared = score_point_set(ps, fixed_k(), idx=build_index(ps))
    own = score_point_set(ps, fixed_k())
    assert np.array_equal(shared.ios_std, own.ios_std)
    assert np.array_equal(shared.oos, own.oos)


# Run lengths on both sides of numpy's pairwise-sum edges: a plain loop
# below 8 elements, eight accumulators up to 128, halving above that.
RUN_LENGTHS = (0, 1, 7, 8, 9, 127, 128, 129, 300)


def spread_values(rng, size):
    """Values across 16 orders of magnitude, so that summation order shows
    in the last bits."""
    return rng.standard_normal(size) * 10.0 ** rng.integers(-8, 9, size)


def test_row_sums_equal_np_sum_of_each_run():
    rng = np.random.default_rng(5)
    counts = rng.permutation(np.repeat(RUN_LENGTHS, 3))
    values = spread_values(rng, counts.sum())
    got = _row_sums(values, counts)
    starts = np.cumsum(counts) - counts
    runs = [values[a : a + c] for a, c in zip(starts.tolist(), counts.tolist())]
    assert np.array_equal(got, [np.sum(run) for run in runs])
    # a left-to-right sum differs, so the check can tell the two apart
    assert not np.array_equal(got, [sum(run.tolist()) for run in runs])


def test_row_sums_equal_np_sum_bit_for_bit_at_every_length_to_1100():
    # every length once, so each summation shape holds all of its lengths in
    # one group; then, at lengths on both sides of the shape edges, all -0.0
    # runs and runs holding +inf; short runs last, ending near the end
    rng = np.random.default_rng(11)
    special = [1, 7, 8, 9, 127, 128, 129, 248, 249, 256, 257, 1100]
    counts = np.concatenate(
        [rng.permutation(np.arange(1101)), special, special, [3, 0, 1]]
    )
    values = spread_values(rng, counts.sum())
    starts = np.cumsum(counts) - counts
    for a, c in zip(starts[1101 : 1101 + len(special)].tolist(), special):
        values[a : a + c] = -0.0
    for a, c in zip(starts[1101 + len(special) : -3].tolist(), special):
        values[a + rng.integers(c)] = np.inf
    got = _row_sums(values, counts)
    want = [np.sum(values[a : a + c]) for a, c in zip(starts.tolist(), counts.tolist())]
    assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64))
    assert np.isinf(got[1101 + len(special) : -3]).all()


def block_edge_graph(rng):
    """A digraph whose out-degrees and same-cluster in-degrees, and a
    clustering whose sizes, run through RUN_LENGTHS, ids shuffled."""
    sizes = [s for s in RUN_LENGTHS if s] + [302]
    cluster_of = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    n = cluster_of.size
    targets = [[] for _ in range(n)]
    for j in range(n):
        mates = np.flatnonzero((cluster_of == cluster_of[j]) & (np.arange(n) != j))
        degree = min(RUN_LENGTHS[j % len(RUN_LENGTHS)], mates.size)
        for i in rng.choice(mates, degree, replace=False).tolist():
            targets[i].append(j)
    in_graph = make_dg(np.ones(n), [sorted(t) for t in targets], dim=2)
    covers = [
        np.sort(rng.choice(np.delete(np.arange(n), i), RUN_LENGTHS[i % len(RUN_LENGTHS)], replace=False))
        for i in range(n)
    ]
    out_graph = make_dg(np.ones(n), covers, dim=2)
    return in_graph, out_graph, cluster_of


def test_scores_equal_loops_at_pairwise_block_edges():
    rng = np.random.default_rng(6)
    in_graph, out_graph, cluster_of = block_edge_graph(rng)
    n = cluster_of.size
    assert set(RUN_LENGTHS) <= set(np.diff(in_graph.in_ptr).tolist())
    assert set(RUN_LENGTHS) <= set(np.diff(out_graph.out_ptr).tolist())
    assert set(RUN_LENGTHS[1:]) <= set(np.bincount(cluster_of).tolist())
    rho = np.abs(spread_values(rng, n))
    for dg in (in_graph, out_graph):
        covers = dg.covers
        covered_by = [dg.in_ids[a:b] for a, b in zip(dg.in_ptr[:-1], dg.in_ptr[1:])]
        assert np.array_equal(oos(dg, rho), loop_oos(covers, rho))
        ios = ios_raw(dg, cluster_of, rho)
        assert np.array_equal(ios, loop_ios_raw(covered_by, cluster_of, rho))
        assert np.array_equal(
            standardize_naive(cluster_of, ios), loop_standardize_naive(cluster_of, ios)
        )
    vals = spread_values(rng, n)
    assert np.array_equal(
        standardize_naive(cluster_of, vals), loop_standardize_naive(cluster_of, vals)
    )
