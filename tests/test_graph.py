import numpy as np
import pytest

from ccdscore import dataset, graph, simgen
from ccdscore.dataset import PointSet, build_index
from ccdscore.errors import ConfigError, DegenerateDataError
from ccdscore.graph import (
    build_catch_digraph,
    cluster_digraph,
    default_k,
    estimate_radii,
    fixed_k,
    log_unit_ball_volume,
    rk_approx,
    un_approx,
)
from ccdscore.scores import score_point_set

from _oracles import brute_components, brute_covers, gather_cluster_of


def make(points):
    ps = PointSet(np.asarray(points, dtype=np.float64), None)
    return ps, build_index(ps)


def test_strategy_validation():
    for make in (fixed_k, rk_approx, un_approx):
        with pytest.raises(ConfigError):
            make(k=0)
    with pytest.raises(ConfigError):
        graph.RadiusStrategy(kind="knn")


@pytest.mark.parametrize("k", [2.5, 3.0, True, "3"])
def test_strategy_rejects_a_k_that_is_not_an_integer(k):
    for factory in (fixed_k, rk_approx, un_approx):
        with pytest.raises(ConfigError, match="k must be an integer"):
            factory(k=k)


def test_strategy_takes_a_numpy_integer_k():
    ps, idx = make(np.random.default_rng(0).random((30, 2)))
    for kind in graph.RADIUS_KINDS:
        want = estimate_radii(idx, graph.RadiusStrategy(kind, 4))
        got = estimate_radii(idx, graph.RadiusStrategy(kind, np.int64(4)))
        assert np.array_equal(got, want)


def test_default_k():
    assert default_k(4) == 2
    assert default_k(200) == 14
    assert default_k(500) == 22


def test_unit_ball_volume():
    assert log_unit_ball_volume(1) == pytest.approx(np.log(2.0))
    assert log_unit_ball_volume(2) == pytest.approx(np.log(np.pi))
    assert log_unit_ball_volume(3) == pytest.approx(np.log(4.0 / 3.0 * np.pi))
    # V_d itself underflows to 0.0 from d = 453
    assert np.isfinite(log_unit_ball_volume(460))


def test_fixed_k_line_radii():
    ps, idx = make([[0.0], [1.0], [3.0]])
    radii = estimate_radii(idx, fixed_k(k=1))
    assert radii.tolist() == [1.0, 1.0, 2.0]


def test_coincident_pair_radius_floored():
    ps, idx = make([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    radii = estimate_radii(idx, fixed_k(k=1))
    assert (radii > 0).all()
    # the coincident pair falls back to its nearest distinct neighbor
    assert radii[0] == pytest.approx(1.0)
    assert radii[1] == pytest.approx(1.0)


def test_all_coincident_degenerate():
    ps, idx = make(np.zeros((4, 2)))
    with pytest.raises(DegenerateDataError):
        estimate_radii(idx, fixed_k(k=1))


def test_radii_positive_for_every_strategy():
    rng = np.random.default_rng(21)
    for trial in range(10):
        pts = rng.random((30, 2))
        pts[5] = pts[17]  # plant a duplicate
        ps, idx = make(pts)
        for strat in (fixed_k(), rk_approx(), un_approx()):
            radii = estimate_radii(idx, strat)
            assert (radii > 0).all()


def test_rk_radii_track_uniform_density():
    rng = np.random.default_rng(12)
    ps, idx = make(rng.random((500, 2)))
    radii = estimate_radii(idx, rk_approx())
    k = default_k(500)
    target = np.sqrt(k / (500.0 * np.pi))
    assert 0.5 * target <= np.median(radii) <= 2.0 * target


@pytest.mark.parametrize("d", [3, 12])
def test_rk_window_leaves_out_a_constant_column(d):
    # the constant column, appended last, moves no distance, and the window
    # spans only the axes that vary, so the radii keep every bit; a window
    # of volume 0 gave 1-NN radii, whose clusters all fell below s_min
    x = np.random.default_rng(21).random((400, d))
    with_c = np.hstack([x, np.full((400, 1), 0.5)])
    radii = estimate_radii(build_index(PointSet(x)), rk_approx())
    assert np.array_equal(estimate_radii(build_index(PointSet(with_c)), rk_approx()), radii)
    flags = score_point_set(PointSet(with_c), rk_approx(), s_min=0.04).ios_flag
    assert 0 < flags.sum() < flags.size


def test_digraph_line_adjacency():
    ps, idx = make([[0.0], [1.0], [3.0]])
    radii = estimate_radii(idx, fixed_k(k=1))
    dg = build_catch_digraph(idx, radii)
    assert [c.tolist() for c in dg.covers] == [[1], [0], [1]]
    assert dg.covered_count.tolist() == [2, 2, 2]
    # 2 reaches 1 but not the other way around
    assert 1 in dg.covers[2] and 2 not in dg.covers[1]
    assert dg.in_ids[dg.in_ptr[1] : dg.in_ptr[2]].tolist() == [0, 2]


def test_digraph_matches_brute():
    rng = np.random.default_rng(14)
    pts = rng.random((60, 2))
    radii = rng.random(60) * 0.3 + 0.01
    ps = PointSet(pts, None)
    dg = build_catch_digraph(build_index(ps), radii)
    assert [c.tolist() for c in dg.covers] == brute_covers(pts, radii)


def test_two_blobs_two_clusters():
    # two 4x5 grids far apart; grid spacing keeps every point mutually
    # covered with its neighbors under fixed-k radii
    grid = np.array([[i * 0.02, j * 0.02] for i in range(4) for j in range(5)])
    ps, idx = make(np.vstack([grid, grid + 5.0]))
    radii = estimate_radii(idx, fixed_k())
    cl = cluster_digraph(build_catch_digraph(idx, radii), build_index(ps))
    assert cl.n_clusters == 2
    assert np.bincount(cl.cluster_of).tolist() == [20, 20]
    # id 0 belongs to one blob, id 20 to the other
    assert cl.cluster_of[0] != cl.cluster_of[20]


def test_isolated_point_beyond_reach_is_singleton():
    ps, idx = make([[0.0], [1.0], [50.0]])
    dg = build_catch_digraph(idx, np.array([1.0, 1.0, 2.0]))
    cl = cluster_digraph(dg, build_index(ps))
    assert cl.n_clusters == 2
    # bigger cluster takes id 0
    assert cl.cluster_of.tolist() == [0, 0, 1]


def test_isolated_point_attaches_within_reach():
    # mutual pair at 0,1; the point at 3 has no mutual edge but the pair
    # is within 3 times its radius
    ps, idx = make([[0.0], [1.0], [3.0]])
    dg = build_catch_digraph(idx, np.array([1.0, 1.0, 1.0]))
    cl = cluster_digraph(dg, build_index(ps))
    assert cl.n_clusters == 1
    assert cl.cluster_of.tolist() == [0, 0, 0]


def test_mutual_triangle_single_cluster():
    ps, idx = make([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    dg = build_catch_digraph(idx, np.array([2.0, 2.0, 2.0]))
    cl = cluster_digraph(dg, build_index(ps))
    assert cl.n_clusters == 1
    assert np.bincount(cl.cluster_of).tolist() == [3]


def test_cluster_ids_ordered_by_size_then_member():
    # two mutual pairs of equal size; the one holding the smaller id
    # must become cluster 0
    ps, idx = make([[10.0], [11.0], [0.0], [1.0]])
    dg = build_catch_digraph(idx, np.array([1.0, 1.0, 1.0, 1.0]))
    cl = cluster_digraph(dg, build_index(ps))
    assert cl.cluster_of.tolist() == [0, 0, 1, 1]


def test_components_match_brute_union_find():
    rng = np.random.default_rng(16)
    for _ in range(10):
        pts = rng.random((40, 2))
        radii = rng.random(40) * 0.25 + 0.02
        ps = PointSet(pts, None)
        idx = build_index(ps)
        dg = build_catch_digraph(idx, radii)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph, "ATTACH_FACTOR", 0.0)
            cl = cluster_digraph(dg, build_index(ps))
        labels = brute_components(pts, radii)
        # same partition, allowing for different label names
        for i in range(40):
            for j in range(i + 1, 40):
                same_pkg = cl.cluster_of[i] == cl.cluster_of[j]
                same_brute = labels[i] == labels[j]
                assert same_pkg == same_brute


def test_build_deterministic_across_fresh_indexes():
    rng = np.random.default_rng(18)
    pts = rng.random((50, 3))
    results = []
    for _ in range(2):
        ps = PointSet(pts, None)
        idx = build_index(ps)
        radii = estimate_radii(idx, un_approx())
        dg = build_catch_digraph(idx, radii)
        cl = cluster_digraph(dg, build_index(ps))
        results.append((radii, [c.tolist() for c in dg.covers], cl.cluster_of))
    np.testing.assert_array_equal(results[0][0], results[1][0])
    assert results[0][1] == results[1][1] == brute_covers(pts, results[0][0])
    np.testing.assert_array_equal(results[0][2], results[1][2])


@pytest.mark.parametrize("d, strategy", [
    (d, strategy) for d in (10, 50) for strategy in (fixed_k, rk_approx, un_approx)
])
def test_table_answers_every_isolated_row_on_clustered_data(monkeypatch, d, strategy):
    # planted outliers have no mutual edge, and each of their table rows
    # reaches a cluster, so nearest widens no row
    ps = simgen.generate(
        simgen.SimConfig(regime="gaussian", d=d, n=400, seed=1, outlier_fraction=0.05)
    )
    idx = build_index(ps)
    dg = build_catch_digraph(idx, estimate_radii(idx, strategy()))
    want = gather_cluster_of(dg, ps.points)
    widened = []
    table = idx._table

    def recording(rows, width):
        widened.append(rows.size)
        return table(rows, width)

    monkeypatch.setattr(idx, "_table", recording)
    cl = cluster_digraph(dg, idx)
    assert np.array_equal(cl.cluster_of, want)
    assert widened == []
    mutual = np.zeros((ps.n, ps.n), dtype=bool)
    mutual[np.repeat(np.arange(ps.n), np.diff(dg.out_ptr)), dg.out_ids] = True
    # many isolated rows ask nearest: 11 to 29 of them across the cases
    assert (~(mutual & mutual.T).any(axis=1)).sum() >= (10 if strategy is fixed_k else 16)


@pytest.mark.parametrize("strategy", [fixed_k, rk_approx, un_approx])
def test_one_block_clustering_equals_the_blocked_run_and_the_gather(strategy):
    # a bench cell's graph fits one row block, so its components come from
    # one strong search; cut into blocks it takes the undirected seed and
    # the merges
    ps = simgen.generate(simgen.SimConfig(
        regime="mixed", d=2, n=400, seed=4, outlier_fraction=0.05,
        gaussian_scale=0.05, outlier_min_separation=1.5,
    ))
    idx = build_index(ps)
    dg = build_catch_digraph(idx, estimate_radii(idx, strategy()))
    both = dg.out_ptr.astype(np.int64) + dg.in_ptr
    assert len(list(dataset.row_blocks(both))) == 1
    whole = cluster_digraph(dg, idx).cluster_of
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "GATHER_CHUNK", 256)
        assert len(list(dataset.row_blocks(both))) > 10
        blocked = cluster_digraph(dg, idx).cluster_of
    assert np.array_equal(whole, blocked)
    assert np.array_equal(whole, gather_cluster_of(dg, ps.points))
    sizes = np.bincount(whole)
    assert sizes.size >= 2 and sizes.max() >= 30
