"""The batched neighbor table and everything built on it, checked against
the per-point reference loops in _oracles: every value must be equal to
the last bit, not merely close."""

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import norm

from ccdscore.baselines import LofParams, OdinParams, lof, odin
from ccdscore import dataset
from ccdscore.dataset import PointSet, _row_distances, build_index
from ccdscore.errors import BadKError
from ccdscore.graph import (
    build_catch_digraph,
    estimate_radii,
    fixed_k,
    rk_approx,
    un_approx,
)
from ccdscore.scores import cumulative_influence, default_threshold, score_point_set
from ccdscore.simgen import REGIMES, SimConfig, generate

from _oracles import (
    brute_knn,
    loop_break_ties,
    loop_clusters,
    loop_cumulative_influence,
    loop_digraph,
    loop_ios_raw,
    loop_knn_table,
    loop_lof,
    loop_odin,
    loop_oos,
    loop_radii,
    loop_small_cluster_flags,
    loop_standardize_ios,
    loop_standardize_naive,
)

STRATEGIES = {"fixed-k": fixed_k, "rk-approx": rk_approx, "un-approx": un_approx}


def scenario(regime, d, seed=4):
    cfg = SimConfig(regime=regime, d=d, n=300, seed=seed, outlier_fraction=0.05,
                    gaussian_scale=0.05, outlier_min_separation=1.5)
    return generate(cfg)


def same_rows(a, b):
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def in_rows(dg):
    """The sources reaching each point, one array per row of the in-CSR."""
    return [dg.in_ids[a:b] for a, b in zip(dg.in_ptr[:-1], dg.in_ptr[1:])]


def descending_ranks(scores):
    ranks = np.empty(scores.size, dtype=np.int64)
    ranks[np.lexsort((np.arange(scores.size), -scores))] = np.arange(1, scores.size + 1)
    return ranks


def reference_report(ps, strategy, s_min):
    """Every array score_point_set reports, from the per-point and
    per-cluster loops."""
    radii = loop_radii(ps, strategy)
    covers, covered_by = loop_digraph(ps.points, radii)
    cluster_of = loop_clusters(ps.points, radii, covers)
    counts = np.array([c.size + 1 for c in covers], dtype=np.int64)
    rho = (counts / radii) ** (1.0 / ps.d)
    ios = loop_ios_raw(covered_by, cluster_of, rho)
    oos = loop_oos(covers, rho)
    ios_std = loop_break_ties(cluster_of, loop_standardize_ios(cluster_of, ios), rho)
    thr = {kind: default_threshold(kind, strategy.kind, "uniform", ps.d)
           for kind in ("oos", "ios")}
    return {
        "radii": radii,
        "covers": covers,
        "covered_by": covered_by,
        "cluster_of": cluster_of,
        "rho": rho,
        "oos": oos,
        "ci": loop_cumulative_influence(covered_by, cluster_of, rho),
        "ios_raw": ios,
        "ios_std": ios_std,
        "ios_std_naive": loop_standardize_naive(cluster_of, ios),
        "oos_flag": oos > thr["oos"],
        "ios_flag": (ios_std > thr["ios"]) | loop_small_cluster_flags(cluster_of, s_min),
        "oos_rank": descending_ranks(oos),
        "ios_rank": descending_ranks(ios_std),
    }


@pytest.mark.parametrize("d", [2, 10, 50])
@pytest.mark.parametrize("regime", REGIMES)
def test_pipeline_equals_reference_loops(regime, d):
    ps = scenario(regime, d)
    for name, make in STRATEGIES.items():
        ref = reference_report(ps, make(), s_min=0.02)
        rep = score_point_set(ps, make(), s_min=0.02)
        dg = rep.digraph
        where = (regime, d, name)
        assert np.array_equal(dg.radii, ref["radii"]), where
        assert same_rows(dg.covers, ref["covers"]), where
        assert same_rows(in_rows(dg), ref["covered_by"]), where
        assert np.array_equal(rep.cluster_of, ref["cluster_of"]), where
        assert np.array_equal(cumulative_influence(dg, rep.cluster_of, rep.rho), ref["ci"]), where
        for key in ("rho", "oos", "ios_raw", "ios_std", "ios_std_naive",
                    "oos_flag", "ios_flag", "oos_rank", "ios_rank"):
            assert np.array_equal(getattr(rep, key), ref[key]), (key, *where)


@pytest.mark.parametrize("d", [2, 10, 50])
@pytest.mark.parametrize("regime", REGIMES)
def test_baselines_equal_reference_loops(regime, d):
    ps = scenario(regime, d)
    ref_lof = loop_lof(ps.points)
    ref_odin = loop_odin(ps.points, int(round(ps.n**0.5)))
    got_lof, _ = lof(build_index(ps), LofParams())
    got_odin, _ = odin(build_index(ps), OdinParams())
    assert np.array_equal(got_lof, ref_lof, equal_nan=True)
    assert np.array_equal(got_odin, ref_odin)


def grid_points():
    xs, ys = np.meshgrid(np.arange(12.0), np.arange(12.0))
    return np.column_stack([xs.ravel(), ys.ravel()])


def duplicate_points():
    rng = np.random.default_rng(8)
    base = rng.random((5, 3))
    return np.vstack([np.repeat(base, 9, axis=0), rng.random((40, 3))])


def assert_table_matches_knn(idx, k):
    ids, dists = idx.knn_table(k)
    assert ids.shape == dists.shape == (idx.n, k)
    want_ids, want_dists = loop_knn_table(idx.ps.points, k)
    assert np.array_equal(ids, want_ids), k
    assert np.array_equal(dists, want_dists), k


def source_calls(monkeypatch):
    """Patch both table sources to record (w, rows) of every call."""
    calls = []
    for name in ("_tree_table_candidates", "_dense_table_candidates"):
        real = getattr(dataset.NeighborIndex, name)

        def recording(self, rows, w, k, real=real):
            calls.append((w, rows.copy()))
            return real(self, rows, w, k)

        monkeypatch.setattr(dataset.NeighborIndex, name, recording)
    return calls


def reasked_rows(calls, k):
    """The rows that the table of knn_table(k) asked again at a wider w."""
    later = [rows for w, rows in calls if w > k + 1]
    return np.concatenate(later) if later else np.array([], dtype=np.int64)


def test_table_on_integer_grid_ties(monkeypatch):
    # exact ties at the last kept distance everywhere: rows stay open after
    # the first pass
    idx = build_index(PointSet(grid_points()))
    calls = source_calls(monkeypatch)
    for k in (1, 4, 8, 12):
        calls.clear()
        assert_table_matches_knn(idx, k)
        assert reasked_rows(calls, k).size


def test_table_with_more_duplicates_than_k(monkeypatch):
    # nine copies of each base point: with k < 8 a point can miss its own
    # candidate list
    ps = PointSet(duplicate_points())
    idx = build_index(ps)
    for k in (3, 7, 8, 12):
        assert_table_matches_knn(idx, k)
    # idx keeps its k=12 table, so the k=3 passes come from a fresh index;
    # every copied row goes back to the source
    calls = source_calls(monkeypatch)
    build_index(ps).knn_table(3)
    assert set(range(45)) <= set(reasked_rows(calls, 3).tolist())


@pytest.mark.parametrize("points", [grid_points, duplicate_points])
def test_pipeline_on_ties_and_duplicates_equals_reference_loops(points):
    # fixed-k radii of the duplicated points are zero and get floored
    ps = PointSet(points())
    rk = [rk_approx(k=k) for k in (3, 4, 6)]
    for strategy in (fixed_k(k=4), *rk, un_approx(k=4), fixed_k()):
        radii = loop_radii(ps, strategy)
        rep = score_point_set(ps, strategy)
        assert np.array_equal(rep.digraph.radii, radii)
        covers, covered_by = loop_digraph(ps.points, radii)
        assert same_rows(rep.digraph.covers, covers)
        assert same_rows(in_rows(rep.digraph), covered_by)
        cluster_of = loop_clusters(ps.points, radii, covers)
        assert np.array_equal(rep.cluster_of, cluster_of)
        assert np.array_equal(rep.oos, loop_oos(covers, rep.rho))
        assert np.array_equal(rep.ios_raw, loop_ios_raw(covered_by, cluster_of, rep.rho))


def test_rk_z_from_ndtri_equals_norm_ppf():
    # the radii take z from scipy.special.ndtri; loop_radii keeps norm.ppf
    rng = np.random.default_rng(13)
    sig = np.concatenate([[0.01, 1e-6, 0.05, 0.3, 0.5, 0.99, 2.0**-53],
                          rng.random(20), 10.0 ** -rng.uniform(1, 15, 20)])
    assert np.array_equal(ndtri(1.0 - sig).view(np.int64), norm.ppf(1.0 - sig).view(np.int64))


def mixed_tie_points(k):
    """An integer grid, random points off to one side and three points
    copied k + 3 times, shuffled so that ids follow no geometry: one chunk
    of table rows holds tie-free rows, rows the first pass closes with tied
    distances inside them and rows that miss their own point."""
    rng = np.random.default_rng(21)
    loose = 20.0 + 10.0 * rng.random((60, 2))
    pool = np.repeat(-5.0 - rng.random((3, 2)), k + 3, axis=0)
    pts = np.vstack([grid_points(), loose, pool])
    return pts[rng.permutation(len(pts))]


@pytest.mark.parametrize("dense", [False, True])
def test_table_orders_tied_rows_by_id_inside_mixed_chunks(dense, monkeypatch):
    # rows are ordered by distance alone unless two distances are equal;
    # at k=4 the first pass closes rows on the grid's border, which hold
    # two or three neighbors at 1
    monkeypatch.setattr(dataset, "_dense_table", lambda d: dense)
    calls = source_calls(monkeypatch)
    for k in (4, 8):
        calls.clear()
        idx = build_index(PointSet(mixed_tie_points(k)))
        assert_table_matches_knn(idx, k)
        _, dists = idx.last_table
        tied = (dists[:, 1:] == dists[:, :-1]).any(axis=1)
        first = np.ones(idx.n, dtype=bool)
        first[reasked_rows(calls, k)] = False
        assert not first.all()
        assert (first & ~tied).any()
        if k == 4:
            assert (first & tied).any()


def test_table_without_slack_column():
    pts = np.random.default_rng(9).random((9, 2))
    idx = build_index(PointSet(pts))
    assert_table_matches_knn(idx, 8)


def test_table_rejects_the_same_k_as_kth_distances():
    idx = build_index(PointSet(np.random.default_rng(1).random((6, 2))))
    for k in (-1, 0, 6, 7):
        with pytest.raises(BadKError):
            idx.knn_table(k)
        with pytest.raises(BadKError):
            idx.kth_distances(k)
    for k in (1, 5):
        assert np.array_equal(idx.kth_distances(k), idx.knn_table(k)[1][:, k - 1])


def test_table_is_cached_and_read_only():
    # the kept table is one column wider than the widest k asked for, and
    # every answer is a read-only view of its first k columns
    idx = build_index(PointSet(np.random.default_rng(2).random((50, 3))))
    idx.knn_table(5)
    kept_ids, kept_dists = idx.last_table
    assert kept_ids.shape == kept_dists.shape == (50, 6)
    assert not kept_ids.flags.writeable and not kept_dists.flags.writeable
    for k in (5, 4, 5, 1):
        ids, dists = idx.knn_table(k)
        assert ids.shape == (50, k)
        assert ids.base is kept_ids and dists.base is kept_dists
        assert not ids.flags.writeable and not dists.flags.writeable
    assert idx.last_table[0] is kept_ids and idx.last_table[1] is kept_dists
    idx.knn_table(6)
    assert idx.last_table[0].shape == (50, 7)


def test_table_widens_to_every_neighbor_after_a_narrow_one():
    # a narrow kept table must not serve k = n - 1; only a table that
    # already holds all n - 1 neighbors serves any k
    pts = np.random.default_rng(3).random((12, 2))
    idx = build_index(PointSet(pts))
    idx.knn_table(2)
    full = idx.kth_distances(11)
    ids, dists = idx.knn_table(11)
    for i in range(12):
        want_ids, want_dists = brute_knn(pts, i, 11)
        assert np.array_equal(ids[i], want_ids) and np.array_equal(dists[i], want_dists)
        assert full[i] == want_dists[-1]


def random_points():
    return np.random.default_rng(12).standard_normal((150, 5))


def assert_same_digraph(a, b):
    for name in ("out_ptr", "out_ids", "in_ptr", "in_ids"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


@pytest.mark.parametrize("dense", [False, True])
@pytest.mark.parametrize("points", [grid_points, duplicate_points, random_points])
def test_narrower_table_is_a_prefix_of_the_widest(points, dense, monkeypatch):
    # grid ties and more than K+1 copies leave rows open after the first
    # pass at some widths K and not at others; the prefix must not tell
    monkeypatch.setattr(dataset, "_dense_table", lambda d: dense)
    ps = PointSet(points())
    wide = build_index(ps)
    wide.knn_table(12)
    widest = wide.last_table
    for k in range(1, 12):
        ids, dists = wide.knn_table(k)
        want_ids, want_dists = build_index(ps).knn_table(k)
        assert np.array_equal(ids, want_ids), k
        assert np.array_equal(dists, want_dists), k
    assert all(a is b for a, b in zip(wide.last_table, widest))
    for strategy in (fixed_k(k=4), rk_approx(k=4), un_approx(k=4)):
        radii = estimate_radii(wide, strategy)
        narrow = build_index(ps)
        assert np.array_equal(estimate_radii(narrow, strategy), radii)
        assert narrow.last_table[0].shape[1] == 5
        want = build_catch_digraph(narrow, radii)
        assert_same_digraph(build_catch_digraph(wide, radii), want)
        assert_same_digraph(build_catch_digraph(build_index(ps), radii), want)


def test_digraph_without_a_table_uses_ball_queries():
    ps = scenario("uniform", 5)
    radii = loop_radii(ps, fixed_k())
    fresh = build_index(ps)
    assert fresh.last_table is None
    dg = build_catch_digraph(fresh, radii)
    covers, covered_by = loop_digraph(ps.points, radii)
    assert same_rows(dg.covers, covers)
    assert same_rows(in_rows(dg), covered_by)


@pytest.mark.parametrize("d, tree", [(5, True), (8, False), (50, False)])
def test_the_tree_is_built_only_below_the_dense_dimension(d, tree):
    # from d = 8 the table and the balls read the dense screen, so no
    # stage, baseline or per-point query builds a k-d tree
    ps = scenario("gaussian", d)
    idx = build_index(ps)
    assert "_tree" not in idx.__dict__
    for make in STRATEGIES.values():
        score_point_set(ps, make(), idx=idx)
    lof(idx)
    odin(idx)
    idx.knn(3, 5)
    idx.range_query(3, 1.0)
    assert ("_tree" in idx.__dict__) == tree
    lone = build_index(ps)
    lone.knn(3, 5)
    lone.range_query(3, 1.0)
    assert ("_tree" in lone.__dict__) == tree


def lattice_points(d=8, n=200, seed=5):
    """n distinct points of the integer lattice {0, 1, 2, 3}^d, plus copies
    of a few nudged along the first axis by 1e-13, so some pairs sit about
    1e-13 outside a sphere of radius 2.0."""
    rng = np.random.default_rng(seed)
    cube = np.unique(rng.integers(0, 4, size=(3 * n, d)).astype(np.float64), axis=0)
    pts = cube[rng.permutation(cube.shape[0])[:n]]
    nudged = pts[:20].copy()
    nudged[:, 0] += 1e-13
    return np.vstack([pts, nudged])


def dense_duplicates(d=8):
    rng = np.random.default_rng(8)
    base = rng.standard_normal((5, d))
    return np.vstack([np.repeat(base, 20, axis=0), rng.standard_normal((40, d))])


def assert_screen_equals_range_queries(ps, radii):
    """The digraph from a fresh index (every row a ball query) against the
    per-point range queries; the fresh index builds no tree, so the balls
    come from the screen alone."""
    fresh = build_index(ps)
    dg = build_catch_digraph(fresh, radii)
    assert "_tree" not in fresh.__dict__
    covers, covered_by = loop_digraph(ps.points, radii)
    assert same_rows(dg.covers, covers)
    assert same_rows(in_rows(dg), covered_by)
    return covers


@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_screen_on_lattice_sphere(offset):
    ps = PointSet(lattice_points() + offset)
    radii = np.full(ps.n, 2.0)
    covers = assert_screen_equals_range_queries(ps, radii)
    everyone = np.arange(ps.n)
    dist = _row_distances(ps.points, everyone, np.broadcast_to(everyone, (ps.n, ps.n)))
    # members lie exactly on the sphere, and without the offset some pairs
    # sit just outside it
    assert any((dist[i, c] == 2.0).any() for i, c in enumerate(covers))
    if offset == 0.0:
        assert ((dist > 2.0) & (dist < 2.0 + 1e-12)).any()


def test_screen_with_heavy_duplicates():
    ps = PointSet(dense_duplicates())
    for strategy in (fixed_k(k=4), un_approx(k=4)):
        radii = loop_radii(ps, strategy)
        assert_screen_equals_range_queries(ps, radii)


@pytest.mark.parametrize("d, n", [(2, 300), (8, 300), (9, 300), (5, 32), (5, 33), (30, 400)])
def test_screen_equals_range_queries(d, n):
    # fixed-k radii put each point's k-th neighbor exactly on its sphere
    ps = PointSet(np.random.default_rng(d * 1000 + n).standard_normal((n, d)))
    radii = loop_radii(ps, fixed_k())
    assert_screen_equals_range_queries(ps, radii)


def test_screen_where_the_product_overflows():
    # a squared spread of about 1.3e308 is finite, but -2 x.y for two points
    # near the far corner is not, so those pairs reach the recheck as
    # candidates whatever their distance
    rng = np.random.default_rng(3)
    corner = 4e153 * (1.0 - 0.05 * rng.random((60, 8)))
    ps = PointSet(np.vstack([np.zeros((1, 8)), corner]))
    with np.errstate(over="ignore"):
        assert np.isinf(-2.0 * (ps.points @ ps.points.T)).any()
    radii = loop_radii(ps, fixed_k())
    assert np.isfinite(radii).all()
    assert_screen_equals_range_queries(ps, radii)


def far_lattice_points():
    return lattice_points() + 1e6


@pytest.mark.parametrize(
    "points", [grid_points, duplicate_points, lattice_points, far_lattice_points,
               dense_duplicates]
)
def test_dense_table_on_ties_and_duplicates(points, monkeypatch):
    # the dense candidate source on exact ties and copies, at any dimension
    monkeypatch.setattr(dataset, "_dense_table", lambda d: True)
    idx = build_index(PointSet(points()))
    calls = source_calls(monkeypatch)
    for k in (1, 4, 8, 12, 30):
        calls.clear()
        assert_table_matches_knn(idx, k)
        assert reasked_rows(calls, k).size


def test_screen_sure_members_far_from_the_column_minima():
    # points drawn on spheres of radius 2.0 about a few centers, 1e6 from a
    # point at the origin that keeps the column minima at zero: the squared
    # norms are about 8e12, so g rounds by about 1e-3, while the formula's
    # distances stray from 2.0 by about 1e-10 either way. Only the band
    # keeps the pairs just outside a sphere from counting as sure members.
    rng = np.random.default_rng(6)
    centers = 1e6 + 3.0 * rng.random((10, 8))
    dirs = rng.standard_normal((10, 20, 8))
    dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
    shells = (centers[:, None, :] + 2.0 * dirs).reshape(-1, 8)
    ps = PointSet(np.vstack([np.zeros((1, 8)), centers, shells]))
    radii = np.full(ps.n, 2.0)
    assert_screen_equals_range_queries(ps, radii)
    everyone = np.arange(ps.n)
    dist = _row_distances(ps.points, everyone, np.broadcast_to(everyone, (ps.n, ps.n)))
    assert ((dist > 2.0) & (dist < 2.0 + 1e-9)).any()
    assert ((dist <= 2.0) & (dist > 2.0 - 1e-9)).any()


def test_dense_table_where_the_product_overflows(monkeypatch):
    # on a line, -2 x.y reads -inf for the row at 9.5e153 against itself
    # and against the two farther points, but not against its nearest
    # point 9.45e153: the -inf sorts a farther point first, so the row must
    # stay open for a wider pass rather than close
    monkeypatch.setattr(dataset, "_dense_table", lambda d: True)
    pts = np.array([[0.0], [9.45e153], [9.5e153], [1.05e154], [1.1e154]])
    with np.errstate(over="ignore"):
        assert np.isinf(-2.0 * pts[2] * pts[[2, 3, 4]]).all()
        assert np.isfinite(-2.0 * pts[2] * pts[1])
    idx = build_index(PointSet(pts))
    calls = source_calls(monkeypatch)
    for k in (1, 2):
        calls.clear()
        assert_table_matches_knn(idx, k)
        assert 2 in reasked_rows(calls, k)
