"""Property tests of the catch digraph, the neighbor table and the scoring
pipeline on small, hostile point sets: heavy duplicate rows, integer
lattices, large offsets, extreme scales, and k close to n; of the graph
layer against its sorting and gathering references; and of the
per-cluster reductions on partitions with heavy ties. Derandomized, so
every run checks the same examples."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from ccdscore import dataset, graph
from ccdscore.dataset import PointSet, build_index
from ccdscore.errors import CcdScoreError, DegenerateDataError
from ccdscore.graph import (
    build_catch_digraph, cluster_digraph, estimate_radii, fixed_k, rk_approx, un_approx,
)
from ccdscore.scores import (
    break_ties, cumulative_influence, flag_outliers, ios_raw, oos, score_point_set,
    small_cluster_flags, standardize_ios, standardize_naive, vicinity_density,
)

from _oracles import (
    brute_covers,
    brute_knn,
    dist,
    gather_cluster_of,
    keysort_csr,
    keysort_digraph,
    loop_break_ties,
    loop_cumulative_influence,
    loop_distances_to,
    loop_ios_raw,
    loop_knn,
    loop_knn_table,
    loop_nearest,
    loop_oos,
    loop_positive_floor,
    loop_range_query,
    loop_small_cluster_flags,
    loop_standardize_ios,
    loop_standardize_naive,
)

STRATEGIES = (fixed_k, rk_approx, un_approx)
SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=60)


@st.composite
def point_sets(draw):
    """(points, k): a pool of rows with integer or float coordinates, then
    copies of pool rows up to n, and k anywhere up to n."""
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 6))
    if draw(st.booleans()):
        coord = st.integers(-3, 3).map(float)
    else:
        coord = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    pool = draw(st.integers(1, n))
    base = draw(st.lists(st.lists(coord, min_size=d, max_size=d),
                         min_size=pool, max_size=pool))
    extra = n - pool
    copies = draw(st.lists(st.integers(0, pool - 1), min_size=extra, max_size=extra))
    rows = list(range(pool)) + copies
    k = draw(st.integers(1, n) | st.integers(max(1, n - 2), n))
    return np.asarray(base, dtype=np.float64)[rows], k


def csr_rows(ptr, ids):
    return [ids[a:b].tolist() for a, b in zip(ptr[:-1], ptr[1:])]


@SETTINGS
@given(point_sets(), st.sampled_from(STRATEGIES))
def test_digraph_csr_matches_brute_covers(case, make):
    points, k = case
    ps = PointSet(points)
    try:
        idx = build_index(ps)
        radii = estimate_radii(idx, make(k=k))
    except CcdScoreError:
        return
    dg = build_catch_digraph(idx, radii)
    n = ps.n
    for arr in (dg.out_ptr, dg.out_ids, dg.in_ptr, dg.in_ids):
        assert arr.dtype == np.int32
    out_rows = csr_rows(dg.out_ptr, dg.out_ids)
    in_rows = csr_rows(dg.in_ptr, dg.in_ids)
    expect = brute_covers(points, radii)
    assert out_rows == expect
    assert [c.tolist() for c in dg.covers] == expect
    assert dg.covered_count.tolist() == [len(c) + 1 for c in expect]
    # the in-CSR is the transpose, each row ascending
    assert in_rows == [[i for i in range(n) if j in expect[i]] for j in range(n)]


@SETTINGS
@given(point_sets(), st.sampled_from(STRATEGIES), st.sampled_from([1.0, 1e60, 1e-60]))
def test_scoring_raises_a_package_error_or_reports_without_nan(case, make, scale):
    points, k = case
    try:
        rep = score_point_set(PointSet(points * scale), make(k=k))
    except CcdScoreError:
        return
    for name in ("rho", "oos", "ios_raw", "ios_std", "ios_std_naive"):
        assert not np.isnan(getattr(rep, name)).any(), name
    assert (rep.rho > 0).all() and np.isfinite(rep.rho).all()
    everyone = np.arange(1, rep.n + 1)
    assert np.array_equal(np.sort(rep.oos_rank), everyone)
    assert np.array_equal(np.sort(rep.ios_rank), everyone)


@st.composite
def table_sets(draw):
    """(points, k): integer, duplicate-heavy or float rows in 1 to 12
    dimensions, shifted by 0 or 1e6, and k anywhere in [1, n - 1]."""
    n = draw(st.integers(3, 40))
    d = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["integer", "duplicates", "float"]))
    if kind == "float":
        coord = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    else:
        coord = st.integers(-3, 3).map(float)
    pool = draw(st.integers(1, max(1, n // 4) if kind == "duplicates" else n))
    base = draw(st.lists(st.lists(coord, min_size=d, max_size=d),
                         min_size=pool, max_size=pool))
    copies = draw(st.lists(st.integers(0, pool - 1), min_size=n - pool, max_size=n - pool))
    offset = draw(st.sampled_from([0.0, 1e6]))
    k = draw(st.integers(1, n - 1) | st.integers(max(1, n - 3), n - 1))
    return np.asarray(base, dtype=np.float64)[list(range(pool)) + copies] + offset, k


@SETTINGS
@given(table_sets(), st.booleans(), st.sampled_from(STRATEGIES))
def test_both_table_sources_match_knn_and_brute_covers(case, dense, make):
    points, k = case
    ps = PointSet(points)
    idx = build_index(ps)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "_dense_table", lambda d: dense)
        ids, dists = idx.knn_table(k)
        try:
            radii = estimate_radii(idx, make(k=k))
        except CcdScoreError:
            radii = None
    want_ids, want_dists = loop_knn_table(points, k)
    assert np.array_equal(ids, want_ids)
    assert np.array_equal(dists, want_dists)
    if radii is not None:
        dg = build_catch_digraph(idx, radii)
        assert csr_rows(dg.out_ptr, dg.out_ids) == brute_covers(points, radii)


@st.composite
def distance_blocks(draw):
    """(points, centers, cand): rows of 1 to 12 dimensions drawn from a
    small pool, so copies are heavy, scaled by 1, 1e150 or 1e-150; and int32
    or int64 candidates in a shape some caller passes: a full block, an
    (m, 1) recheck column, or read-only zero-stride broadcast targets, any
    of them possibly empty."""
    n = draw(st.integers(1, 30))
    d = draw(st.integers(1, 12))
    coord = st.integers(-3, 3).map(float) | st.floats(
        -1e3, 1e3, allow_nan=False, allow_infinity=False
    )
    pool = draw(st.integers(1, n))
    base = draw(st.lists(st.lists(coord, min_size=d, max_size=d),
                         min_size=pool, max_size=pool))
    copies = draw(st.lists(st.integers(0, pool - 1), min_size=n - pool, max_size=n - pool))
    scale = draw(st.sampled_from([1.0, 1e150, 1e-150]))
    points = np.asarray(base, dtype=np.float64)[list(range(pool)) + copies] * scale
    dtype = draw(st.sampled_from([np.int32, np.int64]))

    def ids(size):
        return np.array(draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size)),
                        dtype=dtype)

    m = draw(st.integers(0, 8))
    shape = draw(st.sampled_from(["block", "column", "broadcast"]))
    if shape == "broadcast":
        targets = ids(draw(st.integers(0, n)))
        cand = np.broadcast_to(targets, (m, targets.size))
    else:
        w = 1 if shape == "column" else draw(st.integers(0, 8))
        cand = ids(m * w).reshape(m, w)
    return points, ids(m), cand


@SETTINGS
@given(distance_blocks())
def test_row_distances_equal_the_per_point_formula(case):
    points, centers, cand = case
    got = dataset._row_distances(points, centers, cand)
    assert got.shape == cand.shape and got.dtype == np.float64
    for r in range(cand.shape[0]):
        want = loop_distances_to(points[cand[r]], points[centers[r]])
        assert got[r].tobytes() == want.tobytes()


@st.composite
def graph_sets(draw):
    """(points, k, shrink): lattice rows full of distance ties, a few rows
    copied more than k + 1 times, or float rows, in 1 to 12 dimensions;
    k small or anywhere in [1, n - 1]; and a factor that shrinks the radii
    so that vertices drop out of the mutual graph."""
    n = draw(st.integers(3, 40))
    d = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["lattice", "duplicates", "float"]))
    if kind == "float":
        coord = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    else:
        coord = st.integers(-2, 2).map(float)
    pool = draw(st.integers(1, max(1, n // 6) if kind == "duplicates" else n))
    base = draw(st.lists(st.lists(coord, min_size=d, max_size=d),
                         min_size=pool, max_size=pool))
    copies = draw(st.lists(st.integers(0, pool - 1), min_size=n - pool, max_size=n - pool))
    k = draw(st.integers(1, min(3, n - 1)) | st.integers(1, n - 1))
    shrink = draw(st.sampled_from([1.0, 0.6, 0.3]))
    return np.asarray(base, dtype=np.float64)[list(range(pool)) + copies], k, shrink


def graph_case(case, dense, make):
    """(ps, idx, radii) with the table built from the chosen source, or
    None when the radii raise a package error."""
    points, k, shrink = case
    ps = PointSet(points)
    idx = build_index(ps)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "_dense_table", lambda d: dense)
        try:
            radii = estimate_radii(idx, make(k=k))
        except CcdScoreError:
            return None
    return ps, idx, radii * shrink


def no_per_point_knn(self, i, k):
    raise AssertionError("knn_table asked the per-point knn")


def batched_table(points, k, dense):
    """(idx, ids, dists, widths): knn_table(k) built by the chosen source
    while the per-point knn raises, and the width w of each source call."""
    idx = build_index(PointSet(points))
    widths = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "_dense_table", lambda d: dense)
        mp.setattr(dataset.NeighborIndex, "knn", no_per_point_knn)
        for name in ("_tree_table_candidates", "_dense_table_candidates"):
            real = getattr(dataset.NeighborIndex, name)

            def recording(self, rows, w, k, real=real):
                widths.append(w)
                return real(self, rows, w, k)

            mp.setattr(dataset.NeighborIndex, name, recording)
        ids, dists = idx.knn_table(k)
    assert widths[0] == idx.last_table[0].shape[1] == min(k + 1, idx.n - 1)
    return idx, ids, dists, widths


@SETTINGS
@given(graph_sets(), st.booleans())
def test_every_table_row_comes_from_the_batched_source(case, dense):
    # lattice ties and rows copied more than k + 2 times leave rows open
    # after the first pass; they go back to the same source, never to knn
    points, k, _ = case
    _, ids, dists, _ = batched_table(points, k, dense)
    for i in range(len(points)):
        want_ids, want_dists = brute_knn(points, i, k)
        assert np.array_equal(ids[i], want_ids), i
        assert np.array_equal(dists[i], want_dists), i


@SETTINGS
@given(graph_sets(), st.booleans())
def test_no_point_outside_a_kept_row_lies_closer_than_its_last_distance(case, dense):
    # the invariant that lets balls read any smaller ball off a kept row
    points, k, _ = case
    idx, _, _, _ = batched_table(points, k, dense)
    ids, dists = idx.last_table
    for i in range(len(points)):
        outside = set(range(len(points))) - set(ids[i].tolist()) - {i}
        assert all(dist(points[j], points[i]) >= dists[i, -1] for j in outside), i


@SETTINGS
@given(graph_sets(), st.booleans())
def test_knn_and_range_query_are_rows_of_the_table_and_the_ball_query(case, dense):
    # knn(i, k) is the table's loop on row i alone and range_query(i, r) the
    # ball query on it, with and without a kept table, against per-point
    # tree queries; the radii include 0, exact pair distances and the next
    # float below one, so ties with the sphere and copies at distance 0
    # are decided on both sides
    points, k, _ = case
    tree = cKDTree(points)
    fresh, kept = build_index(PointSet(points)), build_index(PointSet(points))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "_dense_table", lambda d: dense)
        ids, dists = kept.knn_table(k)
        for i in range(len(points)):
            want_ids, want_dists = loop_knn(tree, i, k)
            got_ids, got_dists = fresh.knn(i, k)
            assert np.array_equal(got_ids, want_ids) and np.array_equal(ids[i], want_ids), i
            assert np.array_equal(got_dists, want_dists) and np.array_equal(dists[i], want_dists), i
            last = dists[i, -1]
            for r in (0.0, dists[i, 0], last, np.nextafter(last, 0.0)):
                want = loop_range_query(tree, i, float(r))
                for idx in (fresh, kept):
                    assert np.array_equal(idx.range_query(i, r), want), (i, r)


def lattice_40():
    xs, ys = np.meshgrid(np.arange(40.0), np.arange(40.0))
    return np.column_stack([xs.ravel(), ys.ravel()])


def fourfold_cloud():
    # every point 4 times: at k = 89 the (k+2)-th and (k+3)-th candidates,
    # the first pass's gap at the kept width k + 1, of every row fall in
    # one group of equal copies
    return np.repeat(np.random.default_rng(3).random((100, 5)), 4, axis=0)


def overflow_line():
    # -2 x.y reads -inf for the row at 9.5e153 against itself and the two
    # farther points, so that row stays open at k = 1 and 2
    return np.array([[0.0], [9.45e153], [9.5e153], [1.05e154], [1.1e154]])


@pytest.mark.parametrize("points, k, dense", [
    (lattice_40, 40, False), (lattice_40, 40, True), (fourfold_cloud, 89, False),
    (fourfold_cloud, 89, True), (overflow_line, 1, True), (overflow_line, 2, True)])
def test_tie_heavy_tables_reask_open_rows_and_equal_the_per_point_reference(
        points, k, dense):
    _, ids, dists, widths = batched_table(points(), k, dense)
    assert max(widths) > widths[0]  # a wider pass ran
    want_ids, want_dists = loop_knn_table(points(), k)
    assert np.array_equal(ids, want_ids)
    assert np.array_equal(dists, want_dists)


def widened_rows(mp, idx):
    """Patch idx's table builder to record (width, rows) of each call;
    once the kept table is built, only nearest calls it, for the rows it
    widens."""
    calls = []
    table = idx._table

    def recording(rows, width):
        calls.append((width, rows.tolist()))
        return table(rows, width)

    mp.setattr(idx, "_table", recording)
    return calls


def first_widening(calls):
    """The rows of the first widening pass, in the order nearest asks them."""
    return [i for w, rows in calls if w == calls[0][0] for i in rows]


def edge_arrays(covers):
    """(src, dst) int64 of the edges of the covers rows, in row order."""
    src = np.repeat(np.arange(len(covers)), [len(c) for c in covers])
    dst = np.array([j for c in covers for j in c], dtype=np.int64)
    return src, dst


@SETTINGS
@given(graph_sets(), st.booleans(), st.sampled_from(STRATEGIES))
def test_csrs_equal_the_key_sort_reference(case, dense, make):
    built = graph_case(case, dense, make)
    if built is None:
        return
    ps, idx, radii = built
    dg = build_catch_digraph(idx, radii)
    src, dst = edge_arrays(brute_covers(ps.points, radii))
    want = keysort_csr(ps.n, src, dst)
    for arr, ref in zip((dg.out_ptr, dg.out_ids, dg.in_ptr, dg.in_ids), want):
        assert arr.dtype == np.int32
        assert np.array_equal(arr, ref)


@SETTINGS
@given(graph_sets(), st.booleans(), st.sampled_from(STRATEGIES), st.randoms())
def test_balls_answer_prefix_rows_from_the_table_in_any_row_order(case, dense, make, rnd):
    built = graph_case(case, dense, make)
    if built is None:
        return
    ps, idx, radii = built
    rows = np.array(rnd.sample(range(ps.n), rnd.randint(0, ps.n)), dtype=np.int64)
    screened = []
    screen = idx._screen_candidates

    def recording(r, rad):
        screened.extend(r.tolist())
        return screen(r, rad)

    got = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(idx, "_screen_candidates", recording)
        for src, counts, targets in idx.balls(rows, radii[rows]):
            assert targets.dtype == np.int32
            for i, row in zip(src.tolist(), np.split(targets, np.cumsum(counts)[:-1])):
                got[i] = row.tolist()
    want = brute_covers(ps.points, radii)
    assert got == {i: want[i] for i in rows.tolist()}
    # only the rows whose radius reaches the last distance of their kept
    # row reach the dense screen, and none once the table holds all n - 1
    _, dists = idx.last_table
    screen = radii[rows] >= dists[rows, -1]
    if dists.shape[1] == ps.n - 1:
        screen[:] = False
    assert screened == rows[screen].tolist()


def test_index_range_guard_takes_the_int32_limit():
    top = 2**31 - 1
    graph.check_index_range(top, top)
    for n, edges in ((top + 1, 0), (10, top + 1), (top + 1, top + 1)):
        with pytest.raises(DegenerateDataError):
            graph.check_index_range(n, edges)


def test_edge_guard_fires_while_ball_blocks_still_arrive(monkeypatch):
    # every ball holds the other 299 points, 10 rows to a screen block
    ps = PointSet(np.random.default_rng(4).random((300, 3)))
    idx = build_index(ps)
    radii = np.full(ps.n, 10.0)
    served = []
    balls = idx.balls

    def counting(rows, r):
        for block in balls(rows, r):
            served.append(block[2].size)
            yield block

    monkeypatch.setattr(dataset, "GATHER_CHUNK", 10 * ps.n)
    monkeypatch.setattr(idx, "balls", counting)
    assert build_catch_digraph(idx, radii).out_ids.size == 300 * 299
    blocks = len(served)
    assert blocks == 30
    served.clear()
    monkeypatch.setattr(graph, "INDEX_MAX", 5000)
    with pytest.raises(DegenerateDataError):
        build_catch_digraph(idx, radii)
    # the running count passes 5000 in the second block of 2990 edges
    assert served == [2990, 2990]


def test_balls_leave_out_centers_whose_squared_radius_overflows():
    # squared radii of 1e155 overflow, so the screen's limit reads +inf for
    # those rows and passes every pair, the center's own among them
    rng = np.random.default_rng(6)
    points = 5e153 * rng.random((40, 2))
    points[30:] = points[:10]
    ps = PointSet(points)
    idx = build_index(ps)
    radii = np.where(np.arange(ps.n) % 2 == 0, 1e155, 5e153 * rng.random(ps.n))
    with np.errstate(over="ignore"):
        assert np.isinf(radii**2).any()
    rows = rng.permutation(ps.n)
    got = [[] for _ in range(ps.n)]
    for src, counts, targets in idx.balls(rows, radii[rows]):
        assert targets.dtype == np.int32
        starts = np.cumsum(counts) - counts
        for i, a, c in zip(src.tolist(), starts.tolist(), counts.tolist()):
            row = targets[a : a + c]
            assert i not in row
            assert np.all(np.diff(row) > 0)
            got[i] = row.tolist()
    want = brute_covers(points, radii)
    assert got == want
    dg = build_catch_digraph(idx, radii)
    assert csr_rows(dg.out_ptr, dg.out_ids) == want


def test_ids_past_the_int32_square_root_keep_their_keys():
    # n * n passes 2**31, so a key src * n + dst taken in int32 wraps
    n = 60_000
    top = np.arange(n - 10, n)
    src = np.repeat(top, 3).astype(np.int32)
    dst = np.concatenate([np.roll(top, -s)[:, None] for s in (1, 2, 5)], axis=1)
    dst = np.sort(dst, axis=1).ravel().astype(np.int32)
    dg = keysort_digraph(np.ones(n), 2, src, dst)
    want = keysort_csr(n, src.astype(np.int64), dst.astype(np.int64))
    for arr, ref in zip((dg.out_ptr, dg.out_ids, dg.in_ptr, dg.in_ids), want):
        assert np.array_equal(arr, ref)
    # the ten top ids in two clusters, with edges within and across them
    cluster_of = np.full(n, 2)
    cluster_of[top] = np.repeat([0, 1], 5)
    rho = np.random.default_rng(3).uniform(0.5, 2.0, n)
    covered_by = [dg.in_ids[a:b] for a, b in zip(dg.in_ptr[:-1], dg.in_ptr[1:])]
    assert np.array_equal(oos(dg, rho), loop_oos(dg.covers, rho))
    assert np.array_equal(
        cumulative_influence(dg, cluster_of, rho),
        loop_cumulative_influence(covered_by, cluster_of, rho),
    )
    assert np.array_equal(ios_raw(dg, cluster_of, rho), loop_ios_raw(covered_by, cluster_of, rho))


@SETTINGS
@given(graph_sets(), st.booleans(), st.sampled_from(STRATEGIES), st.sampled_from([5, 64]))
def test_scores_do_not_depend_on_the_row_blocks(case, dense, make, size):
    """The partition and the scores equal, bit for bit, those at the
    default chunk and the loop references, with row blocks of 1 or 16
    entries: the label merge spans many blocks, and rows longer than a
    block make blocks of their own."""
    built = graph_case(case, dense, make)
    if built is None:
        return
    ps, idx, radii = built
    dg = build_catch_digraph(idx, radii)
    try:
        rho = vicinity_density(dg)
    except CcdScoreError:
        rho = None

    def run():
        cluster_of = cluster_digraph(dg, idx).cluster_of
        if rho is None:
            return (cluster_of,)
        return (cluster_of, oos(dg, rho), ios_raw(dg, cluster_of, rho),
                cumulative_influence(dg, cluster_of, rho))

    whole = run()
    both = dg.out_ptr.astype(np.int64) + dg.in_ptr
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "GATHER_CHUNK", size)
        blocks = len(list(dataset.row_blocks(both)))
        blocked = run()
    # one block would mean that all rows but the last end before the step
    assert blocks > 1 or both[-2] < size >> 2
    for got, want in zip(blocked, whole):
        assert np.array_equal(got, want)
    cluster_of = gather_cluster_of(dg, ps.points)
    assert np.array_equal(blocked[0], cluster_of)
    if rho is not None:
        covered_by = [dg.in_ids[a:b] for a, b in zip(dg.in_ptr[:-1], dg.in_ptr[1:])]
        assert np.array_equal(blocked[1], loop_oos(dg.covers, rho))
        assert np.array_equal(blocked[2], loop_ios_raw(covered_by, cluster_of, rho))
        assert np.array_equal(
            blocked[3], loop_cumulative_influence(covered_by, cluster_of, rho)
        )


@SETTINGS
@given(graph_sets(), st.booleans(), st.sampled_from(STRATEGIES),
       st.sampled_from([0.5, 1.0, 3.0, 10.0]))
def test_clustering_equals_the_gather_reference_with_and_without_the_table(
    case, dense, make, factor
):
    built = graph_case(case, dense, make)
    if built is None:
        return
    ps, idx, radii = built
    dg = build_catch_digraph(idx, radii)
    want = gather_cluster_of(dg, ps.points, factor)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "ATTACH_FACTOR", factor)
        assert np.array_equal(cluster_digraph(dg, build_index(ps)).cluster_of, want)
        calls = widened_rows(mp, idx)
        got = cluster_digraph(dg, idx).cluster_of
    assert np.array_equal(got, want)
    # the table answers exactly the isolated rows that hold an anchored
    # id; only the others are widened, unless the table is already whole
    adj = np.zeros((ps.n, ps.n), dtype=bool)
    adj[np.repeat(np.arange(ps.n), np.diff(dg.out_ptr)), dg.out_ids] = True
    anchored = (adj & adj.T).any(axis=1)
    ids, _ = idx.last_table
    table = anchored[ids].any(axis=1)
    isolated = np.flatnonzero(~anchored)
    whole = ids.shape[1] == ps.n - 1
    expect = isolated[~table[isolated]].tolist() if anchored.any() and not whole else []
    assert first_widening(calls) == expect


def assert_widening_doubles(calls, width, n):
    """Each widening pass asks, at twice the width before it (the first
    at min(8, n - 1) without a kept table) up to n - 1, a subset of the
    rows the pass before it asked."""
    widths = sorted({w for w, _ in calls})
    for w in widths:
        width = min(2 * width, n - 1) if width else min(8, n - 1)
        assert w == width
    passes = [[i for w, rows in calls if w == v for i in rows] for v in widths]
    for wider, narrower in zip(passes[1:], passes[:-1]):
        assert set(wider) <= set(narrower)


@SETTINGS
@given(graph_sets(), st.sampled_from([True, False, None]), st.booleans(), st.data())
def test_nearest_equals_the_loop_reference(case, dense, positive, data):
    """Against the per-row loop, with a table from either source or none,
    any rows in any order, and among masks from empty to full, and then
    the mask of the points outside the first row's first table row: a
    table row holding a hit answers, and only the rows without one are
    widened, from the same source, until they hold one."""
    points, k, _ = case
    n = points.shape[0]
    idx = build_index(PointSet(points))
    rows = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=n)), dtype=np.int64)
    mask = st.lists(st.booleans(), min_size=n, max_size=n)
    masks = [np.array(data.draw(mask | st.just([False] * n) | st.just([True] * n)))]
    with pytest.MonkeyPatch.context() as mp:
        width = 0
        if dense is not None:
            mp.setattr(dataset, "_dense_table", lambda d: dense)
            idx.knn_table(k)
            width = idx.last_table[0].shape[1]
        if rows.size:
            # rows[0] finds no hit in its kept table row, or, on an index
            # that keeps none, in its first widening
            first = (idx.last_table[0][rows[0]] if width
                     else brute_knn(points, rows[0], min(8, n - 1))[0])
            outside = np.ones(n, dtype=bool)
            outside[first] = outside[rows[0]] = False
            masks.append(outside)
        calls = widened_rows(mp, idx)
        for among in masks:
            calls.clear()
            ids, dists = idx.nearest(rows, among, positive=positive)
            want_ids, want_dists = loop_nearest(points, rows, among, positive)
            assert np.array_equal(ids, want_ids)
            assert np.array_equal(dists, want_dists)
            answered = np.zeros(n, dtype=bool)
            if width:
                t_ids, t_dists = idx.last_table
                answered = (among[t_ids] & ((t_dists > 0) | (not positive))).any(axis=1)
            widens = among.any() and width < n - 1
            assert first_widening(calls) == (rows[~answered[rows]].tolist() if widens else [])
            assert_widening_doubles(calls, width, n)


@pytest.mark.parametrize("dense", [True, False])
def test_positive_nearest_widens_past_copies_wider_than_the_table(dense):
    """Every point 12 times over with a kept table 3 wide: every table row
    holds only zeros, so each positive row is widened at 6 and at 12 and
    answered at 12, where its row reaches past its 11 copies."""
    points = np.repeat(np.random.default_rng(8).random((20, 4)), 12, axis=0)
    n = points.shape[0]
    idx = build_index(PointSet(points))
    rows = np.random.default_rng(9).permutation(n)[:50]
    among = np.ones(n, dtype=bool)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "_dense_table", lambda d: dense)
        idx.knn_table(2)
        assert (idx.last_table[1] == 0).all()
        calls = widened_rows(mp, idx)
        ids, dists = idx.nearest(rows, among, positive=True)
    assert [w for w, _ in calls] == [6, 12]
    assert first_widening(calls) == rows.tolist()
    want_ids, want_dists = loop_nearest(points, rows, among, True)
    assert np.array_equal(ids, want_ids)
    assert np.array_equal(dists, want_dists)


@SETTINGS
@given(graph_sets(), st.booleans(), st.sampled_from([0, -1]))
def test_positive_floor_equals_the_loop_reference(case, dense, column):
    points, k, _ = case
    ps = PointSet(points)
    idx = build_index(ps)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "_dense_table", lambda d: dense)
        # zero wherever more than the column's rank of copies share a point
        radii = idx.knn_table(k)[1][:, column].copy()
    with pytest.MonkeyPatch.context() as mp:
        calls = widened_rows(mp, idx)
        try:
            got = graph._positive_floor(idx, radii)
        except DegenerateDataError:
            assert (points == points[0]).all()
            return
    assert np.array_equal(got, loop_positive_floor(points, radii))
    # a table row holding a positive distance answers its zero radius;
    # only the other zero rows are widened, unless the table is whole
    _, dists = idx.last_table
    zero = np.flatnonzero(radii == 0)
    if dists.shape[1] == ps.n - 1:
        zero = zero[:0]
    assert first_widening(calls) == zero[~(dists > 0).any(axis=1)[zero]].tolist()


@pytest.mark.parametrize("dense", [True, False])
def test_positive_floor_of_fourfold_copies_gathers_no_row(dense):
    """Every point 4 times over: every nearest distance is zero, so are all
    un-approx radii, and every table row starts with three zeros. Each row
    is ordered by (distance, id), so its first positive distance answers
    the floor and no row is widened."""
    points = np.repeat(np.random.default_rng(5).random((50, 3)), 4, axis=0)
    idx = build_index(PointSet(points))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "_dense_table", lambda d: dense)
        idx.knn_table(6)
    assert (idx.last_table[1][:, :3] == 0).all()
    zero = np.zeros(points.shape[0])
    with pytest.MonkeyPatch.context() as mp:
        calls = widened_rows(mp, idx)
        got = graph._positive_floor(idx, zero)
    assert calls == []
    assert np.array_equal(got, loop_positive_floor(points, zero))
    assert np.array_equal(got, estimate_radii(idx, un_approx(k=6)))


@st.composite
def partitions(draw):
    """(cluster_of, values, ranked, rho): ids 0..C-1 in label order, not in
    size order, so singletons sit anywhere; values, densities and the
    input to the tie pass drawn from small pools, so ties are heavy, many
    clusters have zero MADN, and the tie pass also meets +inf and -inf."""
    n = draw(st.integers(1, 40))
    labels = draw(st.lists(st.integers(0, 7), min_size=n, max_size=n))
    cluster_of = np.unique(labels, return_inverse=True)[1].astype(np.int64)
    value = st.integers(-12, 12).map(lambda v: v / 4) | st.floats(0.5, 2.0)
    pool = draw(st.lists(value, min_size=1, max_size=5))

    def column(choices):
        return np.array(draw(st.lists(st.sampled_from(choices), min_size=n, max_size=n)))

    rho_pool = draw(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=3))
    return (cluster_of, column(pool), column(pool + [np.inf, -np.inf]),
            column(rho_pool))


@SETTINGS
@given(partitions(), st.sampled_from([0.0, 0.05, 0.1, 0.25, 0.5]))
def test_cluster_reductions_equal_reference_loops(case, s_min):
    cluster_of, values, ranked, rho = case
    std = standardize_ios(cluster_of, values)
    assert np.array_equal(std, loop_standardize_ios(cluster_of, values))
    assert np.array_equal(
        standardize_naive(cluster_of, values), loop_standardize_naive(cluster_of, values)
    )
    for scores in (std, ranked):
        assert np.array_equal(
            break_ties(cluster_of, scores, rho), loop_break_ties(cluster_of, scores, rho)
        )
    flags = flag_outliers(std, 1.0) | small_cluster_flags(cluster_of, s_min)
    assert np.array_equal(flags, (std > 1.0) | loop_small_cluster_flags(cluster_of, s_min))
