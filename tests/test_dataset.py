import numpy as np
import pytest

from ccdscore.dataset import (
    PointSet,
    build_index,
    column_robust_stats,
    load_csv,
    madn,
    robust_normalize,
    write_csv,
)
from ccdscore.errors import (
    BadKError,
    CcdScoreWarning,
    DataIOError,
    DegenerateDataError,
    LabelError,
    ParseError,
)

from _oracles import brute_knn, brute_madn, brute_range


def test_pointset_rejects_nonfinite():
    with pytest.raises(ValueError):
        PointSet(np.array([[0.0, np.nan]]), None)
    with pytest.raises(ValueError):
        PointSet(np.array([[0.0, np.inf]]), None)


def test_pointset_label_length_checked():
    with pytest.raises(ValueError):
        PointSet(np.zeros((3, 2)), np.array([0, 1]))


def test_pointset_arrays_read_only():
    ps = PointSet(np.zeros((2, 2)), np.array([0, 1]))
    with pytest.raises(ValueError):
        ps.points[0, 0] = 1.0
    with pytest.raises(ValueError):
        ps.labels[0] = 1


def test_load_csv_plain(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("1,2\n3,4\n5,6\n")
    ps = load_csv(p, has_header=False)
    assert ps.n == 3 and ps.d == 2
    assert ps.labels is None
    np.testing.assert_array_equal(ps.points, [[1, 2], [3, 4], [5, 6]])


def test_load_csv_label_by_name(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("x,y\n0.5,1\n1.5,0\n")
    ps = load_csv(p, label_column="y")
    assert ps.d == 1
    np.testing.assert_array_equal(ps.labels, [1, 0])


def test_load_csv_parse_error_names_position(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("1,2\n3,abc\n")
    with pytest.raises(ParseError) as err:
        load_csv(p, has_header=False)
    assert "2" in str(err.value)  # 1-based row and column in the message


def test_load_csv_ragged_row(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("1,2\n3\n")
    with pytest.raises(ParseError):
        load_csv(p, has_header=False)


@pytest.mark.parametrize("text", [
    "a,b\n1,2,3\n4,5,6\n",         # narrower header
    "a,b,c,label\n1,2\n3,4\n",     # wider, with a label column
    "a,b,c\n1,2\n3,4\n",           # wider, without one
])
def test_load_csv_header_width_must_match_rows(tmp_path, text):
    p = tmp_path / "a.csv"
    p.write_text(text)
    header, row = text.splitlines()[:2]
    with pytest.raises(ParseError) as err:
        load_csv(p, label_column="label" if "label" in header else None)
    msg = str(err.value)
    assert f"{header.count(',') + 1} cells" in msg and f"rows {row.count(',') + 1}" in msg


@pytest.mark.parametrize("text, has_header, label_column", [
    ("label\n0\n1\n0\n", True, "label"),
    ("0\n1\n0\n", False, 0),
])
def test_load_csv_label_as_the_only_column(tmp_path, text, has_header, label_column):
    p = tmp_path / "a.csv"
    p.write_text(text)
    with pytest.raises(ParseError) as err:
        load_csv(p, has_header=has_header, label_column=label_column)
    assert str(p) in str(err.value) and "no coordinate column" in str(err.value)


def test_load_csv_bad_label_value(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("x,label\n1,2\n")
    with pytest.raises(LabelError):
        load_csv(p, label_column="label")


def test_load_csv_missing_file():
    with pytest.raises(DataIOError):
        load_csv("/no/such/file.csv")


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    ps = PointSet(rng.standard_normal((25, 4)), (rng.random(25) < 0.2).astype(np.int64))
    p = tmp_path / "rt.csv"
    write_csv(ps, p)
    back = load_csv(p, label_column="label")
    np.testing.assert_array_equal(back.points, ps.points)
    np.testing.assert_array_equal(back.labels, ps.labels)


def test_madn_worked_column():
    col = np.array([1.0, 2, 3, 4, 100])
    assert madn(col) == pytest.approx(1 / 0.6745, abs=1e-9)
    ps = PointSet(col[:, None], None)
    normed = robust_normalize(ps)
    # median 3, so the value 4 lands one MAD above, i.e. at the constant
    row = np.flatnonzero(col == 4)[0]
    assert normed.points[row, 0] == pytest.approx(0.6745, abs=1e-9)


def test_madn_matches_brute():
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.standard_normal(rng.integers(2, 40))
        assert madn(x) == pytest.approx(brute_madn(x), rel=1e-12)


def test_madn_gaussian_consistency():
    rng = np.random.default_rng(4)
    draws = rng.normal(0.0, 2.0, size=100_000)
    assert 1.9 <= madn(draws) <= 2.1


def test_normalize_constant_column_warns():
    pts = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    ps = PointSet(pts, None)
    with pytest.warns(CcdScoreWarning):
        normed = robust_normalize(ps)
    np.testing.assert_allclose(normed.points[:, 1], 0.0)
    _, _, fallback = column_robust_stats(pts)
    assert fallback.tolist() == [False, True]


def test_normalize_all_identical_rows_degenerate():
    ps = PointSet(np.ones((4, 3)), None)
    with pytest.raises(DegenerateDataError):
        robust_normalize(ps)


def test_normalize_overflow_raises_degenerate_data_error():
    # 1e300 over a MADN near 1e-300 lies past the largest float
    x = np.append(np.arange(1, 40) * 1e-300, 1e300)
    ps = PointSet(np.column_stack([x, np.arange(40.0)]), None)
    with pytest.raises(DegenerateDataError, match=r"column\(s\) \[0\] overflow float64"):
        robust_normalize(ps)


def test_normalize_idempotent():
    rng = np.random.default_rng(8)
    ps = PointSet(rng.standard_normal((60, 3)) * 5 + 2, None)
    once = robust_normalize(ps)
    twice = robust_normalize(once)
    np.testing.assert_allclose(twice.points, once.points, atol=1e-9)


def test_normalize_permutation_equivariant():
    rng = np.random.default_rng(9)
    pts = rng.standard_normal((40, 2))
    perm = rng.permutation(40)
    a = robust_normalize(PointSet(pts[perm], None)).points
    b = robust_normalize(PointSet(pts, None)).points[perm]
    np.testing.assert_allclose(a, b, rtol=1e-12)


def test_knn_line_and_tie_rule():
    # collinear points at 0, 1, 3
    line = PointSet(np.array([[0.0], [1.0], [3.0]]), None)
    ids, dists = build_index(line).knn(0, 1)
    assert ids.tolist() == [1] and dists.tolist() == [1.0]

    # ids 4 and 7 exactly equidistant from the query point; 4 must win
    pts = np.zeros((8, 2))
    pts[0] = (0.5, 0.5)
    pts[4] = (0.5, 1.0)
    pts[7] = (0.5, 0.0)
    others = [1, 2, 3, 5, 6]
    for rank, j in enumerate(others):
        pts[j] = (5.0 + rank, 5.0)
    ids, _ = build_index(PointSet(pts, None)).knn(0, 1)
    assert ids.tolist() == [4]


def test_knn_matches_brute():
    rng = np.random.default_rng(6)
    pts = rng.random((60, 3))
    idx = build_index(PointSet(pts, None))
    for i in range(0, 60, 7):
        ids, dists = idx.knn(i, 5)
        oid, od = brute_knn(pts, i, 5)
        np.testing.assert_array_equal(ids, oid)
        np.testing.assert_allclose(dists, od, rtol=1e-12)
        assert (np.diff(dists) >= 0).all()
        assert len(ids) == 5


def test_knn_lone_point_and_bad_k():
    lone = build_index(PointSet(np.array([[0.1, 0.2]]), None))
    ids, dists = lone.knn(0, 1)
    assert ids.size == 0 and dists.size == 0
    with pytest.raises(BadKError):
        lone.knn(0, 0)


def test_range_query_edges():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    idx = build_index(PointSet(pts, None))
    assert idx.range_query(0, 0.0).tolist() == [0]
    assert idx.range_query(0, 1.0).tolist() == [0, 1, 2]


def test_range_query_takes_a_point_id_and_a_non_negative_radius():
    idx = build_index(PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])))
    for center in (np.array([5.0, 5.0]), [0.0, 0.0], np.array([1]), 0.5, 1.0):
        with pytest.raises(TypeError):
            idx.range_query(center, 1.0)
    for center in (3, -1):
        with pytest.raises(IndexError):
            idx.range_query(center, 1.0)
    for r in (np.nan, -1.0, -np.inf):
        with pytest.raises(ValueError, match="non-negative"):
            idx.range_query(0, r)
    assert idx.range_query(np.int32(1), np.inf).tolist() == [0, 1, 2]


def test_range_matches_brute():
    rng = np.random.default_rng(7)
    pts = rng.random((80, 2))
    idx = build_index(PointSet(pts, None))
    for _ in range(30):
        i = int(rng.integers(80))
        r = float(rng.random() * 0.6)
        assert idx.range_query(i, r).tolist() == brute_range(pts, pts[i], r)
