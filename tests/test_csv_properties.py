"""Property tests of CSV ingestion: load_csv reloads what write_csv wrote
bit for bit, and a corrupted file fails with a package error naming the
first bad cell in row-major order. Derandomized, so every run checks the
same examples."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccdscore.dataset import PointSet, load_csv, write_csv
from ccdscore.errors import LabelError, ParseError

SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=60)

# finite floats with the edge cases drawn on purpose: signed zeros,
# subnormals and magnitudes near 1e+-300
EDGE = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e300,
        1.7976931348623157e308, -1.7976931348623157e308]
FLOATS = st.sampled_from(EDGE) | st.floats(allow_nan=False, allow_infinity=False)

# cells float() rejects; none parses to a number
BAD_CELLS = ["abc", "", "1.2.3", "1e", "--1", "0x10", "1,5", "n an", "1 2"]


@st.composite
def point_sets(draw):
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 4))
    points = np.array(
        draw(st.lists(st.lists(FLOATS, min_size=d, max_size=d), min_size=n, max_size=n)),
        dtype=np.float64,
    ).reshape(n, d)
    labels = None
    if draw(st.booleans()):
        labels = np.array(draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n)))
    return PointSet(points, labels)


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "points.csv"


@SETTINGS
@given(ps=point_sets())
def test_write_then_load_reproduces_every_bit(csv_path, ps):
    write_csv(ps, csv_path)
    back = load_csv(csv_path, label_column="label" if ps.labels is not None else None)
    assert np.array_equal(bits(back.points), bits(ps.points))
    if ps.labels is None:
        assert back.labels is None
    else:
        assert np.array_equal(back.labels, ps.labels)


@SETTINGS
@given(ps=point_sets(), data=st.data())
def test_corrupt_cells_raise_at_the_first_in_row_major_order(csv_path, ps, data):
    write_csv(ps, csv_path)
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    ncol = len(rows[0])
    cells = data.draw(st.lists(
        st.tuples(st.integers(0, ps.n - 1), st.integers(0, ncol - 1)),
        min_size=1, max_size=4, unique=True,
    ))
    for r, c in cells:
        rows[r + 1][c] = data.draw(st.sampled_from(BAD_CELLS))
    with open(csv_path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)

    r, c = min(cells)
    labeled = ps.labels is not None
    if labeled and c == ncol - 1:
        with pytest.raises(LabelError, match=f"at row {r + 2};"):
            load_csv(csv_path, label_column="label")
        return
    with pytest.raises(ParseError) as err:
        load_csv(csv_path, label_column="label" if labeled else None)
    assert (err.value.row, err.value.col) == (r + 2, c + 1)
    assert f"cannot parse {rows[r + 1][c]!r}" in str(err.value)
