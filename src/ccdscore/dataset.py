"""Point sets, CSV ingestion, robust normalization, and neighbor queries.

All geometry in the package runs through this module so that every caller
sees the same distance arithmetic and the same deterministic tie rules.
"""

from __future__ import annotations

import csv
import operator
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

from .errors import (
    BadKError,
    CcdScoreWarning,
    DataIOError,
    DegenerateDataError,
    LabelError,
    ParseError,
)

# Normal-consistency constant: Med(|X - Med|) of a standard normal, so that
# MADN estimates the standard deviation for Gaussian data.
MADN_CONSTANT = 0.6745

# label cells and the label each one stands for
_LABEL_VOCAB = {"0": 0, "1": 1}


@dataclass(frozen=True)
class PointSet:
    """An immutable batch of points with optional ground-truth labels.

    points is an (n, d) float64 array; labels, when present, is an (n,)
    int array with 0 = inlier and 1 = outlier.
    """

    points: np.ndarray
    labels: np.ndarray | None = None
    feature_names: list[str] | None = None

    def __post_init__(self):
        pts = np.ascontiguousarray(self.points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError(f"points must be 2-d, got shape {pts.shape}")
        if pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError(f"need at least one row and one column, got {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if self.labels is not None:
            lab = np.ascontiguousarray(self.labels, dtype=np.int64)
            if lab.shape != (pts.shape[0],):
                raise ValueError(
                    f"labels shape {lab.shape} does not match {pts.shape[0]} points"
                )
            bad = set(np.unique(lab)) - {0, 1}
            if bad:
                raise ValueError(f"labels must be 0 or 1, got {sorted(bad)}")
            lab.setflags(write=False)
            object.__setattr__(self, "labels", lab)
        if self.feature_names is not None and len(self.feature_names) != pts.shape[1]:
            raise ValueError("feature_names length does not match dimension")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


def load_csv(
    path,
    has_header: bool = True,
    label_column: str | int | None = None,
) -> PointSet:
    """Read a comma-separated, dot-decimal, UTF-8 file into a PointSet.

    label_column may be a header name (requires has_header) or a 0-based
    column index. A label cell "0" marks an inlier and "1" an outlier;
    anything else raises LabelError.
    """
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataIOError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            rows = [row for row in reader if row]
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text: {exc}") from None
        except csv.Error as exc:
            raise ParseError(f"{path} line {reader.line_num}: {exc}") from None
    if not rows:
        raise ParseError(f"{path} is empty")

    header: list[str] | None = None
    if has_header:
        header = [c.strip() for c in rows[0]]
        rows = rows[1:]
        if not rows:
            raise ParseError(f"{path} has a header but no data rows")

    ncol = len(rows[0])
    if header is not None and len(header) != ncol:
        raise ParseError(f"{path}: the header has {len(header)} cells, the rows {ncol}")
    label_idx: int | None = None
    if label_column is not None:
        if isinstance(label_column, str):
            if header is None:
                raise LabelError("label column by name requires a header row")
            if label_column not in header:
                raise LabelError(f"label column {label_column!r} not in header {header}")
            label_idx = header.index(label_column)
        else:
            label_idx = int(label_column)
            if not 0 <= label_idx < ncol:
                raise LabelError(f"label column index {label_idx} out of range")

    feature_cols = [c for c in range(ncol) if c != label_idx]
    if not feature_cols:
        raise ParseError(f"{path} has no coordinate column besides the label")
    try:
        data, labels = _convert_columns(rows, ncol, feature_cols, label_idx)
    except (ValueError, KeyError):
        # the row-major loop names the first bad row or cell
        header_offset = 2 if has_header else 1
        data, labels = _convert_rows(
            rows, ncol, feature_cols, label_idx, header_offset
        )
    if not np.isfinite(data).all():
        raise ParseError(f"{path} holds non-finite values")

    names = None
    if header is not None:
        names = [header[c] for c in feature_cols]
    return PointSet(points=data, labels=labels, feature_names=names)


def _convert_columns(rows, ncol, feature_cols, label_idx):
    """(data, labels) converted a whole column at a time. Raises ValueError
    on a row of the wrong length or a cell float rejects, KeyError on a
    label outside _LABEL_VOCAB."""
    if any(len(row) != ncol for row in rows):
        raise ValueError("ragged rows")
    columns = list(zip(*rows))
    data = np.empty((len(rows), len(feature_cols)), dtype=np.float64)
    for out_c, c in enumerate(feature_cols):
        data[:, out_c] = list(map(float, columns[c]))
    labels = None
    if label_idx is not None:
        cells = columns[label_idx]
        labels = np.array([_LABEL_VOCAB[cell.strip()] for cell in cells], dtype=np.int64)
    return data, labels


def _convert_rows(rows, ncol, feature_cols, label_idx, header_offset):
    """(data, labels) converted cell by cell in row-major order, raising
    ParseError or LabelError at the first row or cell that fails."""
    data = np.empty((len(rows), len(feature_cols)), dtype=np.float64)
    labels = np.empty(len(rows), dtype=np.int64) if label_idx is not None else None
    for r, row in enumerate(rows):
        if len(row) != ncol:
            raise ParseError(
                f"expected {ncol} cells, got {len(row)}", row=r + header_offset, col=1
            )
        for out_c, c in enumerate(feature_cols):
            try:
                data[r, out_c] = float(row[c])
            except ValueError:
                raise ParseError(
                    f"cannot parse {row[c]!r} as a number",
                    row=r + header_offset,
                    col=c + 1,
                ) from None
        if labels is not None:
            cell = row[label_idx].strip()
            if cell not in _LABEL_VOCAB:
                raise LabelError(
                    f"unknown label {cell!r} at row {r + header_offset}; "
                    f"expected one of {sorted(_LABEL_VOCAB)}"
                )
            labels[r] = _LABEL_VOCAB[cell]
    return data, labels


def write_csv(ps: PointSet, path) -> None:
    """Write a PointSet in the same dialect load_csv reads.

    csv writes each float as its repr, so a reload reproduces the array bit
    for bit.
    """
    names = ps.feature_names or [f"x{j}" for j in range(ps.d)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        head = list(names)
        if ps.labels is not None:
            head.append("label")
        writer.writerow(head)
        columns = ps.points.T.tolist()
        if ps.labels is not None:
            columns.append(ps.labels.tolist())
        writer.writerows(zip(*columns))


def madn(x: np.ndarray) -> float:
    """Median absolute deviation rescaled to be consistent for normal data."""
    x = np.asarray(x, dtype=np.float64)
    med = float(np.median(x))
    return float(np.median(np.abs(x - med))) / MADN_CONSTANT


def column_robust_stats(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-column median, MADN, and a mask of columns whose MADN is zero."""
    med = np.median(points, axis=0)
    mad = np.median(np.abs(points - med), axis=0)
    madn_col = mad / MADN_CONSTANT
    return med, madn_col, madn_col == 0.0


def robust_normalize(ps: PointSet, *, stats: tuple | None = None) -> PointSet:
    """Center each column at its median and scale by its MADN.

    Columns with zero MADN are centered only, with a warning; if every
    column is degenerate and all rows are identical the data carries no
    information and DegenerateDataError is raised, as it is when a column's
    spread over its MADN overflows float64. stats, when given, is
    column_robust_stats(ps.points), taken once by a caller that also
    reports it.
    """
    if ps.n < 2:
        raise DegenerateDataError("normalization needs at least 2 points")
    med, madn_col, degenerate = stats or column_robust_stats(ps.points)
    if degenerate.all() and (ps.points == ps.points[0]).all():
        raise DegenerateDataError("all points are identical")
    if degenerate.any():
        cols = np.flatnonzero(degenerate).tolist()
        warnings.warn(
            f"zero MADN in column(s) {cols}; centering those without scaling",
            CcdScoreWarning,
            stacklevel=2,
        )
    scale = np.where(degenerate, 1.0, madn_col)
    with np.errstate(over="ignore"):
        out = (ps.points - med) / scale
    overflow = ~np.isfinite(out).all(axis=0)
    if overflow.any():
        cols = np.flatnonzero(overflow).tolist()
        raise DegenerateDataError(
            f"column(s) {cols} overflow float64 once divided by their MADN; "
            "rescale them"
        )
    return PointSet(points=out, labels=ps.labels, feature_names=ps.feature_names)


# The generous constant of the dense screen's rounding band; see
# NeighborIndex._screen_candidates.
_SCREEN_C = 8.0

# Batched work is cut into pieces of about this many float64 elements, so a
# gather of rows x neighbors x dimensions never holds more than a few MB.
GATHER_CHUNK = 1 << 18


def row_chunks(n_rows: int, width: int):
    """Slices over n_rows rows, each holding about GATHER_CHUNK / width rows."""
    step = max(1, GATHER_CHUNK // max(1, width))
    for start in range(0, n_rows, step):
        yield slice(start, min(start + step, n_rows))


def row_blocks(ptr: np.ndarray):
    """Slices over the rows of the CSR row pointers ptr, each row block
    holding about GATHER_CHUNK / 4 entries; a longer row is a block alone.
    A walk over the entries keeps a few int64 or float64 arrays of the
    block's size, so each holds about 1 to 4 MiB at once."""
    n = ptr.size - 1
    step = max(1, GATHER_CHUNK >> 2)
    cuts = np.searchsorted(ptr, np.arange(step, int(ptr[-1]), step))
    bounds = np.unique(np.concatenate(([0], cuts, [n]))).tolist()
    for a, b in zip(bounds[:-1], bounds[1:]):
        yield slice(a, b)


def _dense_table(d: int) -> bool:
    """Whether knn_table takes its candidates from the dense screen rather
    than the k-d tree. From d = 8 up the tree prunes too little to beat one
    block product per row block, at every n measured (400 to 16000); at
    d = 5 and below the tree wins at every n (README.md, "How neighbor
    work runs")."""
    return d >= 8


def _row_distances(points: np.ndarray, centers: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Distances from points[centers[r]] to points[cand[r, c]], shape of cand.

    The one distance formula every decision goes through: the einsum sum
    of squared differences, then its square root. Rows are gathered with
    np.take along axis 0, which copies whole rows where points[cand]
    takes numpy's general path; points must be C-contiguous, as a
    PointSet's are. Each value of the reshaped block equals the formula
    on one pair to the last bit.
    """
    d = points.shape[1]
    diff = np.take(points, cand, axis=0)
    diff -= np.take(points, centers, axis=0)[:, None, :]
    diff = diff.reshape(-1, d)
    return np.sqrt(np.einsum("ij,ij->i", diff, diff)).reshape(cand.shape)


@dataclass
class NeighborIndex:
    """Neighbor queries over a PointSet with deterministic tie handling.

    Every answer is a row of the batched table or of the ball query. A
    k-d tree, built on first use and only below d = 8 (_dense_table),
    only gathers candidates; every distance comes from _row_distances.
    last_table holds (ids, dists) of the one table knn_table keeps, so
    radii, the digraph and the baselines share one query. Its row i is
    ordered by (distance, id), so no point outside it lies closer than
    dists[i, -1], and a smaller ball around i is a prefix of the row.
    """

    ps: PointSet
    last_table: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        ptp = np.ptp(self.ps.points, axis=0)
        with np.errstate(over="ignore"):
            spread = float(np.sum(ptp**2))
        if not np.isfinite(spread):
            raise DegenerateDataError(
                "coordinate spread overflows float64 when squared; "
                "rescale the points before building a neighbor index"
            )
        if spread < np.finfo(np.float64).tiny and ptp.any():
            raise DegenerateDataError(
                "coordinate spread underflows float64 when squared, so "
                "distances lose their precision or read zero; rescale the "
                "points before building a neighbor index"
            )

    @property
    def n(self) -> int:
        return self.ps.n

    @cached_property
    def _tree(self) -> cKDTree:
        return cKDTree(self.ps.points)

    def _point_id(self, i) -> int:
        i = operator.index(i)  # TypeError for a coordinate vector or a float
        if not 0 <= i < self.n:
            raise IndexError(f"point id {i} out of range")
        return i

    def knn(self, i: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Ids and distances of the k nearest neighbors of point i, itself
        excluded, by (distance, id); all of them when k exceeds n - 1.
        It is _table on row i alone, so it equals knn_table(k)[i] to the
        last bit; the package never calls it."""
        i = self._point_id(i)
        if k < 1:
            raise BadKError(f"k={k} must be at least 1")
        k = min(k, self.n - 1)
        if k == 0:
            return np.array([], dtype=np.int64), np.array([], dtype=np.float64)
        ids, dists = self._table(np.array([i]), min(k + 1, self.n - 1))
        return ids[0, :k], dists[0, :k]

    def knn_table(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Ids and distances of every point's k nearest neighbors, (n, k) each.

        The index keeps one _table of width K = min(k + 1, n - 1) and serves
        any k < K, or any k once K = n - 1, as read-only views of its first
        k columns; a wider k builds a new table and replaces it.
        """
        n = self.n
        if not 1 <= k <= n - 1:
            raise BadKError(f"k={k} must be in [1, {n - 1}]")
        width = 0 if self.last_table is None else self.last_table[0].shape[1]
        if k < width or width == n - 1:
            ids, dists = self.last_table
            return ids[:, :k], dists[:, :k]
        ids, dists = self._table(np.arange(n), min(k + 1, n - 1))
        ids.setflags(write=False)
        dists.setflags(write=False)
        self.last_table = (ids, dists)
        return ids[:, :k], dists[:, :k]

    def _table(self, rows: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
        """(ids, dists), (rows.size, width) each: the width nearest points
        of each point of rows by (distance, id), each row on its own.

        The tree or the dense screen (_dense_table) fetches w + 1 candidates
        per open row, in pieces of about GATHER_CHUNK. A row closes when it
        holds the point itself and a gap, at or past candidate width, too
        wide for a point outside to tie with one inside; it is then sorted
        by distance, and by id among equal distances. Rows left open by
        ties or copies are asked again at a wider w, up to w = n - 1.
        """
        n, points, d = self.n, self.ps.points, self.ps.d
        source = self._dense_table_candidates if _dense_table(d) else self._tree_table_candidates
        ids = np.empty((rows.size, width), dtype=np.int64)
        dists = np.empty((rows.size, width), dtype=np.float64)
        open_at, w = np.arange(rows.size), width
        while open_at.size:
            left = []
            for piece in row_chunks(open_at.size, w + 2):
                at = open_at[piece]
                r = rows[at]
                cand, closed = source(r, w, width)
                closed &= (cand == r[:, None]).any(axis=1)
                left.append(at[~closed])
                # a mask copies only these rows
                at, r, cand = at[closed], r[closed], cand[closed]
                for sl in row_chunks(r.size, (w + 1) * d):
                    src, c = r[sl], cand[sl]
                    dd = _row_distances(points, src, c)
                    dd[c == src[:, None]] = -1.0  # the point itself sorts first
                    # candidates arrive nearly sorted, and a row without two equal
                    # distances has one order; only tied rows need the id key
                    order = np.argsort(dd, axis=1, kind="stable")
                    # flat positions, so that np.take gathers the sorted rows
                    base = np.arange(0, order.size, w + 1)
                    order += base[:, None]
                    sd = dd.take(order)
                    tied = np.flatnonzero((sd[:, 1:] == sd[:, :-1]).any(axis=1))
                    order[tied] = np.lexsort((c[tied], dd[tied]), axis=1) + base[tied, None]
                    order = order[:, 1 : width + 1]
                    ids[at[sl]] = c.take(order)
                    dists[at[sl]] = dd.take(order)
            open_at = np.concatenate(left)
            w = min(w + max(8, w - width), n - 1)
        return ids, dists

    def _tree_table_candidates(self, rows: np.ndarray, w: int, k: int):
        """(cand, closed): the w+1 nearest points of each of rows by one
        batched tree query, and whether some tree distance past the (k+1)-th
        exceeds the one before it by more than the tree's rounding."""
        qd, qi = self._tree.query(self.ps.points[rows], k=min(w + 2, self.n))
        if qd.shape[1] == w + 1:
            return qi, np.ones(rows.size, dtype=bool)  # every point is a candidate
        closed = (qd[:, k + 1 :] > qd[:, k:-1] * (1.0 + 1e-9) + 1e-300).any(axis=1)
        return qi[:, : w + 1], closed

    def _dense_table_candidates(self, rows: np.ndarray, w: int, k: int):
        """(cand, closed): the w+1 smallest g = |x|^2 + |y|^2 - 2 x.y of each
        point x of rows by the block products of _gram_blocks and argpartition,
        and whether some g past the (k+1)-th smallest exceeds the one before
        it by more than twice the screen's band.

        With the bound of _screen_candidates, g is within
        (2d + 9)u(|x|^2 + |y|^2 + D2) of the formula's squared distance D2,
        and |y|^2 <= 2|x|^2 + 2 D2, so within 3(2d + 9)u(|x|^2 + D2). Let
        g1 <= g2 be the j-th and (j+1)-th smallest g, j > k. A row with
        g2 - g1 > 2 band, band = C (d + 2) eps (|x|^2 + |g2|) plus the floor,
        puts every point outside its first j candidates farther than each of
        them by a margin of several u D2, which the square root of the
        distance formula cannot close: the k+1 nearest points by the formula
        are among them, with no tie to break against a point outside. A row
        whose g values overflowed (-inf among them, or +inf at g2) never closes.
        """
        _, sq, slack, floor = self._shifted
        m = min(w + 2, self.n)
        cand = np.empty((rows.size, w + 1), dtype=np.int64)
        closed = np.ones(rows.size, dtype=bool)  # with m = w+1 every point is a candidate
        for sl, g in self._gram_blocks(rows):
            r = rows[sl]
            with np.errstate(over="ignore", invalid="ignore"):
                g += sq
                part = np.argpartition(g, m - 1, axis=1)[:, :m]
                gp = np.take_along_axis(g, part, axis=1)
                order = np.argsort(gp, axis=1)
                part = np.take_along_axis(part, order, axis=1)
                gp = np.take_along_axis(gp, order, axis=1) + sq[r, None]
                cand[sl] = part[:, : w + 1]
                if m > w + 1:
                    band = slack * (sq[r, None] + np.abs(gp[:, k + 1 :])) + floor
                    gaps = gp[:, k + 1 :] - gp[:, k:-1] > 2.0 * band
                    closed[sl] = gaps.any(axis=1) & (gp[:, 0] > -np.inf)
        return cand, closed

    def range_query(self, i: int, r: float) -> np.ndarray:
        """Sorted ids of the points in the closed ball B(x_i, r): i and the
        targets of balls over row i alone. The package never calls it."""
        i = self._point_id(i)
        if not r >= 0:
            raise ValueError(f"radius must be a non-negative number, got {r!r}")
        blocks = self.balls(np.array([i]), np.array([r], dtype=np.float64))
        return np.sort(np.concatenate([[i], *(t for _, _, t in blocks)]).astype(np.int64))

    def balls(self, rows: np.ndarray, radii: np.ndarray):
        """Coverage edges of the closed balls B(x_i, radii[a]) for i = rows[a].

        Yields (sources, counts, targets) blocks: sources are some of rows,
        counts[q] the number of targets of sources[q], and targets their
        int32 ids laid end to end, ascending within each source: every j
        other than the center whose distance by the package's formula is at
        most radii[a]. Where radii[a] is below the last distance
        of the kept table's row i, or that table holds all n - 1 neighbors,
        the ball is a prefix of that row. The other balls,
        which may hold a point outside the row tied with its last distance,
        take their candidates per block of rows from a dense screen. A
        candidate the screen proves a member is taken as it is; only the
        others, in the screen's rounding band, are rechecked with the
        package's distance formula.
        """
        points = self.ps.points
        screen = np.ones(rows.size, dtype=bool)
        if self.last_table is not None:
            ids, dists = self.last_table
            screen = (radii >= dists[rows, -1]) & (ids.shape[1] < self.n - 1)
            prefix = np.flatnonzero(~screen)
            for sl in row_chunks(prefix.size, ids.shape[1]):
                a = prefix[sl]
                inside = np.take(dists, rows[a], axis=0) <= radii[a, None]
                # sorted by id, with the sentinel n pushing the rest of the
                # row behind it, the members keep the places inside marks
                sub = np.where(inside, np.take(ids, rows[a], axis=0), self.n)
                sub.sort(axis=1)
                yield rows[a], inside.sum(axis=1), sub[inside].astype(np.int32)
        rows, radii = rows[screen], radii[screen]
        for sl, owner, cand, inside in self._screen_candidates(rows, radii):
            src = rows[sl]
            check = np.flatnonzero(~inside)
            for part in row_chunks(check.size, self.ps.d):
                c = check[part]
                o = owner[c]
                dd = _row_distances(points, src[o], cand[c, None])[:, 0]
                inside[c] = dd <= radii[sl][o]
            counts = np.bincount(owner[inside], minlength=src.size)
            yield src, counts, cand[inside].astype(np.int32)

    def nearest(self, rows: np.ndarray, among: np.ndarray, positive: bool = False):
        """(ids, dists): for each i = rows[a], the nearest point j != i with
        among[j], only at a positive distance when positive is set, ties
        going to the smallest id; -1 and inf where there is no such point.

        Every answer is the first hit of a table row: each row is ordered
        by (distance, id), so no point outside it comes before its first
        hit. The kept table's row answers where it holds a hit. The other
        rows are asked again as _table rows of twice the width (the first
        of min(8, n - 1) without a kept table), up to n - 1.
        """
        ids = np.full(rows.size, -1, dtype=np.int64)
        dists = np.full(rows.size, np.inf)
        if not among.any():
            return ids, dists

        def first_hits(at, row_ids, row_dists):
            # answer the rows at whose table rows hold a hit; return the others
            hit = among[row_ids]
            if positive:
                hit &= row_dists > 0
            ok = hit.any(axis=1)
            first = np.argmax(hit[ok], axis=1)
            ids[at[ok]] = row_ids[ok, first]
            dists[at[ok]] = row_dists[ok, first]
            return at[~ok]

        open_at, w = np.arange(rows.size), 0
        if self.last_table is not None:
            t_ids, t_dists = self.last_table
            open_at, w = first_hits(open_at, t_ids[rows], t_dists[rows]), t_ids.shape[1]
        while open_at.size and w < self.n - 1:
            w = min(2 * w, self.n - 1) if w else min(8, self.n - 1)
            pieces = [open_at[piece] for piece in row_chunks(open_at.size, w)]
            open_at = np.concatenate([first_hits(at, *self._table(rows[at], w)) for at in pieces])
        return ids, dists

    @cached_property
    def _shifted(self) -> tuple[np.ndarray, np.ndarray, float, float]:
        """(x, sq, slack, floor): the points shifted by their column minima,
        their squared norms clipped to the largest float, and the relative
        slack C (d + 2) eps and absolute floor C (d + 2) tiny of the dense
        screen's rounding band (see _screen_candidates)."""
        d = self.ps.d
        fi = np.finfo(np.float64)
        x = self.ps.points - self.ps.points.min(axis=0)
        with np.errstate(over="ignore"):
            sq = np.minimum(np.einsum("ij,ij->i", x, x), fi.max)
        return x, sq, _SCREEN_C * (d + 2) * fi.eps, _SCREEN_C * (d + 2) * fi.tiny

    def _gram_blocks(self, rows: np.ndarray):
        """(slice into rows, g) per block of about GATHER_CHUNK entries: g =
        -2 x.y by one matrix product, x each shifted point of the block's
        rows and y every shifted point; the dense table and the dense
        screen add the squared norms of _shifted.

        Shifted squared norms are at most about the squared spread that
        __post_init__ found finite, clipped to the largest float. Past
        about half of it -2 x.y overflows to -inf, and the screen's
        (1 + slack) r^2 or (1 + slack) |y|^2 to +inf. Both, like the
        clipping, only lower g or raise the screen's candidate limit, so
        they add candidates, which the recheck rejects. A pair is sure only
        when -2 x.y, r^2 and both scaled norms are finite, since an
        overflowed term proves nothing; NaN from inf - inf only ever fails a
        test, and the warnings are silenced. Each center is cleared in the
        hit mask, not by a value written into g: an overflowed r^2 makes the
        limit +inf, which passes any value. A table row whose g overflowed
        never closes.
        """
        x = self._shifted[0]
        for sl in row_chunks(rows.size, self.n):
            with np.errstate(over="ignore", invalid="ignore"):
                g = np.take(x, rows[sl], axis=0) @ x.T
                g *= -2.0
            yield sl, g

    def _screen_candidates(self, rows: np.ndarray, radii: np.ndarray):
        """(slice into rows, owner, candidate, sure) per block of _gram_blocks,
        which covers overflow: j != rows[a] is a candidate of row a when
        g = |x|^2 + |y|^2 - 2 x.y <= r^2 + band, and sure[c] marks the
        candidates with g <= r^2 - band, which are members for certain.
        Here x = points[rows[a]], y = points[j] and r = radii[a], all after
        shifting the points by their column minima. owner holds positions
        in the block, and the pairs ascend by owner, then by candidate.

        The band bounds the rounding, so every pair the distance formula
        accepts is a candidate, and every pair it rejects is not sure.
        With u = 2**-53 and D2 the exact squared distance: the shift moves
        D2 by at most 4u(|x|^2 + |y|^2); the norms and the BLAS product, in
        any summation order, put g within 2(d + 2)u(|x|^2 + |y|^2) of the
        shifted D2; the formula's sum is within (d + 2)u D2 of D2, and its
        square root rounds to at most r only if that sum is at most
        (1 + 2u) r^2, and always does if the sum is at most r^2. With the
        rounding of each test itself, an accepted pair has
        g <= r^2 + (2d + 9)u(|x|^2 + |y|^2 + r^2) to first order, and a
        pair with g <= r^2 - (2d + 9)u(|x|^2 + |y|^2 + r^2) has a formula
        sum of at most r^2, so it is accepted. The band
        C (d + 2) eps (|x|^2 + |y|^2 + r^2), with eps = 2u and C = 8, is
        several times that on both sides; its floor, C (d + 2) times the
        smallest normal float, dwarfs the absolute errors of subnormal
        terms. The band's norm terms move to the left side as a factor
        1 -/+ C (d + 2) eps on the squared norms.
        """
        _, sq, slack, floor = self._shifted
        with np.errstate(over="ignore", invalid="ignore"):
            sq_lo = (1.0 - slack) * sq
            sq_hi = (1.0 + slack) * sq
            r2 = radii**2
            hi = (1.0 + slack) * r2 + floor - sq_lo[rows]
            lo = (1.0 - slack) * r2 - floor - sq_hi[rows]
        lo[~np.isfinite(lo)] = -np.inf  # an overflowed r^2 or norm proves nothing
        for sl, g in self._gram_blocks(rows):
            r = rows[sl]
            with np.errstate(over="ignore", invalid="ignore"):
                hit = g + sq_lo <= hi[sl, None]
                hit[np.arange(r.size), r] = False
                # one flat index and a division beat a 2-d nonzero 3 to 1
                hit = np.flatnonzero(hit)
                a = hit // self.n
                j = hit - a * self.n
                g = g.ravel()[hit] + sq_hi[j]
                sure = (g <= lo[sl][a]) & (g > -np.inf)
            yield sl, a, j, sure

    def kth_distances(self, k: int) -> np.ndarray:
        """Distance from each point to its k-th nearest neighbor (self
        excluded): column k of knn_table(k), to the last bit."""
        return self.knn_table(k)[1][:, k - 1].copy()


def build_index(ps: PointSet) -> NeighborIndex:
    """Build a NeighborIndex over ps."""
    return NeighborIndex(ps=ps)


def index_over(ps: PointSet, idx: NeighborIndex | None) -> NeighborIndex:
    """idx, which must be an index built over ps itself, or a new one."""
    if idx is None:
        return build_index(ps)
    if idx.ps is not ps:
        raise ValueError("idx must be a neighbor index built over ps itself")
    return idx
