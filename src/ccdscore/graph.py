"""Covering radii, the catch digraph, and mutual-coverage clustering.

Point i reaches point j when j lies inside the closed ball B(x_i, r_i).
The digraph of those reaches drives every score downstream; clusters are
the connected components of its mutual (bidirectional) subgraph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.special import ndtri

from .dataset import NeighborIndex, row_blocks, row_chunks
from .errors import ConfigError, DegenerateDataError, check_int

FIXED_K = "fixed-k"
RK_APPROX = "rk-approx"
UN_APPROX = "un-approx"
RADIUS_KINDS = (FIXED_K, RK_APPROX, UN_APPROX)

# How far (in multiples of its own radius) an isolated vertex may look for
# a cluster to join.
ATTACH_FACTOR = 3.0

# rk-approx: the one-sided significance of the binomial envelope.
RK_SIGNIFICANCE = 0.01
# un-approx: each radius is UN_MULTIPLIER times the UN_QUANTILE of the
# 1-NN distances among the point's k nearest neighbors.
UN_QUANTILE = 0.5
UN_MULTIPLIER = 2.0


@dataclass(frozen=True)
class RadiusStrategy:
    """How per-point covering radii are estimated.

    kind is one of fixed-k, rk-approx, un-approx. k defaults to
    max(2, round(sqrt(n))) at estimation time when left unset.
    """

    kind: str
    k: int | None = None

    def __post_init__(self):
        if self.kind not in RADIUS_KINDS:
            raise ConfigError(f"unknown radius strategy {self.kind!r}")
        if self.k is None:
            return
        check_int(self.k, "k", 1)


def fixed_k(k: int | None = None) -> RadiusStrategy:
    return RadiusStrategy(kind=FIXED_K, k=k)


def rk_approx(k: int | None = None) -> RadiusStrategy:
    return RadiusStrategy(kind=RK_APPROX, k=k)


def un_approx(k: int | None = None) -> RadiusStrategy:
    return RadiusStrategy(kind=UN_APPROX, k=k)


def default_k(n: int) -> int:
    return max(2, int(round(math.sqrt(n))))


def log_unit_ball_volume(d: int) -> float:
    """log V_d of the unit ball in d dimensions, finite at every d: V_d
    itself underflows to 0.0 from d = 453."""
    return 0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d + 1.0)


def _positive_floor(idx: NeighborIndex, radii: np.ndarray) -> np.ndarray:
    """Replace zero radii by the point's smallest positive neighbor distance."""
    zero = np.flatnonzero(radii == 0)
    if zero.size == 0:
        return radii
    out = radii.copy()
    _, out[zero] = idx.nearest(zero, np.ones(idx.n, dtype=bool), positive=True)
    if np.isinf(out[zero]).any():
        raise DegenerateDataError("all points coincide; radii are undefined")
    return out


def estimate_radii(idx: NeighborIndex, strategy: RadiusStrategy) -> np.ndarray:
    """Covering radii of idx.ps under the given strategy. Always positive."""
    n = idx.ps.n
    if n < 2:
        raise DegenerateDataError("radius estimation needs at least 2 points")
    if (idx.ps.points == idx.ps.points[0]).all():
        raise DegenerateDataError("all points coincide; radii are undefined")
    k = strategy.k if strategy.k is not None else default_k(n)
    k = min(k, n - 1)

    if strategy.kind == FIXED_K:
        radii = idx.kth_distances(k)
    elif strategy.kind == UN_APPROX:
        ids, dists = idx.knn_table(k)
        nnd = dists[:, 0]
        radii = np.empty(n, dtype=np.float64)
        for sl in row_chunks(n, k):
            radii[sl] = UN_MULTIPLIER * np.quantile(nnd[ids[sl]], UN_QUANTILE, axis=1)
    else:
        radii = _rk_radii(idx, k)
    return _positive_floor(idx, radii)


def _rk_radii(idx: NeighborIndex, k: int) -> np.ndarray:
    """Largest of each point's k nearest-neighbor distances at which the
    local count still reaches the count expected under complete spatial
    randomness, up to a binomial envelope. Falls back to the 1-NN distance
    when nothing passes. Candidates stop at the k-th neighbor so radii stay
    on the local scale instead of swallowing the whole window, the
    bounding box of the axes along which the points vary.
    """
    ps = idx.ps
    n = ps.n
    sides = ps.points.max(axis=0) - ps.points.min(axis=0)
    # the window spans only the axes that vary: a constant column adds
    # nothing to a distance, and its zero side would zero the volume
    sides = sides[sides > 0]
    d = sides.size
    # a box past the largest float reads inf: the expected counts are then
    # 0 and every candidate passes, the limit of an ever larger box
    with np.errstate(over="ignore"):
        volume = float(np.prod(sides))
    z = float(ndtri(1.0 - RK_SIGNIFICANCE))
    _, cand = idx.knn_table(k)
    radii = cand[:, 0].copy()
    if volume <= 0 or d == 0:
        return radii
    log_lam_ball = math.log(n) - math.log(volume) + log_unit_ball_volume(d)
    observed = np.arange(2, k + 2, dtype=np.float64)
    for sl in row_chunks(n, k):
        c = cand[sl]
        with np.errstate(divide="ignore", over="ignore"):
            log_expected = log_lam_ball + d * np.log(c)
            expected = np.exp(log_expected)
        p = np.clip(expected / n, 0.0, 1.0)
        envelope = z * np.sqrt(n * p * (1.0 - p))
        passing = observed >= expected - envelope
        last = k - 1 - np.argmax(passing[:, ::-1], axis=1)
        radii[sl] = np.where(
            passing.any(axis=1), c[np.arange(c.shape[0]), last], c[:, 0]
        )
    return radii


# The CSR arrays are int32, the index dtype scipy.sparse uses, so both
# the point count and the edge count must fit in it.
INDEX_MAX = int(np.iinfo(np.int32).max)


def check_index_range(n: int, edges: int) -> None:
    """Raise DegenerateDataError unless n points and that many edges fit
    the digraph's int32 ids and row pointers."""
    if n > INDEX_MAX or edges > INDEX_MAX:
        raise DegenerateDataError(
            f"{n} points with {edges} coverage edges pass the digraph's int32 "
            f"limit of {INDEX_MAX}; at that size the edge arrays alone would "
            "need at least 17 GB"
        )


@dataclass
class CatchDigraph:
    """Directed coverage structure: i -> j when j is inside B(x_i, r_i), i != j.

    The edges are held twice in CSR (compressed sparse row) form, all four
    arrays int32 as scipy.sparse indexes them, with ids ascending in every
    row. The targets of i are out_ids[out_ptr[i]:out_ptr[i + 1]]; the
    sources reaching j are in_ids[in_ptr[j]:in_ptr[j + 1]], so the in-CSR
    is the out-CSR transposed. Arithmetic on the ids, such as edge keys,
    must widen them to int64 first.

    A digraph over several radius families of one point set of m points
    is their disjoint union: vertex f * m + i is point i under family f,
    no edge joins two families, and family(f) is the digraph of family f
    alone.
    """

    radii: np.ndarray
    dim: int
    out_ptr: np.ndarray
    out_ids: np.ndarray
    in_ptr: np.ndarray
    in_ids: np.ndarray
    families: int = 1

    @classmethod
    def from_csr(
        cls, radii: np.ndarray, dim: int, out_ptr: np.ndarray, out_ids: np.ndarray,
        families: int = 1,
    ) -> CatchDigraph:
        """The digraph of the int32 out-CSR (out_ptr, out_ids), ids
        ascending in every row; the in-CSR is its transpose by scipy's
        counting sort."""
        n = radii.shape[0]
        inv = sparse.csr_matrix(
            (np.ones(out_ids.size, dtype=np.int8), out_ids, out_ptr), shape=(n, n)
        ).tocsc()
        return cls(
            radii=radii,
            dim=dim,
            out_ptr=out_ptr,
            out_ids=out_ids,
            in_ptr=inv.indptr,
            in_ids=inv.indices,
            families=families,
        )

    @property
    def n(self) -> int:
        return self.radii.shape[0]

    def family(self, f: int) -> CatchDigraph:
        """The digraph of family f, its block of the union with the ids
        shifted back to 0..m-1; a one-family digraph is its own family 0."""
        if self.families == 1:
            return self
        m = self.n // self.families
        lo, hi = f * m, (f + 1) * m

        def block(ptr, ids):
            a, b = ptr[lo], ptr[hi]
            return ptr[lo : hi + 1] - a, ids[a:b] - lo

        out_ptr, out_ids = block(self.out_ptr, self.out_ids)
        in_ptr, in_ids = block(self.in_ptr, self.in_ids)
        return CatchDigraph(self.radii[lo:hi], self.dim, out_ptr, out_ids, in_ptr, in_ids)

    @property
    def covered_count(self) -> np.ndarray:
        """Ball occupancy, the center included: out-degree + 1."""
        return np.diff(self.out_ptr) + 1

    @property
    def covers(self) -> list[np.ndarray]:
        """The targets of each point, one view of out_ids per row."""
        ptr = self.out_ptr.tolist()
        return [self.out_ids[a:b] for a, b in zip(ptr[:-1], ptr[1:])]


def build_catch_digraph(idx: NeighborIndex, radii: np.ndarray) -> CatchDigraph:
    """The coverage digraph of the closed balls B(x_i, radii[i]) of idx.ps.

    radii holds one entry per point, or one per point of each of F radius
    families laid end to end; the digraph is then the disjoint union of the
    families' digraphs, family f's balls placed at vertex offset f * n.
    Each family's balls come from one NeighborIndex.balls query. Its blocks
    are kept as they come, int32 targets with per-row counts, while the
    running edge count is checked against the int32 limit. The row
    pointers then follow from the counts, and each block is placed into the
    one out_ids array: a block whose rows sit side by side in the CSR as
    one slice copy, any other through the positions of its rows.
    """
    n = idx.ps.n
    radii = np.asarray(radii, dtype=np.float64)
    if radii.ndim != 1 or radii.size == 0 or radii.size % n:
        raise ValueError("radii must have one entry per point of each family")
    if not (radii > 0).all():
        raise ValueError("radii must be positive")
    families = radii.size // n
    check_index_range(radii.size, 0)
    blocks = []
    edges = 0
    for f in range(families):
        lo = f * n
        for rows, c, targets in idx.balls(np.arange(n), radii[lo : lo + n]):
            edges += targets.size
            check_index_range(radii.size, edges)
            if lo:
                rows = rows + lo
                targets += lo
            blocks.append((rows, c, targets))
    counts = np.zeros(radii.size, dtype=np.int64)
    for rows, c, _ in blocks:
        counts[rows] = c
    ptr = np.zeros(radii.size + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    out_ids = np.empty(edges, dtype=np.int32)
    while blocks:
        # each block is freed once placed
        rows, c, targets = blocks.pop()
        start = ptr[rows[0]]
        if ptr[rows[-1] + 1] - start == targets.size:
            out_ids[start : start + targets.size] = targets
        else:
            first = np.cumsum(c) - c
            out_ids[np.repeat(ptr[rows] - first, c) + np.arange(targets.size)] = targets
    return CatchDigraph.from_csr(radii, idx.ps.d, ptr.astype(np.int32), out_ids, families)


@dataclass
class Clustering:
    """Partition of the points: cluster_of[i] gives the cluster id of i.

    Ids run 0..n_clusters-1 in decreasing cluster size, ties broken by the
    smallest member id; over a union of radius families, family by family
    first. Per-cluster statistics come from one sort of this array, the
    only copy of the partition, which the scoring stages take bare.
    """

    cluster_of: np.ndarray

    @property
    def n_clusters(self) -> int:
        return int(self.cluster_of.max()) + 1


def _csr_rows(ptr: np.ndarray, ids: np.ndarray, rows: slice, n: int) -> sparse.csr_matrix:
    """Rows rows of the int32 CSR (ptr, ids) as an int8 matrix of views."""
    a, b = ptr[rows.start], ptr[rows.stop]
    sub = ptr[rows.start : rows.stop + 1] - a
    return sparse.csr_matrix(
        (np.ones(b - a, dtype=np.int8), ids[a:b], sub), shape=(sub.size - 1, n)
    )


def _mutual_components(dg: CatchDigraph) -> np.ndarray:
    """The connected components of the mutual graph of dg: comp[i] is the
    component of i, some ids possibly unused.

    The graph is read one row block at a time: the block's out-rows
    multiplied elementwise by its in-rows are its mutual edges. The
    components of the first block's edges, padded to n x n, seed a label
    array; each later block merges into it. A mutual edge shows up in the
    rows of both ends, so only the ones with i < j count, and only those
    whose labels still differ go to connected_components, on the labels.
    """
    n = dg.n
    label = None
    # blocks over the summed row pointers bound the out- and in-entries
    # together, whatever the in-degrees
    both = dg.out_ptr.astype(np.int64) + dg.in_ptr
    for sl in row_blocks(both):
        mutual = _csr_rows(dg.out_ptr, dg.out_ids, sl, n).multiply(
            _csr_rows(dg.in_ptr, dg.in_ids, sl, n)
        ).tocsr()
        if label is None:
            # the first block starts at row 0; padded to n x n, no row
            # after it holds an edge
            ptr = np.full(n + 1, mutual.nnz, dtype=mutual.indptr.dtype)
            ptr[: sl.stop + 1] = mutual.indptr
            seed = sparse.csr_matrix((mutual.data, mutual.indices, ptr), shape=(n, n))
            _, label = connected_components(seed, directed=False)
            continue
        j = mutual.indices
        # np.take gathers by int32 ids about twice as fast as indexing
        lj = np.take(label, j)
        li = np.repeat(label[sl], np.diff(mutual.indptr))
        cross = np.flatnonzero(li != lj)
        if cross.size == 0:
            continue
        i = sl.start + np.searchsorted(mutual.indptr, cross, side="right") - 1
        cross = cross[i < j[cross]]
        merge = sparse.csr_matrix(
            (np.ones(cross.size, dtype=np.int8), (li[cross], lj[cross])), shape=(n, n)
        )
        _, merged = connected_components(merge, directed=False)
        label = merged[label]
    return label


def cluster_digraph(dg: CatchDigraph, idx: NeighborIndex) -> Clustering:
    """Connected components of the mutual-coverage graph of dg over idx.ps.

    Vertices with no mutual edge join the cluster of their nearest point
    that sits in a component of size >= 2, provided that point lies within
    ATTACH_FACTOR times their own radius (NeighborIndex.nearest, ties going
    to the smallest id); otherwise they keep their own one-point
    component. Over a union of radius families no component crosses
    families, a vertex looks for its point only among its own family's
    vertices, and the cluster ids run family by family.
    """
    m = idx.ps.n
    if dg.n != dg.families * m:
        raise ValueError("dg must be a digraph over the points of idx")
    comp = _mutual_components(dg)
    anchored = np.bincount(comp)[comp] >= 2
    isolated = np.flatnonzero(~anchored)
    bounds = np.searchsorted(isolated, np.arange(dg.families + 1) * m).tolist()
    for f, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        lo = f * m
        iso = isolated[a:b]
        nearest, near = idx.nearest(iso - lo, anchored[lo : lo + m])
        ok = (nearest >= 0) & (near <= ATTACH_FACTOR * dg.radii[iso])
        # an attach reads only anchored labels, which no attach rewrites
        comp[iso[ok]] = comp[nearest[ok] + lo]

    # first holds each label's smallest member id
    _, first, inverse, sizes = np.unique(
        comp, return_index=True, return_inverse=True, return_counts=True
    )
    # rank lists the labels in id order, so its inverse maps label to id
    rank = np.lexsort((first, -sizes, first // m))
    return Clustering(cluster_of=np.argsort(rank)[inverse])
