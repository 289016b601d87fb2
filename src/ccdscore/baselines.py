"""Reference detectors the bench compares against: LOF and ODIN."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import NeighborIndex
from .errors import BadKError


@dataclass(frozen=True)
class LofParams:
    """Neighborhood range for the local outlier factor.

    The reported score is the maximum over every integer k in
    [k_min, k_max]; scores above threshold are flagged.
    """

    k_min: int = 11
    k_max: int = 30
    threshold: float = 1.5


@dataclass(frozen=True)
class OdinParams:
    """In-degree detector parameters. k and t default to round(n**0.5)
    and round(n**0.33) when left unset.
    """

    k: int | None = None
    t: int | None = None

    def k_for(self, n: int) -> int:
        return self.k if self.k is not None else int(round(n**0.5))


def lof(
    idx: NeighborIndex, params: LofParams = LofParams()
) -> tuple[np.ndarray, np.ndarray]:
    """Local outlier factor, maximized over the configured k range.

    Neighborhoods are exactly k points, ties broken by ascending id, the
    same convention the rest of the package uses. Returns (scores, flags).
    """
    n = idx.ps.n
    if params.k_min < 1 or params.k_min > params.k_max:
        raise BadKError(f"bad k range [{params.k_min}, {params.k_max}]")
    if n <= params.k_max:
        raise BadKError(f"need n > {params.k_max}, got n={n}")
    nbr_ids, nbr_dists = idx.knn_table(params.k_max)
    best = np.full(n, -np.inf)
    # sums over k are np.mean's steps: np.add.reduce, then a divide by k.
    # Distances are finite (the index checks the squared spread), so a
    # density is positive or +inf, and a NaN ratio is inf / inf.
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(params.k_min, params.k_max + 1):
            ids_k = nbr_ids[:, :k]
            # np.take walks the strided view ids_k faster than a fancy index
            reach = np.maximum(np.take(nbr_dists[:, k - 1], ids_k), nbr_dists[:, :k])
            lrd = 1.0 / (np.add.reduce(reach, axis=1) / k)
            lof_k = (np.add.reduce(np.take(lrd, ids_k), axis=1) / k) / lrd
            # a copy among copies has its neighbors' (infinite) density: not outlying
            lof_k[np.isnan(lof_k)] = 1.0
            np.maximum(best, lof_k, out=best)
    return best, best > params.threshold


def odin(
    idx: NeighborIndex, params: OdinParams = OdinParams()
) -> tuple[np.ndarray, np.ndarray]:
    """In-degree of the directed kNN graph; low in-degree means outlying.

    Returns (in_degrees, flags) with flags set where in-degree <= t.
    """
    n = idx.ps.n
    k = params.k_for(n)
    t = params.t if params.t is not None else int(round(n**0.33))
    if not 1 <= k <= n - 1:
        raise BadKError(f"k={k} out of range for n={n}")
    indeg = np.bincount(idx.knn_table(k)[0].ravel(), minlength=n)
    return indeg, indeg <= t
