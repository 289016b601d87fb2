"""Output checks for the benchmark, written without calling into ccdscore.

Every check returns a list of problems; an empty list means the item
passed. The fixed-k oracle recomputes radii, ball membership, ratio-root
density and the outbound score by brute force, so it shares no code with
the neighbor index it checks.
"""

from __future__ import annotations

import math

import numpy as np

MADN_CONSTANT = 0.6745
ORACLE_RTOL = 1e-12


def f2(labels: np.ndarray, flags: np.ndarray) -> float:
    """F2 of boolean flags against 0/1 labels; 0 when nothing is found."""
    labels = np.asarray(labels, dtype=bool)
    flags = np.asarray(flags, dtype=bool)
    tp = int(np.sum(labels & flags))
    fp = int(np.sum(~labels & flags))
    fn = int(np.sum(labels & ~flags))
    return f2_from_counts(tp, fp, fn)


def f2_from_counts(tp: int, fp: int, fn: int) -> float:
    return 5.0 * tp / (5.0 * tp + 4.0 * fn + fp) if tp else 0.0


def check_report(r: dict) -> list[str]:
    """Invariants every score report must satisfy.

    r holds numpy arrays cluster, oos, ios_std, oos_flag, ios_flag,
    oos_rank, ios_rank, out_degree, and the scalars oos_threshold,
    ios_threshold and s_min.
    """
    problems = []
    cluster = np.asarray(r["cluster"])
    n = cluster.size
    for key in ("oos_rank", "ios_rank"):
        if not np.array_equal(np.sort(r[key]), np.arange(1, n + 1)):
            problems.append(f"{key} is not a permutation of 1..n")

    sizes = np.bincount(cluster)
    first = np.full(sizes.size, n)
    np.minimum.at(first, cluster, np.arange(n))
    if (sizes == 0).any():
        problems.append("cluster ids are not contiguous")
    elif np.lexsort((first, -sizes)).tolist() != list(range(sizes.size)):
        problems.append("cluster ids are not ordered by size, then smallest member")

    small = (sizes / n < r["s_min"])[cluster] if r["s_min"] > 0 else np.zeros(n, bool)
    if not np.array_equal(r["oos_flag"], r["oos"] > r["oos_threshold"]):
        problems.append("an oos flag disagrees with score > threshold")
    if not np.array_equal(r["ios_flag"], (r["ios_std"] > r["ios_threshold"]) | small):
        problems.append("an ios flag disagrees with score > threshold or s_min")
    if not np.array_equal(np.isinf(r["oos"]), np.asarray(r["out_degree"]) == 0):
        problems.append("oos is not inf exactly where the ball is empty")
    return problems


def robust_normalize(points: np.ndarray) -> np.ndarray:
    """Median-centered, MADN-scaled columns; zero-MADN columns only centered."""
    med = np.median(points, axis=0)
    madn = np.median(np.abs(points - med), axis=0) / MADN_CONSTANT
    return (points - med) / np.where(madn == 0.0, 1.0, madn)


def _distances(points: np.ndarray, i: int) -> np.ndarray:
    diff = points - points[i]
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def brute_fixed_k(points: np.ndarray, ids) -> tuple[np.ndarray, np.ndarray]:
    """rho and oos of the given points under fixed-k radii, by brute force.

    k is the default max(2, round(sqrt(n))); a zero radius is raised to the
    smallest positive distance; rho is (occupancy / radius) ** (1 / d).
    """
    n, d = points.shape
    k = min(max(2, int(round(math.sqrt(n)))), n - 1)
    balls: dict[int, tuple[float, np.ndarray]] = {}

    def ball(i):
        if i not in balls:
            dist = _distances(points, i)
            dist[i] = np.inf
            r = np.partition(dist, k - 1)[k - 1]
            if r == 0.0:
                r = dist[dist > 0].min()
            balls[i] = (r, np.flatnonzero(dist <= r))
        return balls[i]

    def rho(i):
        r, members = ball(i)
        return ((members.size + 1) / r) ** (1.0 / d)

    rho_out = np.array([rho(i) for i in ids])
    oos_out = np.array(
        [
            np.mean([rho(j) for j in ball(i)[1]]) / rho(i) if ball(i)[1].size else np.inf
            for i in ids
        ]
    )
    return rho_out, oos_out


def check_fixed_k(points, ids, rho, oos) -> list[str]:
    """Compare reported rho and oos at ids against the brute-force oracle."""
    want_rho, want_oos = brute_fixed_k(points, ids)
    problems = []
    if not np.allclose(rho[ids], want_rho, rtol=ORACLE_RTOL, atol=0.0):
        problems.append("rho differs from the brute-force fixed-k oracle")
    if not np.allclose(oos[ids], want_oos, rtol=ORACLE_RTOL, atol=0.0):
        problems.append("oos differs from the brute-force fixed-k oracle")
    return problems
