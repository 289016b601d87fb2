"""Independent brute-force reference implementations used across the tests.

The brute_* functions are written straight from the definitions with plain
loops, deliberately sharing no code with the package, so agreement is
meaningful. The loop_* functions at the end are the per-point reference
loops for the package's batched neighbor-table code, on a k-d tree of
their own, the per-cluster
loops for its group reductions, the per-row report writers, and the bench
result tables with every column listed by hand; keysort_csr and
gather_cluster_of are the sorting and gathering forms of its graph layer,
keysort_digraph builds a digraph from a list of edges,
loop_inject_outliers places outliers one candidate at a time, and
strict_json loads a written file as strict JSON.
"""

import csv
import json
import math

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree
from scipy.stats import norm


def dist(a, b):
    # einsum, matching the distance arithmetic the package commits to, so
    # exact-boundary membership (point sitting on its own k-th neighbor
    # sphere) resolves the same way here as there
    d = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    return float(np.sqrt(np.einsum("i,i->", d, d)))


def brute_knn(points, i, k):
    """Ids and distances of the k nearest neighbors of point i, self
    excluded, ties on distance broken by ascending id."""
    n = len(points)
    pairs = []
    for j in range(n):
        if j == i:
            continue
        pairs.append((dist(points[j], points[i]), j))
    pairs.sort()
    ids = np.array([j for _, j in pairs[:k]], dtype=np.int64)
    dists = np.array([d for d, _ in pairs[:k]], dtype=np.float64)
    return ids, dists


def brute_range(points, center, r):
    """Sorted ids inside the closed ball around an arbitrary center."""
    out = []
    for j in range(len(points)):
        if dist(points[j], center) <= r:
            out.append(j)
    return out


def brute_covers(points, radii):
    """Adjacency of the coverage relation: j in covers[i] iff j lands in
    the closed ball around i, i itself excluded."""
    n = len(points)
    covers = []
    for i in range(n):
        row = []
        for j in range(n):
            if j != i and dist(points[j], points[i]) <= radii[i]:
                row.append(j)
        covers.append(row)
    return covers


def brute_components(points, radii):
    """Connected components of the mutual-coverage graph, as a label per
    point; isolated vertices get their own singleton label."""
    n = len(points)
    covers = brute_covers(points, radii)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n):
        for j in covers[i]:
            if i in covers[j]:
                parent[find(i)] = find(j)
    return np.array([find(i) for i in range(n)], dtype=np.int64)


def brute_scores(points, radii, cluster_of, d):
    """rho, oos, ci and raw ios recomputed from scratch with double loops."""
    n = len(points)
    covers = brute_covers(points, radii)
    rho = np.empty(n)
    for i in range(n):
        count = len(covers[i]) + 1
        rho[i] = (count / radii[i]) ** (1.0 / d)
    oos = np.empty(n)
    for i in range(n):
        if not covers[i]:
            oos[i] = np.inf
        else:
            oos[i] = (sum(rho[j] for j in covers[i]) / len(covers[i])) / rho[i]
    ci = np.zeros(n)
    for i in range(n):
        for j in range(n):
            if j != i and cluster_of[j] == cluster_of[i]:
                if dist(points[i], points[j]) <= radii[j]:
                    ci[i] += rho[j]
    ios = 1.0 / (ci + rho)
    return rho, oos, ci, ios


def brute_madn(x):
    x = np.asarray(x, dtype=np.float64)
    med = np.median(x)
    return float(np.median(np.abs(x - med))) / 0.6745


def brute_lof(points, k):
    """Textbook LOF with exactly-k neighborhoods and the same tie rule."""
    n = len(points)
    neigh = [brute_knn(points, i, k) for i in range(n)]
    kdist = np.array([nd[1][-1] for nd in neigh])

    def reach(i, j):
        # reachability of i from the viewpoint of neighbor j
        return max(kdist[j], dist(points[i], points[j]))

    lrd = np.empty(n)
    for i in range(n):
        ids = neigh[i][0]
        lrd[i] = 1.0 / (sum(reach(i, j) for j in ids) / len(ids))
    scores = np.empty(n)
    for i in range(n):
        ids = neigh[i][0]
        scores[i] = sum(lrd[j] for j in ids) / len(ids) / lrd[i]
    return scores


def brute_indegree(points, k):
    """In-degree of every vertex in the directed kNN graph."""
    n = len(points)
    deg = np.zeros(n, dtype=np.int64)
    for i in range(n):
        ids, _ = brute_knn(points, i, k)
        for j in ids:
            deg[j] += 1
    return deg


# Per-point loop versions of the package's neighbor-table code, kept as the
# references the batched implementations must equal bit for bit. They query
# a k-d tree of their own one point at a time and decide with the package's
# distance formula, exactly as the package computed these layers before it
# switched to one neighbor table and one ball query.


def loop_distances_to(points, x):
    diff = points - x
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def loop_knn(tree, i, k):
    """Ids and distances of the k nearest neighbors of point i of
    tree.data, self excluded, by (distance, id): the tree's k + 1 nearest
    give a radius, a ball query widened by a relative 1e-9 for the tree's
    rounding gathers every candidate, and the distance formula decides."""
    points = tree.data
    k = min(k, len(points) - 1)
    if k == 0:
        return np.array([], dtype=np.int64), np.array([], dtype=np.float64)
    x = points[i]
    qd, _ = tree.query(x, k=k + 1)
    radius = float(np.max(qd)) * (1.0 + 1e-9) + 1e-300
    cand = np.asarray(tree.query_ball_point(x, radius), dtype=np.int64)
    dists = loop_distances_to(points[cand], x)
    keep = cand != i
    cand, dists = cand[keep], dists[keep]
    order = np.lexsort((cand, dists))[:k]
    return cand[order], dists[order]


def loop_range_query(tree, i, r):
    """Sorted ids of the points of tree.data within distance r of point i
    by the distance formula, i among them; the tree's ball query, widened
    by a relative 1e-9, only gathers candidates."""
    points = tree.data
    x = points[i]
    cand = np.asarray(tree.query_ball_point(x, r * (1.0 + 1e-9) + 1e-300), dtype=np.int64)
    return np.sort(cand[loop_distances_to(points[cand], x) <= r])


def loop_knn_table(points, k):
    tree = cKDTree(points)
    n = len(points)
    ids = np.empty((n, k), dtype=np.int64)
    dists = np.empty((n, k), dtype=np.float64)
    for i in range(n):
        ids[i], dists[i] = loop_knn(tree, i, k)
    return ids, dists


def loop_positive_floor(points, radii):
    if (radii > 0).all():
        return radii
    out = radii.copy()
    for i in np.flatnonzero(radii == 0):
        d = loop_distances_to(points, points[i])
        pos = d[d > 0]
        out[i] = pos.min()
    return out


def loop_nearest(points, rows, among, positive=False):
    """(ids, dists) of NeighborIndex.nearest, one row at a time: the
    smallest id at the smallest distance among the points j != i with
    among[j], positive distances only when positive; -1 and inf where no
    such point exists."""
    ids = np.full(len(rows), -1, dtype=np.int64)
    dists = np.full(len(rows), np.inf)
    for a, i in enumerate(rows):
        d = loop_distances_to(points, points[i])
        ok = among.copy()
        ok[i] = False
        if positive:
            ok &= d > 0
        if ok.any():
            j = np.flatnonzero(ok)[np.argmin(d[ok])]
            ids[a], dists[a] = j, d[j]
    return ids, dists


def loop_radii(ps, strategy):
    """estimate_radii for all three strategies, one point at a time, with
    the rk significance 0.01, the log volume of the unit ball and the un
    rule's multiplier 2 and quantile 0.5 written out rather than read from
    the package."""
    from ccdscore.graph import default_k

    n, d = ps.n, ps.d
    tree = cKDTree(ps.points)
    k = min(strategy.k if strategy.k is not None else default_k(n), n - 1)
    radii = np.empty(n, dtype=np.float64)
    if strategy.kind == "fixed-k":
        for i in range(n):
            radii[i] = loop_knn(tree, i, k)[1][k - 1]
    elif strategy.kind == "un-approx":
        nnd = np.array([loop_knn(tree, i, 1)[1][0] for i in range(n)])
        for i in range(n):
            ids, _ = loop_knn(tree, i, k)
            radii[i] = 2.0 * float(np.quantile(nnd[ids], 0.5))
    else:
        # the window is the box of the axes along which the points vary
        sides = ps.points.max(axis=0) - ps.points.min(axis=0)
        sides = sides[sides > 0]
        d = sides.size
        volume = float(np.prod(sides))
        z = float(norm.ppf(1.0 - 0.01))
        log_vball = 0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d + 1.0)
        log_lam_ball = (math.log(n) - math.log(volume) + log_vball
                        if volume > 0 and d > 0 else None)
        for i in range(n):
            _, cand = loop_knn(tree, i, k)
            if log_lam_ball is None:
                radii[i] = cand[0]
                continue
            with np.errstate(divide="ignore", over="ignore"):
                expected = np.exp(log_lam_ball + d * np.log(cand))
            observed = np.arange(2, cand.size + 2, dtype=np.float64)
            p = np.clip(expected / n, 0.0, 1.0)
            envelope = z * np.sqrt(n * p * (1.0 - p))
            passing = observed >= expected - envelope
            radii[i] = cand[np.flatnonzero(passing)[-1]] if passing.any() else cand[0]
    return loop_positive_floor(ps.points, radii)


def loop_digraph(points, radii):
    """(covers, covered_by) from one range query per point."""
    tree = cKDTree(points)
    n = len(points)
    covers = []
    sources = [[] for _ in range(n)]
    for i in range(n):
        members = loop_range_query(tree, i, float(radii[i]))
        members = members[members != i]
        covers.append(members)
        for j in members:
            sources[j].append(i)
    return covers, [np.asarray(s, dtype=np.int64) for s in sources]


def loop_clusters(points, radii, covers, attach_factor=3.0):
    """cluster_of from the mutual-edge set loop and the per-point attach loop."""
    n = len(covers)
    cover_sets = [set(c.tolist()) for c in covers]
    rows, cols = [], []
    for i in range(n):
        for j in covers[i]:
            if j > i and i in cover_sets[j]:
                rows.append(i)
                cols.append(j)
    adj = sparse.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    n_comp, comp = connected_components(adj, directed=False)
    comp_sizes = np.bincount(comp, minlength=n_comp)
    labels = comp.copy()
    anchored = np.flatnonzero(comp_sizes[comp] >= 2)
    next_label = n_comp
    for v in np.flatnonzero(comp_sizes[comp] == 1):
        if anchored.size:
            d = loop_distances_to(points[anchored], points[v])
            best = int(np.argmin(d))
            if d[best] <= attach_factor * radii[v]:
                labels[v] = comp[anchored[best]]
                continue
        labels[v] = next_label
        next_label += 1
    groups = [np.flatnonzero(labels == u) for u in np.unique(labels)]
    groups.sort(key=lambda g: (-g.size, g[0]))
    cluster_of = np.empty(n, dtype=np.int64)
    for cid, mem in enumerate(groups):
        cluster_of[mem] = cid
    return cluster_of



# The graph layer as the package built it before its counting build and
# its table attach: the CSRs from two sorts of the edge keys, the mutual
# graph from adj * adj.T with undirected components, and every isolated
# vertex attached by a gather of its distances to all anchored points.
# They are the references the current graph layer must equal bit for bit.


def keysort_csr(n, src, dst):
    """(out_ptr, out_ids, in_ptr, in_ids) of the edges src[e] -> dst[e]."""
    return (
        np.append(0, np.cumsum(np.bincount(src, minlength=n))),
        np.sort(src * n + dst) % n,
        np.append(0, np.cumsum(np.bincount(dst, minlength=n))),
        np.sort(dst * n + src) % n,
    )


def keysort_digraph(radii, dim, src, dst):
    """The CatchDigraph of the edges src[e] -> dst[e], any order, no
    repeats, its out-CSR from keysort_csr cast to int32."""
    from ccdscore.graph import CatchDigraph

    src, dst = np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
    out_ptr, out_ids, _, _ = keysort_csr(radii.shape[0], src, dst)
    return CatchDigraph.from_csr(radii, dim, out_ptr.astype(np.int32), out_ids.astype(np.int32))


def pair_distance_blocks(points, rows, targets):
    """Yield (slice into rows, block) with block[a, b] the distance from
    points[rows[a]] to points[targets[b]], in blocks of about GATHER_CHUNK
    elements, by the package's distance formula."""
    from ccdscore.dataset import _row_distances, row_chunks

    d = points.shape[1]
    for sl in row_chunks(rows.size, targets.size * d):
        cand = np.broadcast_to(targets, (sl.stop - sl.start, targets.size))
        yield sl, _row_distances(points, rows[sl], cand)


def gather_cluster_of(dg, points, attach_factor=3.0):
    """cluster_of with each isolated vertex attached by a block gather."""
    n = dg.n
    adj = sparse.csr_matrix(
        (np.ones(dg.out_ids.size, dtype=np.int8), dg.out_ids, dg.out_ptr), shape=(n, n)
    )
    n_comp, comp = connected_components(adj.multiply(adj.T), directed=False)
    comp_sizes = np.bincount(comp, minlength=n_comp)
    labels = comp.copy()
    anchored = np.flatnonzero(comp_sizes[comp] >= 2)
    isolated = np.flatnonzero(comp_sizes[comp] == 1)
    alone = isolated
    if anchored.size and isolated.size:
        attached = np.zeros(isolated.size, dtype=bool)
        for sl, block in pair_distance_blocks(points, isolated, anchored):
            best = np.argmin(block, axis=1)
            near = block[np.arange(best.size), best]
            ok = near <= attach_factor * dg.radii[isolated[sl]]
            labels[isolated[sl][ok]] = comp[anchored[best[ok]]]
            attached[sl] = ok
        alone = isolated[~attached]
    labels[alone] = n_comp + np.arange(alone.size)
    _, first, inverse, sizes = np.unique(
        labels, return_index=True, return_inverse=True, return_counts=True
    )
    rank = np.lexsort((first, -sizes))
    return np.argsort(rank)[inverse]

def loop_oos(covers, rho):
    out = np.empty(len(covers), dtype=np.float64)
    for i, nbrs in enumerate(covers):
        out[i] = np.inf if nbrs.size == 0 else float(np.mean(rho[nbrs])) / rho[i]
    return out


def loop_cumulative_influence(covered_by, cluster_of, rho):
    out = np.zeros(len(covered_by), dtype=np.float64)
    for i, src in enumerate(covered_by):
        same = src[cluster_of[src] == cluster_of[i]]
        if same.size:
            out[i] = float(np.sum(rho[same]))
    return out


def loop_ios_raw(covered_by, cluster_of, rho):
    out = np.empty(len(covered_by), dtype=np.float64)
    for i, src in enumerate(covered_by):
        same = src[cluster_of[src] == cluster_of[i]]
        ids = np.sort(np.append(same, i))
        out[i] = 1.0 / float(np.sum(rho[ids]))
    return out


def loop_lof(points, k_min=11, k_max=30):
    nbr_ids, nbr_dists = loop_knn_table(points, k_max)
    best = np.full(len(points), -np.inf)
    for k in range(k_min, k_max + 1):
        ids_k = nbr_ids[:, :k]
        kdist = nbr_dists[:, k - 1]
        reach = np.maximum(kdist[ids_k], nbr_dists[:, :k])
        with np.errstate(divide="ignore"):
            lrd = 1.0 / np.mean(reach, axis=1)
        best = np.maximum(best, np.mean(lrd[ids_k], axis=1) / lrd)
    return best


def loop_odin(points, k):
    tree = cKDTree(points)
    indeg = np.zeros(len(points), dtype=np.int64)
    for i in range(len(points)):
        ids, _ = loop_knn(tree, i, k)
        indeg[ids] += 1
    return indeg


# Per-cluster loop versions of the package's standardization, tie-breaking
# and small-cluster flags, the references its group reductions over one
# sort of cluster_of must equal bit for bit. Each loops over the members of
# one cluster at a time, as the package did when it kept member lists.


def loop_members(cluster_of):
    """The ids of each cluster, ascending, in cluster id order."""
    return [np.flatnonzero(cluster_of == c) for c in range(cluster_of.max() + 1)]


def loop_standardize_ios(cluster_of, ios):
    from ccdscore.dataset import MADN_CONSTANT

    out = np.empty_like(ios)
    for mem in loop_members(cluster_of):
        vals = ios[mem]
        med = float(np.median(vals))
        madn = float(np.median(np.abs(vals - med))) / MADN_CONSTANT
        if madn > 0:
            out[mem] = (vals - med) / madn
        else:
            out[mem] = np.where(vals > med, np.inf, np.where(vals < med, -np.inf, 0.0))
    return out


def loop_standardize_naive(cluster_of, ios):
    out = np.empty_like(ios)
    for mem in loop_members(cluster_of):
        vals = ios[mem]
        sd = float(np.std(vals))
        out[mem] = (vals - float(np.mean(vals))) / (sd if sd > 0 else 1.0)
    return out


def loop_break_ties(cluster_of, ios_std, rho):
    out = ios_std.copy()
    for mem in loop_members(cluster_of):
        vals = ios_std[mem]
        order = np.lexsort((mem, vals))
        sorted_ids = mem[order]
        sorted_vals = vals[order]
        distinct, starts, counts = np.unique(
            sorted_vals, return_index=True, return_counts=True
        )
        for g in range(distinct.size):
            m = counts[g]
            if m < 2 or np.isinf(distinct[g]):
                continue
            lo = distinct[g - 1] if g > 0 else distinct[g]
            hi = distinct[g + 1] if g + 1 < distinct.size else distinct[g]
            if np.isinf(lo):
                lo = distinct[g]
            if np.isinf(hi):
                hi = distinct[g]
            ids = sorted_ids[starts[g] : starts[g] + m]
            weights = rho[ids] / float(np.sum(rho[ids]))
            out[ids] = hi - (hi - lo) * weights
    return out


def loop_small_cluster_flags(cluster_of, s_min):
    """Members of clusters whose share of the points falls below s_min."""
    n = cluster_of.size
    flags = np.zeros(n, dtype=bool)
    for mem in loop_members(cluster_of):
        if mem.size / n < s_min:
            flags[mem] = True
    return flags


# The report writers as they were before the package wrote whole columns
# and encoded each list of scalars in one call: a writerow per point with
# a repr per element, and json.dump(indent=2), which always runs the
# pure-Python encoder. They are the byte references for the package's
# writers.


def loop_json_float(v):
    return float(v) if np.isfinite(v) else repr(float(v))


def strict_json(path):
    """json.load of path that fails on a bare NaN, Infinity or -Infinity."""
    def reject(name):
        raise ValueError(f"bare {name} in {path}")

    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=reject)


def loop_report_json_dict(report, method="ios"):
    return {
        "n": report.n,
        "method": method,
        "thresholds": {"oos": report.oos_threshold, "ios": report.ios_threshold},
        "s_min": report.s_min,
        "params": report.params,
        "cluster_sizes": np.bincount(report.cluster_of).tolist(),
        "digraph": {
            "radii": [loop_json_float(v) for v in report.digraph.radii],
            "covers": [c.tolist() for c in report.digraph.covers],
        },
        "points": {
            "cluster": report.cluster_of.tolist(),
            "rho": [loop_json_float(v) for v in report.rho],
            "oos": [loop_json_float(v) for v in report.oos],
            "ios_raw": [loop_json_float(v) for v in report.ios_raw],
            "ios_std": [loop_json_float(v) for v in report.ios_std],
            "ios_std_naive": [loop_json_float(v) for v in report.ios_std_naive],
            "oos_flag": report.oos_flag.astype(int).tolist(),
            "ios_flag": report.ios_flag.astype(int).tolist(),
            "oos_rank": report.oos_rank.tolist(),
            "ios_rank": report.ios_rank.tolist(),
        },
    }


def loop_write_json(doc, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def loop_write_report_csv(report, path, method="ios"):
    from ccdscore.scores import REPORT_COLUMNS

    score, flag, rank = {
        "oos": (report.oos, report.oos_flag, report.oos_rank),
        "ios": (report.ios_std, report.ios_flag, report.ios_rank),
    }[method]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for i in range(report.n):
            writer.writerow(
                [
                    i,
                    int(report.cluster_of[i]),
                    repr(float(report.rho[i])),
                    repr(float(report.oos[i])),
                    repr(float(report.ios_raw[i])),
                    repr(float(report.ios_std[i])),
                    int(report.oos_rank[i]),
                    int(report.ios_rank[i]),
                    int(report.oos_flag[i]),
                    int(report.ios_flag[i]),
                    repr(float(score[i])),
                    int(flag[i]),
                    int(rank[i]),
                ]
            )


def loop_write_baseline_csv(path, scores, flags, ranks):
    from ccdscore.scores import REPORT_COLUMNS

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for i in range(len(scores)):
            writer.writerow(
                [i, "", "", "", "", "", "", "", "", "",
                 repr(float(scores[i])), int(flags[i]), int(ranks[i])]
            )


def loop_baseline_json_dict(method, scores, flags, ranks):
    return {
        "n": len(scores),
        "method": method,
        "points": {
            "score": [loop_json_float(v) for v in scores],
            "flag": flags.astype(int).tolist(),
            "rank": ranks.tolist(),
        },
    }


def loop_write_points_csv(ps, path):
    names = ps.feature_names or [f"x{j}" for j in range(ps.d)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        head = list(names)
        if ps.labels is not None:
            head.append("label")
        writer.writerow(head)
        for i in range(ps.n):
            row = [repr(float(v)) for v in ps.points[i]]
            if ps.labels is not None:
                row.append(str(int(ps.labels[i])))
            writer.writerow(row)


# Bench result tables, each column listed by hand.


def loop_aggregate(rows, methods):
    from ccdscore.bench import AggregateRow

    out = []
    config_ids = sorted({r.config_index for r in rows})
    for ci in config_ids:
        for m in methods:
            ok = [
                r
                for r in rows
                if r.config_index == ci and r.method == m and not r.error
            ]
            if not ok:
                nan = float("nan")
                out.append(AggregateRow(ci, m, 0, nan, nan, nan, nan,
                                        nan, nan, nan, nan))
                continue
            cols = {
                name: np.array([getattr(r, name) for r in ok])
                for name in ("tpr", "tnr", "ba", "f2")
            }
            out.append(
                AggregateRow(
                    config_index=ci,
                    method=m,
                    replicates_ok=len(ok),
                    tpr=float(np.mean(cols["tpr"])),
                    tnr=float(np.mean(cols["tnr"])),
                    ba=float(np.mean(cols["ba"])),
                    f2=float(np.mean(cols["f2"])),
                    tpr_sd=float(np.std(cols["tpr"])),
                    tnr_sd=float(np.std(cols["tnr"])),
                    ba_sd=float(np.std(cols["ba"])),
                    f2_sd=float(np.std(cols["f2"])),
                )
            )
    return out


def loop_write_raw_csv(rows, path):
    cols = ["config_index", "replicate", "method", "tp", "fp", "tn", "fn",
            "tpr", "tnr", "ba", "f2", "error"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for r in rows:
            writer.writerow(
                [r.config_index, r.replicate, r.method, r.tp, r.fp, r.tn, r.fn,
                 repr(r.tpr), repr(r.tnr), repr(r.ba), repr(r.f2), r.error]
            )


def loop_write_aggregate_csv(agg, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["config_index", "method", "replicates_ok", "tpr", "tnr", "ba",
             "f2", "tpr_sd", "tnr_sd", "ba_sd", "f2_sd"]
        )
        for a in agg:
            writer.writerow(
                [a.config_index, a.method, a.replicates_ok,
                 repr(a.tpr), repr(a.tnr), repr(a.ba), repr(a.f2),
                 repr(a.tpr_sd), repr(a.tnr_sd), repr(a.ba_sd), repr(a.f2_sd)]
            )


def loop_write_ranking_csv(ranks, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["config_index", "method", "f2", "rank", "top3"])
        for r in ranks:
            writer.writerow([r.config_index, r.method, repr(r.f2), r.rank, int(r.top3)])


def loop_raw_json_dicts(rows):
    return [
        {
            "config_index": r.config_index,
            "replicate": r.replicate,
            "method": r.method,
            "tp": r.tp, "fp": r.fp, "tn": r.tn, "fn": r.fn,
            "tpr": loop_json_float(r.tpr), "tnr": loop_json_float(r.tnr),
            "ba": loop_json_float(r.ba), "f2": loop_json_float(r.f2),
            "error": r.error,
        }
        for r in rows
    ]


# Cluster-center placement as it was before restarts: one greedy round of
# 1000 candidates, then ConfigError.


def greedy_pick_centers(rng, count, d, extent):
    from ccdscore.errors import ConfigError

    margin = min(extent, 0.4)
    min_sep = 2.5 * extent
    centers = []
    for _ in range(1000):
        cand = rng.uniform(margin, 1.0 - margin, size=d)
        if all(np.linalg.norm(cand - c) >= min_sep for c in centers):
            centers.append(cand)
            if len(centers) == count:
                return np.asarray(centers)
    raise ConfigError(f"could not place {count} cluster centers")


# Outlier placement as it was before batching: one candidate and one norm
# over every inlier per attempt, the singles first, then the group's center.


def loop_inject_outliers(ps, cfg):
    from ccdscore import simgen
    from ccdscore.dataset import PointSet
    from ccdscore.errors import ConfigError

    n_single = int(round(cfg.outlier_fraction * cfg.n))
    g = cfg.collective_group
    if n_single == 0 and g == 0:
        return ps
    scale = simgen.cluster_scale(cfg)
    sep = cfg.outlier_min_separation * scale
    lo, hi = -0.1, 1.1

    def draw(rng, min_dist):
        for _ in range(simgen._OUTLIER_ATTEMPTS):
            cand = rng.uniform(lo, hi, size=cfg.d)
            gap = np.min(np.linalg.norm(ps.points - cand, axis=1))
            if gap >= min_dist:
                return cand
        raise ConfigError(
            "could not place an outlier at the requested separation; "
            "lower outlier_min_separation or the cluster extent"
        )

    rng = simgen._rng(cfg.seed, 4)
    new_points = [draw(rng, sep) for _ in range(n_single)]
    if g > 0:
        group_rng = simgen._rng(cfg.seed, 5)
        group_radius = 0.25 * scale
        center = draw(group_rng, sep + group_radius)
        new_points.extend(center + simgen._uniform_ball(group_rng, g, cfg.d, group_radius))
    points = np.vstack([ps.points, np.asarray(new_points)])
    old_labels = ps.labels if ps.labels is not None else np.zeros(ps.n, dtype=np.int64)
    labels = np.concatenate([old_labels, np.ones(len(new_points), dtype=np.int64)])
    return PointSet(points=points, labels=labels, feature_names=ps.feature_names)
