"""Outlyingness scores on the catch digraph.

Two complementary scores per point. The outbound score compares the
density of a point's ball against the densities seen inside it, so lone
points surrounded by dense neighborhoods stand out. The inbound score
inverts the total density of the same-cluster points whose balls reach
the point, so points that nothing much covers stand out, including
members of small colluding groups once the cluster-size filter is on.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .dataset import (
    MADN_CONSTANT,
    NeighborIndex,
    PointSet,
    index_over,
    row_blocks,
    row_chunks,
)
from .errors import ConfigError, DegenerateDataError
from .graph import (
    ATTACH_FACTOR,
    FIXED_K,
    RK_APPROX,
    UN_APPROX,
    CatchDigraph,
    RadiusStrategy,
    build_catch_digraph,
    cluster_digraph,
    estimate_radii,
    fixed_k,
)

# the density formula's name in the report's params
RATIO_ROOT = "ratio-root"


def vicinity_density(dg: CatchDigraph) -> np.ndarray:
    """Density of each point's covering ball: the d-th root of occupancy
    over radius, rho = (|B| / r)^(1 / d).

    The scores add up to n densities or their reciprocals and square the
    results (the naive SD), so every density must lie in
    [n / sqrt(M), sqrt(M) / n], M the largest float, n the points of one
    radius family. Outside that range DegenerateDataError is raised, which
    covers every density that reads zero, subnormal or infinite (at d=1,
    balls far below unit scale); over a union of families it names the
    first family that fails, as that family's digraph alone would.
    """
    counts = dg.covered_count.astype(np.float64)
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        rho = (counts / dg.radii) ** (1.0 / dg.dim)
    n = rho.size // dg.families
    top = np.sqrt(np.finfo(np.float64).max) / n
    bad = ~((rho >= 1.0 / top) & (rho <= top))
    if bad.any():
        lo = int(np.argmax(bad)) // n * n
        raise DegenerateDataError(
            f"the ball density of {int(bad[lo : lo + n].sum())} of {n} points lies "
            f"outside [{1.0 / top:.3g}, {top:.3g}], where the scores' float64 "
            "arithmetic holds; rescale the points"
        )
    return rho


def _sum_shape(length: int):
    """The shape of numpy's pairwise summation of length values: 0 below 8
    (one by one), length // 8 up to 128 (that many blocks of eight partial
    sums, then the rest one by one), and above 128 the split point h with
    the shape of the second part (numpy sums [0, h) and [h, length) apart,
    h = length // 2 less its remainder mod 8). Runs of one shape differ
    in length only in their last 7 values, all of them added one by one."""
    if length < 8:
        return 0
    if length <= 128:
        return length // 8
    half = length // 2 - length // 2 % 8
    return half, _sum_shape(length - half)


def _row_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The sum of each run of values, the runs laid end to end with lengths
    counts; 0.0 for an empty run.

    Runs of one summation shape (_sum_shape) are gathered into one
    (rows, longest) block, each row copied whole from a sliding-window
    view of values rather than element by element through an index
    matrix, and summed along axis 1 by np.add.reduce. numpy sums each
    contiguous row with the same pairwise summation as a 1-D call, and a
    shorter run's trailing columns are set to -0.0, the one value whose
    addition leaves every float as it is, so every result equals np.sum
    of that run alone to the last bit, and dividing by the length gives
    np.mean. A group of one length needs no mask. Segmented
    sums (np.add.reduceat, a CSR matrix product) add left to right instead
    and differ in the last bits, which would break the bitwise ties
    ios_raw promises. tests/test_scores.py checks every length to 1,100
    against np.sum, so a numpy whose pairwise blocks differ fails there.
    """
    out = np.zeros(counts.size, dtype=np.float64)
    values = np.ascontiguousarray(values)
    step = values.itemsize
    ends = np.cumsum(counts)
    starts = ends - counts
    # the lengths of the runs that end within 7 values of the end: a group
    # stops at such a length, so that no window passes the end of values
    late, i = set(), counts.size
    while i and ends[i - 1] > values.size - 7:
        i -= 1
        late.add(int(counts[i]))
    order = np.argsort(counts, kind="stable")
    sorted_counts = counts[order]
    lengths, first = np.unique(sorted_counts, return_index=True)
    lengths = lengths.tolist()
    bounds = first.tolist() + [counts.size]
    g = 0
    while g < len(lengths):
        # one shape covers a range of lengths, so its group is contiguous
        shape, h = _sum_shape(lengths[g]), g + 1
        while (h < len(lengths) and lengths[h - 1] not in late
               and _sum_shape(lengths[h]) == shape):
            h += 1
        lo, hi, a, b = lengths[g], lengths[h - 1], bounds[g], bounds[h]
        g = h
        if hi == 0:
            continue
        rows = order[a:b]
        # the view sliding_window_view makes, built directly: that function
        # costs about 16 us a call, which many small groups add up to
        windows = np.ndarray(
            (values.size - hi + 1, hi), values.dtype, values, 0, (step, step)
        )
        for sl in row_chunks(rows.size, hi):
            r = rows[sl]
            block = windows[starts[r]]
            if lo < hi:
                # column j of a run shorter than j + 1 is padding
                block[:, lo:][sorted_counts[a:b][sl, None] <= np.arange(lo, hi)] = -0.0
            out[r] = np.add.reduce(block, axis=1)
    return out


def oos(dg: CatchDigraph, rho: np.ndarray) -> np.ndarray:
    """Outbound outlyingness: mean density over the points a ball covers,
    divided by the ball's own density. Empty balls score +inf.
    """
    ptr = dg.out_ptr
    counts = np.diff(ptr)
    sums = np.empty(dg.n, dtype=np.float64)
    for sl in row_blocks(ptr):
        # numpy gathers by int64 ids about three times as fast as by int32
        # ones, so each block widens its ids once
        ids = dg.out_ids[ptr[sl.start] : ptr[sl.stop]].astype(np.int64)
        sums[sl] = _row_sums(rho[ids], counts[sl])
    out = np.full(dg.n, np.inf)
    covered = counts > 0
    out[covered] = sums[covered] / counts[covered] / rho[covered]
    return out


def _same_cluster_sources(dg: CatchDigraph, cluster_of: np.ndarray):
    """Per block of rows by target: (rows, src, dst) of the edges into
    those rows that stay inside one cluster, ascending by target, then by
    source, the ids int64."""
    ptr = dg.in_ptr
    for sl in row_blocks(ptr):
        src = dg.in_ids[ptr[sl.start] : ptr[sl.stop]].astype(np.int64)
        dst = np.repeat(np.arange(sl.start, sl.stop), np.diff(ptr[sl.start : sl.stop + 1]))
        same = cluster_of[src] == cluster_of[dst]
        yield sl, src[same], dst[same]


def cumulative_influence(
    dg: CatchDigraph, cluster_of: np.ndarray, rho: np.ndarray
) -> np.ndarray:
    """Summed density of the same-cluster points whose balls reach each point."""
    out = np.empty(dg.n, dtype=np.float64)
    for sl, src, dst in _same_cluster_sources(dg, cluster_of):
        counts = np.bincount(dst - sl.start, minlength=sl.stop - sl.start)
        out[sl] = _row_sums(rho[src], counts)
    return out


def ios_raw(dg: CatchDigraph, cluster_of: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Inbound outlyingness before standardization: 1 / (influence + own density).

    The denominator sums over the in-neighborhood plus the point itself in
    ascending id order, so points whose balls all cover one another get
    bitwise-identical values, not merely equal-up-to-rounding ones; the
    tie-break pass depends on that.
    """
    n = dg.n
    out = np.empty(n, dtype=np.float64)
    for sl, src, dst in _same_cluster_sources(dg, cluster_of):
        own = np.arange(sl.start, sl.stop)
        # the keys ascend already, so each point's own key only needs merging in
        pos = np.searchsorted(dst * n + src, own * (n + 1))
        counts = np.bincount(dst - sl.start, minlength=own.size) + 1
        out[sl] = 1.0 / _row_sums(np.insert(rho[src], pos, rho[sl]), counts)
    return out


def _cluster_medians(cluster_of: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """np.median of vals over each cluster, indexed by cluster id, from one
    sort: the middle value, or (lo + hi) / 2 of the middle two as np.median
    computes it, so the two agree to the last bit."""
    s = vals[np.lexsort((vals, cluster_of))]
    sizes = np.bincount(cluster_of)
    starts = np.cumsum(sizes) - sizes
    lo, hi = s[starts + (sizes - 1) // 2], s[starts + sizes // 2]
    return np.where(sizes % 2 == 1, lo, (lo + hi) / 2)


def standardize_ios(cluster_of: np.ndarray, ios: np.ndarray) -> np.ndarray:
    """Center each cluster's values at the median and scale by MADN.

    A cluster with zero MADN (most of its members tie at the median)
    keeps the robust z-score (x - median) / MADN as it stands: members at
    the median get 0, members above it +inf and members below it -inf, so
    a raw value that stands clear of a tied majority stays clear of it.
    Singletons and fully tied clusters map to 0 throughout.
    """
    med = _cluster_medians(cluster_of, ios)[cluster_of]
    madn = _cluster_medians(cluster_of, np.abs(ios - med))[cluster_of] / MADN_CONSTANT
    out = np.where(ios > med, np.inf, np.where(ios < med, -np.inf, 0.0))
    return np.divide(ios - med, madn, out=out, where=madn > 0)


def standardize_naive(cluster_of: np.ndarray, ios: np.ndarray) -> np.ndarray:
    """Mean/SD standardization per cluster. Comparison output only; the
    robust variant above is what flagging uses.
    """
    # each cluster's values in ascending id order, as np.mean would see them
    vals = ios[np.argsort(cluster_of, kind="stable")]
    sizes = np.bincount(cluster_of)
    # np.mean and np.std take these steps: the sum over the size, then the
    # root of the summed squared deviations over the size
    mean = _row_sums(vals, sizes) / sizes
    dev = vals - np.repeat(mean, sizes)
    sd = np.sqrt(_row_sums(dev * dev, sizes) / sizes)
    return (ios - mean[cluster_of]) / np.where(sd > 0, sd, 1.0)[cluster_of]


def break_ties(cluster_of: np.ndarray, ios_std: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Separate exactly tied standardized values inside each cluster.

    A run of m >= 2 equal values is spread between its neighboring
    distinct values: each member moves from the upper bracket toward the
    lower one in proportion to its share of the group's density, so denser
    points land lower. Runs at the extremes reuse their own value as the
    missing bracket, and so does a finite run whose neighboring value is
    +inf or -inf (from a zero-MADN cluster): an infinite bracket counts as
    missing. Runs of +inf or -inf stay where they are, as do values with no
    exact duplicate, so a NaN-free input gives a NaN-free result.
    """
    n = cluster_of.size
    # by cluster, then value, then id: a run of equal values in one cluster
    # is contiguous, with its members in ascending id order
    ids = np.lexsort((np.arange(n), ios_std, cluster_of))
    vals, cs = ios_std[ids], cluster_of[ids]
    starts = np.flatnonzero(np.append(True, (vals[1:] != vals[:-1]) | (cs[1:] != cs[:-1])))
    counts = np.diff(np.append(starts, n))
    run_val = vals[starts]
    # the brackets of a run are the neighboring runs of its own cluster
    same = cs[starts[1:]] == cs[starts[:-1]]
    lo = np.append(run_val[0], np.where(same, run_val[:-1], run_val[1:]))
    hi = np.append(np.where(same, run_val[1:], run_val[:-1]), run_val[-1])
    lo = np.where(np.isinf(lo), run_val, lo)
    hi = np.where(np.isinf(hi), run_val, hi)
    # only finite tied runs move, so no arithmetic touches an infinite value
    t = (counts >= 2) & np.isfinite(run_val)
    m = counts[t]
    moved = ids[np.repeat(starts[t] - np.cumsum(m) + m, m) + np.arange(m.sum())]
    weights = rho[moved] / np.repeat(_row_sums(rho[moved], m), m)
    out = ios_std.copy()
    out[moved] = np.repeat(hi[t], m) - np.repeat(hi[t] - lo[t], m) * weights
    return out


# Calibrated score cutoffs, one per (score, radius family, cluster shape,
# dimension). Lookups snap to the nearest tabulated dimension, preferring
# the smaller one on ties; the mixed shape averages the other two.
TABULATED_DIMS = (2, 3, 5, 10, 20, 50, 100)
CLUSTER_SHAPES = ("uniform", "gaussian", "mixed")
SCORE_KINDS = ("oos", "ios")

THRESHOLDS: dict[tuple[str, str, str], dict[int, float]] = {
    ("oos", "rk", "uniform"): {2: 6, 3: 6.5, 5: 5, 10: 4, 20: 4, 50: 14, 100: 13},
    ("oos", "un", "uniform"): {2: 4, 3: 4, 5: 4, 10: 3, 20: 3, 50: 5, 100: 13},
    ("ios", "rk", "uniform"): {2: 4.5, 3: 4, 5: 4.5, 10: 5, 20: 4.5, 50: 6, 100: 7},
    ("ios", "un", "uniform"): {2: 6, 3: 4.5, 5: 4, 10: 3.5, 20: 4.5, 50: 3.5, 100: 6},
    ("oos", "rk", "gaussian"): {2: 6, 3: 5.5, 5: 4.5, 10: 3.5, 20: 3.5, 50: 6.5, 100: 10},
    ("oos", "un", "gaussian"): {2: 5.5, 3: 4.5, 5: 4, 10: 3.5, 20: 3, 50: 3, 100: 2.5},
    ("ios", "rk", "gaussian"): {2: 35, 3: 17, 5: 13, 10: 6.5, 20: 2.5, 50: 2.5, 100: 2.5},
    ("ios", "un", "gaussian"): {2: 35, 3: 17, 5: 13, 10: 6.5, 20: 6, 50: 2.5, 100: 2.5},
}

# The fixed-k strategy builds balls from plain neighbor distances, which
# behaves like the un family, so it borrows that column.
_DIGRAPH_FAMILY = {RK_APPROX: "rk", UN_APPROX: "un", FIXED_K: "un"}


def nearest_tabulated_dim(d: int) -> int:
    best = TABULATED_DIMS[0]
    for cand in TABULATED_DIMS:
        if abs(cand - d) < abs(best - d):
            best = cand
    return best


def default_threshold(
    score_kind: str,
    digraph_kind: str,
    cluster_shape: str,
    d: int,
) -> float:
    """Cutoff for flagging, resolved from the calibration tables."""
    if score_kind not in SCORE_KINDS:
        raise ConfigError(f"unknown score kind {score_kind!r}")
    family = _DIGRAPH_FAMILY.get(digraph_kind)
    if family is None:
        raise ConfigError(f"unknown digraph kind {digraph_kind!r}")
    if cluster_shape not in CLUSTER_SHAPES:
        raise ConfigError(f"unknown cluster shape {cluster_shape!r}")
    dt = nearest_tabulated_dim(d)
    if cluster_shape == "mixed":
        u = THRESHOLDS[(score_kind, family, "uniform")][dt]
        g = THRESHOLDS[(score_kind, family, "gaussian")][dt]
        return (u + g) / 2.0
    return float(THRESHOLDS[(score_kind, family, cluster_shape)][dt])


def check_s_min(s_min: float) -> None:
    """Raise ConfigError unless s_min is a cluster share in [0, 1]."""
    if not 0.0 <= s_min <= 1.0:
        raise ConfigError(f"s_min must lie in [0, 1], got {s_min}")


def flag_outliers(scores: np.ndarray, threshold: float) -> np.ndarray:
    """Boolean flags: score above threshold."""
    return scores > threshold


def small_cluster_flags(cluster_of: np.ndarray, s_min: float) -> np.ndarray:
    """Members of the clusters whose share of the points falls below s_min:
    the inbound score's second flag, as tiny colluding clusters hide."""
    return (np.bincount(cluster_of) / cluster_of.size < s_min)[cluster_of]


def descending_ranks(scores: np.ndarray) -> np.ndarray:
    """Ranks 1..n by descending score, ties to the smaller id."""
    order = np.lexsort((np.arange(scores.size), -scores))
    ranks = np.empty(scores.size, dtype=np.int64)
    ranks[order] = np.arange(1, scores.size + 1)
    return ranks


# The report writers format each value once: a column's column_text
# serves scores.csv and, with its non-finite tokens quoted, scores.json;
# the cover rows take their ids from one table of the n id texts.

REPORT_COLUMNS = [
    "id",
    "cluster",
    "rho",
    "oos",
    "ios_raw",
    "ios_std",
    "oos_rank",
    "ios_rank",
    "oos_flag",
    "ios_flag",
    "score",
    "flag",
    "rank",
]


def column_text(a: np.ndarray) -> list[str]:
    """The text of each value of a, in scores.csv and scores.json alike:
    repr of a float, str of an int or a bool as an int64, so flags read 0
    and 1."""
    a = np.asarray(a)
    if a.dtype.kind == "f":
        return list(map(repr, a.astype(np.float64, copy=False).tolist()))
    return list(map(str, a.astype(np.int64, copy=False).tolist()))


def write_report_csv(path, **columns) -> None:
    """Write a scores.csv: the REPORT_COLUMNS header, then one line per
    point from the text of the columns named; a column not named is left
    empty, and id is required. Each cell is an int's str, a float's repr
    or empty, none of which CSV quotes, so the lines are those of
    csv.writer without its per-cell scan."""
    if "id" not in columns:
        raise ValueError("a report needs its id column")
    cells = [columns.pop(name, repeat("")) for name in REPORT_COLUMNS]
    if columns:
        raise ValueError(f"not report columns: {sorted(columns)}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(REPORT_COLUMNS) + "\r\n")
        fh.writelines(",".join(row) + "\r\n" for row in zip(*cells))


class JsonText:
    """A JSON list whose items are JSON text already. iter_json lays it out
    as it lays out any list; json.dumps does not take it."""

    __slots__ = ("items",)

    def __init__(self, items: list[str]):
        self.items = items


# repr's non-finite tokens as the JSON strings that keep a file strict JSON
JSON_NONFINITE = {"inf": '"inf"', "-inf": '"-inf"', "nan": '"nan"'}


def json_column(a: np.ndarray, text: list[str]) -> JsonText:
    """The values of a as a JSON list, from their column_text: an int's
    text as it is, a float's inf, -inf and nan as the strings "inf",
    "-inf" and "nan"."""
    bad = np.flatnonzero(~np.isfinite(a)).tolist()
    if bad:
        text = text.copy()
        for i in bad:
            text[i] = JSON_NONFINITE[text[i]]
    return JsonText(text)


def cover_rows(dg: CatchDigraph) -> list[JsonText]:
    """Each point's out-neighbors as a JSON list, from one table of the n
    id texts, so each id is formatted once however many balls cover it."""
    ids = np.array(list(map(str, range(dg.n))), dtype=object)[dg.out_ids].tolist()
    ptr = dg.out_ptr.tolist()
    return [JsonText(ids[a:b]) for a, b in zip(ptr[:-1], ptr[1:])]


def write_baseline_report(prefix: str, method: str, scores, flags, ranks) -> None:
    """The scores.csv and scores.json of a LOF or ODIN run."""
    columns = {"score": np.asarray(scores, dtype=np.float64), "flag": flags, "rank": ranks}
    text = {name: column_text(a) for name, a in columns.items()}
    write_report_csv(f"{prefix}.scores.csv", id=map(str, range(len(scores))), **text)
    dump_json(
        {
            "n": len(scores),
            "method": method,
            "points": {name: json_column(a, text[name]) for name, a in columns.items()},
        },
        f"{prefix}.scores.json",
    )


# The names of each score kind's (score, flag, rank) columns in a
# ScoreReport, so that a reader computes only the ranks it reads.
_KIND_COLUMNS = {"oos": ("oos", "oos_flag", "oos_rank"),
                 "ios": ("ios_std", "ios_flag", "ios_rank")}


@dataclass
class ScoreReport:
    """Everything the scoring pipeline produced for one point set."""

    rho: np.ndarray
    oos: np.ndarray
    ios_raw: np.ndarray
    ios_std: np.ndarray
    cluster_of: np.ndarray
    oos_flag: np.ndarray
    ios_flag: np.ndarray
    oos_threshold: float
    ios_threshold: float
    s_min: float
    params: dict
    digraph: CatchDigraph = field(repr=False)
    # column_text of each column written so far, keyed by the column's
    # dtype and bytes: scores.csv and scores.json share it, a column
    # changed since can never meet a stale text, and an all-zero int
    # column never meets the text of an all-zero float one
    _text: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.rho.shape[0]

    # The comparison column and the ranks are read only by the writers, so
    # each is computed from the report's own columns on first read.

    @functools.cached_property
    def ios_std_naive(self) -> np.ndarray:
        return standardize_naive(self.cluster_of, self.ios_raw)

    @functools.cached_property
    def oos_rank(self) -> np.ndarray:
        return descending_ranks(self.oos)

    @functools.cached_property
    def ios_rank(self) -> np.ndarray:
        return descending_ranks(self.ios_std)

    def flags_for(self, score_kind: str) -> np.ndarray:
        return getattr(self, _KIND_COLUMNS[score_kind][1])

    def _column_text(self, a: np.ndarray) -> list[str]:
        key = (a.dtype.str, a.tobytes())
        text = self._text.get(key)
        if text is None:
            text = self._text[key] = column_text(a)
        return text

    def _json_column(self, a: np.ndarray) -> JsonText:
        return json_column(a, self._column_text(a))

    def write_csv(self, path, method: str = "ios") -> None:
        score, flag, rank = (getattr(self, name) for name in _KIND_COLUMNS[method])
        text = self._column_text
        write_report_csv(
            path,
            id=map(str, range(self.n)),
            cluster=text(self.cluster_of),
            rho=text(self.rho),
            oos=text(self.oos),
            ios_raw=text(self.ios_raw),
            ios_std=text(self.ios_std),
            oos_rank=text(self.oos_rank),
            ios_rank=text(self.ios_rank),
            oos_flag=text(self.oos_flag),
            ios_flag=text(self.ios_flag),
            score=text(score),
            flag=text(flag),
            rank=text(rank),
        )

    def _json_doc(self, method: str) -> dict:
        """The scores.json document for iter_json, every column and cover
        row as JsonText."""
        column = self._json_column
        return {
            "n": self.n,
            "method": method,
            "thresholds": {"oos": self.oos_threshold, "ios": self.ios_threshold},
            "s_min": self.s_min,
            "params": self.params,
            "cluster_sizes": column(np.bincount(self.cluster_of)),
            "digraph": {
                "radii": column(self.digraph.radii),
                "covers": cover_rows(self.digraph),
            },
            "points": {
                "cluster": column(self.cluster_of),
                "rho": column(self.rho),
                "oos": column(self.oos),
                "ios_raw": column(self.ios_raw),
                "ios_std": column(self.ios_std),
                "ios_std_naive": column(self.ios_std_naive),
                "oos_flag": column(self.oos_flag),
                "ios_flag": column(self.ios_flag),
                "oos_rank": column(self.oos_rank),
                "ios_rank": column(self.ios_rank),
            },
        }

    def write_json(self, path, method: str = "ios") -> None:
        dump_json(self._json_doc(method), path)


# iter_json gives the bytes of json.dumps(indent=2) without its per-token
# Python encoder: each scalar goes through the C encoder, which refuses a
# non-finite float, so every file written stays strict JSON, and each
# JsonText's items are joined with the separator that carries the newline
# and the indent.
_encode_scalar = json.JSONEncoder(allow_nan=False).encode


def iter_json(obj, indent: str = ""):
    """Yield the text of json.dumps(obj, indent=2) in pieces, a JsonText
    taken as the list its items encode and a non-finite float (numpy
    float64 too) as its JSON_NONFINITE text.

    Dicts, lists and tuples recurse down to their scalars. Dict keys must
    be str: json.dumps turns an int, float, bool or None key into a string,
    which this writer does not, so such a key raises TypeError.
    """
    pad = "\n" + indent + "  "
    if isinstance(obj, JsonText):
        items = obj.items
        yield ("[" + pad + ("," + pad).join(items) + "\n" + indent + "]") if items else "[]"
    elif not isinstance(obj, (dict, list, tuple)):
        try:
            yield _encode_scalar(obj)
        except ValueError:  # a non-finite float
            yield JSON_NONFINITE[repr(float(obj))]
    elif not obj:
        yield "{}" if isinstance(obj, dict) else "[]"
    elif isinstance(obj, dict):
        sep = "{" + pad
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
            yield sep + _encode_scalar(key) + ": "
            yield from iter_json(value, indent + "  ")
            sep = "," + pad
        yield "\n" + indent + "}"
    else:
        sep = "[" + pad
        for item in obj:
            yield sep
            yield from iter_json(item, indent + "  ")
            sep = "," + pad
        yield "\n" + indent + "]"


def dump_json(doc, path) -> None:
    """Write doc as iter_json lays it out, plus a newline, piece by piece,
    so the document is never held as one string."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(iter_json(doc))
        fh.write("\n")


def score_families(
    ps: PointSet,
    strategies: list[RadiusStrategy],
    *,
    cluster_shape: str = "uniform",
    threshold: float | None = None,
    s_min: float = 0.0,
    idx: NeighborIndex | None = None,
) -> list[ScoreReport]:
    """Run the whole scoring pipeline on one point set under each radius
    strategy: one report per strategy, from one pass over the disjoint
    union of their catch digraphs, where vertex f * n + i is point i under
    strategies[f].

    Radii, digraph, clustering, both scores, standardization with tie
    separation, threshold resolution, and flags. No edge, cluster or tie
    run crosses two families, so each stage runs once over the union, and
    each report takes its family's slice of the columns, its own digraph
    block and its cluster ids shifted back to start at 0; a lone family's
    report takes the union's digraph and cluster_of as they are.
    threshold, when given, is the cutoff of both scores in place of the
    tabulated ones; it may be infinite but not NaN. idx, when given, is a
    neighbor index over this very ps that other callers share; its tables
    serve the radii and the digraph. Otherwise one is built.
    """
    if threshold is not None and np.isnan(threshold):
        raise ConfigError("threshold must be a number, not NaN")
    check_s_min(s_min)
    if not strategies:
        raise ConfigError("score_families needs at least one radius strategy")
    idx = index_over(ps, idx)
    radii = np.concatenate([estimate_radii(idx, s) for s in strategies])
    dg = build_catch_digraph(idx, radii)
    cluster_of = cluster_digraph(dg, idx).cluster_of
    rho = vicinity_density(dg)
    oos_scores = oos(dg, rho)
    ios_scores = ios_raw(dg, cluster_of, rho)
    ios_std = break_ties(cluster_of, standardize_ios(cluster_of, ios_scores), rho)
    n = ps.n
    reports = []
    for f, strategy in enumerate(strategies):
        sl = slice(f * n, (f + 1) * n)
        cluster_f = cluster_of if dg.families == 1 else cluster_of[sl] - cluster_of[sl].min()
        thr_oos, thr_ios = (
            default_threshold(kind, strategy.kind, cluster_shape, ps.d)
            if threshold is None else float(threshold)
            for kind in ("oos", "ios")
        )
        reports.append(ScoreReport(
            rho=rho[sl],
            oos=oos_scores[sl],
            ios_raw=ios_scores[sl],
            ios_std=ios_std[sl],
            cluster_of=cluster_f,
            oos_flag=flag_outliers(oos_scores[sl], thr_oos),
            ios_flag=(flag_outliers(ios_std[sl], thr_ios)
                      | small_cluster_flags(cluster_f, s_min)),
            oos_threshold=thr_oos,
            ios_threshold=thr_ios,
            s_min=s_min,
            params={
                "strategy": strategy.kind,
                "k": strategy.k,
                "density_mode": RATIO_ROOT,
                "cluster_shape": cluster_shape,
                "attach_factor": ATTACH_FACTOR,
            },
            digraph=dg.family(f),
        ))
    return reports


def score_point_set(
    ps: PointSet,
    strategy: RadiusStrategy | None = None,
    *,
    cluster_shape: str = "uniform",
    threshold: float | None = None,
    s_min: float = 0.0,
    idx: NeighborIndex | None = None,
) -> ScoreReport:
    """The report of ps under one radius strategy, fixed-k when none is
    given: score_families with that strategy alone, which the reports of
    any union holding it equal bit for bit."""
    return score_families(ps, [strategy or fixed_k()], cluster_shape=cluster_shape,
                          threshold=threshold, s_min=s_min, idx=idx)[0]
