"""Synthetic data: clustered inliers, planted outliers, and a fixed
two-dimensional scenario exercising the known failure modes.

All randomness flows through Philox counter streams keyed on the config
seed plus a stream id, so every artifact is reproducible bit for bit and
independent draws never share a stream.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.spatial import cKDTree

from .dataset import PointSet
from .errors import ConfigError, check_int

# The cluster shape each regime draws: it sets the outlier separation
# scale here and the threshold table in the bench.
CLUSTER_SHAPE_OF = {"uniform": "uniform", "gaussian": "gaussian", "matern": "uniform",
                    "thomas": "gaussian", "mixed": "mixed"}
REGIMES = tuple(CLUSTER_SHAPE_OF)

# Stream ids, one per independent purpose.
_S_CENTERS = 0
_S_POINTS = 1
_S_PARENTS = 2
_S_OFFSPRING = 3
_S_OUTLIERS = 4
_S_COLLECTIVE = 5
_S_FIXTURE = 6

_CENTER_ATTEMPTS = 1000
_CENTER_RESTARTS = 10
_OUTLIER_ATTEMPTS = 10000
_DOMAIN_PAD = 0.1  # unit domain grows by this much per side for outliers


@dataclass(frozen=True)
class SimConfig:
    """One synthetic scenario.

    n is the total point budget; the planted outliers (round(
    outlier_fraction * n), plus collective_group members when set) come
    out of it, the rest are inliers. parent_intensity is at most max(n, 5),
    since the parent array and loop grow with its Poisson draw.
    """

    regime: str
    d: int
    n: int
    seed: int = 0
    n_clusters: int = 3
    parent_intensity: float = 5.0
    cluster_radius: float = 0.15
    gaussian_scale: float = 0.06
    correlation: float = 0.0
    outlier_fraction: float = 0.0
    outlier_min_separation: float = 2.0
    collective_group: int = 0

    def __post_init__(self):
        for name, minimum in (("d", 1), ("n", 2), ("n_clusters", 1),
                              ("collective_group", 0), ("seed", 0)):
            check_int(getattr(self, name), name, minimum)
        for name in ("parent_intensity", "cluster_radius", "gaussian_scale",
                     "correlation", "outlier_fraction", "outlier_min_separation"):
            value = getattr(self, name)  # NaN passes the range tests below
            try:
                ok = not isinstance(value, bool) and math.isfinite(value)
            except (TypeError, OverflowError):
                ok = False
            if not ok:
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        if self.regime not in REGIMES:
            raise ConfigError(
                f"regime must be one of {REGIMES}, got {self.regime!r}"
            )
        if not 0 < self.parent_intensity <= max(self.n, 5):  # 5, the default, fits any n
            raise ConfigError("parent_intensity must be in (0, max(n, 5)], got "
                              f"{self.parent_intensity}")
        if self.cluster_radius <= 0 or self.gaussian_scale <= 0:
            raise ConfigError("cluster extents must be positive")
        if not 0 <= self.correlation < 1:
            raise ConfigError("correlation must be in [0, 1)")
        if not 0 <= self.outlier_fraction <= 0.5:
            raise ConfigError("outlier_fraction must be in [0, 0.5]")
        if self.outlier_min_separation < 0:
            raise ConfigError("outlier_min_separation must be >= 0")
        if self.outlier_fraction > 0 and round(self.outlier_fraction * self.n) < 1:
            raise ConfigError(
                "outlier_fraction * n rounds to zero; raise one of them"
            )

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(raw: dict) -> "SimConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"a config must be a JSON object, got {raw!r}")
        known = set(SimConfig.__dataclass_fields__)
        extra = set(raw) - known
        if extra:
            raise ConfigError(f"unknown config key(s): {sorted(extra)}")
        missing = {"regime", "d", "n"} - set(raw)
        if missing:
            raise ConfigError(f"missing config key(s): {sorted(missing)}")
        try:
            return SimConfig(**raw)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, stream])))


def planned_outliers(cfg: SimConfig) -> int:
    return int(round(cfg.outlier_fraction * cfg.n)) + cfg.collective_group


def cluster_scale(cfg: SimConfig) -> float:
    """Linear extent of one cluster, used to calibrate outlier separation."""
    shape = CLUSTER_SHAPE_OF[cfg.regime]
    if shape == "uniform":
        return cfg.cluster_radius
    if shape == "gaussian":
        return 3.0 * cfg.gaussian_scale
    return max(cfg.cluster_radius, 3.0 * cfg.gaussian_scale)


def _uniform_ball(rng: np.random.Generator, count: int, d: int, radius: float):
    z = rng.standard_normal((count, d))
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    r = radius * rng.random(count) ** (1.0 / d)
    return z / norms * r[:, None]


def _correlated_gaussian(
    rng: np.random.Generator, count: int, d: int, scale: float, corr: float
):
    # Constant off-diagonal correlation: shared scalar component plus an
    # independent one reproduces cov = scale^2 * ((1-corr) I + corr J).
    z = rng.standard_normal((count, d))
    shared = rng.standard_normal((count, 1))
    with np.errstate(over="ignore"):  # _inlier_set reports an overflow
        return scale * (math.sqrt(1.0 - corr) * z + math.sqrt(corr) * shared)


def _pick_centers(
    rng: np.random.Generator, count: int, d: int, extent: float
) -> np.ndarray:
    """count centers in the box, pairwise at least 2.5 extents apart.

    Centers are placed greedily from random candidates. Early centers can
    block the box for the rest, so once _CENTER_ATTEMPTS candidates are
    spent the set starts again empty, drawing on from the same rng, up to
    _CENTER_RESTARTS times; the first round alone is the greedy loop.
    """
    margin = min(extent, 0.4)
    min_sep = 2.5 * extent
    for _ in range(_CENTER_RESTARTS):
        centers: list[np.ndarray] = []
        for _ in range(_CENTER_ATTEMPTS):
            cand = rng.uniform(margin, 1.0 - margin, size=d)
            if all(np.linalg.norm(cand - c) >= min_sep for c in centers):
                centers.append(cand)
                if len(centers) == count:
                    return np.asarray(centers)
    raise ConfigError(
        f"could not place {count} cluster centers at separation {min_sep:.3g}; "
        "reduce n_clusters or the cluster extent"
    )


def _inlier_set(cfg: SimConfig, chunks: list[np.ndarray]) -> PointSet:
    """The drawn inlier chunks as one PointSet, labels 0; ConfigError when
    a gaussian_scale near the largest float overflowed a coordinate."""
    points = np.vstack(chunks)
    if not np.isfinite(points).all():
        raise ConfigError("gaussian_scale must keep every drawn coordinate finite, "
                          f"got {cfg.gaussian_scale!r}")
    return PointSet(points=points, labels=np.zeros(len(points), dtype=np.int64))


def _split_counts(total: int, parts: int) -> list[int]:
    base, rem = divmod(total, parts)
    return [base + (1 if i < rem else 0) for i in range(parts)]


def gen_clusters(cfg: SimConfig) -> PointSet:
    """Inliers in well-separated uniform-ball or correlated-normal clusters."""
    if cfg.regime not in ("uniform", "gaussian"):
        raise ConfigError(f"gen_clusters does not handle regime {cfg.regime!r}")
    n_in = cfg.n - planned_outliers(cfg)
    if n_in < cfg.n_clusters:
        raise ConfigError("not enough points left for the requested clusters")
    extent = cluster_scale(cfg)
    centers = _pick_centers(_rng(cfg.seed, _S_CENTERS), cfg.n_clusters, cfg.d, extent)
    rng = _rng(cfg.seed, _S_POINTS)
    chunks = []
    for center, count in zip(centers, _split_counts(n_in, cfg.n_clusters)):
        if cfg.regime == "uniform":
            offsets = _uniform_ball(rng, count, cfg.d, cfg.cluster_radius)
        else:
            offsets = _correlated_gaussian(
                rng, count, cfg.d, cfg.gaussian_scale, cfg.correlation
            )
        chunks.append(center + offsets)
    return _inlier_set(cfg, chunks)


def gen_neyman_scott(cfg: SimConfig, return_parts: bool = False):
    """Clustered point process: Poisson parents in the unit cube, Poisson
    offspring counts, offspring scattered uniformly in a ball (matern),
    isotropic normal (thomas), or a fair per-parent mix of the two.
    """
    if cfg.regime not in ("matern", "thomas", "mixed"):
        raise ConfigError(f"gen_neyman_scott does not handle regime {cfg.regime!r}")
    n_in = cfg.n - planned_outliers(cfg)
    if n_in < 1:
        raise ConfigError("no points left after reserving outliers")
    parent_rng = _rng(cfg.seed, _S_PARENTS)
    rng = _rng(cfg.seed, _S_OFFSPRING)
    for _ in range(100):
        m = int(parent_rng.poisson(cfg.parent_intensity))
        if m == 0:
            continue
        parents = parent_rng.uniform(0.0, 1.0, size=(m, cfg.d))
        counts = rng.poisson(n_in / m, size=m)
        if counts.sum() == 0:
            continue
        if cfg.regime == "matern":
            kinds = np.zeros(m, dtype=np.int64)
        elif cfg.regime == "thomas":
            kinds = np.ones(m, dtype=np.int64)
        else:
            kinds = (rng.random(m) < 0.5).astype(np.int64)  # 0 matern, 1 thomas
        chunks = []
        for j in range(m):
            if counts[j] == 0:
                continue
            if kinds[j] == 0:
                offsets = _uniform_ball(rng, counts[j], cfg.d, cfg.cluster_radius)
            else:
                with np.errstate(over="ignore"):  # _inlier_set reports an overflow
                    offsets = cfg.gaussian_scale * rng.standard_normal((counts[j], cfg.d))
            chunks.append(parents[j] + offsets)
        ps = _inlier_set(cfg, chunks)
        if return_parts:
            return ps, parents, kinds, counts
        return ps
    raise ConfigError("process produced no points after 100 attempts")


# Candidates drawn and tested per k-d tree query when placing the singles.
_OUTLIER_BATCH = 64
# The tree and np.linalg.norm add the same squares in different orders, a
# few ulps apart; a tree distance further than this (relative) from the
# separation decides alone.
_TREE_MARGIN = 1e-9


def _place_singles(
    rng: np.random.Generator,
    points: np.ndarray,
    count: int,
    min_dist: float,
    lo: float,
    hi: float,
) -> list[np.ndarray]:
    """The first count candidates of rng's uniform stream over [lo, hi)^d
    at least min_dist from every point, by np.linalg.norm; ConfigError
    after _OUTLIER_ATTEMPTS misses in a row, or on a tree distance that
    overflows (from about 1e154), since inf would pass any separation.

    Candidates come _OUTLIER_BATCH at a time (one draw of shape (m, d)
    reads the stream as m draws of d values), and one k-d tree query finds
    each one's nearest point; only a tree distance within _TREE_MARGIN of
    min_dist takes the norm. A batch is drawn ahead and the stream then
    replayed up to the last candidate taken, so rng is left where drawing
    one candidate at a time leaves it.
    """
    placed: list[np.ndarray] = []
    if count == 0:
        return placed
    tree = cKDTree(points)
    d = points.shape[1]
    misses = 0
    while True:
        state = rng.bit_generator.state
        cands = rng.uniform(lo, hi, size=(_OUTLIER_BATCH, d))
        near = tree.query(cands)[0]
        ok = near > min_dist * (1.0 + _TREE_MARGIN)
        for i in np.flatnonzero(~ok & (near >= min_dist * (1.0 - _TREE_MARGIN))).tolist():
            ok[i] = np.min(np.linalg.norm(points - cands[i], axis=1)) >= min_dist
        for used, (cand, hit, gap) in enumerate(zip(cands, ok.tolist(), near.tolist()), 1):
            if not math.isfinite(gap):
                raise ConfigError("outlier distances to the inliers overflow float64; "
                                  "lower gaussian_scale")
            if hit:
                placed.append(cand)
                if len(placed) == count:
                    rng.bit_generator.state = state
                    rng.uniform(lo, hi, size=(used, d))
                    return placed
                misses = 0
            else:
                misses += 1
                if misses == _OUTLIER_ATTEMPTS:
                    raise ConfigError(
                        "could not place an outlier at the requested separation; "
                        "lower outlier_min_separation or the cluster extent"
                    )


def inject_outliers(ps: PointSet, cfg: SimConfig) -> PointSet:
    """Append planted outliers to an inlier set.

    Solitary outliers land uniformly in the padded domain, each at least
    outlier_min_separation cluster scales away from every inlier. A
    collective group adds collective_group points packed into a small ball
    placed under the same separation rule.
    """
    n_single = int(round(cfg.outlier_fraction * cfg.n))
    g = cfg.collective_group
    if n_single == 0 and g == 0:
        return ps
    scale = cluster_scale(cfg)
    sep = cfg.outlier_min_separation * scale
    lo, hi = -_DOMAIN_PAD, 1.0 + _DOMAIN_PAD

    rng = _rng(cfg.seed, _S_OUTLIERS)
    new_points = _place_singles(rng, ps.points, n_single, sep, lo, hi)
    if g > 0:
        group_rng = _rng(cfg.seed, _S_COLLECTIVE)
        group_radius = 0.25 * scale
        center = _place_singles(group_rng, ps.points, 1, sep + group_radius, lo, hi)[0]
        new_points.extend(
            center + _uniform_ball(group_rng, g, cfg.d, group_radius)
        )

    points = np.vstack([ps.points, np.asarray(new_points)])
    old_labels = (
        ps.labels if ps.labels is not None else np.zeros(ps.n, dtype=np.int64)
    )
    labels = np.concatenate(
        [old_labels, np.ones(len(new_points), dtype=np.int64)]
    )
    return PointSet(points=points, labels=labels, feature_names=ps.feature_names)


def generate(cfg: SimConfig) -> PointSet:
    """Full scenario: inliers for the regime, then planted outliers."""
    if cfg.regime in ("uniform", "gaussian"):
        inliers = gen_clusters(cfg)
    else:
        inliers = gen_neyman_scott(cfg)
    return inject_outliers(inliers, cfg)


@dataclass(frozen=True)
class MaskingFixture:
    """Hand-built 2-d scenario with the structures that trip detectors up.

    Two uniform disks of different density, one correlated normal cluster,
    a four-point collective group, and five solitary outliers. Two of the
    singles sit at the same Euclidean distance from the normal cluster's
    center, one along its long axis and one off it, so Euclidean symmetry
    hides what the cluster covariance reveals.
    """

    ps: PointSet
    roles: list[str]
    gaussian_center: np.ndarray
    gaussian_cov: np.ndarray
    threshold_shape: str = "uniform"

    def ids_of(self, role: str) -> np.ndarray:
        return np.flatnonzero(np.asarray(self.roles) == role)


_FIX_C1_N, _FIX_C2_N, _FIX_C3_N = 60, 80, 50
_FIX_C1_CENTER = (0.25, 0.70)
_FIX_C1_RADIUS = 0.18
_FIX_C2_CENTER = (0.75, 0.75)
_FIX_C2_RADIUS = 0.12
_FIX_C3_CENTER = (0.65, 0.25)
_FIX_C3_SCALE = 0.05
_FIX_C3_CORR = 0.5
_FIX_AXIS_DIST = 0.245  # how far the axis pair sits from the normal center
_FIX_GROUP_CENTER = (0.06, 0.97)
_FIX_GROUP_RADIUS = 0.012
_FIX_SINGLES = {
    "o5": (0.25, 0.42),
    "o6": (0.02, 0.44),
    "o9": (0.93, 0.82),
}


def masking_fixture(seed: int = 0) -> MaskingFixture:
    check_int(seed, "seed", 0)
    rng = _rng(seed, _S_FIXTURE)
    c1 = np.asarray(_FIX_C1_CENTER) + _uniform_ball(
        rng, _FIX_C1_N, 2, _FIX_C1_RADIUS
    )
    c2 = np.asarray(_FIX_C2_CENTER) + _uniform_ball(
        rng, _FIX_C2_N, 2, _FIX_C2_RADIUS
    )
    c3_center = np.asarray(_FIX_C3_CENTER)
    c3 = c3_center + _correlated_gaussian(
        rng, _FIX_C3_N, 2, _FIX_C3_SCALE, _FIX_C3_CORR
    )
    group = np.asarray(_FIX_GROUP_CENTER) + _uniform_ball(
        rng, 4, 2, _FIX_GROUP_RADIUS
    )
    major = np.asarray([1.0, 1.0]) / math.sqrt(2.0)
    minor = np.asarray([-1.0, 1.0]) / math.sqrt(2.0)
    on_axis = c3_center + _FIX_AXIS_DIST * major   # o8
    off_axis = c3_center + _FIX_AXIS_DIST * minor  # o7
    singles = np.asarray(
        [_FIX_SINGLES["o5"], _FIX_SINGLES["o6"], off_axis, on_axis, _FIX_SINGLES["o9"]]
    )
    points = np.vstack([c1, c2, c3, group, singles])
    labels = np.concatenate(
        [np.zeros(_FIX_C1_N + _FIX_C2_N + _FIX_C3_N, dtype=np.int64),
         np.ones(9, dtype=np.int64)]
    )
    roles = (
        ["c1"] * _FIX_C1_N
        + ["c2"] * _FIX_C2_N
        + ["c3"] * _FIX_C3_N
        + ["o1", "o2", "o3", "o4", "o5", "o6", "o7", "o8", "o9"]
    )
    s2 = _FIX_C3_SCALE**2
    cov = s2 * np.asarray([[1.0, _FIX_C3_CORR], [_FIX_C3_CORR, 1.0]])
    return MaskingFixture(
        ps=PointSet(points=points, labels=labels),
        roles=roles,
        gaussian_center=c3_center,
        gaussian_cov=cov,
    )
