from dataclasses import replace

import numpy as np
import pytest

from ccdscore import simgen
from ccdscore.dataset import PointSet
from ccdscore.errors import ConfigError
from ccdscore.simgen import (
    SimConfig,
    cluster_scale,
    gen_clusters,
    gen_neyman_scott,
    generate,
    masking_fixture,
    planned_outliers,
)

from _oracles import greedy_pick_centers, loop_inject_outliers


def test_generate_is_deterministic():
    cfg = SimConfig(
        regime="uniform", d=3, n=150, seed=42, outlier_fraction=0.05, collective_group=4
    )
    a = generate(cfg)
    b = generate(cfg)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.labels, b.labels)
    c = generate(replace(cfg, seed=43))
    assert not np.array_equal(a.points, c.points)


def test_generate_budget_and_label_counts():
    cfg = SimConfig(
        regime="uniform", d=2, n=200, seed=1, outlier_fraction=0.05, collective_group=4
    )
    ps = generate(cfg)
    assert ps.n == 200
    assert planned_outliers(cfg) == 14
    assert int(ps.labels.sum()) == 14


def test_config_validation():
    with pytest.raises(ConfigError):
        SimConfig(regime="spiral", d=2, n=100)
    with pytest.raises(ConfigError):
        SimConfig(regime="uniform", d=0, n=100)
    with pytest.raises(ConfigError):
        SimConfig(regime="uniform", d=2, n=1)
    with pytest.raises(ConfigError):
        SimConfig(regime="gaussian", d=2, n=100, correlation=1.0)
    with pytest.raises(ConfigError):
        SimConfig(regime="uniform", d=2, n=100, outlier_fraction=0.6)
    with pytest.raises(ConfigError):
        SimConfig(regime="uniform", d=2, n=100, outlier_fraction=0.001)


@pytest.mark.parametrize("field, value", [("d", 2.5), ("n", 60.5), ("n", 60.0),
                                          ("seed", 1.5), ("n_clusters", True),
                                          ("collective_group", "2")])
def test_config_rejects_non_integer_counts(field, value):
    raw = {"regime": "uniform", "d": 2, "n": 60, field: value}
    with pytest.raises(ConfigError, match=f"{field} must be an integer"):
        SimConfig.from_dict(raw)
    assert SimConfig(**{**raw, field: np.int64(2)}).to_dict()[field] == 2


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 10**400, np.float32("nan"),
                                   True, "0.5"])
@pytest.mark.parametrize("field", ["parent_intensity", "cluster_radius", "gaussian_scale",
                                   "correlation", "outlier_fraction",
                                   "outlier_min_separation"])
def test_config_rejects_non_finite_floats(field, value):
    raw = {"regime": "mixed", "d": 2, "n": 60, field: value}
    with pytest.raises(ConfigError, match=f"{field} must be a finite number"):
        SimConfig(**raw)
    with pytest.raises(ConfigError, match=f"{field} must be a finite number"):
        SimConfig.from_dict(raw)


def test_config_caps_parent_intensity_at_n():
    # numpy's Poisson draw raises above about 9.2e18, and far below that
    # the parent array and the per-parent loop exhaust memory; the default
    # stays valid below n = 5
    assert SimConfig(regime="matern", d=2, n=60, parent_intensity=60).parent_intensity == 60
    assert SimConfig(regime="matern", d=2, n=3).parent_intensity == 5.0
    for n, value in ((60, 60.5), (60, 1e19), (60, 2**70), (3, 5.5)):
        with pytest.raises(ConfigError, match="parent_intensity must be in"):
            SimConfig(regime="matern", d=2, n=n, parent_intensity=value)


@pytest.mark.parametrize("seed", [-1, -(2**63), np.int64(-3)])
def test_negative_seeds_raise_config_error(seed):
    # numpy's SeedSequence takes only non-negative entropy
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        SimConfig(regime="uniform", d=2, n=60, seed=seed)
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        masking_fixture(seed=seed)


@pytest.mark.parametrize("seed", [True, 1.5, "1", None])
def test_fixture_rejects_a_non_integer_seed(seed):
    with pytest.raises(ConfigError, match="seed must be an integer"):
        masking_fixture(seed=seed)


@pytest.mark.parametrize("regime", ["gaussian", "thomas", "mixed"])
def test_generate_raises_config_error_when_the_gaussian_draw_overflows(regime):
    # 1e308 passes the config's checks; the scaled normal draws do not fit
    cfg = SimConfig(regime=regime, d=2, n=60, n_clusters=1, gaussian_scale=1e308)
    with pytest.raises(ConfigError, match="gaussian_scale must keep every drawn coordinate"):
        generate(cfg)


@pytest.mark.parametrize("fraction, collective", [(0.05, 0), (0.0, 4)])
def test_outliers_whose_distances_to_the_inliers_overflow_raise_config_error(
        fraction, collective):
    # inliers near 1e200 draw finite coordinates, but the tree's squared
    # distances to them overflow to inf, which would pass any separation;
    # the singles and the collective group's center are placed alike
    cfg = SimConfig(regime="thomas", d=2, n=60, outlier_fraction=fraction,
                    gaussian_scale=1e200, collective_group=collective)
    with pytest.raises(ConfigError, match="distances to the inliers overflow"):
        generate(cfg)


def test_config_from_dict_rejects_unknown_and_missing_keys():
    with pytest.raises(ConfigError):
        SimConfig.from_dict({"regime": "uniform", "d": 2, "n": 50, "sigma": 1.0})
    with pytest.raises(ConfigError):
        SimConfig.from_dict({"regime": "uniform", "d": 2})
    cfg = SimConfig.from_dict({"regime": "thomas", "d": 3, "n": 80, "seed": 7})
    assert cfg.seed == 7


def test_config_from_dict_rejects_non_objects():
    for raw in (5, "uniform", None, [["regime", "uniform"]]):
        with pytest.raises(ConfigError, match="JSON object"):
            SimConfig.from_dict(raw)


def test_uniform_cluster_stays_inside_its_ball():
    cfg = SimConfig(
        regime="uniform", d=2, n=1000, seed=5, n_clusters=1, cluster_radius=1.0
    )
    ps = gen_clusters(cfg)
    center = ps.points.mean(axis=0)
    dists = np.linalg.norm(ps.points - center, axis=1)
    assert dists.max() <= 1.0 + 0.05
    assert (dists <= 1.0).mean() >= 0.99


def test_gaussian_cluster_has_requested_correlation():
    cfg = SimConfig(
        regime="gaussian", d=2, n=5000, seed=8, n_clusters=1, correlation=0.5
    )
    ps = gen_clusters(cfg)
    r = np.corrcoef(ps.points[:, 0], ps.points[:, 1])[0, 1]
    assert 0.45 <= r <= 0.55


def test_matern_offspring_stay_within_parent_radius():
    cfg = SimConfig(
        regime="matern", d=2, n=2000, seed=11, parent_intensity=15, cluster_radius=0.08
    )
    ps, parents, kinds, counts = gen_neyman_scott(cfg, return_parts=True)
    assert np.all(kinds == 0)
    gaps = np.min(
        np.linalg.norm(ps.points[:, None, :] - parents[None, :, :], axis=2), axis=1
    )
    assert gaps.max() <= 0.08 + 1e-12


def test_thomas_offspring_concentrate_near_parents():
    cfg = SimConfig(
        regime="thomas", d=2, n=4000, seed=13, parent_intensity=20, gaussian_scale=0.03
    )
    ps, parents, kinds, counts = gen_neyman_scott(cfg, return_parts=True)
    assert np.all(kinds == 1)
    gaps = np.min(
        np.linalg.norm(ps.points[:, None, :] - parents[None, :, :], axis=2), axis=1
    )
    assert (gaps <= 3 * 0.03).mean() >= 0.97


def test_mixed_regime_splits_parent_kinds_evenly():
    cfg = SimConfig(regime="mixed", d=2, n=20000, seed=3, parent_intensity=10000)
    _, parents, kinds, _ = gen_neyman_scott(cfg, return_parts=True)
    assert 0.47 <= kinds.mean() <= 0.53


def test_solitary_outliers_respect_min_separation():
    cfg = SimConfig(
        regime="uniform", d=2, n=200, seed=17, outlier_fraction=0.05,
        outlier_min_separation=2.0,
    )
    ps = generate(cfg)
    out = ps.points[ps.labels == 1]
    inl = ps.points[ps.labels == 0]
    assert len(out) == 10
    sep = 2.0 * cluster_scale(cfg)
    for o in out:
        assert np.min(np.linalg.norm(inl - o, axis=1)) >= sep


def test_collective_group_is_tight_and_far():
    cfg = SimConfig(
        regime="gaussian", d=2, n=150, seed=19, collective_group=4
    )
    ps = generate(cfg)
    grp = ps.points[ps.labels == 1]
    inl = ps.points[ps.labels == 0]
    assert len(grp) == 4
    diam = max(
        np.linalg.norm(a - b) for i, a in enumerate(grp) for b in grp[i + 1 :]
    )
    nearest = min(np.min(np.linalg.norm(inl - g, axis=1)) for g in grp)
    assert diam < nearest


def test_zero_fraction_means_no_outliers():
    cfg = SimConfig(regime="uniform", d=2, n=120, seed=23)
    ps = generate(cfg)
    assert ps.n == 120
    assert int(ps.labels.sum()) == 0
    assert np.array_equal(ps.points, gen_clusters(cfg).points)


def test_fixture_shape_and_roles():
    fx = masking_fixture()
    assert fx.ps.n == 199
    assert fx.ps.d == 2
    assert int(fx.ps.labels.sum()) == 9
    assert len(fx.roles) == 199
    assert fx.ids_of("c1").size == 60
    assert fx.ids_of("c2").size == 80
    assert fx.ids_of("c3").size == 50
    for r in ("o1", "o2", "o3", "o4", "o5", "o6", "o7", "o8", "o9"):
        assert fx.ids_of(r).size == 1
    assert np.all(fx.ps.labels[fx.ids_of("o1")[0] :] == 1)


def test_fixture_axis_pair_equidistant_but_not_in_mahalanobis():
    fx = masking_fixture()
    p7 = fx.ps.points[fx.ids_of("o7")[0]]
    p8 = fx.ps.points[fx.ids_of("o8")[0]]
    d7 = np.linalg.norm(p7 - fx.gaussian_center)
    d8 = np.linalg.norm(p8 - fx.gaussian_center)
    assert abs(d7 - d8) <= 1e-9
    inv = np.linalg.inv(fx.gaussian_cov)
    m7 = (p7 - fx.gaussian_center) @ inv @ (p7 - fx.gaussian_center)
    m8 = (p8 - fx.gaussian_center) @ inv @ (p8 - fx.gaussian_center)
    # the off-axis single is farther once the covariance is accounted for
    assert m7 > m8


def test_fixture_collective_group_is_tight():
    fx = masking_fixture()
    ids = [fx.ids_of(r)[0] for r in ("o1", "o2", "o3", "o4")]
    grp = fx.ps.points[ids]
    diam = max(
        np.linalg.norm(a - b) for i, a in enumerate(grp) for b in grp[i + 1 :]
    )
    assert diam <= 2 * 0.012 + 1e-12
    rest = np.delete(fx.ps.points, ids, axis=0)
    assert min(np.min(np.linalg.norm(rest - g, axis=1)) for g in grp) > 4 * diam


def test_fixture_deterministic_per_seed():
    a = masking_fixture()
    b = masking_fixture()
    assert np.array_equal(a.ps.points, b.ps.points)
    c = masking_fixture(seed=1)
    assert not np.array_equal(a.ps.points, c.ps.points)


def test_center_placement_restarts_and_keeps_every_greedy_placement(monkeypatch):
    # the default gaussian config at d=2, n=60 fits three centers 0.45
    # apart in its 0.64-wide box, yet one greedy round fails for some seeds
    cfgs = [SimConfig(regime="gaussian", d=2, n=60, seed=s) for s in range(300)]
    new = [generate(cfg) for cfg in cfgs]
    monkeypatch.setattr(simgen, "_pick_centers", greedy_pick_centers)
    restarted = 0
    for cfg, ps in zip(cfgs, new):
        try:
            old = generate(cfg)
        except ConfigError:
            restarted += 1
            continue
        assert np.array_equal(ps.points, old.points)
        assert np.array_equal(ps.labels, old.labels)
    assert restarted > 0


def test_center_placement_budget_stays_bounded():
    # 30 centers 0.45 apart cannot fit in the box: every restart fails
    with pytest.raises(ConfigError, match="could not place 30 cluster centers"):
        generate(SimConfig(regime="gaussian", d=2, n=60, n_clusters=30, seed=1))


def outcome(make):
    """The bytes of the points and labels make() returns, or the error it
    raises."""
    try:
        ps = make()
    except ConfigError as exc:
        return "ConfigError", str(exc)
    return ps.points.tobytes(), ps.labels.tobytes()


def both_outcomes(cfg):
    """generate's outcome, and the per-attempt loop's on the same inliers."""
    inliers = (gen_clusters(cfg) if cfg.regime in ("uniform", "gaussian")
               else gen_neyman_scott(cfg))
    return (outcome(lambda: generate(cfg)),
            outcome(lambda: loop_inject_outliers(inliers, cfg)))


@pytest.mark.parametrize("regime", simgen.REGIMES)
@pytest.mark.parametrize("d", [2, 10, 50])
@pytest.mark.parametrize("group", [0, 3])
def test_generate_equals_the_per_attempt_placement(regime, d, group):
    placed = 0
    for seed in range(20):
        cfg = SimConfig(regime, d, 200, seed=seed, outlier_fraction=0.05,
                        collective_group=group)
        got, want = both_outcomes(cfg)
        assert got == want
        placed += got[0] != "ConfigError"
    assert placed >= 18


@pytest.mark.parametrize("attempts, separation, group", [
    pytest.param(attempts, separation, group,
                 id=f"{attempts}-{separation}" + (f"-group{group}" if group else ""))
    for group in (0, 3) for attempts, separation in [(3, 1.0), (40, 3.0), (100, 3.0)]
])
def test_batched_placement_fails_where_the_loop_fails(monkeypatch, attempts, separation,
                                                      group):
    # few attempts at a wide separation: runs of misses straddle the
    # batches, and some seeds give up after placing a few singles; with a
    # group, its center then retries one candidate per batch
    monkeypatch.setattr(simgen, "_OUTLIER_ATTEMPTS", attempts)
    failed = 0
    for seed in range(30):
        cfg = SimConfig("thomas", 2, 200, seed=seed, outlier_fraction=0.1,
                        outlier_min_separation=separation, collective_group=group)
        got, want = both_outcomes(cfg)
        assert got == want
        failed += got[0] == "ConfigError"
    assert 0 < failed < 30


@pytest.mark.parametrize("group", [0, 3])
def test_unplaceable_outliers_raise_the_loop_error(group):
    cfg = SimConfig("uniform", 3, 100, seed=2, outlier_fraction=0.05 if group == 0 else 0.0,
                    collective_group=group, outlier_min_separation=20.0)
    got, want = both_outcomes(cfg)
    assert got[0] == "ConfigError"
    assert got == want


def test_tree_distance_near_the_separation_takes_the_exact_norm():
    # inliers at sep (1 -+ 1e-12) from the first two candidates of the
    # singles' stream: the tree cannot tell these from sep, the exact norm
    # rejects the first and takes the second
    cfg = SimConfig("uniform", 3, 40, seed=7, outlier_fraction=0.05)
    sep = cfg.outlier_min_separation * cluster_scale(cfg)
    cands = simgen._rng(cfg.seed, simgen._S_OUTLIERS).uniform(-0.1, 1.1, size=(2, 3))
    near = cands + [[sep * (1 - 1e-12), 0, 0], [0, sep * (1 + 1e-12), 0]]
    ps = PointSet(points=near, labels=np.zeros(2, dtype=np.int64))
    got = simgen.inject_outliers(ps, cfg)
    want = loop_inject_outliers(ps, cfg)
    assert np.array_equal(got.points, want.points)
    assert not (got.points == cands[0]).all(axis=1).any()
    assert np.array_equal(got.points[2], cands[1])
