"""The abstract's claims, each as a test on one small Monte Carlo grid:
5 regimes x d in {2, 10, 50}, n=400, 5% outliers, gaussian_scale 0.05,
2 replicates of all 8 methods at master seed 7 (about half a second).
The masking claim has cells of its own, with a planted collective group.
A claim that does not hold on the grid is a strict xfail whose reason
carries the measured values, so the change that makes it hold must
remove the marker."""

import numpy as np
import pytest

from ccdscore.bench import ALL_METHODS, DEFAULT_S_MIN, evaluate_method, run_monte_carlo
from ccdscore.simgen import REGIMES, SimConfig, generate

DIMS = (2, 10, 50)
IOS = [m for m in ALL_METHODS if m.startswith("ios-")]
OOS = [m for m in ALL_METHODS if m.startswith("oos-")]


@pytest.fixture(scope="module")
def grid():
    configs = [{"regime": regime, "d": d, "n": 400, "outlier_fraction": 0.05,
                "gaussian_scale": 0.05} for regime in REGIMES for d in DIMS]
    rows = run_monte_carlo(configs, list(ALL_METHODS), replicates=2, master_seed=7)
    assert not any(r.error for r in rows)
    return [(configs[r.config_index]["d"], r) for r in rows]


def best_mean_f2(grid, methods, d=None):
    """The best mean F2 over the cells of dimension d (all cells for None)
    among methods."""
    return max(np.mean([r.f2 for dim, r in grid if r.method == m and d in (None, dim)])
               for m in methods)


def test_ios_beats_odin(grid):
    # ios-rk 0.853 against 0.645
    assert best_mean_f2(grid, IOS) > best_mean_f2(grid, ["odin"])


@pytest.mark.xfail(strict=True, reason="mean F2 of ios-rk, the best IOS family, is 0.853 "
                                       "against 0.957 for lof")
def test_ios_beats_lof(grid):
    assert best_mean_f2(grid, IOS) > best_mean_f2(grid, ["lof"])


@pytest.mark.xfail(strict=True, reason="oos-fixed and oos-rk flag no true outlier in any "
                                       "cell (mean F2 0.000; oos-un 0.761)")
def test_every_oos_family_flags_some_true_outlier(grid):
    for m in OOS:
        assert sum(r.tp for _, r in grid if r.method == m) > 0, m


def test_ios_margin_over_the_other_methods_grows_with_dimension(grid):
    # the best IOS family's mean F2 minus the best other method's: -0.118
    # at d=2 (ios-rk 0.778, lof 0.896), -0.005 at d=50 (ios-un 0.995, lof 1.0)
    others = [m for m in ALL_METHODS if m not in IOS]
    margin = {d: best_mean_f2(grid, IOS, d) - best_mean_f2(grid, others, d) for d in (2, 50)}
    assert margin[50] > margin[2]


GROUP = 24  # 6% of n=400, above the default s_min share of 0.04


@pytest.mark.xfail(strict=True, reason="mean group recall of the best IOS family is 0.500 "
                                       "at d=2 (ios-un), 0.104 at d=10 (ios-un) and 0.010 "
                                       "at d=50 (ios-fixed, ios-rk), against lof's 0.000, "
                                       "0.844 and 1.000")
def test_ios_recalls_a_collective_group_larger_than_s_min():
    # "IOS is robust to the masking problems": the best IOS family flags at
    # least half of a collective group too large for s_min to drop, in the
    # mean over uniform and gaussian cells at seeds 7 and 8, in every d.
    # inject_outliers appends the group after the singles, so it holds the
    # last GROUP ids.
    assert GROUP / 400 > DEFAULT_S_MIN
    recall = {}
    for regime in ("uniform", "gaussian"):
        for d in DIMS:
            for seed in (7, 8):
                ps = generate(SimConfig(regime=regime, d=d, n=400, seed=seed,
                                        outlier_fraction=0.05, collective_group=GROUP,
                                        gaussian_scale=0.05))
                assert ps.labels[-GROUP:].all()
                for m in IOS:
                    flags = evaluate_method(m, ps, regime)
                    recall.setdefault((m, d), []).append(flags[-GROUP:].mean())
    for d in DIMS:
        assert max(np.mean(recall[m, d]) for m in IOS) >= 0.5, d
