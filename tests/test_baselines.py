import warnings

import numpy as np
import pytest
from _oracles import brute_indegree, brute_lof

from ccdscore.baselines import LofParams, OdinParams, lof, odin
from ccdscore.dataset import PointSet, build_index
from ccdscore.errors import BadKError


def make(points):
    ps = PointSet(np.asarray(points, dtype=np.float64))
    return ps, build_index(ps)


def test_lof_interior_of_uniform_grid_near_one():
    xs, ys = np.meshgrid(np.arange(20.0), np.arange(20.0))
    pts = np.column_stack([xs.ravel(), ys.ravel()])
    ps, idx = make(pts)
    scores, _ = lof(idx, LofParams(k_min=5, k_max=10))
    interior = (pts[:, 0] >= 5) & (pts[:, 0] <= 14) & (pts[:, 1] >= 5) & (pts[:, 1] <= 14)
    assert np.all(scores[interior] > 0.95)
    assert np.all(scores[interior] < 1.05)


def test_lof_far_point_scores_highest_and_flags():
    rng = np.random.default_rng(2)
    pts = np.vstack([rng.normal(size=(60, 2)), [[50.0, 50.0]]])
    ps, idx = make(pts)
    scores, flags = lof(idx, LofParams(k_min=11, k_max=30))
    assert np.argmax(scores) == 60
    assert flags[60]
    assert scores[60] > 2 * np.max(scores[:60])


def test_lof_matches_brute_single_k():
    rng = np.random.default_rng(9)
    pts = rng.uniform(size=(40, 3))
    ps, idx = make(pts)
    got, _ = lof(idx, LofParams(k_min=5, k_max=5))
    assert np.allclose(got, brute_lof(pts, 5), rtol=1e-9)


def test_lof_copies_among_copies_score_one():
    # 40 copies of one point: each copy and its whole neighborhood have
    # infinite reachability density, which is equal density, not an outlier
    rng = np.random.default_rng(3)
    pts = np.vstack([rng.random((60, 2)), np.repeat(rng.random((1, 2)), 40, axis=0)])
    ps, idx = make(pts)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scores, flags = lof(idx)
    assert not np.isnan(scores).any()
    assert (scores[60:] == 1.0).all()
    assert not flags[60:].any()
    # points whose neighborhoods reach the copies stay infinitely outlying
    assert np.isinf(scores[:60]).any()


def test_lof_range_is_max_over_single_k():
    rng = np.random.default_rng(10)
    pts = rng.uniform(size=(35, 2))
    ps, idx = make(pts)
    got, _ = lof(idx, LofParams(k_min=4, k_max=7))
    want = np.max([brute_lof(pts, k) for k in range(4, 8)], axis=0)
    assert np.allclose(got, want, rtol=1e-9)


def test_lof_k_validation():
    ps, idx = make(np.random.default_rng(0).uniform(size=(20, 2)))
    with pytest.raises(BadKError):
        lof(idx, LofParams(k_min=11, k_max=30))  # n <= k_max
    with pytest.raises(BadKError):
        lof(idx, LofParams(k_min=0, k_max=5))
    with pytest.raises(BadKError):
        lof(idx, LofParams(k_min=6, k_max=5))


def test_lof_rigid_motion_and_scale_invariant():
    rng = np.random.default_rng(12)
    pts = rng.normal(size=(50, 2))
    ps, idx = make(pts)
    base, _ = lof(idx, LofParams(k_min=5, k_max=9))
    ps2, idx2 = make(pts * 2.0 + 7.0)
    moved, _ = lof(idx2, LofParams(k_min=5, k_max=9))
    assert np.allclose(base, moved, rtol=1e-9)


def test_odin_line_indegrees_and_flags():
    ps, idx = make([[0.0], [1.0], [10.0]])
    indeg, flags = odin(idx, OdinParams(k=1, t=0))
    assert indeg.tolist() == [1, 2, 0]
    assert flags.tolist() == [False, False, True]


def test_odin_indegree_mass_is_n_times_k():
    rng = np.random.default_rng(3)
    pts = rng.uniform(size=(80, 4))
    ps, idx = make(pts)
    for k in (1, 5, 9):
        indeg, _ = odin(idx, OdinParams(k=k, t=0))
        assert indeg.sum() == 80 * k


def test_odin_matches_brute():
    rng = np.random.default_rng(21)
    pts = rng.normal(size=(50, 3))
    ps, idx = make(pts)
    got, _ = odin(idx, OdinParams(k=7, t=2))
    assert np.array_equal(got, brute_indegree(pts, 7))


def test_odin_default_parameters_follow_n():
    rng = np.random.default_rng(4)
    pts = rng.uniform(size=(100, 2))
    ps, idx = make(pts)
    auto_deg, auto_flags = odin(idx)
    expl_deg, expl_flags = odin(idx, OdinParams(k=10, t=5))
    assert np.array_equal(auto_deg, expl_deg)
    assert np.array_equal(auto_flags, expl_flags)


def test_odin_isolated_point_has_zero_indegree():
    rng = np.random.default_rng(6)
    pts = np.vstack([rng.normal(size=(40, 2)), [[99.0, 99.0]]])
    ps, idx = make(pts)
    indeg, flags = odin(idx, OdinParams(k=3, t=1))
    assert indeg[40] == 0
    assert flags[40]


def test_odin_k_validation():
    ps, idx = make(np.random.default_rng(1).uniform(size=(5, 2)))
    with pytest.raises(BadKError):
        odin(idx, OdinParams(k=7, t=1))
    with pytest.raises(BadKError):
        odin(idx, OdinParams(k=0, t=1))
