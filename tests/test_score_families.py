"""score_families against one score_point_set call per radius strategy,
bit for bit, on small point sets full of distance ties, copies and
lattice rows, under both sources of the neighbor table. Derandomized, so
every run checks the same examples."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccdscore import dataset, scores
from ccdscore.dataset import PointSet
from ccdscore.errors import CcdScoreError, ConfigError
from ccdscore.graph import RADIUS_KINDS, RadiusStrategy, fixed_k, rk_approx
from ccdscore.scores import score_families, score_point_set

SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=60)

ARRAYS = ("rho", "oos", "ios_raw", "ios_std", "cluster_of", "oos_flag", "ios_flag",
          "ios_std_naive", "oos_rank", "ios_rank")
DIGRAPH_ARRAYS = ("radii", "out_ptr", "out_ids", "in_ptr", "in_ids")
SCALARS = ("oos_threshold", "ios_threshold", "s_min", "params")


@st.composite
def family_sets(draw):
    """(points, strategies): lattice rows, a few rows copied many times, or
    float rows in 1 to 12 dimensions, scaled to unit, tiny or huge size;
    and 1 to 3 radius strategies of any kind, each k unset, small or
    anywhere up to n, in any order."""
    n = draw(st.integers(3, 40))
    d = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["lattice", "duplicates", "float"]))
    if kind == "float":
        coord = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    else:
        coord = st.integers(-2, 2).map(float)
    pool = draw(st.integers(1, max(1, n // 6) if kind == "duplicates" else n))
    base = draw(st.lists(st.lists(coord, min_size=d, max_size=d),
                         min_size=pool, max_size=pool))
    copies = draw(st.lists(st.integers(0, pool - 1), min_size=n - pool, max_size=n - pool))
    scale = draw(st.sampled_from([1.0, 1.0, 1e-60, 1e60]))
    k = st.sampled_from([None, 1, 2]) | st.integers(1, n)
    strategies = draw(st.lists(st.builds(RadiusStrategy, st.sampled_from(RADIUS_KINDS), k),
                               min_size=1, max_size=3))
    points = np.asarray(base, dtype=np.float64)[list(range(pool)) + copies] * scale
    return points, strategies


def assert_reports_equal(got, want):
    for name in ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    for name in DIGRAPH_ARRAYS:
        a, b = getattr(got.digraph, name), getattr(want.digraph, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.digraph.dim == want.digraph.dim and got.digraph.families == 1
    for name in SCALARS:
        assert getattr(got, name) == getattr(want, name), name


@SETTINGS
@given(family_sets(), st.booleans(), st.sampled_from([0.0, 0.04]))
def test_families_equal_one_call_per_strategy(case, dense, s_min):
    points, strategies = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "_dense_table", lambda d: dense)
        try:
            ps = PointSet(points)
        except ValueError:
            return
        alone = []
        for s in strategies:
            try:
                alone.append(score_point_set(ps, s, s_min=s_min))
            except CcdScoreError as exc:
                alone.append(exc)
        try:
            union = score_families(ps, strategies, s_min=s_min)
        except CcdScoreError as exc:
            # the union fails with the error of one of its families
            errors = [(type(e), str(e)) for e in alone if isinstance(e, Exception)]
            assert (type(exc), str(exc)) in errors
            return
    assert len(union) == len(strategies)
    for got, want in zip(union, alone):
        assert_reports_equal(got, want)


def test_one_family_reports_the_union_as_it_is(monkeypatch):
    # one family's report holds the digraph and the clustering the pass
    # built, not copies of their blocks
    built = []
    for name in ("build_catch_digraph", "cluster_digraph"):
        real = getattr(scores, name)

        def recording(*args, real=real):
            built.append(real(*args))
            return built[-1]

        monkeypatch.setattr(scores, name, recording)
    ps = PointSet(np.random.default_rng(5).random((60, 3)))
    (rep,) = score_families(ps, [rk_approx()])
    assert built[0] is rep.digraph and built[1].cluster_of is rep.cluster_of
    two = score_families(ps, [fixed_k(), rk_approx()])
    assert built[2].families == 2 and built[2].n == 2 * ps.n
    assert [r.digraph.families for r in two] == [1, 1]
    assert_reports_equal(two[1], rep)


def test_each_family_keeps_the_density_bound_of_its_own_n():
    # densities between the bound of n points and that of the union's 2n
    # points pass, and past the bound of n the union raises the error of
    # the family alone
    x = np.linspace(0.0, 1.0, 30)[:, None] ** 2
    n, top = x.shape[0], np.sqrt(np.finfo(np.float64).max) / x.shape[0]
    rho = score_point_set(PointSet(x), fixed_k(2)).rho
    ps = PointSet(x * (1.5 * rho.max() / top))
    want = score_point_set(ps, fixed_k(2))
    assert top / 2 < want.rho.max() < top
    for got in score_families(ps, [fixed_k(2), fixed_k(2)]):
        assert_reports_equal(got, want)
    tiny = PointSet(x * (0.3 * rho.max() / top))
    with pytest.raises(CcdScoreError) as alone:
        score_point_set(tiny, fixed_k(2))
    with pytest.raises(CcdScoreError) as union:
        score_families(tiny, [fixed_k(2), rk_approx()])
    assert str(union.value) == str(alone.value)
    assert f"of {n} points" in str(alone.value)


def test_families_need_a_strategy():
    with pytest.raises(ConfigError, match="at least one radius strategy"):
        score_families(PointSet(np.eye(3)), [])
