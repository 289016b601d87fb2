"""The report writers against their per-row, json.dump(indent=2) forms in
_oracles.py: scores.json and scores.csv under each radius family, the LOF
and ODIN reports, dataset.write_csv and the bench results file must match
them byte for byte, on reports that hold every value a writer has to carry."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccdscore.baselines import lof, odin
from ccdscore.bench import aggregate, run_monte_carlo, write_results_json
from ccdscore.dataset import PointSet, build_index, write_csv
from ccdscore.graph import fixed_k, rk_approx, un_approx
from ccdscore.scores import (
    JsonText,
    column_text,
    descending_ranks,
    iter_json,
    json_column,
    score_point_set,
    write_baseline_report,
)
from ccdscore.simgen import SimConfig

from _oracles import (
    keysort_digraph,
    loop_baseline_json_dict,
    loop_report_json_dict,
    loop_write_baseline_csv,
    loop_write_json,
    loop_write_points_csv,
    loop_write_report_csv,
)

SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=300)

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.floats().map(np.float64),
    st.text(),
    st.sampled_from([", ", '", "', "a,\n  b", "]", "[", "é中\U0001f600"]),
)
json_trees = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner),
        st.lists(inner).map(tuple),
        st.dictionaries(st.text(), inner),
    ),
    max_leaves=30,
)


def _strict(tree):
    """tree with each non-finite float, numpy float64 too, as its repr: the
    quoted text iter_json writes in place of a bare NaN or Infinity."""
    if isinstance(tree, dict):
        return {k: _strict(v) for k, v in tree.items()}
    if isinstance(tree, (list, tuple)):
        return [_strict(v) for v in tree]
    if isinstance(tree, float) and not math.isfinite(tree):
        return repr(float(tree))
    return tree


def _quoted_pair(values):
    a = np.array(values, dtype=np.float64)
    original = [v if math.isfinite(v) else repr(v) for v in values]
    return original, json_column(a, column_text(a))


def _unzip(pairs):
    return [o for o, _ in pairs], [e for _, e in pairs]


# (tree, the same tree with some scalar lists swapped for their JsonText):
# float lists with their non-finite values quoted, and any scalar list with
# each item's strict json.dumps text, empty lists among them
encoded_pairs = st.one_of(
    st.lists(st.floats(), max_size=8).map(_quoted_pair),
    st.lists(json_scalars, max_size=8).map(
        lambda v: (v, JsonText([json.dumps(_strict(x)) for x in v]))),
)
json_pair_trees = st.recursive(
    st.one_of(json_scalars.map(lambda x: (x, x)), encoded_pairs),
    lambda inner: st.one_of(
        st.lists(inner).map(_unzip),
        st.lists(inner).map(lambda ps: tuple(map(tuple, _unzip(ps)))),
        st.dictionaries(st.text(), inner).map(
            lambda d: tuple(dict(zip(d, side)) for side in _unzip(list(d.values())))),
    ),
    max_leaves=30,
)


@SETTINGS
@given(json_trees, json_pair_trees)
def test_iter_json_is_json_dumps_indent_2(tree, pair):
    assert "".join(iter_json(tree)) == json.dumps(_strict(tree), indent=2, allow_nan=False)
    original, encoded = pair
    assert "".join(iter_json(encoded)) == json.dumps(_strict(original), indent=2)


@pytest.mark.parametrize("doc", [{1: "a"}, {"a": {None: 1}}, [{"x": 1}, {2.5: 0}]])
def test_iter_json_rejects_non_str_keys(doc):
    with pytest.raises(TypeError):
        "".join(iter_json(doc))


# A zero-MADN cluster of copies, a tight blob, and two far points.
PTS = np.vstack([
    np.repeat([[0.0, 0.0]], 30, axis=0),
    np.random.default_rng(5).random((30, 2)) * 0.1 + 5,
    [[30.0, 30.0], [-40.0, 10.0]],
])


# Blob points whose float values hostile_report overwrites with NaN, +inf
# and -inf.
NONFINITE_AT, NONFINITE = [40, 41, 42], [np.nan, np.inf, -np.inf]
FLOAT_COLUMNS = ("rho", "oos", "ios_raw", "ios_std", "ios_std_naive")


def hostile_report(strategy):
    """The report of PTS under strategy, with each value a writer must
    carry that this strategy does not produce itself put in by hand: an
    empty ball (inf OOS and a [] cover row), +inf and -inf ios_std, a
    singleton cluster, and NaN, +inf and -inf in every float column."""
    rep = score_point_set(PointSet(PTS), strategy)
    dg = rep.digraph
    cols = {name: getattr(rep, name).copy() for name in FLOAT_COLUMNS}
    radii, cluster_of = dg.radii.copy(), rep.cluster_of.copy()
    src = np.repeat(np.arange(dg.n), np.diff(dg.out_ptr))
    keep = np.ones(src.size, dtype=bool)
    if np.isfinite(cols["oos"]).all():
        keep = src != 0
        cols["oos"][0] = np.inf
    if not np.isposinf(cols["ios_std"]).any():
        cols["ios_std"][1] = np.inf
    if not np.isneginf(cols["ios_std"]).any():
        cols["ios_std"][2] = -np.inf
    if (np.bincount(cluster_of) > 1).all():
        cluster_of[-1] = cluster_of.max() + 1
    for a in (radii, *cols.values()):
        a[NONFINITE_AT] = NONFINITE
    dg = keysort_digraph(radii, dg.dim, src[keep], dg.out_ids[keep])
    return with_columns(rep, digraph=dg, cluster_of=cluster_of, **cols)


def with_columns(rep, **changes):
    """replace(rep, **changes), where ios_std_naive, a cached property and
    no field, is set on the new report as its cached value."""
    naive = changes.pop("ios_std_naive", None)
    new = replace(rep, **changes)
    if naive is not None:
        new.ios_std_naive = naive
    return new


def assert_writers_match_the_row_loops(rep, tmp_path, method, order=("json", "csv")):
    loop_write_json(loop_report_json_dict(rep, method), tmp_path / "b.json")
    loop_write_report_csv(rep, tmp_path / "b.csv", method=method)
    for kind in order:
        getattr(rep, f"write_{kind}")(tmp_path / f"a.{kind}", method=method)
        assert (tmp_path / f"a.{kind}").read_bytes() == (tmp_path / f"b.{kind}").read_bytes()


@pytest.mark.parametrize("strategy", [fixed_k(k=4), rk_approx(k=4), un_approx(k=4)],
                         ids=lambda s: s.kind)
@pytest.mark.parametrize("method", ["ios", "oos"])
def test_report_writers_match_the_row_loops(tmp_path, strategy, method):
    rep = hostile_report(strategy)
    empty = np.diff(rep.digraph.out_ptr) == 0
    assert empty.any() and np.isinf(rep.oos[empty]).all()
    assert np.isposinf(rep.ios_std).any() and np.isneginf(rep.ios_std).any()
    assert (np.bincount(rep.cluster_of) == 1).any()
    for a in (rep.digraph.radii, *(getattr(rep, name) for name in FLOAT_COLUMNS)):
        assert np.isnan(a).any() and np.isposinf(a).any() and np.isneginf(a).any()

    assert_writers_match_the_row_loops(rep, tmp_path, method)


@pytest.mark.parametrize("order", [("json", "csv", "json", "csv"), ("csv", "json", "csv", "json")])
def test_report_text_is_shared_whatever_the_writing_order(tmp_path, order):
    rep = hostile_report(fixed_k(k=4))
    for method in ("ios", "oos", "ios"):
        assert_writers_match_the_row_loops(rep, tmp_path, method, order)


def test_report_text_follows_changed_columns(tmp_path):
    rep = hostile_report(fixed_k(k=4))
    assert_writers_match_the_row_loops(rep, tmp_path, "ios")
    # a replaced report writes its own values, not the old report's text
    new = with_columns(rep, **{name: -getattr(rep, name) for name in FLOAT_COLUMNS})
    assert_writers_match_the_row_loops(new, tmp_path, "oos", ("csv", "json"))
    # and so does a column changed in place after a write
    rep.rho[:5] = 7.0
    rep.ios_std[5] = -0.0
    assert_writers_match_the_row_loops(rep, tmp_path, "ios", ("csv", "json"))
    # an all-zero int column and an all-zero float column hold equal bytes,
    # and each still writes its own text
    rep.cluster_of[:] = 0
    rep.ios_std[:] = 0.0
    assert_writers_match_the_row_loops(rep, tmp_path, "ios", ("csv", "json"))


@pytest.mark.parametrize("method", ["lof", "odin"])
def test_baseline_writers_match_the_row_loops(tmp_path, method):
    # 40 copies of one point give LOF infinite scores, and a NaN is put in
    # by hand; ODIN's in-degrees are integers and are written as floats
    rng = np.random.default_rng(3)
    ps = PointSet(np.vstack([rng.random((60, 2)), np.repeat(rng.random((1, 2)), 40, axis=0)]))
    idx = build_index(ps)
    if method == "lof":
        scores, flags = lof(idx)
        assert np.isinf(scores).any()
        scores[-1] = np.nan
        ranks = descending_ranks(scores)
    else:
        scores, flags = odin(idx)
        assert scores.dtype.kind == "i"
        ranks = descending_ranks(-scores)

    write_baseline_report(str(tmp_path / "a"), method, scores, flags, ranks)
    loop_write_baseline_csv(tmp_path / "b.scores.csv", scores, flags, ranks)
    loop_write_json(loop_baseline_json_dict(method, scores, flags, ranks),
                    tmp_path / "b.scores.json")
    for suffix in ("scores.csv", "scores.json"):
        assert (tmp_path / f"a.{suffix}").read_bytes() == (tmp_path / f"b.{suffix}").read_bytes()


@pytest.mark.parametrize("labels, names", [(False, None), (True, None), (True, ["u", "v", "w"])])
def test_dataset_write_csv_matches_the_row_loop(tmp_path, labels, names):
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((50, 3)) * np.array([1e-300, 1.0, 1e300])
    pts[0] = [-0.0, 5e-324, np.finfo(np.float64).max]
    ps = PointSet(pts, (rng.random(50) < 0.2).astype(np.int64) if labels else None, names)
    write_csv(ps, tmp_path / "a.csv")
    loop_write_points_csv(ps, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_results_json_is_json_dump_indent_2(tmp_path):
    # a cell that fails leaves NaN metrics in its rows and aggregate
    cfgs = [SimConfig(regime="uniform", d=2, n=120, seed=1, outlier_fraction=0.05),
            SimConfig(regime="uniform", d=2, n=5, seed=1, outlier_fraction=0.0)]
    methods = ["oos-fixed", "odin"]
    rows = run_monte_carlo(cfgs, methods, replicates=1, master_seed=3)
    assert any(r.error for r in rows)
    path = tmp_path / "results.json"
    write_results_json(rows, aggregate(rows, methods), path)
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
