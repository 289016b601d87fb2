"""A sweep of hostile inputs through cli.main for score, eval, gen and
bench: n from 1 to k + 2 points, d in {1, 2, 3, 9, 460}, coordinates from
subnormals to 1e300, exact copies, constant columns, integer lattices,
one far point, NaN, inf and unparsable cells, --k 1, a --k past n and
--threshold inf. Every run must exit 0, 2, 3 or 4 with no traceback on
stderr, raise no warning but CcdScoreWarning, and write only strict JSON.
Derandomized, so every run checks the same examples; the coordinates
come from numpy generators seeded by the drawn examples."""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ccdscore.cli import main
from ccdscore.errors import CcdScoreWarning
from ccdscore.simgen import REGIMES

from _oracles import strict_json

SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=150)

DIMS = [1, 2, 3, 9, 460]
# subnormals, the smallest normal float's neighbourhood, and 1e+-300
SCALES = [5e-324, 1e-310, 1e-300, 1e-150, 1.0, 1e150, 1e300]
KINDS = ["scaled", "copies", "constant-column", "lattice", "far-point"]
# cells that reach load_csv as they are: non-finite or not a number
BAD_CELLS = ["nan", "inf", "-inf", "abc", ""]
EXITS = (0, 2, 3, 4)


def points_of(kind, n, d, scale, rng):
    if kind == "lattice":
        return rng.integers(0, 3, size=(n, d)).astype(np.float64)
    pts = rng.standard_normal((n, d)) * scale
    if kind == "copies":
        pts[:] = pts[0]
    elif kind == "constant-column":
        pts[:, 0] = scale
    elif kind == "far-point":
        pts = rng.random((n, d))
        pts[-1] = 1e300
    return pts


@st.composite
def hostile_files(draw):
    """(text, n, k): a CSV of n points, n from 1 to k + 2, perhaps with a
    label column and one corrupted cell."""
    k = draw(st.integers(1, 5))
    n = draw(st.integers(1, k + 2))
    d = draw(st.sampled_from(DIMS))
    kind = draw(st.sampled_from(KINDS))
    scale = draw(st.sampled_from(SCALES))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    cells = [[repr(float(v)) for v in row] for row in points_of(kind, n, d, scale, rng)]
    head = [f"x{j}" for j in range(d)]
    if draw(st.booleans()):
        head.append("label")
        for row in cells:
            row.append(str(int(rng.integers(0, 2))))
    bad = draw(st.sampled_from([None] * len(BAD_CELLS) + BAD_CELLS))
    if bad is not None:
        cells[int(rng.integers(n))][int(rng.integers(d))] = bad
    text = ",".join(head) + "\n" + "".join(",".join(row) + "\n" for row in cells)
    return text, n, k


@contextlib.contextmanager
def scratch_dir():
    with tempfile.TemporaryDirectory() as tmp:
        yield Path(tmp)


def run_clean(argv, out_dir):
    """main(argv) with every warning but CcdScoreWarning an error: its exit
    code, after checking it, stderr and every JSON file under out_dir."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")
        warnings.simplefilter("ignore", CcdScoreWarning)
        rc = main([str(a) for a in argv])
    assert rc in EXITS, (argv, rc, err.getvalue())
    assert "Traceback" not in err.getvalue(), err.getvalue()
    for path in out_dir.rglob("*.json"):
        strict_json(path)
    return rc


@SETTINGS
@given(hostile_files(), st.sampled_from(["ios", "oos", "lof", "odin"]),
       st.sampled_from(["fixed-k", "rk-approx", "un-approx"]),
       st.sampled_from(["none", "1", "k", "past-n"]), st.booleans(), st.booleans())
def test_score_and_eval_on_hostile_files(case, method, digraph, k_flag, inf_threshold,
                                         no_normalize):
    text, n, k = case
    with scratch_dir() as tmp:
        (tmp / "x.csv").write_text(text, encoding="utf-8")
        argv = ["score", "--input", tmp / "x.csv", "--method", method, "--out", tmp / "s"]
        if method in ("ios", "oos"):  # a baseline given these exits 2 (test_cli.py)
            argv += ["--digraph", digraph]
            if k_flag != "none":
                argv += ["--k", {"1": 1, "k": k, "past-n": n + 3}[k_flag]]
            if inf_threshold:
                argv += ["--threshold", "inf"]
        if no_normalize:
            argv.append("--no-normalize")
        if run_clean(argv, tmp) == 0:
            assert (tmp / "s.scores.csv").exists() and (tmp / "s.scores.json").exists()
        run_clean(["eval", "--data", tmp / "x.csv", "--out", tmp / "m", tmp / "s.scores.csv"],
                  tmp)


@settings(SETTINGS, max_examples=50)
@given(st.sampled_from(REGIMES), st.sampled_from(DIMS), st.integers(1, 7) | st.integers(20, 40),
       st.just(0.06) | st.sampled_from([*SCALES[:3], 1e150, 1e200, 1e300]),
       st.sampled_from([0.0, 0.05, 0.3]), st.sampled_from([0, 2]),
       st.lists(st.sampled_from(["ios-fixed", "oos-rk", "ios-un", "lof", "odin"]),
                min_size=1, max_size=3, unique=True))
def test_gen_and_bench_on_hostile_configs(regime, d, n, scale, fraction, collective, methods):
    # tiny n, 460 columns and gaussian scales whose draws or outlier
    # distances overflow
    config = {"regime": regime, "d": d, "n": n, "gaussian_scale": scale,
              "outlier_fraction": fraction, "collective_group": collective}
    with scratch_dir() as tmp:
        run_clean(["gen", "--regime", regime, "--d", d, "--n", n, "--gaussian-scale", scale,
                   "--outlier-fraction", fraction, "--collective", collective,
                   "--out", tmp / "g"], tmp)
        (tmp / "grid.json").write_text(json.dumps({"configs": [config], "replicates": 1}))
        run_clean(["bench", "--grid", tmp / "grid.json", "--methods", ",".join(methods),
                   "--out", tmp / "b"], tmp)
