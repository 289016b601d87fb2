import argparse
import csv
import json
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from ccdscore import cli
from ccdscore.cli import build_parser, main
from ccdscore.dataset import PointSet, write_csv
from ccdscore.errors import CcdScoreWarning
from ccdscore.simgen import SimConfig, generate

from _oracles import strict_json


def run(argv):
    return main([str(a) for a in argv])


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_gen_writes_deterministic_outputs(tmp_path):
    args = ["gen", "--regime", "uniform", "--d", "2", "--n", "120",
            "--seed", "5", "--outlier-fraction", "0.05"]
    assert run(args + ["--out", tmp_path / "a"]) == 0
    assert run(args + ["--out", tmp_path / "b"]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    cfg = json.loads((tmp_path / "a.config.json").read_text())
    assert cfg["regime"] == "uniform" and cfg["n"] == 120
    man = json.loads((tmp_path / "a.manifest.json").read_text())
    assert man["command"] == "gen"
    rows = read_rows(tmp_path / "a.csv")
    assert len(rows) == 120
    assert sum(int(r["label"]) for r in rows) == 6


def test_gen_defaults_are_the_sim_config_defaults(tmp_path):
    assert run(["gen", "--regime", "thomas", "--d", "3", "--n", "80",
                "--out", tmp_path / "g"]) == 0
    cfg = json.loads((tmp_path / "g.config.json").read_text())
    assert cfg == SimConfig("thomas", 3, 80).to_dict()


def test_gen_has_one_option_per_sim_config_field():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    dests = [a.dest for a in sub.choices["gen"]._actions
             if a.dest not in ("help", "out")]
    assert dests == [f.name for f in fields(SimConfig)]


def test_gen_forgives_csv_suffix_on_out(tmp_path):
    args = ["gen", "--regime", "gaussian", "--d", "2", "--n", "50",
            "--out", tmp_path / "data.csv"]
    assert run(args) == 0
    assert (tmp_path / "data.csv").exists()
    assert not (tmp_path / "data.csv.csv").exists()


def test_fixture_round_trip(tmp_path):
    assert run(["fixture", "--out", tmp_path / "fx"]) == 0
    assert run(["fixture", "--out", tmp_path / "fx2"]) == 0
    assert (tmp_path / "fx.csv").read_bytes() == (tmp_path / "fx2.csv").read_bytes()
    roles = strict_json(tmp_path / "fx.roles.json")
    assert len(roles["roles"]) == 199
    assert roles["roles"][-9:] == [f"o{i}" for i in range(1, 10)]
    assert len(read_rows(tmp_path / "fx.csv")) == 199


def test_score_ios_flags_all_planted_outliers(tmp_path):
    run(["fixture", "--out", tmp_path / "fx"])
    assert run(["score", "--input", tmp_path / "fx.csv", "--method", "ios",
                "--digraph", "fixed-k", "--out", tmp_path / "s"]) == 0
    rows = read_rows(tmp_path / "s.scores.csv")
    assert len(rows) == 199
    flagged = [int(r["id"]) for r in rows if r["flag"] == "1"]
    assert set(range(190, 199)) <= set(flagged)
    rep = json.loads((tmp_path / "s.scores.json").read_text())
    assert rep["n"] == 199 and rep["method"] == "ios"
    assert len(rep["digraph"]["radii"]) == 199


def test_score_oos_misses_the_collective_group(tmp_path):
    run(["fixture", "--out", tmp_path / "fx"])
    assert run(["score", "--input", tmp_path / "fx.csv", "--method", "oos",
                "--out", tmp_path / "s"]) == 0
    rows = read_rows(tmp_path / "s.scores.csv")
    group = [r for r in rows if 190 <= int(r["id"]) <= 193]
    assert all(r["flag"] == "0" for r in group)


def test_score_baseline_methods_write_reports(tmp_path):
    run(["fixture", "--out", tmp_path / "fx"])
    for method in ("lof", "odin"):
        assert run(["score", "--input", tmp_path / "fx.csv", "--method", method,
                    "--out", tmp_path / method]) == 0
        rows = read_rows(tmp_path / f"{method}.scores.csv")
        assert len(rows) == 199
        assert {"id", "score", "flag", "rank"} <= set(rows[0])


def test_score_baseline_ranks_order_scores_with_id_ties(tmp_path):
    # LOF ranks the highest score first and ODIN the lowest in-degree;
    # equal scores rank by ascending id
    run(["fixture", "--out", tmp_path / "fx"])
    for method, sign in (("lof", -1.0), ("odin", 1.0)):
        assert run(["score", "--input", tmp_path / "fx.csv", "--method", method,
                    "--out", tmp_path / method]) == 0
        rows = read_rows(tmp_path / f"{method}.scores.csv")
        ranks = np.array([int(r["rank"]) for r in rows])
        assert sorted(ranks.tolist()) == list(range(1, len(rows) + 1))
        by_rank = np.argsort(ranks)
        key = sign * np.array([float(rows[i]["score"]) for i in by_rank])
        assert np.all(np.diff(key) >= 0), method
        ties = np.diff(key) == 0
        assert np.all(np.diff(by_rank)[ties] > 0), method
        if method == "odin":
            assert ties.any()


def test_score_header_narrower_than_rows_exits_3(tmp_path, capsys):
    (tmp_path / "x.csv").write_text("a,b\n" + "1,2,3\n" * 5)
    rc = run(["score", "--input", tmp_path / "x.csv", "--out", tmp_path / "s"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "ParseError" in err and "2 cells" in err and "rows 3" in err


def test_score_threshold_override_recorded(tmp_path):
    run(["fixture", "--out", tmp_path / "fx"])
    assert run(["score", "--input", tmp_path / "fx.csv", "--method", "ios",
                "--threshold", "3.25", "--out", tmp_path / "s"]) == 0
    rep = json.loads((tmp_path / "s.scores.json").read_text())
    assert rep["thresholds"] == {"oos": 3.25, "ios": 3.25}


@pytest.mark.parametrize("argv", [["--threshold", "nan"], ["--s-min", "nan"],
                                  ["--s-min", "-0.5"], ["--s-min", "1.5"]])
def test_score_nan_threshold_or_s_min_off_range_exits_2_without_outputs(
        tmp_path, capsys, argv):
    run(["fixture", "--out", tmp_path / "fx"])
    rc = run(["score", "--input", tmp_path / "fx.csv", *argv, "--out", tmp_path / "s"])
    assert rc == 2
    assert "ConfigError" in capsys.readouterr().err
    assert not list(tmp_path.glob("s.*"))


@pytest.mark.parametrize("value, n_flagged", [("inf", 7), ("-inf", 199)])
def test_score_infinite_threshold_is_valid(tmp_path, capsys, value, n_flagged):
    # +inf leaves only the s_min filter flagging; -inf flags every point
    run(["fixture", "--out", tmp_path / "fx"])
    capsys.readouterr()
    assert run(["score", "--input", tmp_path / "fx.csv", f"--threshold={value}",
                "--out", tmp_path / "s"]) == 0
    assert f"{n_flagged} flagged" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["inf", "-inf"])
def test_score_infinite_threshold_is_written_as_strict_json(tmp_path, value):
    run(["fixture", "--out", tmp_path / "fx"])
    assert run(["score", "--input", tmp_path / "fx.csv", f"--threshold={value}",
                "--out", tmp_path / "s"]) == 0
    for doc in (strict_json(tmp_path / "s.scores.json"),
                strict_json(tmp_path / "s.manifest.json")["params"]):
        assert doc["thresholds"] == {"oos": value, "ios": value}


@pytest.mark.parametrize("method", ["lof", "odin"])
@pytest.mark.parametrize("option", [["--digraph", "rk-approx"], ["--shape", "gaussian"],
                                    ["--threshold", "3"], ["--s-min", "0.1"],
                                    ["--k", "5"]],
                         ids=["digraph", "shape", "threshold", "s-min", "k"])
def test_score_baseline_given_a_ccd_option_exits_2_without_outputs(
        tmp_path, capsys, method, option):
    run(["fixture", "--out", tmp_path / "fx"])
    rc = run(["score", "--input", tmp_path / "fx.csv", "--method", method, *option,
              "--out", tmp_path / "s"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "ConfigError" in err and option[0] in err
    assert not list(tmp_path.glob("s.*"))


def test_score_missing_input_exits_3_without_outputs(tmp_path, capsys):
    rc = run(["score", "--input", tmp_path / "nope.csv", "--out", tmp_path / "s"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error [score]")
    assert not (tmp_path / "s.scores.csv").exists()
    assert not (tmp_path / "s.manifest.json").exists()


@pytest.mark.parametrize("command", ["gen", "fixture", "score", "eval", "bench"])
def test_output_that_cannot_be_written_exits_3_naming_it(tmp_path, capsys, command):
    data = tmp_path / "data"
    assert run(["gen", "--regime", "uniform", "--d", "2", "--n", "60",
                "--outlier-fraction", "0.05", "--out", data]) == 0
    report = tmp_path / "flags.csv"
    report.write_text("flag\n" + "0\n" * 59 + "1\n")
    grid = tmp_path / "grid.json"
    write_grid(grid, [{"regime": "uniform", "d": 2, "n": 60,
                       "outlier_fraction": 0.05}], 1)
    # every command writes below a directory that does not exist, except
    # bench, whose output directory is an existing file
    bad = tmp_path / "nodir" / "x"
    argv = {
        "gen": ["gen", "--regime", "uniform", "--d", "2", "--n", "60", "--out", bad],
        "fixture": ["fixture", "--out", bad],
        "score": ["score", "--input", f"{data}.csv", "--out", bad],
        "eval": ["eval", "--data", f"{data}.csv", "--out", bad, report],
        "bench": ["bench", "--grid", grid, "--methods", "odin", "--out", f"{data}.csv"],
    }[command]
    capsys.readouterr()
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error [{command}]")
    assert str(argv[-1] if command == "bench" else bad) in err
    assert "Traceback" not in err


def test_bench_out_naming_a_file_exits_3_before_any_cell(tmp_path, capsys, monkeypatch):
    def no_cell(*args, **kwargs):
        raise AssertionError("the bench ran before its output path was checked")

    monkeypatch.setattr(cli, "run_monte_carlo", no_cell)
    grid = tmp_path / "grid.json"
    write_grid(grid, [{"regime": "uniform", "d": 2, "n": 60,
                       "outlier_fraction": 0.05}], 1)
    taken = tmp_path / "taken"
    taken.write_text("")
    for out in (taken, taken / "sub"):
        assert run(["bench", "--grid", grid, "--methods", "odin", "--out", out]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error [bench] NotADirectoryError") and str(taken) in err
    assert taken.read_text() == ""


def test_gen_rejects_unknown_regime(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["gen", "--regime", "spiral", "--d", "2", "--n", "50",
             "--out", tmp_path / "x"])
    assert exc.value.code == 2


def test_gen_bad_fraction_exits_2(tmp_path, capsys):
    rc = run(["gen", "--regime", "uniform", "--d", "2", "--n", "100",
              "--outlier-fraction", "0.9", "--out", tmp_path / "x"])
    assert rc == 2
    assert "error [gen]" in capsys.readouterr().err


def write_grid(path, configs, replicates):
    path.write_text(json.dumps({"configs": configs, "replicates": replicates}))


def test_bench_outputs_and_reruns_identically(tmp_path):
    grid = tmp_path / "grid.json"
    write_grid(grid, [{"regime": "uniform", "d": 2, "n": 80,
                       "outlier_fraction": 0.05}], 2)
    base = ["bench", "--grid", grid, "--methods", "ios-fixed,odin", "--seed", "11"]
    assert run(base + ["--out", tmp_path / "r1"]) == 0
    assert run(base + ["--out", tmp_path / "r2"]) == 0
    assert run(base + ["--workers", "2", "--out", tmp_path / "r3"]) == 0
    for name in ("raw.csv", "aggregate.csv", "ranking.csv", "results.json"):
        b1 = (tmp_path / "r1" / name).read_bytes()
        assert b1 == (tmp_path / "r2" / name).read_bytes()
        assert b1 == (tmp_path / "r3" / name).read_bytes()
    assert (tmp_path / "r1" / "timings.csv").exists()
    man = json.loads((tmp_path / "r1" / "manifest.json").read_text())
    assert man["command"] == "bench"


def test_bench_exit_4_when_nothing_succeeds(tmp_path, capsys):
    # lof needs n > 30, so at n=25 every lof row fails: alone it exits 4;
    # beside odin the bench exits 0 and writes the lof rows' NaN metrics
    # as strict JSON
    grid = tmp_path / "grid.json"
    write_grid(grid, [{"regime": "uniform", "d": 2, "n": 25,
                       "outlier_fraction": 0.08}], 2)
    rc = run(["bench", "--grid", grid, "--methods", "lof",
              "--out", tmp_path / "r"])
    assert rc == 4
    assert run(["bench", "--grid", grid, "--methods", "lof,odin",
                "--out", tmp_path / "both"]) == 0
    raw = strict_json(tmp_path / "both" / "results.json")["raw"]
    assert strict_json(tmp_path / "both" / "manifest.json")["command"] == "bench"
    lof_rows = [r for r in raw if r["method"] == "lof"]
    assert len(lof_rows) == 2 and all(r["error"] and r["f2"] == "nan" for r in lof_rows)
    assert not any(r["error"] for r in raw if r["method"] == "odin")


def test_bench_unknown_method_exits_2(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    write_grid(grid, [{"regime": "uniform", "d": 2, "n": 60,
                       "outlier_fraction": 0.05}], 1)
    rc = run(["bench", "--grid", grid, "--methods", "knn-mean",
              "--out", tmp_path / "r"])
    assert rc == 2
    assert "error [bench]" in capsys.readouterr().err


def test_bench_grid_with_non_objects_exits_2(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    for doc in ({"configs": [5]}, None):
        grid.write_text(json.dumps(doc))
        rc = run(["bench", "--grid", grid, "--out", tmp_path / "r"])
        assert rc == 2, doc
        assert "error [bench]" in capsys.readouterr().err


def test_bench_grid_with_non_integer_replicates_exits_2(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    write_grid(grid, [{"regime": "uniform", "d": 2, "n": 60}], "abc")
    rc = run(["bench", "--grid", grid, "--out", tmp_path / "r"])
    assert rc == 2
    assert "replicates" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("methods", ["odin,odin", "ios-fixed,lof,ios-fixed", "lof,odin,lof"])
def test_bench_repeated_method_exits_2_without_outputs(tmp_path, capsys, methods):
    grid = tmp_path / "grid.json"
    write_grid(grid, [{"regime": "uniform", "d": 2, "n": 60, "outlier_fraction": 0.05}], 2)
    rc = run(["bench", "--grid", grid, "--methods", methods, "--out", tmp_path / "r"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error [bench] ConfigError" in err and "more than once" in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("replicates", [2.7, 2.0, True, "2", None])
def test_bench_grid_with_non_integer_replicates_value_exits_2(tmp_path, capsys,
                                                             replicates):
    grid = tmp_path / "grid.json"
    write_grid(grid, [{"regime": "uniform", "d": 2, "n": 60}], replicates)
    rc = run(["bench", "--grid", grid, "--methods", "odin", "--out", tmp_path / "r"])
    assert rc == 2
    assert "replicates must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_bench_grid_with_non_integer_dimension_or_size_exits_2(tmp_path, capsys):
    # numpy would reject the float deep inside every cell, and the bench exit 4
    grid = tmp_path / "grid.json"
    for bad in ({"d": 2.5}, {"n": 60.5}):
        write_grid(grid, [{"regime": "uniform", "d": 2, "n": 60, **bad}], 1)
        rc = run(["bench", "--grid", grid, "--out", tmp_path / "r"])
        assert rc == 2, bad
        assert "must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("grid_s_min, argv", [
    (float("nan"), []), (None, ["--s-min", "nan"]), (None, ["--s-min", "1.5"]),
    (None, ["--workers", "0"]), (None, ["--workers", "-3"]), (True, []), ("0.04", [])])
def test_bench_bad_s_min_or_workers_exits_2_without_outputs(tmp_path, capsys,
                                                           grid_s_min, argv):
    # s_min is the --s-min option's alone: a grid's, whatever its value, is
    # an unknown key
    doc = {"configs": [{"regime": "uniform", "d": 2, "n": 80, "outlier_fraction": 0.05}],
           "replicates": 1}
    if grid_s_min is not None:
        doc["s_min"] = grid_s_min
    (tmp_path / "grid.json").write_text(json.dumps(doc))
    rc = run(["bench", "--grid", tmp_path / "grid.json", "--methods", "ios-fixed",
              *argv, "--out", tmp_path / "r"])
    assert rc == 2
    assert "ConfigError" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("argv", [
    ["gen", "--regime", "uniform", "--d", "2", "--n", "60", "--seed", "-3"],
    ["fixture", "--seed", "-1"],
    ["bench", "--grid", "GRID", "--methods", "odin", "--seed", "-1"]])
def test_negative_seed_exits_2_without_outputs(argv, tmp_path, capsys):
    grid = tmp_path / "grid.json"
    write_grid(grid, [{"regime": "uniform", "d": 2, "n": 60, "outlier_fraction": 0.05}], 1)
    rc = run([grid if a == "GRID" else a for a in argv] + ["--out", tmp_path / "x"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "ConfigError" in err and "seed must be >= 0" in err
    assert not list(tmp_path.glob("x*"))


HOSTILE_SIM_FLOATS = [("parent_intensity", "inf"), ("parent_intensity", "nan"),
                      ("parent_intensity", "1e19"), ("gaussian_scale", "nan"),
                      ("gaussian_scale", "inf"), ("cluster_radius", "nan"),
                      ("outlier_min_separation", "nan"), ("outlier_min_separation", "inf")]


@pytest.mark.parametrize("field, value", HOSTILE_SIM_FLOATS)
def test_gen_non_finite_or_huge_float_exits_2_without_outputs(field, value, tmp_path,
                                                              capsys):
    option = "--min-separation" if field == "outlier_min_separation" else (
        "--" + field.replace("_", "-"))
    rc = run(["gen", "--regime", "mixed", "--d", "2", "--n", "60", "--outlier-fraction",
              "0.05", option, value, "--out", tmp_path / "x"])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"ConfigError: {field} must be" in err and "Traceback" not in err
    assert not list(tmp_path.glob("x*"))


@pytest.mark.parametrize("regime, argv, message", [
    ("thomas", ["--gaussian-scale", "1e308"], "gaussian_scale must keep"),
    ("mixed", ["--gaussian-scale", "1e308"], "gaussian_scale must keep"),
    ("thomas", ["--gaussian-scale", "1e200", "--outlier-fraction", "0.05"],
     "outlier distances to the inliers overflow"),
], ids=["thomas", "mixed", "thomas-outlier-distances"])
def test_gen_whose_gaussian_draw_overflows_exits_2_without_outputs(regime, argv, message,
                                                                   tmp_path, capsys):
    # a finite gaussian_scale passes the config's checks, and only the
    # scaled normal draws overflow float64, or at 1e200 the squared
    # distances from an outlier candidate to the inliers
    rc = run(["gen", "--regime", regime, "--d", "2", "--n", "60", *argv,
              "--out", tmp_path / "x"])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"ConfigError: {message}" in err and "Traceback" not in err
    assert not list(tmp_path.glob("x*"))


@pytest.mark.parametrize("field, value", HOSTILE_SIM_FLOATS)
def test_bench_grid_with_non_finite_or_huge_float_exits_2_without_outputs(
        field, value, tmp_path, capsys):
    # json writes and reads NaN and Infinity as floats
    grid = tmp_path / "grid.json"
    write_grid(grid, [{"regime": "mixed", "d": 2, "n": 60, "outlier_fraction": 0.05,
                       field: float(value)}], 1)
    rc = run(["bench", "--grid", grid, "--methods", "odin", "--out", tmp_path / "r"])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"ConfigError: {field} must be" in err and "Traceback" not in err
    assert not (tmp_path / "r").exists()


def test_bench_zero_replicates_exits_2(tmp_path, capsys):
    # 0 is a count, not a missing key: it must not fall back to the default
    grid = tmp_path / "grid.json"
    write_grid(grid, [{"regime": "uniform", "d": 2, "n": 60}], 0)
    rc = run(["bench", "--grid", grid, "--out", tmp_path / "r"])
    assert rc == 2
    assert "replicates" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_bench_grid_with_non_list_methods_exits_2(tmp_path, capsys):
    # methods are the --methods option's alone: a grid naming any exits 2
    grid = tmp_path / "grid.json"
    configs = [{"regime": "uniform", "d": 2, "n": 60}]
    for methods in (5, "ios-un", ["ios-un", 3], ["odin"]):
        grid.write_text(json.dumps({"configs": configs, "methods": methods}))
        rc = run(["bench", "--grid", grid, "--out", tmp_path / "r"])
        assert rc == 2, methods
        assert "unknown grid key(s): ['methods']" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("extra", [
    {"s_min": 0.1}, {"replicate": 2}, {"method": ["odin"], "replicate": 1}])
def test_bench_grid_with_a_key_besides_configs_and_replicates_exits_2(tmp_path, capsys,
                                                                     extra):
    # a misspelled key must not fall back to a default in silence
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"configs": [{"regime": "uniform", "d": 2, "n": 60}],
                                "replicates": 1, **extra}))
    rc = run(["bench", "--grid", grid, "--methods", "odin", "--out", tmp_path / "r"])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"ConfigError: unknown grid key(s): {sorted(extra)}" in err
    assert not (tmp_path / "r").exists()


def test_bench_empty_methods_exits_2(tmp_path, capsys):
    # an empty --methods is given, not missing: it names the method ''
    grid = tmp_path / "grid.json"
    write_grid(grid, [{"regime": "uniform", "d": 2, "n": 60}], 1)
    rc = run(["bench", "--grid", grid, "--methods", "", "--out", tmp_path / "r"])
    assert rc == 2
    assert "unknown method ''" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_bench_empty_configs_exits_2_without_outputs(tmp_path, capsys):
    # no cell to run is a configuration error, not a bench whose cells all
    # failed (exit 4)
    grid = tmp_path / "grid.json"
    write_grid(grid, [], 1)
    rc = run(["bench", "--grid", grid, "--methods", "odin", "--out", tmp_path / "r"])
    assert rc == 2
    assert "ConfigError: the configs list is empty" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_eval_scores_saved_flags(tmp_path):
    run(["fixture", "--out", tmp_path / "fx"])
    run(["score", "--input", tmp_path / "fx.csv", "--method", "ios",
         "--out", tmp_path / "s"])
    rc = run(["eval", "--data", tmp_path / "fx.csv",
              "--out", tmp_path / "m", tmp_path / "s.scores.csv"])
    assert rc == 0
    rows = read_rows(tmp_path / "m.metrics.csv")
    assert len(rows) == 1
    assert int(rows[0]["tp"]) + int(rows[0]["fn"]) == 9
    assert 0.0 <= float(rows[0]["f2"]) <= 1.0


@pytest.mark.parametrize("cell", ["yes", "2", "-1"])
def test_eval_malformed_flag_cell_exits_2(tmp_path, capsys, cell):
    run(["fixture", "--out", tmp_path / "fx"])
    run(["score", "--input", tmp_path / "fx.csv", "--method", "ios",
         "--out", tmp_path / "s"])
    report = tmp_path / "s.scores.csv"
    rows = report.read_text().splitlines()
    head = rows[0].split(",")
    cells = rows[3].split(",")
    cells[head.index("flag")] = cell
    rows[3] = ",".join(cells)
    report.write_text("\n".join(rows) + "\n")
    rc = run(["eval", "--data", tmp_path / "fx.csv", "--out", tmp_path / "m", report])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error [eval]" in err and "s.scores.csv line 4" in err and f"'{cell}'" in err
    assert not (tmp_path / "m.metrics.csv").exists()


@pytest.mark.parametrize("beta", ["nan", "inf", "-1"])
def test_eval_bad_beta_exits_2_without_outputs(tmp_path, capsys, beta):
    run(["fixture", "--out", tmp_path / "fx"])
    run(["score", "--input", tmp_path / "fx.csv", "--out", tmp_path / "s"])
    rc = run(["eval", "--data", tmp_path / "fx.csv", "--beta", beta,
              "--out", tmp_path / "m", tmp_path / "s.scores.csv"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error [eval] ConfigError" in err and "beta" in err
    assert not (tmp_path / "m.metrics.csv").exists()


def test_eval_beta_zero_scores_precision(tmp_path):
    run(["fixture", "--out", tmp_path / "fx"])
    run(["score", "--input", tmp_path / "fx.csv", "--out", tmp_path / "s"])
    rc = run(["eval", "--data", tmp_path / "fx.csv", "--beta", "0",
              "--out", tmp_path / "m", tmp_path / "s.scores.csv"])
    assert rc == 0
    row = read_rows(tmp_path / "m.metrics.csv")[0]
    tp, fp = int(row["tp"]), int(row["fp"])
    assert float(row["f0"]) == pytest.approx(tp / (tp + fp) if tp else 0.0)


def test_score_rejects_the_removed_backend_option(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["score", "--input", tmp_path / "x.csv", "--backend", "kdtree",
             "--out", tmp_path / "s"])
    assert exc.value.code == 2


def test_score_extreme_scale_without_normalization_exits_3(tmp_path, capsys):
    pts = np.random.default_rng(0).random((60, 3)) * 1e300
    write_csv(PointSet(pts), tmp_path / "huge.csv")
    rc = run(["score", "--input", tmp_path / "huge.csv", "--no-normalize",
              "--out", tmp_path / "s"])
    assert rc == 3
    assert "overflows" in capsys.readouterr().err


def test_score_tiny_scale_without_normalization_exits_3(tmp_path, capsys):
    # 1e-300: the squared spread is 0; 1e-160 and 1e-155: it is subnormal
    for scale in (1e-300, 1e-160, 1e-155):
        pts = np.random.default_rng(0).random((60, 3)) * scale
        write_csv(PointSet(pts), tmp_path / "tiny.csv")
        rc = run(["score", "--input", tmp_path / "tiny.csv", "--no-normalize",
                  "--out", tmp_path / "s"])
        assert rc == 3, scale
        assert "underflows" in capsys.readouterr().err


@pytest.mark.parametrize("d,scale,normalize", [(400, 1.0, True), (300, 1.0, True), (50, 1e-7, False)])
def test_score_density_out_of_float_range_exits_3(tmp_path, capsys, d, scale, normalize):
    # r**d leaves float64 range on these points, the d-th root does not:
    # they score without NaN
    pts = np.random.default_rng(1).standard_normal((300, d)) * scale
    write_csv(PointSet(pts), tmp_path / "x.csv")
    argv = ["score", "--input", tmp_path / "x.csv", "--out", tmp_path / "ok"]
    assert run(argv + ([] if normalize else ["--no-normalize"])) == 0
    rows = read_rows(tmp_path / "ok.scores.csv")
    assert len(rows) == 300
    assert not any(np.isnan(float(r[c])) for r in rows for c in ("rho", "oos", "ios_std"))
    # their first column as d=1 balls near 1e-151 puts the density above the
    # range where the scores' float64 sums hold: a data error, not NaN scores
    write_csv(PointSet(pts[:, :1] / scale * 1e-150), tmp_path / "x.csv")
    rc = run(["score", "--input", tmp_path / "x.csv", "--no-normalize",
              "--out", tmp_path / "s"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "DegenerateDataError" in err and "ball density" in err
    assert not (tmp_path / "s.scores.csv").exists()


def test_score_density_mode_is_not_an_option(tmp_path, capsys):
    write_csv(PointSet(np.random.default_rng(1).random((30, 2))), tmp_path / "x.csv")
    with pytest.raises(SystemExit) as exc:
        run(["score", "--input", tmp_path / "x.csv", "--density-mode", "ratio-root",
             "--out", tmp_path / "s"])
    assert exc.value.code == 2
    assert not (tmp_path / "s.scores.csv").exists()


def test_baseline_scores_json_is_strict(tmp_path):
    # 40 copies of one point give LOF infinite and undefined scores
    rng = np.random.default_rng(3)
    pts = np.vstack([rng.random((60, 2)), np.repeat(rng.random((1, 2)), 40, axis=0)])
    write_csv(PointSet(pts), tmp_path / "dup.csv")
    with np.errstate(invalid="ignore"):
        assert run(["score", "--input", tmp_path / "dup.csv", "--method", "lof",
                    "--out", tmp_path / "s"]) == 0
    doc = strict_json(tmp_path / "s.scores.json")
    scores = doc["points"]["score"]
    text = {v for v in scores if isinstance(v, str)}
    assert text and text <= {"inf", "-inf", "nan"}
    csv_scores = [row["score"] for row in read_rows(tmp_path / "s.scores.csv")]
    assert [str(v) if isinstance(v, str) else repr(v) for v in scores] == csv_scores


ROOT = Path(__file__).resolve().parents[1]


def run_fresh(args):
    """Run the interpreter with args in a new process that imports the
    package from this checkout."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)},
    )


def test_module_entry_point_smoke():
    assert run_fresh(["-m", "ccdscore", "--version"]).returncode == 0


def test_start_up_and_rk_scoring_leave_scipy_stats_unloaded(tmp_path):
    # the rk envelope's z comes from scipy.special, which scipy.spatial
    # loads anyway; importing scipy.stats would double the start-up. A
    # fresh interpreter, since the test oracles load scipy.stats here.
    rng = np.random.default_rng(7)
    write_csv(PointSet(rng.random((80, 3))), tmp_path / "pts.csv")
    code = (
        "import sys\n"
        "import ccdscore, ccdscore.cli, ccdscore.bench\n"
        "rc = ccdscore.cli.main(['score', '--input', sys.argv[1], '--digraph',\n"
        "                        'rk-approx', '--out', sys.argv[2]])\n"
        "assert rc == 0, rc\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))\n"
    )
    out = run_fresh(["-c", code, str(tmp_path / "pts.csv"), str(tmp_path / "s")])
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "s.scores.csv").exists()


NOT_UTF8 = b"x,y,label\n0.1,0.2,0\n0.3,\xff\xfe,0\n"
HUGE_FIELD = b"x,y,label\n0.1,0.2,0\n0.3," + b"9" * 200_000 + b",0\n"
LABEL_ONLY = b"label\n0\n1\n0\n"  # no coordinate column once the label is taken


@pytest.mark.parametrize("content", [NOT_UTF8, HUGE_FIELD, LABEL_ONLY],
                         ids=["not-utf8", "huge-field", "label-only"])
@pytest.mark.parametrize("argv", [
    ["score", "--input", "{data}", "--out", "{tmp}/s"],
    ["score", "--input", "{data}", "--no-header", "--out", "{tmp}/s"],
    ["eval", "--data", "{data}", "--out", "{tmp}/m", "{tmp}/unused.csv"],
], ids=["score", "score-no-header", "eval-data"])
def test_hostile_bytes_in_input_data_exit_3(tmp_path, capsys, content, argv):
    (tmp_path / "bad.csv").write_bytes(content)
    rc = run([a.format(data=tmp_path / "bad.csv", tmp=tmp_path) for a in argv])
    assert rc == 3
    err = capsys.readouterr().err
    assert "ParseError" in err and "Traceback" not in err


@pytest.mark.parametrize("content", [b"id,flag\n0,0\n1,\xff\n", b"id,flag\n0,0\n1," + b"0" * 200_000],
                         ids=["not-utf8", "huge-field"])
def test_hostile_bytes_in_eval_report_exit_2(tmp_path, capsys, content):
    run(["fixture", "--out", tmp_path / "fx"])
    (tmp_path / "bad.scores.csv").write_bytes(content)
    rc = run(["eval", "--data", tmp_path / "fx.csv", "--out", tmp_path / "m",
              tmp_path / "bad.scores.csv"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "ConfigError" in err and "bad.scores.csv" in err
    assert not (tmp_path / "m.metrics.csv").exists()


def test_grid_file_not_utf8_exits_2(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_bytes(b'{"configs": [], "name": "\xff\xfe"}')
    rc = run(["bench", "--grid", grid, "--out", tmp_path / "r"])
    assert rc == 2
    assert "ConfigError" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_manifest_records_the_argv_main_parsed(tmp_path):
    argv = ["fixture", "--seed", "2", "--out", str(tmp_path / "fx")]
    assert main(argv) == 0
    man = json.loads((tmp_path / "fx.manifest.json").read_text())
    assert man["command"] == "fixture"
    assert man["argv"] == argv


def _hostile_columns(kind, n=300):
    rng = np.random.default_rng(7)
    t = rng.random(n)
    if kind == "single-column":
        return t[:, None]
    if kind == "collinear":
        return np.column_stack([t, 2.0 * t, 1.0 - t])
    if kind == "plane-in-3d":
        u = rng.random(n)
        return np.column_stack([t, u, t + u])
    if kind == "wide":  # the volume of the unit ball underflows from d = 453
        return rng.random((40, 460))
    if kind == "overflow":  # 1e300 over a MADN near 1e-300 overflows float64
        return np.column_stack([np.append(np.arange(1, 40) * 1e-300, 1e300), t[:40]])
    if kind == "lattice":  # ties leave most table rows open after the first pass
        return np.array([(i, j) for i in range(40) for j in range(40)], dtype=np.float64)
    if kind == "copies":  # all un-approx radii are zero, so the radius floor runs
        cfg = SimConfig(regime="uniform", d=2, n=200, outlier_fraction=0.05)
        return np.repeat(generate(cfg).points, 4, axis=0)
    return np.column_stack([np.full(n, 4.0), rng.standard_normal((n, 2))])


@pytest.mark.parametrize("digraph", ["fixed-k", "rk-approx", "un-approx"])
@pytest.mark.parametrize("kind", ["single-column", "collinear", "plane-in-3d",
                                  "constant-column", "wide", "overflow", "lattice",
                                  "copies"])
def test_score_degenerate_geometry_exits_2_3_or_reports_without_nan(tmp_path, kind, digraph):
    # a single column, collinear columns, columns spanning a plane, a
    # constant column next to two normal ones, 460 columns (the unit
    # ball's volume underflows from d = 453), a 40x40 integer lattice and
    # a gen file with every row 4 times give a report without NaN whose
    # ranks are a permutation; a column whose normalization overflows
    # exits 3
    pts = _hostile_columns(kind)
    write_csv(PointSet(pts), tmp_path / "x.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CcdScoreWarning)  # zero MADN columns
        rc = run(["score", "--input", tmp_path / "x.csv", "--digraph", digraph,
                  "--out", tmp_path / "s"])
    if kind == "overflow":
        assert rc == 3
        assert not list(tmp_path.glob("s.*"))
        return
    assert rc == 0
    doc = strict_json(tmp_path / "s.scores.json")
    cols = doc["points"]
    for name in ("rho", "oos", "ios_raw", "ios_std", "ios_std_naive"):
        assert "nan" not in cols[name], name
        assert not np.isnan([float(v) for v in cols[name]]).any(), name
    everyone = list(range(1, len(pts) + 1))
    assert sorted(cols["oos_rank"]) == everyone
    assert sorted(cols["ios_rank"]) == everyone
    rows = read_rows(tmp_path / "s.scores.csv")
    assert len(rows) == len(pts)
    assert not any("nan" in v for r in rows for v in r.values())
    if (kind, digraph) == ("constant-column", "rk-approx"):
        # the rk window spans only the axes that vary
        assert 0 < sum(r["flag"] == "1" for r in rows) < len(pts)


def test_score_notes_when_s_min_flags_most_points(tmp_path, capsys):
    # un-approx splits one uniform column into clusters of at most 7 of
    # 300 points, all below s_min 0.04; the note goes to stderr and is no
    # Python warning
    write_csv(PointSet(_hostile_columns("single-column")), tmp_path / "x.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run(["score", "--input", tmp_path / "x.csv", "--digraph", "un-approx",
                  "--out", tmp_path / "s"])
    assert rc == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("note: s_min 0.04 flags 300 of 300 points")
    assert "largest of 122 clusters holds 2.3% of the points" in err[0]
    n_score = int(err[0].split("the ios threshold alone ")[1].split(";")[0])
    doc = json.loads((tmp_path / "s.scores.json").read_text())
    ios_std = np.array(doc["points"]["ios_std"], dtype=np.float64)
    assert n_score == int((ios_std > doc["thresholds"]["ios"]).sum()) < 150


def test_score_on_planted_outliers_prints_no_note(tmp_path, capsys):
    run(["fixture", "--out", tmp_path / "fx"])
    capsys.readouterr()
    assert run(["score", "--input", tmp_path / "fx.csv", "--out", tmp_path / "s"]) == 0
    assert capsys.readouterr().err == ""
