"""Command line entry point: generate data, score files, run the bench,
and evaluate flag files against labeled data.

Exit codes: 0 success, 2 bad configuration or usage, 3 unreadable or
invalid data or an output that cannot be written, 4 bench finished with
no successful cell.
"""

from __future__ import annotations

import argparse
import csv
import errno
import json
import os
import platform
import sys
from dataclasses import MISSING, fields
from typing import get_type_hints

import numpy as np
import scipy

from . import __version__
from .bench import (
    BASELINE_METHODS,
    BETA,
    DEFAULT_REPLICATES,
    DEFAULT_S_MIN,
    METHODS,
    Confusion,
    aggregate,
    metrics,
    rank_methods,
    run_monte_carlo,
    write_aggregate_csv,
    write_ranking_csv,
    write_raw_csv,
    write_results_json,
    write_timings_csv,
)
from .dataset import build_index, column_robust_stats, load_csv, robust_normalize, write_csv
from .errors import BadKError, CcdScoreError, ConfigError
from .graph import FIXED_K, RADIUS_KINDS, RadiusStrategy
from .scores import (
    CLUSTER_SHAPES,
    SCORE_KINDS,
    descending_ranks,
    dump_json,
    flag_outliers,
    score_point_set,
    small_cluster_flags,
    write_baseline_report,
)
from .simgen import REGIMES, SimConfig, generate, masking_fixture

# The score options only the CCD scores read, with their defaults; a
# baseline method given any of them exits 2.
_CCD_SCORE_OPTIONS = {"digraph": FIXED_K, "shape": "uniform", "threshold": None,
                      "s_min": DEFAULT_S_MIN, "k": None}

# gen takes one option per SimConfig field, --<field> with dashes, except
# these two spellings.
_GEN_SPELLINGS = {"outlier_min_separation": "min-separation",
                  "collective_group": "collective"}


def _manifest(path, args, params: dict) -> None:
    doc = {
        "command": args.command,
        "argv": args.argv,
        "params": params,
        "versions": {
            "ccdscore": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
    }
    dump_json(doc, path)


def _label_column(value: str | None):
    if value is None:
        return None
    try:
        return int(value)
    except ValueError:
        return value


def _out_prefix(out: str) -> str:
    """Output arguments name a prefix; a trailing .csv is forgiven."""
    return out[:-4] if out.endswith(".csv") else out


def cmd_gen(args) -> int:
    cfg = SimConfig.from_dict({f.name: getattr(args, f.name) for f in fields(SimConfig)})
    ps = generate(cfg)
    out = _out_prefix(args.out)
    write_csv(ps, f"{out}.csv")
    dump_json(cfg.to_dict(), f"{out}.config.json")
    _manifest(f"{out}.manifest.json", args, cfg.to_dict())
    print(f"wrote {ps.n} points ({int(ps.labels.sum())} outliers) to {out}.csv")
    return 0


def cmd_fixture(args) -> int:
    fx = masking_fixture(seed=args.seed)
    out = _out_prefix(args.out)
    write_csv(fx.ps, f"{out}.csv")
    dump_json({"roles": fx.roles, "threshold_shape": fx.threshold_shape},
              f"{out}.roles.json")
    _manifest(f"{out}.manifest.json", args, {"seed": args.seed})
    print(f"wrote fixture ({fx.ps.n} points, 9 outliers) to {out}.csv")
    return 0


def _sniff_label_column(path: str) -> str | None:
    """Peek at the header row and report a literal "label" column, so
    scoring a generated file does not treat the labels as a coordinate."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            first = next(csv.reader(fh), None)
    except (OSError, UnicodeDecodeError, csv.Error):
        return None  # load_csv reports what is wrong with the file
    if first and "label" in [c.strip() for c in first]:
        return "label"
    return None


def _s_min_note(report) -> str | None:
    """A one-line note when the s_min filter alone flags more than half of
    the points, which a fragmented clustering does without any score
    standing out; None otherwise."""
    n_small = int(small_cluster_flags(report.cluster_of, report.s_min).sum())
    if 2 * n_small <= report.n:
        return None
    sizes = np.bincount(report.cluster_of)
    n_score = int(flag_outliers(report.ios_std, report.ios_threshold).sum())
    return (
        f"note: s_min {report.s_min} flags {n_small} of {report.n} points as "
        f"members of small clusters, the ios threshold alone {n_score}; the "
        f"largest of {sizes.size} clusters holds {sizes.max() / report.n:.1%} "
        "of the points"
    )


def cmd_score(args) -> int:
    baseline = METHODS.get(args.method)  # None for the ios and oos scores
    if baseline is not None:
        given = [name for name in _CCD_SCORE_OPTIONS if getattr(args, name) is not None]
        if given:
            raise ConfigError(
                f"--method {args.method} takes none of "
                + ", ".join("--" + name.replace("_", "-") for name in given)
                + "; they apply to ios and oos only"
            )
    else:
        for name, default in _CCD_SCORE_OPTIONS.items():
            if getattr(args, name) is None:
                setattr(args, name, default)
    label_column = _label_column(args.label_column)
    if label_column is None and not args.no_header:
        label_column = _sniff_label_column(args.input)
    ps = load_csv(args.input, has_header=not args.no_header, label_column=label_column)
    norm_report = None
    if not args.no_normalize:
        stats = med, madn_col, fallback = column_robust_stats(ps.points)
        norm_report = {
            "median": med.tolist(),
            "madn": madn_col.tolist(),
            "centered_only": np.flatnonzero(fallback).tolist(),
        }
        ps = robust_normalize(ps, stats=stats)

    params = {
        "input": args.input,
        "method": args.method,
        "normalize": not args.no_normalize,
        "normalization": norm_report,
    }
    out = _out_prefix(args.out)
    if baseline is None:
        report = score_point_set(ps, RadiusStrategy(args.digraph, args.k),
                                 cluster_shape=args.shape, threshold=args.threshold,
                                 s_min=args.s_min)
        report.write_csv(f"{out}.scores.csv", method=args.method)
        report.write_json(f"{out}.scores.json", method=args.method)
        params.update(report.params)
        params["thresholds"] = {"oos": report.oos_threshold, "ios": report.ios_threshold}
        params["s_min"] = args.s_min
        n_flagged = int(report.flags_for(args.method).sum())
        note = _s_min_note(report)
        if note:
            print(note, file=sys.stderr)
    else:
        scores, flags = baseline.scores(build_index(ps))
        write_baseline_report(out, args.method, scores, flags,
                              descending_ranks(baseline.sign * scores))
        n_flagged = int(flags.sum())
    _manifest(f"{out}.manifest.json", args, params)
    print(f"scored {ps.n} points with {args.method}; {n_flagged} flagged")
    return 0


def cmd_bench(args) -> int:
    try:
        with open(args.grid, "r", encoding="utf-8") as fh:
            grid = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot open grid file: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise ConfigError(f"grid file is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(grid, dict) or not isinstance(grid.get("configs"), list):
        raise ConfigError('grid file needs a "configs" list')
    extra = set(grid) - {"configs", "replicates"}
    if extra:
        raise ConfigError(f"unknown grid key(s): {sorted(extra)}; methods and "
                          "s_min are the --methods and --s-min options")
    configs = [SimConfig.from_dict(c) for c in grid["configs"]]
    methods = args.methods.split(",") if args.methods is not None else list(METHODS)
    replicates = grid.get("replicates", DEFAULT_REPLICATES)
    head = args.out  # the nearest existing ancestor must be a directory
    while head and not os.path.exists(head):
        head = os.path.dirname(head)
    if head and not os.path.isdir(head):  # exit 3 before any cell runs
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), head)
    rows = run_monte_carlo(
        configs,
        methods=methods,
        replicates=replicates,
        master_seed=args.seed,
        workers=args.workers,
        s_min=args.s_min,
    )
    os.makedirs(args.out, exist_ok=True)
    agg = aggregate(rows, methods)
    write_raw_csv(rows, os.path.join(args.out, "raw.csv"))
    write_aggregate_csv(agg, os.path.join(args.out, "aggregate.csv"))
    write_ranking_csv(rank_methods(agg), os.path.join(args.out, "ranking.csv"))
    write_timings_csv(rows, os.path.join(args.out, "timings.csv"))
    write_results_json(rows, agg, os.path.join(args.out, "results.json"))
    _manifest(
        os.path.join(args.out, "manifest.json"),
        args,
        {
            "grid": args.grid,
            "configs": [c.to_dict() for c in configs],
            "methods": methods,
            "replicates": replicates,
            "master_seed": args.seed,
            "workers": args.workers,
            "s_min": args.s_min,
        },
    )
    n_ok = sum(1 for r in rows if not r.error)
    print(f"bench wrote {len(rows)} rows to {args.out} ({n_ok} successful)")
    if n_ok == 0:
        return 4
    return 0


def _flag_cell(report_path, line: int, cell) -> int:
    if cell not in ("0", "1"):
        raise ConfigError(f"{report_path} line {line}: flag {cell!r} is not 0 or 1")
    return int(cell)


def cmd_eval(args) -> int:
    ps = load_csv(args.data, has_header=not args.no_header,
                  label_column=_label_column(args.label_column))
    if ps.labels is None:
        raise ConfigError("eval needs a labeled dataset; pass --label-column")
    out_rows = []
    for report_path in args.reports:
        try:
            with open(report_path, "r", encoding="utf-8", newline="") as fh:
                reader = csv.DictReader(fh)
                if reader.fieldnames is None or "flag" not in reader.fieldnames:
                    raise ConfigError(f"{report_path} has no 'flag' column")
                flags = np.asarray(
                    [_flag_cell(report_path, reader.line_num, row["flag"])
                     for row in reader],
                    dtype=bool,
                )
        except OSError as exc:
            raise ConfigError(f"cannot open report: {exc}") from exc
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ConfigError(f"{report_path} is not a readable CSV report: {exc}") from exc
        if flags.shape[0] != ps.n:
            raise ConfigError(
                f"{report_path} has {flags.shape[0]} rows for {ps.n} points"
            )
        conf = Confusion.from_flags(ps.labels, flags)
        ms = metrics(conf, beta=args.beta)
        out_rows.append((report_path, conf, ms))
    out = _out_prefix(args.out)
    with open(f"{out}.metrics.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["report", "tp", "fp", "tn", "fn", "tpr", "tnr", "ba",
                         f"f{args.beta:g}"])
        for path, conf, ms in out_rows:
            writer.writerow(
                [path, conf.tp, conf.fp, conf.tn, conf.fn,
                 ms.tpr, ms.tnr, ms.ba, ms.f_beta]
            )
    for path, conf, ms in out_rows:
        print(
            f"{path}: tpr={ms.tpr:.4f} tnr={ms.tnr:.4f} "
            f"ba={ms.ba:.4f} f{args.beta:g}={ms.f_beta:.4f}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccdscore",
        description="Outlier scoring on cluster catch digraphs",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic labeled dataset")
    types = get_type_hints(SimConfig)
    for f in fields(SimConfig):
        spelling = _GEN_SPELLINGS.get(f.name, f.name.replace("_", "-"))
        choices = REGIMES if f.name == "regime" else None
        g.add_argument(f"--{spelling}", dest=f.name, type=types[f.name],
                       required=f.default is MISSING,
                       default=None if f.default is MISSING else f.default,
                       choices=choices,
                       metavar=None if choices else spelling.replace("-", "_").upper())
    g.add_argument("--out", required=True, help="output path prefix")
    g.set_defaults(func=cmd_gen)

    f = sub.add_parser("fixture", help="write the fixed 2-d masking scenario")
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--out", required=True, help="output path prefix")
    f.set_defaults(func=cmd_fixture)

    s = sub.add_parser("score", help="score a CSV of points")
    s.add_argument("--input", required=True)
    s.add_argument("--no-header", action="store_true")
    s.add_argument("--label-column", default=None,
                   help="name or 0-based index of a label column to set aside")
    s.add_argument("--method", default="ios", choices=SCORE_KINDS + BASELINE_METHODS)
    s.add_argument("--digraph", default=None, choices=RADIUS_KINDS)
    s.add_argument("--shape", default=None, choices=CLUSTER_SHAPES,
                   help="cluster shape assumption for threshold lookup")
    s.add_argument("--threshold", type=float, default=None,
                   help="override the tabulated thresholds of both scores")
    s.add_argument("--s-min", type=float, default=None,
                   help="small-cluster fraction filter for ios (0 disables)")
    s.add_argument("--k", type=int, default=None)
    s.add_argument("--no-normalize", action="store_true")
    s.add_argument("--out", required=True, help="output path prefix")
    s.set_defaults(func=cmd_score)

    b = sub.add_parser("bench", help="run the Monte Carlo comparison")
    b.add_argument("--grid", required=True,
                   help="JSON file with a configs list and, optionally, replicates")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--workers", type=int, default=1)
    b.add_argument("--methods", default=None,
                   help=f"comma-separated subset of {','.join(METHODS)}")
    b.add_argument("--s-min", type=float, default=DEFAULT_S_MIN)
    b.add_argument("--out", required=True, help="output directory")
    b.set_defaults(func=cmd_bench)

    e = sub.add_parser("eval", help="score flag files against labeled data")
    e.add_argument("--data", required=True)
    e.add_argument("--no-header", action="store_true")
    e.add_argument("--label-column", default="label")
    e.add_argument("--beta", type=float, default=BETA)
    e.add_argument("--out", required=True, help="output path prefix")
    e.add_argument("reports", nargs="+", help="score-report CSVs with a flag column")
    e.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.argv = argv
    try:
        return args.func(args)
    except (CcdScoreError, OSError) as exc:
        # inputs are opened under package errors, so an OSError is an
        # output that cannot be written
        print(f"error [{args.command}] {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ConfigError, BadKError)) else 3


if __name__ == "__main__":
    raise SystemExit(main())
