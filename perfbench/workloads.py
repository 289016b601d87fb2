"""The benchmark's workloads.

Each workload makes its inputs from the workload seed with simgen in
setup(), runs one pass of the program in run() (the caller times it), and
checks what the pass produced in check() (untimed). check() returns one
Item per scored dataset or bench row, plus a sha256 digest of the pass's
score outputs so that every pass can be compared with the warm-up pass.
The program is always reached through module attributes (cli.main,
scores.score_point_set) so the tracer's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from ccdscore import cli, dataset, scores, simgen
from ccdscore.graph import un_approx

# Points of the cli-sparse fixed-k item compared against the oracle.
ORACLE_SAMPLE = 16


@dataclass
class Item:
    """The outcome of one scored dataset or one bench row."""

    name: str
    problems: list[str] = field(default_factory=list)
    f2: list[float] = field(default_factory=list)


def _quiet_main(argv: list[str]):
    """cli.main with its progress line swallowed; an escaped exception is
    returned in place of the exit code so it counts as a failed item."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    except Exception as exc:  # noqa: BLE001 - a crash is a failed item
        return f"{type(exc).__name__}: {exc}"


def _read_and_remove(paths: list[Path]) -> dict[str, bytes] | None:
    """Bytes of each output, which is then deleted so the next pass cannot
    pass on stale files. None when any output is missing."""
    out = {}
    for p in paths:
        if not p.is_file():
            return None
        out[p.name] = p.read_bytes()
        p.unlink()
    return out


class CliSparse:
    """`ccdscore score --method ios` once per radius family on a labeled CSV.

    Uniform clusters, d=5: balls are kNN-sized, so per-point neighbor
    queries and the report writers carry the cost.
    """

    name = "cli-sparse"
    digraphs = ("fixed-k", "rk-approx")

    def __init__(self, seed: int, workdir: Path, smoke: bool = False):
        self.cfg = simgen.SimConfig(
            regime="uniform", d=5, n=300 if smoke else 4000, seed=seed,
            outlier_fraction=0.05,
        )
        self.seed = seed
        self.workdir = workdir
        self.input = workdir / "cli-sparse.csv"
        self.points_per_pass = len(self.digraphs) * self.cfg.n
        self._oracle = None

    def setup(self) -> None:
        dataset.write_csv(simgen.generate(self.cfg), self.input)
        self._oracle = None

    def run(self):
        return [
            _quiet_main(["score", "--input", str(self.input), "--method", "ios",
                         "--digraph", dg, "--out", str(self.workdir / dg)])
            for dg in self.digraphs
        ]

    def oracle(self):
        """Labels, normalized points and the oracle sample, read from the
        input CSV without ccdscore."""
        if self._oracle is None:
            raw = np.loadtxt(self.input, delimiter=",", skiprows=1, ndmin=2)
            rng = np.random.default_rng([self.seed, 1])
            n = raw.shape[0]
            sample = np.sort(rng.choice(n, size=min(ORACLE_SAMPLE, n), replace=False))
            self._oracle = (
                raw[:, -1].astype(bool), checks.robust_normalize(raw[:, :-1]), sample
            )
        return self._oracle

    def check(self, codes) -> tuple[list[Item], str]:
        items, digest = [], hashlib.sha256()
        for dg, code in zip(self.digraphs, codes):
            prefix = self.workdir / dg
            files = _read_and_remove([Path(f"{prefix}.scores.csv"),
                                      Path(f"{prefix}.scores.json"),
                                      Path(f"{prefix}.manifest.json")])
            if code != 0 or files is None:
                items.append(Item(dg, [f"exit {code!r}, outputs present: {files is not None}"]))
                continue
            csv_bytes = files[f"{dg}.scores.csv"]
            json_bytes = files[f"{dg}.scores.json"]
            digest.update(csv_bytes)
            digest.update(json_bytes)
            items.append(self.check_item(dg, csv_bytes, json_bytes))
        return items, digest.hexdigest()

    def check_item(self, dg: str, csv_bytes: bytes, json_bytes: bytes) -> Item:
        labels, points, sample = self.oracle()
        doc = json.loads(json_bytes)
        pts = doc["points"]
        r = {
            "cluster": np.asarray(pts["cluster"], dtype=np.int64),
            "oos": np.asarray([float(v) for v in pts["oos"]]),
            "ios_std": np.asarray(pts["ios_std"], dtype=np.float64),
            "oos_flag": np.asarray(pts["oos_flag"], dtype=bool),
            "ios_flag": np.asarray(pts["ios_flag"], dtype=bool),
            "oos_rank": np.asarray(pts["oos_rank"], dtype=np.int64),
            "ios_rank": np.asarray(pts["ios_rank"], dtype=np.int64),
            "out_degree": np.asarray([len(c) for c in doc["digraph"]["covers"]]),
            "oos_threshold": doc["thresholds"]["oos"],
            "ios_threshold": doc["thresholds"]["ios"],
            "s_min": doc["s_min"],
        }
        if r["cluster"].size != labels.size:
            return Item(dg, [f"report has {r['cluster'].size} points, input {labels.size}"])
        problems = checks.check_report(r)
        rows = list(csv.DictReader(io.StringIO(csv_bytes.decode("utf-8"))))
        flags = np.asarray([row["flag"] == "1" for row in rows])
        ranks = np.asarray([int(row["rank"]) for row in rows])
        if not (np.array_equal(flags, r["ios_flag"]) and np.array_equal(ranks, r["ios_rank"])):
            problems.append("scores.csv flags or ranks disagree with scores.json")
        if dg == "fixed-k":
            rho = np.asarray(pts["rho"], dtype=np.float64)
            problems += checks.check_fixed_k(points, sample, rho, r["oos"])
        return Item(dg, problems, [checks.f2(labels, r["ios_flag"])])


class LibDense:
    """score_point_set with un-approx radii on a gaussian d=50 cloud.

    The criterion-6 setting: wide balls give about 600 edges per point, so
    the digraph, the mutual-edge clustering and memory carry the cost.
    There is no file I/O.
    """

    name = "lib-dense"

    def __init__(self, seed: int, workdir: Path, smoke: bool = False):
        self.cfg = simgen.SimConfig(
            regime="gaussian", d=50, n=200 if smoke else 2000, seed=seed,
            outlier_fraction=0.05,
        )
        self.points_per_pass = self.cfg.n
        self.ps = None

    def setup(self) -> None:
        self.ps = simgen.generate(self.cfg)

    def run(self):
        try:
            return scores.score_point_set(
                self.ps, un_approx(), cluster_shape="gaussian", s_min=0.04
            )
        except Exception as exc:  # noqa: BLE001 - a crash is a failed item
            return f"{type(exc).__name__}: {exc}"

    def check(self, rep) -> tuple[list[Item], str]:
        if isinstance(rep, str):
            return [Item("un-approx", [rep])], ""
        arrays = (rep.rho, rep.oos, rep.ios_raw, rep.ios_std, rep.ios_std_naive,
                  rep.cluster_of, rep.oos_flag, rep.ios_flag, rep.oos_rank,
                  rep.ios_rank, rep.digraph.radii)
        digest = hashlib.sha256()
        for a in arrays:
            digest.update(np.ascontiguousarray(a).tobytes())
        r = {
            "cluster": rep.cluster_of, "oos": rep.oos, "ios_std": rep.ios_std,
            "oos_flag": rep.oos_flag, "ios_flag": rep.ios_flag,
            "oos_rank": rep.oos_rank, "ios_rank": rep.ios_rank,
            "out_degree": np.asarray([c.size for c in rep.digraph.covers]),
            "oos_threshold": rep.oos_threshold, "ios_threshold": rep.ios_threshold,
            "s_min": rep.s_min,
        }
        labels = self.ps.labels
        item = Item("un-approx", checks.check_report(r),
                    [checks.f2(labels, rep.oos_flag), checks.f2(labels, rep.ios_flag)])
        return [item], digest.hexdigest()


# Result files that must not change by a byte between passes; timings.csv
# holds wall clock readings and manifest.json the argv, so they are left out.
BENCH_RESULT_FILES = ("raw.csv", "aggregate.csv", "ranking.csv", "results.json")


class BenchMc:
    """`ccdscore bench --workers 1` with all eight methods on a small grid.

    Many small datasets: per-call overhead, simgen, the LOF and ODIN
    neighbor tables, report reuse across a radius family, and the result
    writers. gaussian_scale 0.05 and outlier_min_separation 1.5 keep every
    cell placeable: with the defaults, simgen gives up placing cluster
    centers (gaussian, d=2) or outliers (the Neyman-Scott regimes, d=2)
    for some seeds.
    """

    name = "bench-mc"

    def __init__(self, seed: int, workdir: Path, smoke: bool = False):
        n = 120 if smoke else 400
        dims = (2,) if smoke else (2, 10)
        outlier_fraction = 0.05
        self.grid = {
            "configs": [
                {"regime": regime, "d": d, "n": n, "outlier_fraction": outlier_fraction,
                 "gaussian_scale": 0.05, "outlier_min_separation": 1.5}
                for regime in simgen.REGIMES
                for d in dims
            ],
            "replicates": 1 if smoke else 2,
        }
        self.planted = round(outlier_fraction * n)
        self.seed = seed
        self.grid_path = workdir / "grid.json"
        self.out = workdir / "bench-out"
        self.points_per_pass = 0

    def setup(self) -> None:
        self.grid_path.write_text(json.dumps(self.grid), encoding="utf-8")

    def run(self):
        return _quiet_main(["bench", "--grid", str(self.grid_path), "--seed",
                            str(self.seed), "--workers", "1", "--out", str(self.out)])

    def check(self, code) -> tuple[list[Item], str]:
        files = _read_and_remove(
            [self.out / f for f in BENCH_RESULT_FILES + ("timings.csv", "manifest.json")]
        )
        if code != 0 or files is None:
            return [Item("bench", [f"exit {code!r}, outputs present: {files is not None}"])], ""
        digest = hashlib.sha256()
        for f in BENCH_RESULT_FILES:
            digest.update(files[f])
        items, cell_n = [], {}
        for row in csv.DictReader(io.StringIO(files["raw.csv"].decode("utf-8"))):
            cell = (row["config_index"], row["replicate"])
            item = Item(f"{cell[0]}/{cell[1]}/{row['method']}")
            if row["error"]:
                item.problems.append(row["error"])
            else:
                tp, fp, tn, fn = (int(row[k]) for k in ("tp", "fp", "tn", "fn"))
                want = checks.f2_from_counts(tp, fp, fn)
                if tp + fn != self.planted:
                    item.problems.append("positives differ from the planted outliers")
                if cell_n.setdefault(cell, tp + fp + tn + fn) != tp + fp + tn + fn:
                    item.problems.append("confusion total differs within the cell")
                if abs(float(row["f2"]) - want) > 1e-12:
                    item.problems.append("f2 does not follow from the confusion")
                item.f2.append(want)
            items.append(item)
        # The Neyman-Scott regimes draw their inlier count, so a cell's n is
        # read from its confusion rather than from the grid.
        self.points_per_pass = sum(cell_n.values())
        if not items:
            items.append(Item("bench", ["raw.csv has no rows"]))
        return items, digest.hexdigest()


WORKLOADS = {w.name: w for w in (CliSparse, LibDense, BenchMc)}
