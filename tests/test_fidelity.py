import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "fidelity" / "run.py"

GRID = {
    "replicates": 2,
    "configs": [
        {"regime": "uniform", "d": 2, "n": 60, "outlier_fraction": 0.05},
        {"regime": "thomas", "d": 5, "n": 60, "outlier_fraction": 0.05},
    ],
}


def test_fidelity_run_is_deterministic_and_writes_every_field(tmp_path):
    (tmp_path / "grid.json").write_text(json.dumps(GRID))
    out = tmp_path / "fidelity.json"
    # the runner imports the package from its own checkout
    args = [sys.executable, str(RUN), "--grid", str(tmp_path / "grid.json"),
            "--held-out-seed", "8", "--out", str(out)]
    texts = []
    for _ in range(2):
        proc = subprocess.run(args, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        texts.append(out.read_text())
    assert texts[0] == texts[1]
    doc = json.loads(texts[0])
    assert set(doc) == {"command", "versions", "blas_pin", "grid", "replicates", "seeds", "runs"}
    assert set(doc["versions"]) == {"ccdscore", "numpy", "scipy", "python"}
    assert set(doc["blas_pin"].values()) == {"1"}
    assert doc["seeds"] == {"development": 7, "held_out": 8}
    methods = ["oos-fixed", "ios-fixed", "oos-rk", "ios-rk", "oos-un", "ios-un", "lof", "odin"]
    for role, run in doc["runs"].items():
        assert run["seed"] == doc["seeds"][role]
        assert run["failed_rows"] == sum(run["errors"].values())
        assert list(run["methods"]) == methods
        for summary in run["methods"].values():
            assert set(summary) == {"mean_f2", "mean_f2_by_d", "mean_rank"}
            assert set(summary["mean_f2_by_d"]) == {"2", "5"}
        assert [(a["config_index"], a["method"]) for a in run["aggregate"]] == [
            (ci, m) for ci in range(2) for m in methods
        ]
