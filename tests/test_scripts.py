import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("attribution_recovery.py", ["--users", "500"]),
        ("effect_recovery.py", ["--runs", "3", "--n", "400"]),
        ("rater_calibration.py", ["--units", "300"]),
        (
            "stage_costs.py",
            ["--seed", "5", "--days", "8", "--set", "sim.n_users=700", "--set", "sim.cities=A:60,B:60",
             "--set", "wsm.eval_size=60", "--set", "wsm.epochs=5", "--set", "cli.warmup_days=4"],
        ),
    ],
)
def test_script_runs_at_small_size(script, args):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout
