import json
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
        (
            "unreached.py",
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


STAGE_COSTS_PROBE = """
import importlib.util, json, os, subprocess, sys, tempfile

spec = importlib.util.spec_from_file_location("stage_costs", sys.argv[1])
stage_costs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(stage_costs)
seen = []
real_popen = subprocess.Popen


def popen(cmd, env, **kwargs):  # records the stage's environment, writes 3 MiB as the stage's artifacts
    seen.append({name: env.get(name) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    write = "import sys; open(sys.argv[1], 'wb').write(bytes(2**20)); open(sys.argv[2], 'wb').write(bytes(2**21))"
    return real_popen([sys.executable, "-c", write, out + "/a", out + "/sub/b"], env=env, **kwargs)


with tempfile.TemporaryDirectory() as out:
    os.mkdir(out + "/sub")
    stage_costs.subprocess.Popen = popen
    cost = stage_costs.run_stage("simulate", out, [])
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "foodwatch"))
print(json.dumps({"exit": cost["exit"], "dir_mb": cost["dir_mb"], "env": seen, "loaded": loaded}))
"""


def test_stage_costs_runs_each_stage_on_one_blas_thread():
    # the launcher's own environment asks for four threads; the stage gets one,
    # as the benchmark's stages do, and the launcher loads no foodwatch or
    # numpy; the stage's line gives the size of every file it left, nested too
    env = dict(os.environ, OPENBLAS_NUM_THREADS="4", OMP_NUM_THREADS="4", MKL_NUM_THREADS="4")
    done = subprocess.run(
        [sys.executable, "-c", STAGE_COSTS_PROBE, str(ROOT / "scripts" / "stage_costs.py")],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    one = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    assert json.loads(done.stdout) == {"exit": 0, "dir_mb": 3.0, "env": [one], "loaded": []}
