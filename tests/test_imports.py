"""Import cost: a process that never fits or queries a GP never loads SciPy.

That holds for the parent of a pooled study too: its workers fit the GPs.

Each check runs in a fresh interpreter, since this test session has long
since loaded SciPy through other tests.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

SCRIPT = r"""
import json, sys

steps = {}

def note(step):
    steps[step] = "scipy" in sys.modules

import mdots
note("import mdots")

from mdots.cli import main
assert main(["reference", "--problem", "toy", "--recompute-reference"]) == 0
note("mdots reference --recompute-reference")

from mdots.external import load_external_problem
from mdots.study import resolve_reference

worker = [sys.executable, WORKER]
spec = {
    "z_bounds": [[1.0, 4.0]],
    "y_bounds": [[-20.0, 20.0]],
    "disciplines": [{"cmd": worker + ["double"], "produces": [0], "consumes": []}],
    "objective_cmd": worker + ["sum"],
}
with load_external_problem(spec) as problem:
    ref = resolve_reference(problem, recompute=True)
assert abs(ref.objective - 3.0) < 1e-6, ref
note("resolve_reference on an external problem")

from mdots.study import ExperimentConfig, run_study

cfg = ExperimentConfig(problem="toy", n_doe=2, n_iter=0, repeat=2, workers=2, n_features=16, de_max_generations=5)
records, summary = run_study(cfg)
assert [r.replicate for r in records] == [0, 1] and summary.n_runs == 2, summary
note("run_study on a pool of two workers")

import numpy as np
from mdots.gp import fit, posterior_variance
from mdots.paths import draw_path, eval_path

X = np.linspace(0.0, 1.0, 6)[:, None]
y = np.sin(6.0 * X[:, 0])
s = fit(X, y, restarts=1, rng=0)
path = draw_path(s, n_features=64, rng=1)
var = posterior_variance(s, X)
assert np.all(np.isfinite(eval_path(path, X))) and np.all(var < 1e-3), var
note("fit, draw_path, posterior_variance")
print(json.dumps(steps))
"""


def test_scipy_loads_at_the_first_fit_only():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    script = SCRIPT.replace("WORKER", repr(os.path.join(HERE, "child_worker.py")))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120, check=False
    )
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout.strip().splitlines()[-1])
    assert steps == {
        "import mdots": False,
        "mdots reference --recompute-reference": False,
        "resolve_reference on an external problem": False,
        "run_study on a pool of two workers": False,
        "fit, draw_path, posterior_variance": True,
    }
