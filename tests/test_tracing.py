"""The benchmark's tracer must find every method it wraps.

``perfbench/tracing.py`` wraps the public methods of each layer from
outside ``src/`` (``getattr`` then ``setattr``), so renaming or deleting one
of them kills every traced benchmark run.  The install runs in a child
interpreter: wrapping patches classes process-wide, and no system is built.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

_CHILD = """
import sys
from pathlib import Path

sys.path.insert(0, str(Path("perfbench").resolve()))
import tracing
from repro.agents.controller import DeployedController
from repro.agents.executor import MissionExecutor
from repro.agents.planner import DeployedPlanner
from repro.eval import campaign
from repro.quant.kernel import BatchedKernel, KernelContext

tracing.install(Path(sys.argv[1]))
wrapped = [(KernelContext, "qgemm"), (KernelContext, "qgemm_multi"),
           (BatchedKernel, "qgemm"), (BatchedKernel, "qgemm_multi"),
           (DeployedPlanner, "plan"), (DeployedPlanner, "plan_batch"),
           (DeployedController, "act_logits"),
           (DeployedController, "act_logits_batch"),
           (MissionExecutor, "run_trial"), (MissionExecutor, "run_trial_group"),
           (campaign, "_run_cell"), (campaign, "_run_lane_group"),
           (campaign, "_pool_run_batch")]
missing = [f"{getattr(owner, '__name__', owner)}.{name}" for owner, name in wrapped
           if not hasattr(getattr(owner, name), "__wrapped__")]
assert not missing, f"not traced: {missing}"
"""


def test_tracer_installs_on_the_current_code(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    result = subprocess.run(
        [sys.executable, "-c", _CHILD, str(tmp_path / "trace")],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
