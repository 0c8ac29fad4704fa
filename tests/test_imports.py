"""scipy.stats and scipy.optimize load only in the calls that use them."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import randmcp

SRC = str(Path(randmcp.__file__).resolve().parents[1])
DEFERRED = ("scipy.optimize", "scipy.stats")


def run_python(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter on this package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("module", ["randmcp", "randmcp.cli"])
def test_import_leaves_stats_and_optimize_unloaded(module):
    out = run_python(f"import json, sys, {module}; print(json.dumps(sorted(sys.modules)))")
    assert not set(json.loads(out)) & set(DEFERRED)


def test_pool_parent_preloads_them_for_its_workers():
    # Forked workers inherit the parent's modules, so the parent must hold
    # both before the pool starts; the p-values match a one-worker run.
    code = f"""
import concurrent.futures as cf
import json
import sys

from randmcp.simulate import run_power_study, scenario_from_dict

held = []


class Recording(cf.ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        held.append(sorted(m for m in {DEFERRED!r} if m in sys.modules))
        super().__init__(*args, **kwargs)


cf.ProcessPoolExecutor = Recording
config = scenario_from_dict({{
    "name": "tiny", "doses": [0.0, 10.0, 25.0, 100.0], "procedure": "pbd", "n": 49,
    "block": [1, 2, 2, 2], "n_sim": 2, "seed": 9, "methods": ["population"],
}})
pooled = run_power_study(config, workers=2).p_values["population"].tolist()
serial = run_power_study(config, workers=1).p_values["population"].tolist()
print(json.dumps({{"held": held, "pooled": pooled, "serial": serial}}))
"""
    out = json.loads(run_python(code).splitlines()[-1])
    assert out["held"] == [list(DEFERRED)]
    assert len(out["pooled"]) == 2
    assert out["pooled"] == out["serial"]
