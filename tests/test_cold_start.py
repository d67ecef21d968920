"""Which modules a fresh interpreter loads: ``simulate`` and ``compare`` need
numpy only; ``verify`` imports ``scipy.special`` at its first KS or tail check
and nothing else from scipy: the cthin generator oracle is a closed form, so
no command loads ``scipy.integrate`` or the ``scipy.optimize`` it brings."""

import json
import os
import subprocess
import sys
from pathlib import Path

import gammaproc

SRC = str(Path(gammaproc.__file__).resolve().parents[1])

# Runs each argv (None: import only) in one fresh interpreter and prints, after
# each, the exit code and the scipy modules loaded so far.
_PROBE = """
import json, os, sys
import gammaproc
import gammaproc.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

print(json.dumps({"argv": None, "code": 0, "scipy": scipy_modules()}))
for argv in json.loads(sys.argv[1]):
    code = gammaproc.cli.main(argv + ["--out", os.devnull])
    print(json.dumps({"argv": argv, "code": code, "scipy": scipy_modules()}))
"""


def _probe(commands):
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(commands)],
                         capture_output=True, text=True, env=env, timeout=120, check=True)
    return [json.loads(line) for line in out.stdout.splitlines()]


def test_import_simulate_and_compare_load_no_scipy():
    small = ["--n", "4", "--paths", "3", "--seed", "1"]
    commands = [["simulate", "--process", kind, *small]
                for kind in ("ar1", "thinned", "rm", "changepoint", "cthin")]
    commands += [["simulate", "--process", "cir", "--cir-method", method, *small]
                 for method in ("exact", "squared-ou")]
    # the JSON writer's float rows, values below 1e-4 among them
    commands += [["simulate", "--process", kind, "--alpha", "0.01", "--rho", "0.001", *small,
                  "--format", "json"] for kind in ("ar1", "rm")]
    commands += [["compare", "--process-a", "thinned", "--process-b", "rm",
                  "--points", points, "--paths", "50", "--seed", "2"]
                 for points in ("2", "3")]
    steps = _probe(commands)
    assert [s["argv"] for s in steps] == [None, *commands]
    for step in steps:
        assert step["code"] == 0, step
        assert step["scipy"] == [], step


def test_verify_marginal_loads_scipy_special_but_not_integrate():
    (imported, verified) = _probe([["verify", "--process", "ar1", "--suite", "marginal"]])
    assert imported["scipy"] == []
    assert verified["code"] == 0
    assert "scipy.special" in verified["scipy"]
    assert "scipy.integrate" not in verified["scipy"]
    assert "scipy.optimize" not in verified["scipy"]


def test_verify_cthin_all_loads_scipy_special_but_not_integrate_or_optimize():
    (imported, verified) = _probe([["verify", "--process", "cthin", "--suite", "all",
                                    "--paths", "2000"]])
    assert imported["scipy"] == []
    assert verified["code"] == 0
    assert "scipy.special" in verified["scipy"]
    assert "scipy.integrate" not in verified["scipy"]
    assert "scipy.optimize" not in verified["scipy"]
