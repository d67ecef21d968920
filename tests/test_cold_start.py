"""Which modules a fresh interpreter loads: no command loads any scipy
module.  ``simulate`` and ``compare`` need numpy only, and so does
``verify`` at every kind and suite: the KS and tail checks take ``P``, ``Q``
and ``E1`` from the in-house ``_special`` module, and the generator oracles
are closed forms."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gammaproc

SRC = str(Path(gammaproc.__file__).resolve().parents[1])
KINDS = ("ar1", "thinned", "rm", "changepoint", "cir", "cthin")

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
                         capture_output=True, text=True, env=env, timeout=300, check=True)
    return [json.loads(line) for line in out.stdout.splitlines()]


def _assert_no_scipy(commands):
    steps = _probe(commands)
    assert [s["argv"] for s in steps] == [None, *commands]
    for step in steps:
        assert step["code"] == 0, step
        assert step["scipy"] == [], step


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
    _assert_no_scipy(commands)


@pytest.mark.parametrize("kind", KINDS)
def test_verify_loads_no_scipy_at_any_suite(kind):
    # each suite on its own, then all of them; the squared-OU method too for cir
    methods = [[], ["--cir-method", "squared-ou"]] if kind == "cir" else [[]]
    commands = [["verify", "--process", kind, *method, "--suite", suite, "--paths", "2000"]
                for method in methods
                for suite in ("marginal", "acf", "chf", "generator", "tail", "all")]
    _assert_no_scipy(commands)
