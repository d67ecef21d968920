"""Output bytes that do not depend on numpy's SIMD dispatch (ROADMAP item 17).

numpy picks a SIMD routine for each vector transcendental at import, and
``NPY_DISABLE_CPU_FEATURES`` turns dispatched features off in the process it
is set in.  ar1, thinned, changepoint and both cir methods take their gap
correlations from ``Dependence.gap_corr`` (Python's float power) and
otherwise only numpy's random distributions and correctly rounded
arithmetic, so their ``simulate`` CSV bytes are the same with every
dispatched feature on and with none.  rm (its tent lag powers and the
tail's ``exp`` and ``log1p``) and cthin (its series' ``exp`` and ``expm1``)
still take numpy's vector routines, and whether their bytes move depends on
the host, so they stay out of this test until the rest of item 17 lands.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gammaproc

SRC = str(Path(gammaproc.__file__).resolve().parents[1])

# (rho, dt) points where numpy's vector power differs in the last bit from
# Python's for some grid gap on an AVX-512 host
POINTS = ((0.9, 0.1), (0.37, 0.37), (0.001, 0.001))
KINDS = (("ar1",), ("thinned",), ("changepoint",),
         ("cir", "--cir-method", "exact"), ("cir", "--cir-method", "squared-ou"))

# Runs each argv's simulate in one interpreter and prints the sha256 of each CSV.
_PROBE = """
import hashlib, json, os, sys
import gammaproc.cli

digests = []
for argv in json.loads(sys.argv[1]):
    path = os.path.join(sys.argv[2], "out.csv")
    assert gammaproc.cli.main(argv + ["--out", path]) == 0, argv
    with open(path, "rb") as fh:
        digests.append(hashlib.sha256(fh.read()).hexdigest())
print(json.dumps(digests))
"""


def _dispatched_features():
    """The SIMD features numpy dispatches to on this host, beyond its baseline."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    on = getattr(umath, "__cpu_features__", {})
    return [f for f in getattr(umath, "__cpu_dispatch__", ()) if on.get(f)]


def _digests(commands, tmp_path, disabled):
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = SRC
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(disabled)
    out = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(commands), str(tmp_path)],
                         capture_output=True, text=True, env=env, timeout=300, check=True)
    return json.loads(out.stdout)


def test_simulate_csv_bytes_do_not_depend_on_simd_dispatch(tmp_path):
    features = _dispatched_features()
    if not features:
        pytest.skip(f"numpy {np.__version__} dispatches no SIMD feature beyond its "
                    "baseline on this host, so there is no second level to compare")
    commands = [["simulate", "--process", *kind, "--rho", str(rho), "--dt", str(dt),
                 "--n", "300", "--paths", "50", "--seed", "7", "--format", "csv"]
                for kind in KINDS for rho, dt in POINTS]
    default = _digests(commands, tmp_path, ())
    baseline = _digests(commands, tmp_path, features)
    moved = [" ".join(argv) for argv, a, b in zip(commands, default, baseline) if a != b]
    assert moved == [], f"bytes moved with {features} disabled"
