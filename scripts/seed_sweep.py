"""Rerun the chf, cthin acf and generator checks under K seeds and print their pass rates.

Runs, for each seed s = first, first + 1, ..., first + K - 1:

* ``verify --suite chf --seed s`` for every kind with a closed-form pair
  chf: ar1, thinned, rm, changepoint and cir (pass: the report's chf check
  has status ``pass``);
* ``verify --process cthin --suite acf --seed s`` on the default grid, on
  ``--dt 0.3`` and on the irregular ``--times`` grid 0, 0.37, 1.5 (whose
  first gap, 0.37, sets the acf path's step), ``verify --process rm
  --suite acf --seed s`` on the default grid and on ``--dt 0.25`` (14 and
  47 dense tent diagonals before rm's sparse tail), and ``verify --suite
  generator --seed s`` for the kinds with a closed-form generator, cir and
  cthin (pass: the check has status ``pass``);
* ``compare --points 2 --process-a thinned --process-b rm --seed s``, whose
  two processes share every two-point law, so ``max_z < 4`` is the null
  (pass: the report's ``max_z`` is below 4);
* ``compare --points 3`` of thinned against thinned, rm against rm, cir
  against cir and cthin against cthin, the same-kind nulls of the triplet
  separation (seeds s and s + 1; pass: ``max_z`` below 4); the cir and
  cthin nulls check the calibration of their ensembles' blocks of lanes.

Each command runs at its own default number of paths.

A correct sampler passes each check at a rate near 1; a rate far below it
under many seeds points at the check or the sampler.  The script exits 1 only
when a run errors (exit code 2 or 3, or an uncaught exception), never on a
failing check, so CI can run it at a small K as a smoke test:

    PYTHONPATH=src python scripts/seed_sweep.py --k 2

Only the standard library, numpy and gammaproc are used; every run goes
through ``gammaproc.cli.main`` in this process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
import traceback

from gammaproc.analytic import GENERATOR_KINDS, PAIR_CHF_KINDS
from gammaproc.cli import main as gammaproc_main

COMPARE_NULL_Z = 4.0


def _checks(times):
    """(label, argv, passed(report)) for each check of one seed; ``times`` is a
    file holding the irregular grid."""
    def checks_passed(report):
        return all(c["status"] == "pass" for c in report["checks"])

    def null_passed(report):
        return report["max_z"] < COMPARE_NULL_Z

    for kind in PAIR_CHF_KINDS:
        yield (f"verify chf {kind.cli_name}",
               ["verify", "--process", kind.cli_name, "--suite", "chf"],
               checks_passed)
    for kind, label, grid in (("cthin", "default", []), ("cthin", "dt 0.3", ["--dt", "0.3"]),
                              ("cthin", "times", ["--times", times]), ("rm", "default", []),
                              ("rm", "dt 0.25", ["--dt", "0.25"])):
        yield (f"verify acf {kind} {label}",
               ["verify", "--process", kind, "--suite", "acf", *grid],
               checks_passed)
    for kind in GENERATOR_KINDS:
        yield (f"verify generator {kind.cli_name}",
               ["verify", "--process", kind.cli_name, "--suite", "generator"],
               checks_passed)
    for a, b, points in (("thinned", "rm", "2"), ("thinned", "thinned", "3"), ("rm", "rm", "3"),
                         ("cir", "cir", "3"), ("cthin", "cthin", "3")):
        yield (f"compare {a}/{b} {points}-point",
               ["compare", "--process-a", a, "--process-b", b, "--points", points],
               null_passed)


def _run(argv, out):
    """(exit code, stderr text) of one CLI run; an uncaught exception is exit None."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = gammaproc_main(argv + ["--out", out])
        except Exception:  # an uncaught exception is what the sweep looks for
            traceback.print_exc()
            code = None
    return code, err.getvalue()


def sweep(k, first_seed, paths=None):
    """{label: [passes, runs, errors]} over seeds first_seed .. first_seed + k - 1.

    Each command runs at its own default number of paths unless ``paths`` is
    given.
    """
    extra = [] if paths is None else ["--paths", str(paths)]
    counts = {}
    with tempfile.TemporaryDirectory() as tmp:
        out, times = os.path.join(tmp, "report.json"), os.path.join(tmp, "times.txt")
        with open(times, "w") as fh:
            fh.write("0\n0.37\n1.5\n")
        for seed in range(first_seed, first_seed + k):
            for label, argv, passed in _checks(times):
                row = counts.setdefault(label, [0, 0, 0])
                row[1] += 1
                code, err = _run(argv + extra + ["--seed", str(seed)], out)
                if code not in (0, 1):
                    row[2] += 1
                    print(f"error: {label} --seed {seed} exited {code}\n{err}", file=sys.stderr)
                elif os.path.exists(out):  # exit 1 with no report is a numerical failure
                    with open(out) as fh:
                        row[0] += bool(passed(json.load(fh)))
                    os.remove(out)
    return counts


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--k", type=int, default=10, help="number of seeds (default 10)")
    p.add_argument("--first-seed", type=int, default=1, help="first seed (default 1)")
    ns = p.parse_args(argv)
    if ns.k < 1:
        p.error("--k must be positive")
    counts = sweep(ns.k, ns.first_seed)
    print(f"seeds {ns.first_seed}..{ns.first_seed + ns.k - 1}")
    print(f"{'check':32s} {'passed':>8s} {'rate':>6s} {'errors':>6s}")
    for label, (passes, runs, errors) in counts.items():
        print(f"{label:32s} {passes:>4d}/{runs:<3d} {passes / runs:6.2f} {errors:>6d}")
    return 1 if any(errors for _, _, errors in counts.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
