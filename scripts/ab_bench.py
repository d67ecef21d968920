"""Alternating A/B runs of the benchmark: a base checkout against this one.

    python scripts/ab_bench.py --base ../parent --workload compare-triplet --seeds 601-610
    python scripts/ab_bench.py --base ../parent --workload verify-all --seeds 7 --seconds 10

For each seed it runs the command of ``BENCHMARK.json`` (``bench/run.py``)
with ``--workload W --seed N --seconds S --trace 0`` in the base checkout
and in this one, one right after the other, alternating which side runs
first: the base at the first seed, this checkout at the second, and so on.
``--seconds`` defaults to ``BENCHMARK.json``'s ``run_seconds``.  It then
prints, for each side, the median and quartiles of every end-to-end metric
that ``BENCHMARK.json`` lists, how many pairs the change wins on it (the
metric's ``better`` gives the direction; a tie counts for neither side),
and on the next line one verdict:

* ``gain``: the change is better in at least 9 of 10 pairs, and its median
  is better than the base's by more than the base's quartile spread
  (q3 - q1);
* ``regression``: the change's median is worse than the base's by more
  than the metric's ``bound``, a fraction of the base's median;
* ``unresolved``: the base's quartile spread, as a fraction of its median,
  is wider than the bound, and not every run of the change is better than
  every run of the base;
* ``no regression``: otherwise.

After ``wall_s``, which sums the commands' host-speed adjusted medians,
the same two lines read the sum of their raw medians, against ``wall_s``'s
bound: the speed samples that adjust a time run in the worker's own
process, so a change that keeps a second thread busy there slows them and
reads better adjusted than raw.  Then, for each command, the same two
lines read its raw median time per run, against ``wall_s``'s bound, and
one more line gives the median over the runs of its adjusted median.  A
run whose result is not ``correct`` is counted and reported.

``bench/`` is read, never changed, on both sides.  Only the standard
library is used.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    """``"A-B"`` as the seeds A..B, or ``"A"`` as the one seed A."""
    first, _, last = text.partition("-")
    lo, hi = int(first), int(last or first)
    if hi < lo:
        raise ValueError(f"empty seed range {text!r}")
    return list(range(lo, hi + 1))


def parse_run(stdout):
    """The (details, result) objects of one ``bench/run.py`` run: its last two lines."""
    lines = stdout.strip().splitlines()
    if len(lines) < 2:
        raise ValueError("a benchmark run printed fewer than two lines")
    return json.loads(lines[-2]), json.loads(lines[-1])


def _spread(values):
    """Median, first and third quartile (inclusive method; one value is its own quartiles)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def _wins(base, change, better):
    """Pairs in which the change is strictly better than the base."""
    if better == "lower":
        return sum(c < b for b, c in zip(base, change))
    return sum(c > b for b, c in zip(base, change))


def verdict(base, change, better, bound):
    """The module docstring's verdict on one metric's runs, ``base[i]`` paired with ``change[i]``."""
    sign = 1.0 if better == "lower" else -1.0  # signed so that lower is better
    base, change = [sign * v for v in base], [sign * v for v in change]
    (bm, b1, b3), cm = _spread(base), _spread(change)[0]
    if 10 * _wins(base, change, "lower") >= 9 * len(base) and bm - cm > b3 - b1:
        return "gain"
    if cm - bm > bound * abs(bm):
        return "regression"
    if b3 - b1 > bound * abs(bm) and max(change) >= min(base):
        return "unresolved"
    return "no regression"


def summarize(pairs, end_to_end):
    """Report lines for ``pairs`` of (base stdout, change stdout), one pair per seed.

    ``end_to_end`` is ``BENCHMARK.json``'s list of end-to-end metrics, each a
    dict with ``name``, ``unit``, ``better`` and ``bound``.
    """
    runs = [(parse_run(base), parse_run(change)) for base, change in pairs]
    n = len(runs)
    lines = [f"{n} pairs; each side's median [q1, q3]; change better in k of {n} pairs"]

    def compare(label, metric, base, change):
        (bm, b1, b3), (cm, c1, c3) = _spread(base), _spread(change)
        ratio = f"{cm / bm - 1.0:+.1%}" if bm else "n/a"
        lines.append(f"{label} ({metric['unit']}, {metric['better']} is better): "
                     f"base {bm:.4g} [{b1:.4g}, {b3:.4g}], change {cm:.4g} [{c1:.4g}, {c3:.4g}], "
                     f"{ratio}, better in {_wins(base, change, metric['better'])}/{n}")
        lines.append(f"  verdict: {verdict(base, change, metric['better'], metric['bound'])}")

    for metric in end_to_end:
        name = metric["name"]
        sides = [[side[1]["metrics"][name]["value"] for side in pair] for pair in runs]
        compare(name, metric, [v[0] for v in sides], [v[1] for v in sides])
        if name == "wall_s":  # the raw times, read against the same bound
            sides = [[sum(c["median_s"] for c in side[0]["commands"].values()) for side in pair]
                     for pair in runs]
            compare("raw sum of command medians", metric, [v[0] for v in sides],
                    [v[1] for v in sides])
    wall = next(metric for metric in end_to_end if metric["name"] == "wall_s")
    for command in runs[0][0][0]["commands"]:
        sides = [[side[0]["commands"][command]["median_s"] for side in pair] for pair in runs]
        compare(f"command {command} raw", wall, [v[0] for v in sides], [v[1] for v in sides])
        b, c = (statistics.median(pair[i][0]["commands"][command]["median_adjusted_s"]
                                  for pair in runs) for i in (0, 1))
        lines.append(f"command {command} adjusted: median {b:.4g} -> {c:.4g} s")
    correct = [sum(pair[i][1]["correct"] for pair in runs) for i in (0, 1)]
    lines.append(f"correct runs: base {correct[0]}/{n}, change {correct[1]}/{n}")
    return lines


def run_bench(root, command, workload, seed, seconds):
    """One benchmark run in the checkout ``root``; its standard output."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    out = subprocess.run(argv, cwd=root, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.stderr.write(out.stderr[-4000:])
        raise SystemExit(f"ab_bench: {root}: {' '.join(argv)} exited with {out.returncode}")
    return out.stdout


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, type=Path, help="the checkout to compare against")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, type=parse_seeds, help="A-B, or one seed")
    p.add_argument("--seconds", type=float, default=None,
                   help="seconds per run (default: BENCHMARK.json run_seconds)")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    sides = (args.base.resolve(), ROOT)
    pairs = []
    for i, seed in enumerate(args.seeds):
        out = {}
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            out[side] = run_bench(sides[side], spec["command"], args.workload, seed, seconds)
            result = parse_run(out[side])[1]
            values = " ".join(f"{k} {m['value']:.4g}" for k, m in result["metrics"].items())
            print(f"seed {seed} {('base', 'change')[side]}: correct {result['correct']}, "
                  f"{values}", flush=True)
        pairs.append((out[0], out[1]))
    print(f"{args.workload}: base {sides[0]}, change {sides[1]}, seeds {args.seeds[0]}-"
          f"{args.seeds[-1]}, {seconds:g} s per run")
    print("\n".join(summarize(pairs, spec["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
