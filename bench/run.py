"""gammaproc benchmark: drives ``gammaproc.cli.main(argv)`` over one workload.

Usage (from the root of a source checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it measures set-up time in fresh interpreters, then runs
the workload's command list round after round for ``S`` seconds in one
fresh worker interpreter with tracing off, and reports the end-to-end
metrics.  With ``--trace 1`` it runs the list once untraced and once traced
(in two fresh workers, same seeds), requires byte-identical outputs, and
reports the per-layer metrics.  Every output is checked (see checker.py).
Times are rescaled to a reference host speed (see calibrate.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
describes the machine and each command.  The exit code is 0 when a result
was printed and nonzero when the benchmark itself could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from calibrate import SpeedSampler, adjust, task_seconds  # noqa: E402
from checker import check  # noqa: E402
from tracer import TRACED  # noqa: E402
from workloads import WORKLOADS, commands  # noqa: E402

ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0  # every run must end within 180 s

_SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from gammaproc.cli import main; print('ready', flush=True)"
)


def fail(msg):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def measure_setup(n):
    """Median adjusted seconds from spawning a fresh interpreter to ``gammaproc.cli`` ready."""
    samples = []
    before = task_seconds()
    for _ in range(n):
        # This process only waits for the child, so its speed samples during
        # the wait run alongside the child and are not subtracted.
        with SpeedSampler() as sampler:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-c", _SETUP_CODE, str(SRC)],
                                    stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                    text=True)
            try:
                line = proc.stdout.readline()
                seconds = time.perf_counter() - t0
            finally:
                proc.stdout.close()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            fail("a fresh interpreter could not import gammaproc.cli")
        after = task_seconds()
        samples.append(adjust(seconds, [before, *sampler.samples, after]))
        before = after
    return statistics.median(samples)


def run_worker(cmds, seconds, trace, sample_speed, work, deadline):
    """Run the command list in a fresh worker interpreter; return its result."""
    out_dir = work / "out"
    out_dir.mkdir(parents=True)
    spec = {"src": str(SRC), "out_dir": str(out_dir), "commands": cmds,
            "seconds": seconds, "trace": trace, "sample_speed": sample_speed}
    (work / "spec.json").write_text(json.dumps(spec))
    with open(work / "stderr", "w") as err:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "worker.py"), str(work / "spec.json"),
             str(work / "result.json")],
            stdin=subprocess.DEVNULL, stdout=err, stderr=err)
        try:
            proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            fail(f"the {work.name} worker did not finish in time")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        sys.stderr.write((work / "stderr").read_text()[-4000:])
        fail(f"the {work.name} worker exited with code {proc.returncode}")
    result = json.loads((work / "result.json").read_text())
    result["out_dir"] = out_dir
    return result


def judge(cmds, result):
    """Check every call of every command; return per-command summaries."""
    summary = {}
    for c in cmds:
        out = result["out_dir"] / c["out"]
        text = out.read_text() if out.exists() else None
        final_sha = result["runs"][c["name"]][-1]["sha256"]
        verdicts = {}
        calls = []
        for r in result["runs"][c["name"]]:
            if r["error"] is not None:
                calls.append((False, "raised: " + r["error"].strip().splitlines()[-1]))
            elif r["sha256"] != final_sha:
                calls.append((False, "output differs between repeats"))
            else:
                if r["code"] not in verdicts:
                    verdicts[r["code"]] = check(c, r["code"], text)
                v = verdicts[r["code"]]
                calls.append((v.ok, v.reason))
        last = verdicts.get(result["runs"][c["name"]][-1]["code"])
        summary[c["name"]] = {
            "times": [r["seconds"] for r in result["runs"][c["name"]]],
            "adjusted": [adjust(r["seconds"], r["task_samples"])
                         for r in result["runs"][c["name"]]],
            "calls": calls,
            "failed": sum(not ok for ok, _ in calls),
            "values": last.values if last is not None and last.ok else 0,
            "verdicts_failed": last.verdicts_failed if last is not None else 0,
            "bytes": out.stat().st_size if out.exists() else 0,
            "sha256": final_sha,
        }
    return summary


def tally(*summaries):
    """(attempted, failed) calls over the given command summaries."""
    calls = [ok for summary in summaries for s in summary.values() for ok, _ in s["calls"]]
    return len(calls), calls.count(False)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(cmds, summary, result, setup_s, attempted, failed):
    wall = sum(statistics.median(summary[c["name"]]["adjusted"]) for c in cmds)
    values = sum(summary[c["name"]]["values"] for c in cmds)
    return {
        "setup_s": _metric(setup_s, "s"),
        "wall_s": _metric(wall, "s"),
        "values_per_s": _metric(values / wall, "values/s"),
        "peak_rss_mb": _metric(result["peak_rss_kib"] / 1024.0, "MiB"),
        "ok_frac": _metric(1.0 - failed / attempted, "ratio"),
    }


def per_layer(cmds, traced, plain_summary, summary, attempted, failed):
    funcs = traced["trace"]["functions"]
    metrics = {}
    for name in TRACED:
        t = funcs[name]
        metrics[f"{name}.calls"] = _metric(t["calls"], "count")
        metrics[f"{name}.self_s"] = _metric(t["self_s"], "s")
    ens = funcs["processes.simulate_ensemble"]
    metrics["processes.simulate_ensemble.total_s"] = _metric(ens["total_s"], "s")
    metrics["processes.simulate_ensemble.values_per_s"] = _metric(
        ens["work"] / ens["total_s"] if ens["total_s"] > 0 else 0.0, "values/s")
    metrics["stats.empirical_chf.evals"] = _metric(funcs["stats.empirical_chf"]["work"], "count")
    bytes_out = sum(summary[c["name"]]["bytes"] for c in cmds)
    cli_self = sum(funcs[n]["self_s"] for n in TRACED if n.startswith("cli."))
    metrics["cli.bytes_out"] = _metric(bytes_out, "bytes")
    metrics["cli.write_mb_per_s"] = _metric(
        bytes_out / 1e6 / cli_self if cli_self > 0 else 0.0, "MB/s")
    metrics["stats.verdicts_failed"] = _metric(
        sum(summary[c["name"]]["verdicts_failed"] for c in cmds), "count")
    plain_wall = sum(s["adjusted"][0] for s in plain_summary.values())
    traced_wall = sum(s["adjusted"][0] for s in summary.values())
    metrics["trace.overhead_frac"] = _metric(traced_wall / plain_wall - 1.0, "ratio")
    metrics["failed_frac"] = _metric(failed / attempted, "ratio")
    return metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # Turn SIGTERM into SystemExit, so the finally blocks stop the worker and
    # remove the work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "gammaproc" / "cli.py").is_file():
        fail(f"no gammaproc sources under {SRC}; run from the root of a source checkout")
    deadline = time.monotonic() + RUN_LIMIT_S
    cmds = commands(args.workload, args.seed)
    work = WORK / f"run-{os.getpid()}"
    problems = []
    try:
        if args.trace:
            plain = run_worker(cmds, 0.0, False, False, work / "plain", deadline)
            result = run_worker(cmds, 0.0, True, False, work / "traced", deadline)
            plain_summary = judge(cmds, plain)
            summary = judge(cmds, result)
            for c in cmds:
                if plain_summary[c["name"]]["sha256"] != summary[c["name"]]["sha256"]:
                    problems.append(f"{c['name']}: traced output differs from untraced output")
            attempted, failed = tally(plain_summary, summary)
            metrics = per_layer(cmds, result, plain_summary, summary, attempted, failed)
            absent = result["trace"]["absent"]
        else:
            setup_s = measure_setup(SETUP_SAMPLES)
            result = run_worker(cmds, args.seconds, False, True, work / "plain", deadline)
            summary = judge(cmds, result)
            attempted, failed = tally(summary)
            metrics = end_to_end(cmds, summary, result, setup_s, attempted, failed)
            absent = []
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is still using it

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "machine": result["machine"],
        "absent": absent,
        "problems": problems,
        "commands": {
            name: {"median_s": statistics.median(s["times"]),
                   "median_adjusted_s": statistics.median(s["adjusted"]), "times": s["times"],
                   "failed": s["failed"],
                   "reasons": sorted({reason for ok, reason in s["calls"] if not ok})}
            for name, s in summary.items()
        },
    }
    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
