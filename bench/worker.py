"""Run one workload's commands in this fresh interpreter.

Usage: python3 worker.py SPEC.json RESULT.json

SPEC holds the source directory, the output directory, the command list,
the measuring time, whether to trace and whether to sample host speed
during calls.  The worker imports
``gammaproc.cli`` from the source directory and issues the commands one at a
time, in list order and round after round, as a closed loop with one caller.
It stops at the end of the first command that finds ``seconds`` elapsed and
the list run at least once; with tracing it runs the list exactly once.
Only the ``main(argv)`` call is timed.  The calibration task of
calibrate.py is timed before each call, during it (unless ``sample_speed``
is off) and after it.  After each call the worker hashes the output file,
and it deletes the file before the next call of the same command, so a
repeat can be told apart from a stale file.

RESULT holds each command's times, exit codes and output hashes, this
process's peak RSS, the machine description and, with tracing, the span
totals.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

from calibrate import SpeedSampler, task_seconds


def _sha256(path):
    h = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    except FileNotFoundError:
        return None
    return h.hexdigest()


def _blas_threads():
    """Thread counts reported by the OpenBLAS builds loaded in this process."""
    counts = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for sym in ("openblas_get_num_threads64_", "openblas_get_num_threads",
                    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts[os.path.basename(lib_path)] = fn()
                break
    return counts


def _source_digest(src):
    h = hashlib.sha256()
    for path in sorted(Path(src).rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _commit(root):
    if not (Path(root) / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def machine_info(src):
    import numpy
    import scipy

    import gammaproc

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "gammaproc": gammaproc.__version__,
        "gammaproc_commit": _commit(Path(src).parent),
        "gammaproc_src_sha256": _source_digest(src),
    }


def run(spec):
    sys.path.insert(0, spec["src"])
    from gammaproc.cli import main

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer().install()

    out_dir = Path(spec["out_dir"])
    cmds = spec["commands"]
    runs = {c["name"]: [] for c in cmds}
    start = time.perf_counter()
    done_rounds = 0
    task_before = task_seconds()
    try:
        while True:
            for c in cmds:
                out = out_dir / c["out"]
                out.unlink(missing_ok=True)
                argv = c["argv"] + ["--out", str(out)]
                error = None
                with SpeedSampler(spec["sample_speed"]) as sampler:
                    t = time.perf_counter()
                    try:
                        code = main(argv)
                    except Exception:  # a crash is a failed command, not a failed benchmark
                        code = None
                        error = traceback.format_exc(limit=3)
                    dt = time.perf_counter() - t - sampler.overhead_s
                sha = _sha256(out)
                task_after = task_seconds()
                runs[c["name"]].append({
                    "seconds": dt, "code": code, "error": error, "sha256": sha,
                    "task_samples": [task_before, *sampler.samples, task_after],
                })
                task_before = task_after
                if done_rounds >= 1 and time.perf_counter() - start >= spec["seconds"]:
                    break
            else:
                done_rounds += 1
                if tracer is not None or time.perf_counter() - start >= spec["seconds"]:
                    break
                continue
            break
    finally:
        if tracer is not None:
            tracer.restore()

    return {
        "runs": runs,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "machine": machine_info(spec["src"]),
        "trace": tracer.snapshot() if tracer is not None else None,
    }


if __name__ == "__main__":
    spec_path, result_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as fh:
        spec = json.load(fh)
    result = run(spec)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
