"""Print the sha256 of every output the benchmark workloads write.

For each seed and each workload of ``bench/workloads.py``, runs every command
of ``commands(workload, seed)`` through ``gammaproc.cli.main`` in this
process, writing into a temporary directory, and prints one line per output:

    <workload> <command name> <exit code> <sha256 of the output, or ->

Two source trees write the same bytes when this prints the same lines with
each tree's ``src`` on ``PYTHONPATH``::

    PYTHONPATH=src python scripts/output_digests.py --seeds 11 12
    PYTHONPATH=../other/src python scripts/output_digests.py --seeds 11 12

gammaproc is imported from the path, so ``PYTHONPATH`` picks the tree.  The
command lists are read, not changed, from ``bench/`` next to this script.  The script exits 1 when any command exits nonzero or raises, so CI
can run it at one seed to catch a flag the benchmark passes that the CLI no
longer takes.  Only the standard library and gammaproc are used.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
import traceback

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench"))

import workloads  # noqa: E402

from gammaproc.cli import main as gammaproc_main  # noqa: E402


def _sha256(path):
    if not os.path.exists(path):
        return "-"
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def digests(seed, out_dir):
    """(workload, name, exit code, sha256) per command; an uncaught exception is exit None."""
    for workload in workloads.WORKLOADS:
        for cmd in workloads.commands(workload, seed):
            out = os.path.join(out_dir, cmd["out"])
            with contextlib.redirect_stderr(io.StringIO()) as err:
                try:
                    code = gammaproc_main(cmd["argv"] + ["--out", out])
                except Exception:
                    traceback.print_exc()
                    code = None
            if code != 0:
                sys.stderr.write(err.getvalue())
            yield workload, cmd["name"], code, _sha256(out)
            with contextlib.suppress(FileNotFoundError):
                os.remove(out)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[11],
                   help="benchmark seeds (default 11)")
    ns = p.parse_args(argv)
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for seed in ns.seeds:
            for workload, name, code, sha in digests(seed, tmp):
                print(f"{workload} {name} {code} {sha}", flush=True)
                failed = failed or code != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
