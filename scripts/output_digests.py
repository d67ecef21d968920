"""Print the sha256 of every output the benchmark workloads write.

For each seed and each workload of ``bench/workloads.py``, runs every command
of ``commands(workload, seed)`` through ``gammaproc.cli.main`` in this
process, writing into a temporary directory, and prints one line per output:

    <workload> <command name> <exit code> <sha256 of the output, or ->

Two source trees write the same bytes when this prints the same lines with
each tree's ``src`` on ``PYTHONPATH``::

    PYTHONPATH=src python scripts/output_digests.py --seeds 11 12
    PYTHONPATH=../other/src python scripts/output_digests.py --seeds 11 12

gammaproc is imported from the path, so ``PYTHONPATH`` picks the tree.
With ``--keep DIR`` the outputs are written into DIR, as
``DIR/<seed>/<output name>``, and kept, so two trees' ``verify`` reports can
be compared field by field::

    PYTHONPATH=src python scripts/output_digests.py --seeds 11 12 --keep out/head
    PYTHONPATH=../other/src python scripts/output_digests.py --seeds 11 12 --keep out/base

and ``--diff`` compares two such directories field by field::

    python scripts/output_digests.py --diff out/base out/head

It prints every JSON field (and CSV cell) whose values differ, with their
relative difference ``|a - b| / max(|a|, |b|)`` for numbers, and every file
that only one side has.  It exits 1 when a value that is not a number
differs (a ``status``, ``passed``, a reason or a key), when a file is on one
side only (a command that failed writes nothing), or when a relative
difference exceeds 1e-12; otherwise 0.  It exits 2 when BASE or HEAD is not
a directory.

The command lists are read, not changed, from ``bench/`` next to this
script.  The script exits 1 when any command exits nonzero or raises, so CI
can run it at one seed to catch a flag the benchmark passes that the CLI no
longer takes.  Only the standard library and gammaproc are used, and
``--diff`` uses the standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import traceback

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench"))

import workloads  # noqa: E402

# differing fields printed per file; the rest are counted
_SHOWN = 20
# largest relative difference --diff accepts: a few ulps of rounding
_RTOL = 1e-12


def _sha256(path):
    if not os.path.exists(path):
        return "-"
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def digests(seed, out_dir, keep=False):
    """(workload, name, exit code, sha256) per command; an uncaught exception is exit None.
    Each output is deleted after it is hashed unless ``keep``."""
    from gammaproc.cli import main as gammaproc_main

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
            if not keep:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(out)


def _load(path):
    """A JSON output as its object, another output as rows of CSV cells (numbers parsed)."""
    with open(path) as fh:
        if path.endswith(".json"):
            return json.load(fh)
        return [[_number(cell) for cell in line.rstrip("\n").split(",")] for line in fh]


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return cell


def _leaves(obj, field=""):
    """(field, value) for each scalar and empty container of ``obj``, named by keys and indices."""
    if isinstance(obj, dict) and obj:
        for key in sorted(obj):
            yield from _leaves(obj[key], f"{field}.{key}" if field else key)
    elif isinstance(obj, list) and obj:
        for i, value in enumerate(obj):
            yield from _leaves(value, f"{field}[{i}]")
    else:
        yield field, obj


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def field_diffs(a, b):
    """(field, value in a, value in b, relative difference or None) for every field that differs.

    The relative difference is ``|a - b| / max(|a|, |b|)`` for two numbers
    and None otherwise, as for a field that only one side has.
    """
    left, right = dict(_leaves(a)), dict(_leaves(b))
    for field in [*left, *(f for f in right if f not in left)]:
        x, y = left.get(field, "<absent>"), right.get(field, "<absent>")
        if x == y and type(x) is type(y):
            continue
        if not (_is_number(x) and _is_number(y)):
            yield field, x, y, None
        else:
            yield field, x, y, abs(x - y) / max(abs(x), abs(y)) if x != y else 0.0


def diff_dirs(base, head):
    """Print where two ``--keep`` directories differ; True when they agree to ``_RTOL``."""
    files = set()
    for root in (base, head):
        for top, _, names in os.walk(root):
            files.update(os.path.relpath(os.path.join(top, n), root) for n in names)
    agree = True
    for name in sorted(files):
        paths = [os.path.join(root, name) for root in (base, head)]
        in_base, in_head = map(os.path.exists, paths)
        if not (in_base and in_head):
            print(f"{name}: only in {'base' if in_base else 'head'}")
            agree = False
            continue
        diffs = list(field_diffs(*map(_load, paths)))
        for field, x, y, rel in diffs[:_SHOWN]:
            print(f"{name} {field}: {x!r} -> {y!r}" + ("" if rel is None else f" (rel {rel:.3g})"))
        if len(diffs) > _SHOWN:
            print(f"{name}: {len(diffs) - _SHOWN} more fields differ")
        agree = agree and all(rel is not None and rel <= _RTOL for *_, rel in diffs)
    return agree


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[11],
                   help="benchmark seeds (default 11)")
    p.add_argument("--keep", metavar="DIR", default=None,
                   help="write the outputs into DIR/<seed>/ and keep them "
                        "(default: a temporary directory, removed at exit)")
    p.add_argument("--diff", nargs=2, metavar=("BASE", "HEAD"), default=None,
                   help="compare two --keep directories field by field instead")
    ns = p.parse_args(argv)
    if ns.diff is not None:
        for root in ns.diff:
            if not os.path.isdir(root):
                p.error(f"--diff: {root} is not a directory")
        return 0 if diff_dirs(*ns.diff) else 1
    failed = False
    with contextlib.ExitStack() as stack:
        root = ns.keep if ns.keep is not None else stack.enter_context(
            tempfile.TemporaryDirectory())
        for seed in ns.seeds:
            out_dir = os.path.join(root, str(seed))
            os.makedirs(out_dir, exist_ok=True)
            for workload, name, code, sha in digests(seed, out_dir, keep=ns.keep is not None):
                print(f"{workload} {name} {code} {sha}", flush=True)
                failed = failed or code != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
