"""Correctness checks for the files the gammaproc CLI writes.

Every command the benchmark issues passes through ``check``.  A command
fails when it exits with an unexpected code, or when its output breaks a
rule below; the benchmark counts such commands as failed.

* simulate, csv: the header, then exactly paths x n rows, every ``t`` and
  ``value`` finite and every value nonnegative (every default scheme is).
* simulate, json: strict JSON (the NaN and Infinity tokens are rejected),
  ``paths`` rows of n finite, nonnegative values.
* verify: strict JSON; the five checks of ``--suite all`` in order, each
  ``pass`` or ``fail``, or ``skipped`` only where documented (``chf`` for
  cthin, ``generator`` for every kind but cir and cthin); the exit code is
  0 when no check failed and 1 otherwise.
* compare: strict JSON with exactly 20 finite z-scores and exit code 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

VERIFY_CHECKS = ("marginal", "acf", "chf", "generator", "tail")
GENERATOR_KINDS = ("cir", "cthin")
COMPARE_Z_SCORES = 20
# Length of the single path the verify acf check simulates (cli._check_acf);
# the report does not state it.
VERIFY_ACF_STEPS = 100_000


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str = ""
    values: int = 0  # simulated values the output stands for
    verdicts_failed: int = 0  # verify checks with status "fail"


class OutputError(ValueError):
    pass


def _reject_constant(token):
    raise OutputError(f"non-standard JSON token {token}")


def load_strict_json(text):
    """Parse JSON, rejecting the NaN, Infinity and -Infinity tokens."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise OutputError(f"invalid JSON: {exc}") from exc


def _finite_nonnegative(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise OutputError(f"{where}: {value!r} is not a number")
    if not math.isfinite(value) or value < 0.0:
        raise OutputError(f"{where}: {value!r} is not finite and nonnegative")


def _check_csv(text, spec):
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != "path,t,value":
        raise OutputError("missing path,t,value header")
    want = spec["paths"] * spec["n"]
    if len(lines) - 1 != want:
        raise OutputError(f"{len(lines) - 1} data rows, expected {want}")
    for i, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != 3:
            raise OutputError(f"line {i}: {len(fields)} fields")
        try:
            t, v = float(fields[1]), float(fields[2])
        except ValueError as exc:
            raise OutputError(f"line {i}: {exc}") from exc
        if not math.isfinite(t):
            raise OutputError(f"line {i}: time {fields[1]!r} is not finite")
        _finite_nonnegative(v, f"line {i}")
    return want


def _check_simulate_json(text, spec):
    doc = load_strict_json(text)
    rows = doc.get("paths")
    if not isinstance(rows, list) or len(rows) != spec["paths"]:
        raise OutputError(f"expected {spec['paths']} paths")
    if len(doc.get("grid", ())) != spec["n"]:
        raise OutputError(f"expected a grid of {spec['n']} times")
    for m, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != spec["n"]:
            raise OutputError(f"path {m}: expected {spec['n']} values")
        for v in row:
            _finite_nonnegative(v, f"path {m}")
    return spec["paths"] * spec["n"]


def _check_verify(text, spec, exit_code):
    doc = load_strict_json(text)
    checks = doc.get("checks")
    if not isinstance(checks, list) or [c.get("name") for c in checks] != list(VERIFY_CHECKS):
        raise OutputError(f"expected the checks {', '.join(VERIFY_CHECKS)}")
    kind = spec["process"]
    values = 0
    failed = 0
    for c in checks:
        status = c.get("status")
        if status == "skipped":
            documented = (c["name"] == "chf" and kind == "cthin") or (
                c["name"] == "generator" and kind not in GENERATOR_KINDS
            )
            if not documented:
                raise OutputError(f"check {c['name']} skipped for {kind}")
            continue
        if status not in ("pass", "fail"):
            raise OutputError(f"check {c['name']} has status {status!r}")
        failed += status == "fail"
        if c["name"] == "marginal":
            values += int(c["n"])
        elif c["name"] == "acf":
            values += VERIFY_ACF_STEPS
        elif c["name"] == "chf":
            values += 2 * int(c["n_pairs"])
    if doc.get("passed") is not (failed == 0):
        raise OutputError("report 'passed' disagrees with its checks")
    want_code = 0 if failed == 0 else 1
    if exit_code != want_code:
        raise OutputError(f"exit code {exit_code}, expected {want_code}")
    return values, failed


def _check_compare(text, spec):
    doc = load_strict_json(text)
    z = doc.get("z_scores")
    if not isinstance(z, list) or len(z) != COMPARE_Z_SCORES:
        raise OutputError(f"expected {COMPARE_Z_SCORES} z-scores")
    for v in z:
        _finite_nonnegative(v, "z_scores")
    return 2 * spec["paths"] * spec["points"]


def check(spec, exit_code, text):
    """Check one command's exit code and output text against its spec."""
    try:
        if text is None:
            raise OutputError("no output file")
        kind = spec["type"]
        if kind == "verify":
            values, failed = _check_verify(text, spec, exit_code)
            return Verdict(True, values=values, verdicts_failed=failed)
        if exit_code != 0:
            raise OutputError(f"exit code {exit_code}, expected 0")
        if kind == "simulate" and spec["format"] == "csv":
            return Verdict(True, values=_check_csv(text, spec))
        if kind == "simulate":
            return Verdict(True, values=_check_simulate_json(text, spec))
        if kind == "compare":
            return Verdict(True, values=_check_compare(text, spec))
        raise OutputError(f"unknown command type {kind!r}")
    except (OutputError, KeyError, TypeError, ValueError, AttributeError) as exc:
        return Verdict(False, reason=str(exc))
