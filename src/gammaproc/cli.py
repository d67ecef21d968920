"""Batch command-line front end.

Three subcommands:

* ``simulate`` writes an ensemble as CSV (long format ``path,t,value``) or
  JSON (config echo plus nested arrays).  Both float writers are in
  ``_floatfmt`` and write exact bytes in blocks of a fixed number of
  values: the JSON float rows (``grid`` and ``paths``) by ``repr_chunks``,
  with the bytes of ``float.__repr__`` and so of ``json.dumps``, and the
  CSV's times and values by ``g17_into``, with the bytes of ``'%.17g' %``.
  Each finds its digits in 64-bit integer arithmetic and lays them out in
  the one text stage they share; a value either kernel leaves is written by
  ``float.__repr__`` or ``'%.17g' %`` itself.
* ``verify`` runs a statistical verification suite against a process and
  emits a JSON report; exit code 1 if any check fails.  A check that raises
  a numerical failure, or whose result holds a NaN or an infinity, is
  reported as ``{"name", "status": "error", "reason"}``; the other checks
  still run and the report is still written.
* ``compare`` runs a two-sample chf comparison between two processes at
  pairs (``--points 2``) or triplets (``--points 3``); always exit 0 on a
  completed comparison (the report is informative, not pass/fail).  Its
  grid has ``--points`` times (or those of ``--times``), so ``--n`` is
  refused.

Exit codes: 0 success / all checks pass, 1 verification failure (a check
with status ``fail`` or ``error``), numerical failure (a NaN or infinity
in the output) or out of memory, in both of which cases nothing is
written, 2 usage or parameter error, 3 I/O error.  Output bytes are
deterministic given the resolved config and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from ._floatfmt import BLOCK, G17_WORDS, g17_cells, g17_into, padded_words, repr_chunks
from .analytic import GENERATOR_KINDS, PAIR_CHF_KINDS, TestFunction
from .core import (
    Dependence,
    Ensemble,
    GammaParams,
    NumericalError,
    ParameterError,
    ProcessKind,
    TimeGrid,
    _require_seed,
    make_uniform_grid,
)
from .processes import CirMethod, marginal_sample, simulate_ensemble
from .stats import (
    _acf_batch_len,
    _omega_pairs,
    chf_gof,
    default_omega_pairs,
    default_omega_triples,
    empirical_acf,
    empirical_moments,
    generator_check,
    ks_statistic,
    tail_check,
    two_sample_chf,
)

SUITES = ("marginal", "acf", "chf", "generator", "tail", "all")


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration (one process, one parameter set, one grid)."""

    process: ProcessKind
    params: GammaParams
    dep: Dependence
    grid: TimeGrid
    n_paths: int
    seed: int
    cir_method: CirMethod
    out: str | None
    fmt: str

    def echo(self):
        """The resolved-config dictionary embedded in every JSON artifact.

        Only law-determining settings appear, so output bytes depend on the
        configuration and seed alone.  ``lambda`` is ``-log(rho)`` whichever
        of ``--rho`` and ``--lambda`` spelled it (see ``Dependence``).
        ``times`` is the grid's array, which the writers write as a list.
        """
        return {
            "process": self.process.cli_name,
            "alpha": self.params.alpha,
            "beta": self.params.beta,
            "rho": self.dep.rho,
            "lambda": self.dep.lam,
            "times": self.grid.times,
            "paths": self.n_paths,
            "seed": self.seed,
            "cir_method": self.cir_method.value,
            "version": __version__,
        }


def _add_common(sp, with_process=True):
    if with_process:
        sp.add_argument("--process", required=True,
                        choices=[k.cli_name for k in ProcessKind])
    sp.add_argument("--alpha", type=float, default=2.0, help="gamma shape (default 2)")
    sp.add_argument("--beta", type=float, default=1.0, help="gamma rate (default 1)")
    dep = sp.add_mutually_exclusive_group()
    dep.add_argument("--rho", type=float, default=None,
                     help="unit-gap autocorrelation in (0,1)")
    dep.add_argument("--lambda", dest="lam", type=float, default=None,
                     help="decay rate; equivalent to --rho exp(-lambda)")
    sp.add_argument("--t0", type=float, default=0.0, help="first grid time (default 0)")
    sp.add_argument("--dt", type=float, default=1.0, help="grid spacing (default 1)")
    sp.add_argument("--n", type=int, default=None,
                    help="number of grid times (compare refuses it: its grid has --points times)")
    sp.add_argument("--times", type=str, default=None,
                    help="file of explicit grid times (one per line; overrides --t0/--dt/--n)")
    sp.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    sp.add_argument("--cir-method", choices=[m.value for m in CirMethod],
                    default="exact", help="cir sampling scheme (default exact)")
    sp.add_argument("--out", type=str, default=None,
                    help="output file (default: standard output)")


def build_parser():
    """A new parser for the command line; ``main`` reuses one per process (``_parser``)."""
    p = argparse.ArgumentParser(
        prog="gammaproc",
        description="Simulate and verify six stationary gamma processes "
        "sharing Ga(alpha, beta) marginals and exp(-lambda|s-t|) autocorrelation.",
    )
    p.add_argument("--version", action="version", version=f"gammaproc {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate an ensemble and write it out")
    _add_common(sim)
    sim.add_argument("--paths", type=int, default=1, help="number of paths (default 1)")
    sim.add_argument("--format", choices=("csv", "json"), default="csv")

    ver = sub.add_parser("verify", help="run a statistical verification suite")
    _add_common(ver)
    ver.add_argument("--suite", choices=SUITES, default="all")
    ver.add_argument("--paths", type=int, default=20000,
                     help="ensemble size for the chf suite (default 20000)")
    ver.add_argument("--omega-grid", type=str, default=None,
                     help="comma-separated frequency axis replacing the default "
                     "{+-0.25,+-0.5,+-1,+-2}/beta")

    cmp_ = sub.add_parser("compare", help="two-sample chf comparison of two processes")
    _add_common(cmp_, with_process=False)
    cmp_.add_argument("--process-a", required=True,
                      choices=[k.cli_name for k in ProcessKind])
    cmp_.add_argument("--process-b", required=True,
                      choices=[k.cli_name for k in ProcessKind])
    cmp_.add_argument("--points", type=int, choices=(2, 3), default=3)
    cmp_.add_argument("--paths", type=int, default=100000,
                      help="paths per ensemble (default 100000)")
    cmp_.add_argument("--seed-a", type=int, default=None,
                      help="seed for ensemble A (default: --seed)")
    cmp_.add_argument("--seed-b", type=int, default=None,
                      help="seed for ensemble B (default: --seed + 1)")
    return p


@functools.cache
def _parser():
    """The parser ``main`` uses, built at its first call rather than at import.

    Parsing leaves a parser as it was, so one serves every call in a
    process.  Building one takes 1.0-1.7 ms (2 vCPUs), about 5% of a
    ``compare --points 3 --paths 20000`` call.
    """
    return build_parser()


def _resolve_dep(ns):
    if ns.rho is not None:
        return Dependence.from_rho(ns.rho)
    if ns.lam is not None:
        return Dependence(ns.lam)
    return Dependence.from_rho(0.5)


def _resolve_grid(ns, default_n):
    if ns.times is not None:
        with open(ns.times) as fh:
            raw = fh.read()
        vals = []
        for tok in raw.replace(",", " ").split():
            try:
                vals.append(float(tok))
            except ValueError:
                raise ParameterError(f"--times entries must be numbers, got {tok!r}") from None
        return TimeGrid(vals)
    return make_uniform_grid(ns.t0, ns.dt, default_n if ns.n is None else ns.n)


def _resolve_config(ns, process_name, n_paths, default_n=100):
    return RunConfig(
        process=ProcessKind.parse(process_name),
        params=GammaParams(ns.alpha, ns.beta),
        dep=_resolve_dep(ns),
        grid=_resolve_grid(ns, default_n),
        n_paths=int(n_paths),
        seed=_require_seed("--seed", ns.seed),
        cir_method=CirMethod.parse(ns.cir_method),
        out=ns.out,
        fmt=getattr(ns, "format", "json"),
    )


def _simulate(cfg: RunConfig) -> Ensemble:
    return simulate_ensemble(cfg.process, cfg.grid, cfg.params, cfg.dep, cfg.n_paths,
                             cfg.seed, method=cfg.cir_method)


def _write_text(path, chunks):
    """Write an iterable of text chunks to ``path`` (standard output if None)."""
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", newline="") as fh:
            fh.writelines(chunks)


def _non_finite():
    return NumericalError("non-finite value in output (NaN or infinity)")


def _tolist(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"object of type {type(obj).__name__} is not JSON serializable")


def _dump_json(payload):
    """``payload`` as strict JSON, indented 2 with sorted keys; numpy arrays and
    scalars are written as their Python lists and values.  A NaN or infinity
    raises ``NumericalError``: an artifact is always strict JSON."""
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False,
                          default=_tolist) + "\n"
    except ValueError:
        raise _non_finite() from None


def _report_chunks(report, end="\n}\n"):
    """``_dump_json(report)`` in chunks, each config echo's grid times spliced in as text.

    A config echo is a value of ``report`` with a ``times`` key
    (``RunConfig.echo``).  json.dumps' indent encoder is pure Python and
    builds the whole document as one string, which for a million times
    takes about a second and 150 MiB.  So the report is dumped with each
    echo's ``"times": []``, and the times go in their place 4096 at a time
    as ``float.__repr__`` text, which is what json.dumps writes for a float.
    Only an echo's keys sit at an indent of 4, so the empty lists split the
    dump at the echoes, in sorted key order.  The dump runs before this
    returns, so a NaN or infinity raises before the output opens.  ``end``
    replaces the document's closing ``"\n}\n"``, so that a caller can
    append members that sort after the report's.

    This is the one place an echo's times are written, ``simulate``'s
    included.  ``float.__repr__`` rather than ``_floatfmt.repr_chunks``,
    whose set-up costs about 0.14 ms a call: on a 3-time grid 17-digit times
    take 0.001 ms here, and on the 200-time grid of a benchmark JSON write
    0.09 ms against 0.19 ms.  Past about 400 times repr_chunks is the
    faster (1e5 times: 21 ms against 63 ms, 2 vCPUs), so a long-grid
    ``simulate`` JSON pays that on one of its rows.
    """
    echoes = sorted(k for k, v in report.items() if isinstance(v, dict) and "times" in v)
    text = _dump_json({**report, **{k: {**report[k], "times": []} for k in echoes}})
    *heads, tail = text.removesuffix("\n}\n").split('\n    "times": []')

    def chunks():
        for head, key in zip(heads, echoes, strict=True):
            times = report[key]["times"]
            yield head + '\n    "times": [\n      '
            for s in range(0, len(times), 4096):
                sep = ",\n      " if s else ""
                yield sep + ",\n      ".join(map(float.__repr__, times[s : s + 4096].tolist()))
            yield "\n    ]"
        yield tail + end

    return chunks()


def _simulate_json_chunks(cfg: RunConfig, values):
    """The ``simulate --format json`` document, one chunk per block of float values.

    Keys sort as config < grid < paths, so the float rows are spliced after
    the config object that ``_report_chunks`` writes.
    """
    yield from _report_chunks({"config": cfg.echo()}, ',\n  "grid": [\n    ')
    yield from repr_chunks(cfg.grid.times[None], ",\n    ",
                           '\n  ],\n  "paths": [\n    [\n      ')
    yield from repr_chunks(values[:-1], ",\n      ", "\n    ],\n    [\n      ")
    yield from repr_chunks(values[-1:], ",\n      ", "\n    ]\n  ]\n}\n")


def _csv_chunks(times, values):
    """The ``path,t,value`` CSV of an ensemble, one chunk per ``_floatfmt.BLOCK`` lines.

    Each line is ``"%d,%.17g,%.17g\\n" % (m, t, v)``.  Every time and value is
    formatted by ``_floatfmt.g17_into``, in integer arithmetic (a subnormal,
    a negative and the rare value it cannot round go to ``'%.17g' %``): each
    time once, as a row of words that holds ``"t,"``, and each value into a
    block's rows of words, after its path's ``"m,"`` and its time's row.
    Deleting the NUL bytes of the block's rows, in one ``bytes.translate``,
    leaves its lines, so memory grows with neither the number of paths nor
    their length (beyond the times' row of words).
    """
    yield "path,t,value\n"
    n, flat = times.size, values.ravel()
    cells = g17_cells(times, ",")
    for start in range(0, flat.size, BLOCK):
        x = flat[start : start + BLOCK]
        m, j = np.divmod(np.arange(start, start + x.size), n)
        heads = padded_words([f"{p}," for p in range(m[0], m[-1] + 1)])
        a, b = heads.shape[1], heads.shape[1] + cells.shape[1]
        rows = np.empty((x.size, b + G17_WORDS), np.uint32)
        rows[:, :a] = heads.take(m - m[0], 0)
        rows[:, a:b] = cells.take(j, 0)
        g17_into(x, rows[:, b:])
        yield rows.tobytes().translate(None, b"\0").decode("ascii")


# -- simulate -----------------------------------------------------------------


def cmd_simulate(cfg: RunConfig) -> int:
    ens = _simulate(cfg)
    # checked before the output opens, so a failed run leaves no partial file
    if not np.isfinite(ens.values).all():
        raise _non_finite()
    if cfg.fmt == "csv":
        _write_text(cfg.out, _csv_chunks(cfg.grid.times, ens.values))
    else:
        _write_text(cfg.out, _simulate_json_chunks(cfg, ens.values))
    return 0


# -- verify -------------------------------------------------------------------

_NSIG = 4.0


def _subseed(cfg: RunConfig, salt):
    """Per-check master seed: mixes the user seed with the process and check.

    Distinct checks (and distinct processes at the same --seed) get distinct,
    reproducible streams instead of all reading the head of one stream.  The
    result is taken mod 2**64, the range of a seed; 1000003 is odd, so
    distinct seeds give distinct subseeds for each check.
    """
    kind_index = list(ProcessKind).index(cfg.process)
    return (cfg.seed * 1000003 + kind_index * 101 + salt) & ((1 << 64) - 1)


def _first_gap(cfg: RunConfig):
    """The gap the checks use: the grid's first gap, or 1 on a one-point grid."""
    return float(cfg.grid.gaps[0]) if cfg.grid.n > 1 else 1.0


def _check_marginal(cfg: RunConfig):
    x = marginal_sample(cfg.process, 100000, cfg.params, cfg.dep, _subseed(cfg, 1),
                        gap=_first_gap(cfg), method=cfg.cir_method)
    ks = ks_statistic(x, cfg.params)
    mom = empirical_moments(x)
    z_mean, z_var = mom.z_scores(cfg.params)
    ok = ks.passed and z_mean <= _NSIG and z_var <= _NSIG
    return {
        "name": "marginal",
        "status": "pass" if ok else "fail",
        "ks_statistic": ks.statistic,
        "ks_critical_1pct": ks.critical_1pct,
        "mean": mom.mean,
        "z_mean": z_mean,
        "variance": mom.variance,
        "z_variance": z_var,
        "n": ks.n,
    }


def _acf_grid(cfg: RunConfig):
    """The acf check's path grid, 1e5 steps of the first gap, and its last lag.

    The path must hold two batches of ``_acf_batch_len`` steps at the last
    lag, 5, which fails when lambda * dt is below about 1e-3.  That is
    refused here, so ``cmd_verify`` can refuse it before anything is
    sampled, and hands the grid to ``_check_acf``.
    """
    n_steps, max_lag, dt = 100000, 5, _first_gap(cfg)
    batch_len = _acf_batch_len(cfg.dep.lam, dt)
    if (n_steps - max_lag) // batch_len < 2:
        raise ParameterError(
            f"the acf check needs lambda*dt >= about 1e-3, got {cfg.dep.lam * dt:.3g}: its "
            f"{n_steps}-step path cannot hold two batches of ceil(50/(lambda*dt)) = "
            f"{batch_len} steps at lag {max_lag}")
    return make_uniform_grid(0.0, dt, n_steps), max_lag


def _check_acf(cfg: RunConfig, grid, max_lag):
    # a path of 1e5 points takes more than processes._BLOCK_DRAWS draws, so it is
    # a block of one path drawn from the stream (subseed, 0)
    path = _simulate(replace(cfg, grid=grid, n_paths=1, seed=_subseed(cfg, 2))).path(0)
    rep = empirical_acf(path, cfg.dep, max_lag=max_lag)
    return {
        "name": "acf",
        "status": "pass" if rep.max_z <= _NSIG else "fail",
        "lags": rep.lags,
        "estimates": rep.estimates,
        "targets": rep.target,
        "standard_errors": rep.standard_errors,
        "max_z": rep.max_z,
        "batch_len": rep.batch_len,
    }


def _check_chf(cfg: RunConfig, omegas):
    if cfg.process not in PAIR_CHF_KINDS:
        return {
            "name": "chf",
            "status": "skipped",
            "reason": "no closed-form pair chf for the continuously-thinned process",
        }
    grid = make_uniform_grid(0.0, _first_gap(cfg), 2)
    comp = chf_gof(_simulate(replace(cfg, grid=grid, seed=_subseed(cfg, 3))), cfg.params,
                   cfg.dep, omegas=omegas)
    ok = comp.max_z <= _NSIG
    return {
        "name": "chf",
        "status": "pass" if ok else "fail",
        "formula_kind": cfg.process.cli_name,
        "n_pairs": comp.n,
        "n_omegas": int(comp.omegas.shape[0]),
        "max_z": comp.max_z,
        "worst_omega": comp.argmax_omega,
    }


def _check_generator(cfg: RunConfig):
    if cfg.process not in GENERATOR_KINDS:
        return {
            "name": "generator",
            "status": "skipped",
            "reason": "generator defined for the cir and cthin kinds only",
        }
    # one call scores both functions at both start points; rows go by function, then x0
    checks = generator_check(cfg.process, (TestFunction.identity(), TestFunction.square()),
                             (0.5, 2.0), cfg.params, cfg.dep, n_mc=200000,
                             master_seed=_subseed(cfg, 4))
    rows = [{"phi": chk.phi.name, "x0": chk.x0, "fd_estimate": chk.fd_estimate,
             "analytic": chk.analytic, "se": chk.se, "z": chk.z} for chk in checks]
    ok = all(chk.z <= _NSIG for chk in checks)
    return {"name": "generator", "status": "pass" if ok else "fail", "rows": rows}


def _tail_grid(params):
    """The tail check's u grid: beta u in six even steps up to max(30, 2 alpha).

    It reaches past beta u = alpha, where the Levy column crosses 1, so a
    survival column of the wrong law, such as that of Ga(2 alpha, beta),
    fails; it stops at 600, before the Levy column underflows to 0.  At
    alpha <= 15 it is 5, 10, ..., 30 over beta.
    """
    top = min(max(30.0, 2.0 * params.alpha), 600.0)
    return np.linspace(top / 6.0, top, 6) / params.beta


def _check_tail(cfg: RunConfig):
    table = tail_check(cfg.params, _tail_grid(cfg.params))
    return {
        "name": "tail",
        "status": "pass" if table.tail_ok else "fail",
        "u": table.u,
        "survival": table.survival,
        "levy_exact": table.levy_exact,
        "approximant": table.approximant,
        "neg_log_survival_over_bu": table.nl_survival,
        "neg_log_levy_over_bu": table.nl_levy,
        "neg_log_approximant_over_bu": table.nl_approximant,
    }


def _run_check(name, check):
    """One check's report entry; a NumericalError, or a NaN or infinity in the
    entry, fails this check alone, as status "error"."""
    try:
        entry = check()
        _dump_json(entry)  # raises NumericalError on a NaN or infinity
        return entry
    except NumericalError as exc:
        print(f"gammaproc: numerical failure in the {name} check: {exc}", file=sys.stderr)
        return {"name": name, "status": "error", "reason": str(exc)}


def cmd_verify(cfg: RunConfig, suite, omega_axis=None) -> int:
    if suite in ("chf", "all") and cfg.process in PAIR_CHF_KINDS and cfg.n_paths < 2:
        raise ParameterError(f"the chf check needs --paths >= 2, got {cfg.n_paths}")
    # refuses a path the acf check cannot simulate or batch
    acf_grid = _acf_grid(cfg) if suite in ("acf", "all") else None
    omegas = None if omega_axis is None else _omega_pairs(omega_axis)
    runs = [
        ("marginal", lambda: _check_marginal(cfg)),
        ("acf", lambda: _check_acf(cfg, *acf_grid)),
        ("chf", lambda: _check_chf(cfg, omegas)),
        ("generator", lambda: _check_generator(cfg)),
        ("tail", lambda: _check_tail(cfg)),
    ]
    checks = [_run_check(name, check) for name, check in runs if suite in (name, "all")]
    passed = all(c["status"] not in ("fail", "error") for c in checks)
    report = {
        "config": cfg.echo(),
        "suite": suite,
        "checks": checks,
        "passed": passed,
    }
    _write_text(cfg.out, _report_chunks(report))
    return 0 if passed else 1


# -- compare ------------------------------------------------------------------


def cmd_compare(cfg_a: RunConfig, cfg_b: RunConfig, points) -> int:
    if cfg_a.params != cfg_b.params or cfg_a.dep != cfg_b.dep:
        raise ParameterError("compare requires both processes to share parameters")
    if cfg_a.n_paths < 2 or cfg_b.n_paths < 2:
        raise ParameterError(
            f"compare needs --paths >= 2, got {min(cfg_a.n_paths, cfg_b.n_paths)}")
    if cfg_a.grid.n < points:
        raise ParameterError(f"compare --points {points} needs a grid of at least {points} "
                             f"times, got {cfg_a.grid.n}")
    ens_a = _simulate(cfg_a)
    ens_b = _simulate(cfg_b)
    omegas = (default_omega_triples if points == 3 else default_omega_pairs)(cfg_a.params.beta)
    z = two_sample_chf(ens_a.values[:, :points], ens_b.values[:, :points], omegas)[0]
    report = {
        "config_a": cfg_a.echo(),
        "config_b": cfg_b.echo(),
        "points": points,
        "omegas": omegas,
        "z_scores": z,
        "max_z": float(np.max(z)),
        "argmax_omega": omegas[int(np.argmax(z))],
    }
    _write_text(cfg_a.out, _report_chunks(report))
    return 0


# -- entry point ----------------------------------------------------------------


def _parse_omega_grid(text):
    """The ``--omega-grid`` axis: at least one finite frequency, checked before any simulation."""
    try:
        axis = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ParameterError(f"--omega-grid must be comma-separated numbers, got {text!r}") from None
    if not axis:
        raise ParameterError("--omega-grid must list at least one frequency")
    if not all(math.isfinite(w) for w in axis):
        raise ParameterError(f"--omega-grid frequencies must be finite, got {text!r}")
    return axis


def main(argv=None) -> int:
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    try:
        if ns.command == "simulate":
            cfg = _resolve_config(ns, ns.process, ns.paths)
            return cmd_simulate(cfg)
        if ns.command == "verify":
            cfg = _resolve_config(ns, ns.process, ns.paths, default_n=2)
            axis = None if ns.omega_grid is None else _parse_omega_grid(ns.omega_grid)
            return cmd_verify(cfg, ns.suite, omega_axis=axis)
        # compare: argparse admits no other command
        if ns.n is not None:
            raise ParameterError("compare takes no --n: its grid has --points times, "
                                 "from --t0 and --dt, or the --times file's")
        ns.n = ns.points
        cfg = _resolve_config(ns, ns.process_a, ns.paths)
        seed_a = ns.seed if ns.seed_a is None else ns.seed_a
        seed_b = ns.seed + 1 if ns.seed_b is None else ns.seed_b
        cfg_a = replace(cfg, seed=_require_seed("--seed-a", seed_a))
        cfg_b = replace(cfg, process=ProcessKind.parse(ns.process_b),
                        seed=_require_seed("--seed-b", seed_b))
        return cmd_compare(cfg_a, cfg_b, ns.points)
    except ParameterError as exc:
        print(f"gammaproc: error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"gammaproc: numerical failure: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"gammaproc: out of memory: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"gammaproc: i/o error: {exc}", file=sys.stderr)
        return 3


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
