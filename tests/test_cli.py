import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gammaproc import GammaParams, NumericalError, ParameterError, TestFunction, cli, processes
from gammaproc.cli import (
    RunConfig,
    _dump_json,
    _resolve_config,
    _simulate,
    build_parser,
    cmd_compare,
    main,
)
from gammaproc.stats import (default_omega_pairs, default_omega_triples, generator_check,
                              two_sample_chf)

SRC = str(Path(cli.__file__).resolve().parents[1])


def run(args):
    return main(args)


def read_csv_values(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "path,t,value"
    rows = [line.split(",") for line in lines[1:]]
    return np.array([[float(c) for c in row] for row in rows])


def test_help_and_version_exit_zero(capsys):
    assert run(["--help"]) == 0
    assert run(["--version"]) == 0
    capsys.readouterr()


def test_main_builds_its_parser_once_per_process(monkeypatch, capsys, tmp_path):
    calls = []

    def counted():
        calls.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        out = ["--out", str(tmp_path / "o")]
        assert run(["--version"]) == 0
        assert run(["simulate", "--process", "ar1", "--n", "3", *out]) == 0
        assert run(["simulate", "--process", "nope"]) == 2
        assert run(["verify", "--process", "ar1", "--suite", "tail", *out]) == 0
    finally:
        cli._parser.cache_clear()
    capsys.readouterr()
    assert len(calls) == 1


_PARSER_REUSE_RUNS = [
    ["simulate", "--process", "ar1", "--n", "5", "--paths", "3", "--seed", "3"],
    ["simulate", "--process", "nope"],
    ["simulate", "--process", "changepoint", "--n", "4", "--paths", "2", "--format", "json"],
    ["--version"],
    ["verify", "--process", "cir", "--suite", "tail"],
    ["compare", "--process-a", "thinned", "--process-b", "rm", "--points", "2",
     "--paths", "300", "--seed", "5"],
    ["compare", "--process-a", "thinned", "--process-b", "rm", "--points", "2",
     "--paths", "300", "--seed", "5", "--rho", "0.6"],
    ["compare", "--process-a", "thinned", "--process-b", "rm", "--points", "2",
     "--paths", "300", "--seed", "5", "--lambda", "0.51"],
]


def _parser_reuse_outputs(capsys, tmp_path):
    tmp_path.mkdir()
    outputs = []
    for i, args in enumerate(_PARSER_REUSE_RUNS):
        out = tmp_path / f"run{i}"
        code = run(args + (["--out", str(out)] if args[0] != "--version" else []))
        outputs.append((code, out.read_bytes() if out.exists() else None,
                        *capsys.readouterr()))
    return outputs


def test_a_reused_parser_gives_the_bytes_of_a_fresh_one(monkeypatch, capsys, tmp_path):
    cli._parser.cache_clear()
    try:
        reused = _parser_reuse_outputs(capsys, tmp_path / "reused")
    finally:
        cli._parser.cache_clear()
    monkeypatch.setattr(cli, "_parser", build_parser)
    fresh = _parser_reuse_outputs(capsys, tmp_path / "fresh")
    assert [r[0] for r in reused] == [0, 2, 0, 0, 0, 0, 0, 0]
    assert reused == fresh


def test_missing_subcommand_is_usage_error(capsys):
    assert run([]) == 2
    capsys.readouterr()


def test_simulate_csv_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["simulate", "--process", "ar1", "--n", "6", "--paths", "3",
            "--seed", "42"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_threads_option_is_a_usage_error(capsys, command):
    assert run([command, "--process", "ar1", "--threads", "2"]) == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


def test_the_forced_chf_kind_option_is_gone(capsys):
    # a mismatched chf oracle is exercised by criterion 4's power control instead
    assert run(["verify", "--process", "ar1", "--debug-force-chf-kind", "thinned"]) == 2
    assert "unrecognized arguments: --debug-force-chf-kind" in capsys.readouterr().err


def test_simulate_lambda_equals_rho_spelling(tmp_path):
    out_r = tmp_path / "rho.csv"
    out_l = tmp_path / "lam.csv"
    lam = repr(float(-np.log(0.5)))
    base = ["simulate", "--process", "thinned", "--n", "4", "--paths", "2",
            "--seed", "3"]
    assert run(base + ["--rho", "0.5", "--out", str(out_r)]) == 0
    assert run(base + ["--lambda", lam, "--out", str(out_l)]) == 0
    assert out_r.read_bytes() == out_l.read_bytes()


def test_simulate_csv_and_json_agree(tmp_path):
    out_c = tmp_path / "x.csv"
    out_j = tmp_path / "x.json"
    base = ["simulate", "--process", "changepoint", "--n", "5", "--paths", "3",
            "--seed", "11"]
    assert run(base + ["--format", "csv", "--out", str(out_c)]) == 0
    assert run(base + ["--format", "json", "--out", str(out_j)]) == 0
    csv_vals = read_csv_values(out_c)
    payload = json.loads(out_j.read_text())
    paths = np.array(payload["paths"])
    assert payload["config"]["process"] == "changepoint"
    assert paths.shape == (3, 5)
    for m, t, v in csv_vals:
        k = int(round(t - payload["grid"][0]))
        assert paths[int(m), k] == v


def test_simulate_times_file(tmp_path):
    times = tmp_path / "times.txt"
    times.write_text("0.0\n0.5\n1.25\n")
    out = tmp_path / "y.json"
    assert run(["simulate", "--process", "rm", "--times", str(times),
                "--paths", "2", "--seed", "1", "--format", "json",
                "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["grid"] == [0.0, 0.5, 1.25]


def test_invalid_rho_exits_2(tmp_path, capsys):
    code = run(["simulate", "--process", "ar1", "--rho", "1.5", "--n", "4"])
    err = capsys.readouterr().err
    assert code == 2
    assert "rho" in err


def test_unwritable_out_exits_3(tmp_path, capsys):
    code = run(["simulate", "--process", "ar1", "--n", "4",
                "--out", str(tmp_path / "no" / "such" / "dir.csv")])
    capsys.readouterr()
    assert code == 3


def test_unknown_process_is_usage_error(capsys):
    assert run(["simulate", "--process", "weibull", "--n", "4"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("dt", ["0.3701", "0.3", "1e-10", "1e-300"])
def test_cthin_simulates_any_dt(tmp_path, dt):
    # the lattice refused these grids (exit 2); the series samples any gap
    out = tmp_path / "x.csv"
    assert run(["simulate", "--process", "cthin", "--dt", dt, "--n", "4", "--paths", "2",
                "--out", str(out)]) == 0
    values = read_csv_values(out)
    assert values.shape == (8, 3)
    assert np.all(np.isfinite(values[:, 2])) and np.all(values[:, 2] > 0.0)


@pytest.mark.parametrize("command", [
    ["simulate", "--process", "cthin"],
    ["verify", "--process", "cthin", "--suite", "tail"],
    ["compare", "--process-a", "cthin", "--process-b", "rm"],
])
def test_the_removed_cthin_steps_option_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                                          command):
    _no_sampler(monkeypatch)
    out = tmp_path / "out"
    assert run([*command, "--cthin-steps", "16", "--out", str(out)]) == 2
    assert "unrecognized arguments: --cthin-steps 16" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["1", "2"])
def test_verify_cthin_marginal_passes_at_a_small_shape(tmp_path, seed):
    # the lattice's kept fraction 1 - g1/(g1+g2) cancelled to 0 here, and both seeds failed
    out = tmp_path / "marg.json"
    assert run(["verify", "--process", "cthin", "--alpha", "0.05", "--suite", "marginal",
                "--seed", seed, "--out", str(out)]) == 0


def test_verify_tail_suite(tmp_path):
    out = tmp_path / "tail.json"
    assert run(["verify", "--process", "ar1", "--suite", "tail",
                "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    names = [c["name"] for c in payload["checks"]]
    assert names == ["tail"]


def test_verify_marginal_suite_passes(tmp_path):
    out = tmp_path / "marg.json"
    assert run(["verify", "--process", "thinned", "--suite", "marginal",
                "--seed", "0", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    check = payload["checks"][0]
    assert check["status"] == "pass"
    assert check["ks_statistic"] < check["ks_critical_1pct"]


def test_verify_generator_suite_skips_non_diffusion_kinds(tmp_path):
    out = tmp_path / "gen.json"
    assert run(["verify", "--process", "ar1", "--suite", "generator",
                "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["checks"][0]["status"] == "skipped"


def _four_call_check_generator(cfg):
    # the generator check as it was when it made one generator_check call per
    # function and start point, all on one subseed (calls adapted to the 1-tuple form)
    rows = []
    ok = True
    for phi in (TestFunction.identity(), TestFunction.square()):
        for x0 in (0.5, 2.0):
            (chk,) = generator_check(cfg.process, (phi,), (x0,), cfg.params, cfg.dep,
                                     n_mc=200000, master_seed=cli._subseed(cfg, 4))
            rows.append({
                "phi": phi.name, "x0": x0, "fd_estimate": chk.fd_estimate,
                "analytic": chk.analytic, "se": chk.se, "z": chk.z,
            })
            ok = ok and chk.z <= cli._NSIG
    return {"name": "generator", "status": "pass" if ok else "fail", "rows": rows}


@pytest.mark.parametrize("seed", ["1", "7"])
@pytest.mark.parametrize("process", ["cir", "cthin"])
def test_verify_generator_report_has_the_bytes_of_four_single_function_calls(
        tmp_path, process, seed):
    argv = ["verify", "--process", process, "--suite", "generator", "--seed", seed]
    out = tmp_path / "gen.json"
    assert run([*argv, "--out", str(out)]) == 0
    ns = build_parser().parse_args(argv)
    cfg = _resolve_config(ns, ns.process, ns.paths, default_n=2)
    entry = _four_call_check_generator(cfg)
    assert out.read_text() == _dump_json({"config": cfg.echo(), "suite": "generator",
                                          "checks": [entry], "passed": True})


def test_verify_generator_draws_cthin_factors_once_for_both_start_points(tmp_path, monkeypatch):
    from gammaproc.processes import _CirExactPlan, _CthinPlan

    checks, steps, factors = [], [], []
    monkeypatch.setattr(cli, "generator_check", lambda *a, f=cli.generator_check, **k:
                        checks.append(a[2]) or f(*a, **k))
    # the lane updates that generator_check reaches through the table of kinds
    monkeypatch.setattr(_CirExactPlan, "lane_step", staticmethod(
        lambda *a, f=_CirExactPlan.lane_step: steps.append(a[1].size) or f(*a)))
    monkeypatch.setattr(_CthinPlan, "lane_factors", staticmethod(
        lambda *a, f=_CthinPlan.lane_factors: factors.append(a[4]) or f(*a)))
    blocks = [1 << 17, 200000 - (1 << 17)]  # 200000 steps per draw, in blocks of 2^17
    # cir's draws depend on the start point, so each start draws its own steps
    for process, want_steps, want_factors in (("cir", blocks * 2, []), ("cthin", [], blocks)):
        checks.clear()
        steps.clear()
        factors.clear()
        assert run(["verify", "--process", process, "--suite", "generator",
                    "--out", str(tmp_path / f"{process}.json")]) == 0
        assert checks == [(0.5, 2.0)]
        assert (steps, factors) == (want_steps, want_factors)


def test_verify_chf_suite_passes_with_matching_kind(tmp_path):
    out = tmp_path / "chf.json"
    assert run(["verify", "--process", "thinned", "--suite", "chf",
                "--paths", "20000", "--seed", "0", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["checks"][0]["max_z"] < 4.0


def test_compare_two_point_smoke(tmp_path):
    out = tmp_path / "cmp.json"
    assert run(["compare", "--process-a", "thinned", "--process-b", "rm",
                "--points", "2", "--paths", "4000", "--seed", "5",
                "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["points"] == 2
    assert payload["max_z"] >= 0.0


@pytest.mark.parametrize("points", [2, 3])
def test_compare_scores_the_first_points_of_both_ensembles(tmp_path, points):
    out = tmp_path / "cmp.json"
    argv = ["compare", "--process-a", "thinned", "--process-b", "rm", "--points", str(points),
            "--paths", "3000", "--seed", "5"]
    assert run(argv + ["--out", str(out)]) == 0
    ns = build_parser().parse_args(argv)
    ns.n = points
    ens_a = _simulate(_resolve_config(ns, "thinned", ns.paths))
    ens_b = _simulate(RunConfig(**{**_resolve_config(ns, "rm", ns.paths).__dict__, "seed": 6}))
    omegas = (default_omega_triples if points == 3 else default_omega_pairs)(1.0)
    z = two_sample_chf(ens_a.values, ens_b.values, omegas)[0]
    payload = json.loads(out.read_text())
    assert payload["z_scores"] == z.tolist()
    assert payload["argmax_omega"] == omegas[int(np.argmax(z))].tolist()


def test_compare_requires_shared_parameters():
    # the CLI shares one set of parameter flags between both processes, so
    # only a programmatic caller can ask for two different laws
    ns = build_parser().parse_args(["compare", "--process-a", "thinned",
                                    "--process-b", "rm", "--paths", "10"])
    cfg_a = _resolve_config(ns, ns.process_a, ns.paths, default_n=3)
    cfg_b = _resolve_config(ns, ns.process_b, ns.paths, default_n=3)
    cfg_b = RunConfig(**{**cfg_b.__dict__, "params": GammaParams(1.0, cfg_b.params.beta)})
    with pytest.raises(ParameterError, match="share parameters"):
        cmd_compare(cfg_a, cfg_b, 3)


def test_default_omega_triples_shape():
    w = default_omega_triples(2.0)
    assert w.shape == (20, 3)
    assert np.max(np.abs(w)) == pytest.approx(1.0)  # 2/beta with beta=2


def test_parser_rejects_rho_and_lambda_together(capsys):
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["simulate", "--process", "ar1", "--rho", "0.5",
                           "--lambda", "0.7"])
    capsys.readouterr()


# -- the streamed writers against the writers they replaced ---------------------


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def _reference_json(payload):
    return json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"


def _percent_csv_chunks(times, values):
    """The CSV writer that formatted each value with ``%``: the byte reference."""
    yield "path,t,value\n"
    cells = [format(t, ".17g") + ",%.17g" for t in times.tolist()]
    for m, row in enumerate(values):
        head = f"{m},"
        yield (head + ("\n" + head).join(cells) + "\n") % tuple(row.tolist())


def _reference_simulate(args):
    ns = build_parser().parse_args(args)
    cfg = _resolve_config(ns, ns.process, ns.paths)
    ens = _simulate(cfg)
    times = cfg.grid.times
    if cfg.fmt == "csv":
        return "".join(_percent_csv_chunks(times, ens.values))
    return _reference_json({
        "config": cfg.echo(),
        "grid": [float(t) for t in times],
        "paths": [[float(v) for v in row] for row in ens.values],
    })


@pytest.fixture
def irregular_times(tmp_path):
    times = tmp_path / "times.txt"
    times.write_text("0.1\n0.7\n1.3\n")  # 0.1 has a 17th significant digit
    return str(times)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", ["one-value", "irregular", "ar1-2000x200", "cir-1x5000",
                                  "rm-small-shape", "ar1-3x1234", "ar1-1x12345", "odd-times"])
def test_simulate_output_equals_reference_writer(tmp_path, irregular_times, odd_times, fmt,
                                                 case):
    args = {
        "one-value": ["--process", "cir", "--n", "1", "--paths", "1", "--seed", "3"],
        "irregular": ["--process", "rm", "--times", irregular_times, "--paths", "4",
                      "--seed", "8"],
        "ar1-2000x200": ["--process", "ar1", "--alpha", "0.5", "--n", "200",
                         "--paths", "2000", "--seed", "12"],
        "cir-1x5000": ["--process", "cir", "--n", "5000", "--paths", "1", "--seed", "5"],
        # values below 1e-4 and exact zeros, which float.__repr__ writes itself
        "rm-small-shape": ["--process", "rm", "--alpha", "0.01", "--rho", "0.001", "--n", "50",
                           "--paths", "3", "--seed", "9"],
        # 3702 values: a block of _floatfmt.BLOCK values ends inside a path
        "ar1-3x1234": ["--process", "ar1", "--n", "1234", "--paths", "3", "--seed", "6"],
        # the config echo's times span several chunks
        "ar1-1x12345": ["--process", "ar1", "--n", "12345", "--paths", "1", "--seed", "4"],
        # the echo's times 0.0, negative, 1e-5 and 1e17
        "odd-times": ["--process", "rm", "--times", odd_times, "--paths", "2", "--seed", "7"],
    }[case]
    args = ["simulate", *args, "--format", fmt]
    out = tmp_path / f"out.{fmt}"
    assert run(args + ["--out", str(out)]) == 0
    assert out.read_bytes() == _reference_simulate(args).encode()


@pytest.mark.parametrize("kind", ["ar1", "thinned", "rm", "changepoint", "cir", "cthin"])
def test_simulate_csv_at_the_small_shape_point_equals_the_percent_writer(tmp_path, kind):
    # most values are below 1e-4 (exponent notation); some kinds write exact zeros
    # and subnormals
    args = ["simulate", "--process", kind, "--alpha", "0.01", "--rho", "0.001", "--n", "200",
            "--paths", "20", "--seed", "31", "--format", "csv"]
    ns = build_parser().parse_args(args)
    cfg = _resolve_config(ns, ns.process, ns.paths)
    times, values = cfg.grid.times, _simulate(cfg).values
    want = "".join(_percent_csv_chunks(times, values))
    # thinned writes NaN at this point (a known defect), so the writers are also
    # compared on the ensemble itself
    assert "".join(cli._csv_chunks(times, values)) == want
    out = tmp_path / "out.csv"
    code = run(args + ["--out", str(out)])
    if np.isfinite(values).all():
        assert code == 0 and out.read_bytes() == want.encode()
    else:
        assert code == 1 and not out.exists()


@pytest.mark.parametrize("times", [np.arange(200.0), np.array([-7.25, -1e-5, 0.0, 1e-5, 0.1,
                                                               1e17, 5e-324])])
def test_csv_writer_equals_the_percent_writer_across_blocks(monkeypatch, times):
    monkeypatch.setattr(cli, "BLOCK", 700)  # blocks end inside paths
    rng = np.random.default_rng(8)
    values = rng.gamma(0.05, size=(13, times.size))
    values[::3, ::5] = 0.0
    values[1, :3] = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    assert "".join(cli._csv_chunks(times, values)) == "".join(_percent_csv_chunks(times, values))


def test_csv_writer_memory_does_not_grow_with_paths():
    times = np.arange(200.0)
    rng = np.random.default_rng(2)

    def peak(paths):
        values = rng.gamma(0.01, size=(paths, times.size))
        for _ in cli._csv_chunks(times, values):  # every table row in use is built
            pass
        tracemalloc.start()
        try:
            size = sum(len(chunk) for chunk in cli._csv_chunks(times, values))
            return size, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    (small_size, small), (big_size, big) = peak(20), peak(400)
    assert big_size > 10 * small_size
    assert big < 1.25 * small


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_simulate_stdout_equals_reference_writer(capsys, fmt):
    args = ["simulate", "--process", "changepoint", "--n", "7", "--paths", "5",
            "--seed", "2", "--format", fmt]
    assert run(args) == 0
    assert capsys.readouterr().out == _reference_simulate(args)


@pytest.fixture
def odd_times(tmp_path):
    times = tmp_path / "odd-times.txt"
    times.write_text("-7.25\n-1e-05\n0.0\n1e-05\n0.1\n1e+17\n")
    return str(times)


@pytest.mark.parametrize("argv", [
    ["verify", "--process", "ar1", "--suite", "all", "--paths", "2000", "--seed", "4"],
    ["compare", "--process-a", "thinned", "--process-b", "rm", "--points", "2",
     "--paths", "2000", "--seed", "6"],
    ["verify", "--process", "ar1", "--suite", "tail", "--times", "ODD"],
    ["verify", "--process", "ar1", "--suite", "all", "--n", "1", "--paths", "2000", "--seed", "5"],
    # 10000 times from -5: the echo's times span three chunks of 4096
    ["verify", "--process", "cir", "--suite", "marginal", "--t0", "-5", "--dt", "0.001",
     "--n", "10000"],
    ["compare", "--process-a", "thinned", "--process-b", "rm", "--points", "3",
     "--paths", "2000", "--times", "ODD"],
    ["compare", "--process-a", "ar1", "--process-b", "cir", "--points", "2",
     "--paths", "2000", "--t0", "-3", "--dt", "1e-5"],
], ids=["verify-all", "compare-pairs", "verify-times-file", "verify-one-time",
        "verify-long-grid", "compare-times-file", "compare-small-gaps"])
def test_report_equals_reference_writer(tmp_path, monkeypatch, odd_times, argv):
    # nested lists, ints, bools, strings, skipped checks, numpy arrays and
    # scalars; the times 0.0, negative, 1e-5 and 1e17 of the times file
    reports = []

    def spy(report):
        reports.append(report)
        return report_chunks(report)

    report_chunks = cli._report_chunks
    monkeypatch.setattr(cli, "_report_chunks", spy)
    argv = [odd_times if a == "ODD" else a for a in argv]
    out = tmp_path / "report.json"
    assert run(argv + ["--out", str(out)]) in (0, 1)
    (report,) = reports
    assert out.read_bytes() == _reference_json(report).encode()


def test_report_writer_memory_does_not_grow_with_the_grid():
    def peak(n):
        ns = build_parser().parse_args(["verify", "--process", "ar1", "--suite", "tail",
                                        "--n", str(n)])
        cfg = _resolve_config(ns, ns.process, ns.paths, default_n=2)
        report = {"config": cfg.echo(), "suite": "tail", "checks": [], "passed": True}
        tracemalloc.start()
        try:
            size = sum(len(chunk) for chunk in cli._report_chunks(report))
            return size, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    (small_size, small), (big_size, big) = peak(20000), peak(200000)
    assert big_size > 10 * small_size
    # a writer that holds the document or the times as Python floats peaks
    # at several MiB on 2e5 times; the spliced writer holds one chunk
    assert big < 1.25 * small


def test_json_writer_covers_every_value_type():
    payload = {
        "b": [True, False, None, "x\u00e9\"", 3, -0.0, 1e-320, 2.5e300],
        "a": {"int": np.int64(7), "flag": np.bool_(True), "f": np.float32(0.1)},
        "arrays": [np.arange(3), np.zeros((2, 0)), np.ones((2, 2, 2)),
                   np.array([True, False]), np.empty(0)],
        "empty": {}, "tuple": (1, [2, []]),
    }
    assert _dump_json(payload) == _reference_json(payload)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), np.array([1.0, -np.inf]),
                                 np.float64("nan"), np.array([[0.0], [np.nan]])])
def test_json_writer_refuses_non_finite(bad):
    with pytest.raises(NumericalError):
        _dump_json({"x": [1.0, bad]})


def test_non_finite_simulation_exits_1_and_writes_nothing(tmp_path, capsys):
    args = ["simulate", "--process", "thinned", "--alpha", "0.01", "--rho", "0.001",
            "--n", "200", "--paths", "50"]
    for fmt in ("csv", "json"):
        out = tmp_path / f"nan.{fmt}"
        assert run(args + ["--format", fmt, "--out", str(out)]) == 1
        assert not out.exists()
        assert "numerical failure" in capsys.readouterr().err
    assert run(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numerical failure" in captured.err


@pytest.mark.parametrize("args", [
    ["simulate", "--process", "ar1", "--lambda", "50", "--n", "5", "--paths", "2"],
    ["simulate", "--process", "ar1", "--lambda", "800", "--n", "5", "--paths", "2"],
])
def test_ar1_tiny_gap_correlation_exits_1_and_writes_nothing(tmp_path, capsys, args):
    # the innovation ladder's Poisson mean (1 - rho_g)/rho_g * L is past numpy's
    # limit (lambda 50, rho**40) or rho_g underflows to 0 (lambda 800)
    out = tmp_path / "ar1.out"
    assert run(args + ["--out", str(out)]) == 1
    assert not out.exists()
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["simulate", "--process", "cir", "--lambda", "1e-300", "--n", "3"],
    ["simulate", "--process", "cir", "--times", "TIMES"],
])
def test_exact_cir_near_one_gap_correlation_exits_1_and_writes_nothing(tmp_path, capsys, args):
    # the gap correlation rounds to 1.0 (lambda 1e-300, times 0 and 1e-300), or
    # the Poisson mean c * x * rho_g passes numpy's limit (dt 1e-16 at alpha 2000)
    times = tmp_path / "times.txt"
    times.write_text("0\n1e-300\n")
    args = [str(times) if a == "TIMES" else a for a in args]
    out = tmp_path / "cir.out"
    assert run(args + ["--out", str(out)]) == 1
    assert not out.exists()
    assert "numerical failure" in capsys.readouterr().err
    assert run(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numerical failure" in captured.err


def _strict_json(text):
    def refuse(constant):
        raise AssertionError(f"non-strict JSON constant {constant}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("args,check", [
    # the innovation ladder's Poisson mean is past numpy's limit at rho**40
    (["--process", "ar1", "--rho", "0.001", "--dt", "40", "--suite", "marginal"], "marginal"),
    # the exact cir gap correlation rounds to 1.0
    (["--process", "cir", "--lambda", "1e-300", "--suite", "generator"], "generator"),
    # the exact cir Poisson mean c * x * rho_g passes numpy's limit
    (["--process", "cir", "--alpha", "2000", "--dt", "1e-16", "--suite", "marginal"], "marginal"),
])
def test_verify_numerical_failure_is_an_error_check_in_the_report(tmp_path, capsys, args, check):
    out = tmp_path / "report.json"
    assert run(["verify", *args, "--out", str(out)]) == 1
    assert f"numerical failure in the {check} check" in capsys.readouterr().err
    report = _strict_json(out.read_text())
    assert report["passed"] is False
    [entry] = report["checks"]
    assert entry["name"] == check and entry["status"] == "error"
    assert entry["reason"]


@pytest.mark.parametrize("kind,lam", [(kind, "800") for kind in ("changepoint", "thinned", "rm", "cir")]
                         + [(kind, "1e-17") for kind in ("ar1", "changepoint", "thinned", "rm")])
def test_verify_chf_scores_a_pair_correlation_of_0_or_1(tmp_path, kind, lam):
    # exp(-800) underflows to 0 and exp(-1e-17) rounds to 1, which
    # Dependence.from_rho refuses: verify sampled, then exited 2 and wrote no
    # report (exact cir refuses a gap correlation of 1 as it samples)
    out = tmp_path / "report.json"
    assert run(["verify", "--process", kind, "--lambda", lam, "--suite", "chf",
                "--paths", "2000", "--seed", "1", "--out", str(out)]) == 0
    [entry] = _strict_json(out.read_text())["checks"]
    assert entry["status"] == "pass"


@pytest.mark.parametrize("alpha,rho", [(1e-3, 1e-6), (0.01, 0.5), (0.02, 0.5)])
def test_verify_cthin_generator_reports_the_closed_form_at_small_shapes(tmp_path, alpha, rho):
    # small shapes where an adaptive quadrature of the downward-jump integral
    # does not converge; the verdict may fail, but the oracle must not error
    out = tmp_path / "report.json"
    run(["verify", "--process", "cthin", "--suite", "generator", "--alpha", repr(alpha),
         "--rho", repr(rho), "--out", str(out)])
    [entry] = _strict_json(out.read_text())["checks"]
    assert entry["status"] in ("pass", "fail")
    lam = -math.log(rho)
    closed = {  # at the default beta = 1
        "identity": lambda x: alpha * lam - lam * x,
        "square": lambda x: 2 * alpha * lam * x + alpha * lam - 2 * lam * x * x
        + lam * x * x / (alpha + 1),
    }
    assert len(entry["rows"]) == 4
    for row in entry["rows"]:
        assert row["analytic"] == pytest.approx(closed[row["phi"]](row["x0"]), rel=1e-14)


def test_verify_cthin_generator_passes_at_a_tiny_shape_and_rho(tmp_path):
    # the lattice failed here, with the square rows at z 9.2 and 9.1; the series
    # passed at each of seeds 1-10
    out = tmp_path / "report.json"
    assert run(["verify", "--process", "cthin", "--suite", "generator", "--alpha", "1e-3",
                "--rho", "1e-6", "--out", str(out)]) == 0
    [entry] = _strict_json(out.read_text())["checks"]
    assert entry["status"] == "pass"


def test_verify_all_keeps_the_other_checks_when_one_errors(tmp_path, capsys, monkeypatch):
    def raising(*args):
        raise NumericalError("oracle did not converge")

    monkeypatch.setattr(cli, "_check_acf", raising)
    out = tmp_path / "report.json"
    assert run(["verify", "--process", "ar1", "--suite", "all", "--paths", "2000",
                "--seed", "3", "--out", str(out)]) == 1
    assert "numerical failure in the acf check" in capsys.readouterr().err
    report = _strict_json(out.read_text())
    assert report["passed"] is False
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert statuses == {"marginal": "pass", "acf": "error", "chf": "pass",
                        "generator": "skipped", "tail": "pass"}
    [acf] = [c for c in report["checks"] if c["name"] == "acf"]
    assert acf == {"name": "acf", "status": "error", "reason": "oracle did not converge"}


def _lanes(monkeypatch, cpus):
    """Let verify see ``cpus`` usable CPUs; the name of the thread each check ran on."""
    threads = {}

    def recorded(name, check, f=cli._run_check):
        threads[name] = threading.current_thread().name
        return f(name, check)

    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(cli, "_run_check", recorded)
    return threads


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind,method", [(k, "exact") for k in
                                         ("ar1", "thinned", "rm", "changepoint", "cir", "cthin")]
                         + [("cir", "squared-ou")])
def test_verify_reports_the_same_bytes_on_one_lane_and_two(tmp_path, capsys, monkeypatch,
                                                           kind, method):
    # every check draws from its own subseed stream, so which thread ran it
    # moves no byte of the report, of stderr or of the exit code
    argv = ["verify", "--process", kind, "--suite", "all", "--cir-method", method,
            "--alpha", "2", "--rho", "0.5", "--seed", "777"]
    outs = []
    for cpus in (1, 2):
        threads = _lanes(monkeypatch, cpus)
        out = tmp_path / f"lanes-{cpus}.json"
        code = run(argv + ["--out", str(out)])
        outs.append((code, out.read_bytes(), capsys.readouterr().err))
        assert len(set(threads.values())) == cpus and len(threads) == 5
    assert outs[0] == outs[1]
    assert outs[0][0] == 0 and outs[0][2] == ""


# Runs verify in a fresh interpreter, with Python's default warning filters
# and argv[1] usable CPUs.
_VERIFY_PROBE = """
import sys
from gammaproc import cli

cli._usable_cpus = lambda: int(sys.argv[1])
sys.exit(cli.main(sys.argv[2:]))
"""


def test_verify_stderr_with_numpy_warnings_is_a_serial_runs(tmp_path):
    # marginal, acf and chf meet NaN here and numpy warns from both lanes;
    # the warnings and the numerical failure lines read as a serial run's
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = SRC
    argv = ["verify", "--process", "thinned", "--alpha", "0.01", "--rho", "0.001",
            "--suite", "all", "--paths", "2000", "--out", str(tmp_path / "report.json")]
    outs = []
    for cpus in ("1", "2"):
        out = subprocess.run([sys.executable, "-c", _VERIFY_PROBE, cpus, *argv],
                             capture_output=True, text=True, env=env, timeout=300)
        outs.append((out.returncode, (tmp_path / "report.json").read_bytes(), out.stderr))
    assert outs[0] == outs[1]
    assert outs[0][0] == 1 and "RuntimeWarning: invalid value encountered" in outs[0][2]
    lines = outs[0][2].splitlines()
    notes = [line for line in lines if line.startswith("gammaproc:")]
    assert [line.split(" check:")[0] for line in notes] == [
        f"gammaproc: numerical failure in the {name}" for name in ("marginal", "acf", "chf")]
    # a check's line comes right after its own warnings, before a later check's
    warned = [i for i, line in enumerate(lines) if "RuntimeWarning" in line]
    assert warned[0] < lines.index(notes[0]) < warned[-1]


def test_verify_numerical_failures_print_in_check_order_from_both_lanes(tmp_path, capsys,
                                                                       monkeypatch):
    threads = _lanes(monkeypatch, 2)
    acf_failed = threading.Event()

    def marginal(cfg):  # fails after acf has failed on the other lane
        assert acf_failed.wait(30)
        raise NumericalError("marginal did not converge")

    def acf(cfg, grid, max_lag):
        acf_failed.set()
        raise NumericalError("acf did not converge")

    monkeypatch.setattr(cli, "_check_marginal", marginal)
    monkeypatch.setattr(cli, "_check_acf", acf)
    out = tmp_path / "report.json"
    assert run(["verify", "--process", "ar1", "--suite", "all", "--paths", "2000",
                "--seed", "3", "--out", str(out)]) == 1
    assert threads["marginal"] == "MainThread" and threads["acf"] == "gammaproc-verify"
    assert capsys.readouterr().err.splitlines() == [
        "gammaproc: numerical failure in the marginal check: marginal did not converge",
        "gammaproc: numerical failure in the acf check: acf did not converge",
    ]
    checks = _strict_json(out.read_text())["checks"]
    assert [c["status"] for c in checks] == ["error", "error", "pass", "skipped", "pass"]


def test_verify_an_exception_on_the_helper_lane_reaches_the_caller(tmp_path, monkeypatch):
    _lanes(monkeypatch, 2)
    ran_on = []

    def acf(cfg, grid, max_lag):
        ran_on.append(threading.current_thread())
        raise RuntimeError("acf broke")

    monkeypatch.setattr(cli, "_check_acf", acf)
    out = tmp_path / "report.json"
    with pytest.raises(RuntimeError, match="acf broke"):
        run(["verify", "--process", "ar1", "--suite", "all", "--paths", "2000",
             "--out", str(out)])
    assert ran_on and ran_on[0] is not threading.main_thread()
    assert not out.exists()


def test_verify_raises_the_first_failing_check_in_check_order(monkeypatch):
    # acf fails first in time, on the helper; marginal, check 0, fails after it
    _lanes(monkeypatch, 2)
    acf_failed = threading.Event()

    def marginal(cfg):
        assert acf_failed.wait(30)
        raise ValueError("marginal broke")

    def acf(cfg, grid, max_lag):
        acf_failed.set()
        raise RuntimeError("acf broke")

    monkeypatch.setattr(cli, "_check_marginal", marginal)
    monkeypatch.setattr(cli, "_check_acf", acf)
    with pytest.raises(ValueError, match="marginal broke"):
        run(["verify", "--process", "ar1", "--suite", "all", "--paths", "2000"])


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_verify_check_with_a_non_finite_result_is_an_error_check(tmp_path, capsys):
    # both beta-stage gammas of the thinned sampler underflow here, so its
    # samples hold NaN; the report still carries the tail check
    out = tmp_path / "report.json"
    assert run(["verify", "--process", "thinned", "--alpha", "0.01", "--rho", "0.001",
                "--suite", "all", "--paths", "2000", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    report = _strict_json(out.read_text())
    assert report["passed"] is False
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert statuses == {"marginal": "error", "acf": "error", "chf": "error",
                        "generator": "skipped", "tail": "pass"}
    for name in ("marginal", "acf", "chf"):
        assert f"numerical failure in the {name} check" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_chf_scores_the_zero_frequency_pair_as_zero(tmp_path):
    # at (0, 0) both chfs are exactly 1 with a zero standard error
    out = tmp_path / "report.json"
    assert run(["verify", "--process", "ar1", "--suite", "chf", "--paths", "2000",
                "--omega-grid", "0,1", "--out", str(out)]) == 0
    [chf] = _strict_json(out.read_text())["checks"]
    assert chf["status"] == "pass" and chf["n_omegas"] == 4 and chf["max_z"] > 0.0


def test_verify_generator_rho_and_lambda_spellings_give_the_same_bytes(tmp_path):
    outs = []
    for spelling in (["--rho", repr(math.exp(-0.1))], ["--lambda", "0.1"]):
        outs.append(tmp_path / f"{spelling[0][2:]}.json")
        assert run(["verify", "--process", "cir", "--suite", "generator", *spelling,
                    "--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


@pytest.mark.parametrize("grid", ["nan,1", "inf", "1,-inf", "abc", ","])
def test_verify_refuses_a_bad_omega_grid_before_simulating(capsys, monkeypatch, grid):
    def no_simulation(cfg):
        raise AssertionError("simulated before refusing the omega grid")

    monkeypatch.setattr(cli, "_simulate", no_simulation)
    code = run(["verify", "--process", "ar1", "--suite", "chf", "--paths", "2000",
                "--omega-grid", grid])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("gammaproc: error:") and "--omega-grid" in captured.err
    assert "Warning" not in captured.err and captured.out == ""


def _load_script(name):
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seed_sweep_counts_passes_and_errors(monkeypatch, capsys):
    sweep = _load_script("seed_sweep")
    counts = sweep.sweep(2, 1, 500)
    assert list(counts) == ["verify chf ar1", "verify chf thinned", "verify chf rm",
                            "verify chf changepoint", "verify chf cir",
                            "verify acf cthin default", "verify acf cthin dt 0.3",
                            "verify acf cthin times", "verify acf rm default",
                            "verify acf rm dt 0.25", "verify generator cir",
                            "verify generator cthin", "compare thinned/rm 2-point",
                            "compare thinned/thinned 3-point", "compare rm/rm 3-point",
                            "compare cir/cir 3-point", "compare cthin/cthin 3-point"]
    assert all(runs == 2 and errors == 0 and 0 <= passes <= 2
               for passes, runs, errors in counts.values())
    # a run that raises or exits 2 is an error; the script then exits 1
    codes = iter([None, 2])

    def broken(argv):
        code = next(codes, 1)
        if code is None:
            raise RuntimeError("boom")
        return code

    monkeypatch.setattr(sweep, "gammaproc_main", broken)
    assert sweep.main(["--k", "1"]) == 1
    captured = capsys.readouterr()
    assert "RuntimeError: boom" in captured.err and "exited 2" in captured.err


def test_output_diff_reports_fields_and_fails_on_status_rtol_or_a_missing_file(
        tmp_path, capsys, monkeypatch):
    digests = _load_script("output_digests")
    report = {"checks": [{"name": "marginal", "status": "pass", "z_variance": 0.714891539068676}],
              "passed": True}
    base, head = tmp_path / "base" / "11", tmp_path / "head" / "11"

    def write(root, doc, csv="path,t,value\n0,0,1.5\n"):
        root.mkdir(parents=True, exist_ok=True)
        (root / "verify-ar1.json").write_text(json.dumps(doc))
        (root / "sim.csv").write_text(csv)

    def diff():
        code = digests.main(["--diff", str(base.parent), str(head.parent)])
        return code, capsys.readouterr().out

    write(base, report)
    write(head, report)
    assert diff() == (0, "")
    one_ulp = json.loads(json.dumps(report))
    one_ulp["checks"][0]["z_variance"] = 0.7148915390686759
    write(head, one_ulp, csv="path,t,value\n0,0,1.5000000000000002\n")
    code, out = diff()
    assert code == 0
    assert out.splitlines() == [
        "11/sim.csv [1][2]: 1.5 -> 1.5000000000000002 (rel 1.48e-16)",
        "11/verify-ar1.json checks[0].z_variance: 0.714891539068676 -> "
        "0.7148915390686759 (rel 1.55e-16)",
    ]
    with monkeypatch.context() as m:
        m.setattr(digests, "_RTOL", 1e-16)
        assert diff()[0] == 1
    failed = json.loads(json.dumps(one_ulp))
    failed["checks"][0]["status"], failed["passed"] = "fail", False
    write(head, failed)
    code, out = diff()
    assert code == 1
    assert "11/verify-ar1.json checks[0].status: 'pass' -> 'fail'" in out
    assert "11/verify-ar1.json passed: True -> False" in out
    write(head, report)
    (head / "sim.csv").unlink()
    assert diff() == (1, "11/sim.csv: only in base\n")
    # a mistyped or missing directory is refused, not read as agreement
    for missing in ([str(tmp_path / "nowhere"), str(head.parent)],
                    [str(tmp_path / "nowhere"), str(tmp_path / "elsewhere")]):
        with pytest.raises(SystemExit) as exc:
            digests.main(["--diff", *missing])
        assert exc.value.code == 2
        assert "is not a directory" in capsys.readouterr().err


def _bench_stdout(wall, raw, correct=True, other_raw=None):
    """One run's stdout: command ``cmd``, and ``other`` too if ``other_raw`` is given."""
    commands = {"cmd": {"median_s": raw, "median_adjusted_s": wall}}
    if other_raw is not None:
        commands["other"] = {"median_s": other_raw, "median_adjusted_s": 0.0}
    details = {"workload": "w", "commands": commands}
    result = {"correct": correct, "attempted": 3, "failed": 0, "metrics": {
        "wall_s": {"value": wall, "unit": "s"},
        "values_per_s": {"value": 100.0 / wall, "unit": "values/s"}}}
    return "machine noise\n" + json.dumps(details) + "\n" + json.dumps(result) + "\n"


def test_ab_bench_summary_reads_quartiles_wins_and_command_medians():
    ab = _load_script("ab_bench")
    assert ab.parse_seeds("601-604") == [601, 602, 603, 604]
    assert ab.parse_seeds("7") == [7]
    end_to_end = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2},
                  {"name": "values_per_s", "unit": "values/s", "better": "higher", "bound": 0.2}]
    # (base wall, change wall): the change wins twice, ties once and loses once; the
    # base's quartiles are 60% of its median apart, wider than the bound
    walls = [(4.0, 2.0), (2.0, 1.0), (1.0, 1.0), (3.0, 5.0)]
    pairs = [(_bench_stdout(b, 2 * b), _bench_stdout(c, 2 * c, correct=c != 5.0))
             for b, c in walls]
    lines = ab.summarize(pairs, end_to_end)
    assert lines == [
        "4 pairs; each side's median [q1, q3]; change better in k of 4 pairs",
        "wall_s (s, lower is better): base 2.5 [1.75, 3.25], change 1.5 [1, 2.75], -40.0%, "
        "better in 2/4",
        "  verdict: unresolved",
        "raw sum of command medians (s, lower is better): base 5 [3.5, 6.5], "
        "change 3 [2, 5.5], -40.0%, better in 2/4",
        "  verdict: unresolved",
        "values_per_s (values/s, higher is better): base 41.67 [31.25, 62.5], "
        "change 75 [42.5, 100], +80.0%, better in 2/4",
        "  verdict: unresolved",
        "command cmd raw (s, lower is better): base 5 [3.5, 6.5], change 3 [2, 5.5], -40.0%, "
        "better in 2/4",
        "  verdict: unresolved",
        "command cmd adjusted: median 2.5 -> 1.5 s",
        "correct runs: base 4/4, change 3/4",
    ]

    def verdicts(walls):
        pairs = [(_bench_stdout(b, b), _bench_stdout(c, c)) for b, c in walls]
        return [line for line in ab.summarize(pairs, end_to_end) if line.startswith("  ")]

    base = [1.0 + 0.01 * i for i in range(10)]  # quartiles 0.045 apart, 4% of the median
    # 9 of 10 pairs faster by 0.09, more than the base's spread; one pair slower
    assert verdicts([(b, b - 0.09 if i else b + 0.01) for i, b in enumerate(base)]) == \
        ["  verdict: gain"] * 4
    # 10 of 10 faster, but by less than the spread
    assert verdicts([(b, b - 0.04) for b in base]) == ["  verdict: no regression"] * 4
    # 30% slower: values_per_s is 23% lower, both past the 20% bound
    assert verdicts([(b, 1.3 * b) for b in base]) == ["  verdict: regression"] * 4
    # 10% slower, within the bound
    assert verdicts([(b, 1.1 * b) for b in base]) == ["  verdict: no regression"] * 4
    # the base's spread is wider than the bound, but every change run beats every base run
    assert verdicts([(1.0, 0.9), (1.0, 0.9), (10.0, 0.9), (10.0, 0.9)]) == \
        ["  verdict: no regression"] * 4

    # adjusted 10% faster in every pair, raw 30% slower: the raw sum adds both
    # commands' raw medians and has a verdict of its own
    pairs = [(_bench_stdout(b, b, other_raw=1.0), _bench_stdout(0.9 * b, 1.3 * b, other_raw=1.3))
             for b in base]
    lines = ab.summarize(pairs, end_to_end)
    assert lines[1].startswith("wall_s (s, lower is better): base 1.045 ")
    assert lines[2:5] == [
        "  verdict: gain",
        "raw sum of command medians (s, lower is better): base 2.045 [2.022, 2.068], "
        "change 2.659 [2.629, 2.688], +30.0%, better in 0/10",
        "  verdict: regression",
    ]
    # each command's raw times have a verdict of their own: both rose 30%,
    # past the bound
    assert lines[-7:-2] == [
        "command cmd raw (s, lower is better): base 1.045 [1.022, 1.067], "
        "change 1.359 [1.329, 1.388], +30.0%, better in 0/10",
        "  verdict: regression",
        "command cmd adjusted: median 1.045 -> 0.9405 s",
        "command other raw (s, lower is better): base 1 [1, 1], change 1.3 [1.3, 1.3], "
        "+30.0%, better in 0/10",
        "  verdict: regression",
    ]


def test_verify_marginal_passes_at_a_shape_whose_draws_underflow(tmp_path):
    # about 47% of the Ga(1e-3, 1) draws are 0.0, the atom of the rounded law
    out = tmp_path / "rep.json"
    assert run(["verify", "--process", "ar1", "--alpha", "1e-3", "--suite", "marginal",
                "--out", str(out)]) == 0
    (check,) = json.loads(out.read_text())["checks"]
    assert check["status"] == "pass" and check["ks_statistic"] < check["ks_critical_1pct"]


def _no_sampler(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a sampler ran before the parameters were refused")

    for name in ("simulate_ensemble", "marginal_sample"):
        monkeypatch.setattr(cli, name, refuse)


@pytest.mark.parametrize("argv", [
    ["compare", "--process-a", "thinned", "--process-b", "rm", "--points", "2"],
    ["compare", "--process-a", "thinned", "--process-b", "rm", "--points", "3"],
    ["verify", "--process", "ar1", "--suite", "all"],
    ["verify", "--process", "cir", "--suite", "chf"],
])
@pytest.mark.parametrize("paths", ["1", "0"])
def test_fewer_than_two_paths_for_a_chf_comparison_exit_2_before_sampling(
        tmp_path, capsys, monkeypatch, argv, paths):
    _no_sampler(monkeypatch)
    out = tmp_path / "out.json"
    assert run(argv + ["--paths", paths, "--out", str(out)]) == 2
    assert "--paths >= 2" in capsys.readouterr().err
    assert not out.exists()


def test_compare_refuses_more_points_than_its_times_grid_before_sampling(
        tmp_path, capsys, monkeypatch):
    _no_sampler(monkeypatch)
    times, out = tmp_path / "times.txt", tmp_path / "out.json"
    times.write_text("0\n1\n")
    assert run(["compare", "--process-a", "thinned", "--process-b", "rm", "--points", "3",
                "--times", str(times), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--points 3" in err and "got 2" in err
    assert not out.exists()


def test_compare_refuses_n_before_sampling(tmp_path, capsys, monkeypatch):
    # compare's grid has --points times, so an --n would do nothing
    _no_sampler(monkeypatch)
    out = tmp_path / "out.json"
    assert run(["compare", "--process-a", "ar1", "--process-b", "rm", "--n", "50",
                "--points", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--n" in err and "--points" in err and "--times" in err
    assert not out.exists()


@pytest.mark.parametrize("command", [["simulate", "--n", "3"], ["verify", "--suite", "marginal"]])
def test_out_of_memory_exits_1_with_one_line_and_writes_nothing(tmp_path, capsys, monkeypatch,
                                                                command):
    # at alpha 1e10 the squared-OU walk asks numpy for 2e10 coordinates a lane;
    # its refusal is stood in for, as the allocation must not be tried
    def refuse(*args):
        raise MemoryError("Unable to allocate 149. GiB for an array")

    monkeypatch.setattr(processes, "_ou_walk", refuse)
    out = tmp_path / "out"
    assert run([*command, "--process", "cir", "--cir-method", "squared-ou", "--alpha", "1e10",
                "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        "gammaproc: out of memory: Unable to allocate 149. GiB for an array\n"
    assert not out.exists()


def test_a_times_entry_that_is_not_a_number_exits_2(tmp_path, capsys, monkeypatch):
    _no_sampler(monkeypatch)
    times, out = tmp_path / "times.txt", tmp_path / "out.csv"
    times.write_text("0 abc 2\n")
    assert run(["simulate", "--process", "ar1", "--times", str(times), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--times" in err and "'abc'" in err
    assert not out.exists()


# the Euler scheme and its substep count were removed: both are usage errors now
@pytest.mark.parametrize("argv,refusal", [
    (["simulate", "--process", "cir", "--format", "json", "--euler-substeps", "16"],
     "unrecognized arguments: --euler-substeps 16"),
    (["verify", "--process", "cir", "--suite", "marginal", "--euler-substeps", "0"],
     "unrecognized arguments: --euler-substeps 0"),
    (["compare", "--process-a", "thinned", "--process-b", "rm", "--euler-substeps", "16"],
     "unrecognized arguments: --euler-substeps 16"),
    (["simulate", "--process", "cir", "--cir-method", "euler"], "invalid choice: 'euler'"),
    (["verify", "--process", "cir", "--suite", "marginal", "--cir-method", "euler"],
     "invalid choice: 'euler'"),
    (["compare", "--process-a", "cir", "--process-b", "cthin", "--cir-method", "euler"],
     "invalid choice: 'euler'"),
])
def test_the_removed_euler_options_are_usage_errors(tmp_path, capsys, monkeypatch, argv,
                                                     refusal):
    _no_sampler(monkeypatch)
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 2
    assert refusal in capsys.readouterr().err
    assert not out.exists()


# every JSON artifact echoes the same law-determining settings, the removed
# Euler substep count no longer among them
ECHO_KEYS = {"process", "alpha", "beta", "rho", "lambda", "times", "paths", "seed",
             "cir_method", "version"}


@pytest.mark.parametrize("argv,sections", [
    (["simulate", "--process", "cir", "--n", "3", "--paths", "2", "--format", "json"],
     ["config"]),
    (["verify", "--process", "cir", "--suite", "tail"], ["config"]),
    (["compare", "--process-a", "cir", "--process-b", "cthin", "--points", "2",
      "--paths", "300", "--seed", "5"], ["config_a", "config_b"]),
], ids=["simulate", "verify", "compare"])
def test_the_json_config_echo_holds_the_law_settings_alone(tmp_path, argv, sections):
    out = tmp_path / "out.json"
    assert run(argv + ["--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    for section in sections:
        assert set(payload[section]) == ECHO_KEYS, section


def test_one_path_is_fine_where_no_chf_check_runs(tmp_path):
    out = tmp_path / "rep.json"
    for argv in (["--process", "ar1", "--suite", "tail"],
                 ["--process", "cthin", "--suite", "chf"]):
        assert run(["verify", *argv, "--paths", "1", "--out", str(out)]) == 0


@pytest.mark.parametrize("argv", [
    ["simulate", "--process", "ar1", "--seed", "-1"],
    ["simulate", "--process", "ar1", "--seed", str(2**64)],
    ["simulate", "--process", "ar1", "--seed", str(2**70)],
    ["verify", "--process", "ar1", "--suite", "marginal", "--seed", "-1"],
    ["compare", "--process-a", "ar1", "--process-b", "rm", "--seed-a", "-1"],
    ["compare", "--process-a", "ar1", "--process-b", "rm", "--seed-b", str(2**64)],
    # the default --seed-b is --seed + 1
    ["compare", "--process-a", "ar1", "--process-b", "rm", "--seed", str(2**64 - 1)],
])
def test_seed_outside_the_64_bit_range_exits_2_before_sampling(
        tmp_path, capsys, monkeypatch, argv):
    _no_sampler(monkeypatch)
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 2
    assert "[0, 2**64)" in capsys.readouterr().err
    assert not out.exists()


def test_the_largest_seed_is_accepted(tmp_path):
    out = tmp_path / "out.json"
    assert run(["simulate", "--process", "ar1", "--n", "5", "--seed", str(2**64 - 1),
                "--format", "json", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["seed"] == 2**64 - 1


def test_verify_seeds_2_to_the_63_apart_run_different_checks(tmp_path):
    # the check subseeds are taken mod 2**64, so seed -> subseed is one to one; seeds
    # below 2**63 / 1000003 keep their subseeds and bytes
    checks = []
    for seed in (0, 2**63):
        out = tmp_path / f"{seed}.json"
        assert run(["verify", "--process", "ar1", "--suite", "marginal", "--seed", str(seed),
                    "--out", str(out)]) == 0
        checks.append(json.loads(out.read_text())["checks"][0])
    # the sample's bytes, through its mean; the KS statistic to the 1e-12 of its
    # incomplete gamma function (scipy's gave 0.0027178756636592194)
    assert checks[0]["mean"] == 1.9967816367757338
    assert checks[0]["ks_statistic"] == pytest.approx(0.0027178756636592194, abs=1e-12)
    assert checks[1]["mean"] != checks[0]["mean"]
    assert checks[1]["ks_statistic"] != checks[0]["ks_statistic"]
    ns = build_parser().parse_args(["verify", "--process", "ar1"])
    cfgs = [RunConfig(**{**_resolve_config(ns, "ar1", 1).__dict__, "seed": seed})
            for seed in (0, 2**63, 2**64 - 1)]
    subseeds = [cli._subseed(cfg, 1) for cfg in cfgs]
    assert len(set(subseeds)) == 3 and all(0 <= s < 2**64 for s in subseeds)


@pytest.mark.parametrize("argv", [
    ["--process", "cthin", "--rho", "0.9999", "--suite", "all"],
    ["--process", "ar1", "--rho", "0.9999", "--suite", "acf"],
    # lambda * dt = 9.9e-4: batches of 50506 steps, one fits in 1e5 - 5
    ["--process", "ar1", "--lambda", "0.0099", "--dt", "0.1", "--n", "3", "--suite", "all"],
])
def test_verify_refuses_an_acf_check_that_cannot_run_before_sampling(
        tmp_path, capsys, monkeypatch, argv):
    _no_sampler(monkeypatch)
    out = tmp_path / "rep.json"
    assert run(["verify", *argv, "--out", str(out)]) == 2
    assert "acf check needs lambda*dt >= about 1e-3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("grid", [["--dt", "0.3"], ["--dt", "0.5"], "times"])
def test_verify_cthin_runs_its_checks_off_the_old_lattice(tmp_path, grid):
    # --dt 0.3 and an irregular --times grid were refused (exit 2) on the lattice
    if grid == "times":
        times = tmp_path / "times.txt"
        times.write_text("0\n0.37\n1.5\n")
        grid = ["--times", str(times)]
    out = tmp_path / "rep.json"
    assert run(["verify", "--process", "cthin", *grid, "--seed", "1", "--suite", "all",
                "--out", str(out)]) == 0
    statuses = [c["status"] for c in json.loads(out.read_text())["checks"]]
    assert statuses == ["pass", "pass", "skipped", "pass", "pass"]


def test_verify_builds_the_acf_grid_once(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "_acf_grid", lambda *args, f=cli._acf_grid:
                        calls.append(args) or f(*args))
    out = tmp_path / "rep.json"
    assert run(["verify", "--process", "cthin", "--suite", "acf", "--out", str(out)]) in (0, 1)
    assert len(calls) == 1
    (check,) = json.loads(out.read_text())["checks"]
    assert check["name"] == "acf" and check["status"] in ("pass", "fail")


def test_verify_runs_what_the_acf_refusal_leaves(tmp_path):
    out = tmp_path / "rep.json"
    # the marginal check does not need the long path
    assert run(["verify", "--process", "ar1", "--rho", "0.9999", "--suite", "marginal",
                "--out", str(out)]) == 0
    # lambda * dt = 1.01e-3: batches of 49505 steps, two fit at lag 5
    code = run(["verify", "--process", "ar1", "--lambda", "0.0101", "--dt", "0.1", "--n", "3",
                "--suite", "acf", "--out", str(out)])
    assert code in (0, 1)
    (check,) = json.loads(out.read_text())["checks"]
    assert check["batch_len"] == 49505


@pytest.mark.parametrize("command", [
    ["simulate", "--process", "ar1"],
    ["verify", "--process", "ar1", "--suite", "marginal"],
    ["compare", "--process-a", "thinned", "--process-b", "rm"],
])
@pytest.mark.parametrize("dt", ["0", "-1", "nan", "inf"])
def test_a_dt_that_is_not_finite_and_positive_exits_2_before_sampling(
        tmp_path, capsys, monkeypatch, command, dt):
    # make_uniform_grid refuses it, before anything is sampled
    _no_sampler(monkeypatch)
    out = tmp_path / "out"
    assert run([*command, "--dt", dt, "--out", str(out)]) == 2
    assert "dt must be finite and > 0" in capsys.readouterr().err
    assert not out.exists()


def test_compare_resolves_its_configuration_once(tmp_path, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return _resolve_config(*args, **kwargs)

    monkeypatch.setattr(cli, "_resolve_config", counted)
    times, out = tmp_path / "times.txt", tmp_path / "out.json"
    times.write_text("0\n0.5\n2\n")
    assert run(["compare", "--process-a", "thinned", "--process-b", "rm", "--paths", "50",
                "--seed", "4", "--times", str(times), "--out", str(out)]) == 0
    assert calls == ["thinned"]
    report = json.loads(out.read_text())
    a, b = report["config_a"], report["config_b"]
    assert (a["process"], a["seed"], b["process"], b["seed"]) == ("thinned", 4, "rm", 5)
    assert a["times"] == b["times"] == [0.0, 0.5, 2.0]
    assert {k: v for k, v in a.items() if k not in ("process", "seed")} == \
        {k: v for k, v in b.items() if k not in ("process", "seed")}


@pytest.mark.parametrize("alpha", ["0.1", "2.6", "3", "8", "28.1", "60", "300", "2000", "1e5"])
@pytest.mark.parametrize("beta", ["1", "3"])
def test_verify_tail_passes_at_shapes_far_from_2(tmp_path, alpha, beta):
    # shapes at which the Levy column's -log(value)/(beta u) crosses 1 inside the grid
    out = tmp_path / "tail.json"
    assert run(["verify", "--process", "ar1", "--suite", "tail", "--alpha", alpha,
                "--beta", beta, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["checks"][0]["status"] == "pass"
