import json

import numpy as np
import pytest

from gammaproc import GammaParams, ParameterError
from gammaproc.cli import (
    RunConfig,
    _resolve_config,
    build_parser,
    cmd_compare,
    default_omega_triples,
    main,
)


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


def test_simulate_threads_do_not_change_bytes(tmp_path):
    out1 = tmp_path / "t1.csv"
    out4 = tmp_path / "t4.csv"
    args = ["simulate", "--process", "cir", "--n", "5", "--paths", "8",
            "--seed", "7"]
    assert run(args + ["--threads", "1", "--out", str(out1)]) == 0
    assert run(args + ["--threads", "4", "--out", str(out4)]) == 0
    assert out1.read_bytes() == out4.read_bytes()


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


def test_cthin_misaligned_dt_exits_2(capsys):
    code = run(["simulate", "--process", "cthin", "--dt", "0.3701", "--n", "4"])
    capsys.readouterr()
    assert code == 2


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


def test_verify_forced_chf_mismatch_fails(tmp_path):
    # evaluating the thinned pair-chf formula against ar1 data must exit 1
    out = tmp_path / "forced.json"
    code = run(["verify", "--process", "ar1", "--suite", "chf", "--paths", "5000",
                "--seed", "0", "--debug-force-chf-kind", "thinned",
                "--out", str(out)])
    assert code == 1
    payload = json.loads(out.read_text())
    check = payload["checks"][0]
    assert check["status"] == "fail"
    assert check["max_z"] > 4.0


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
