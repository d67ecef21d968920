import numpy as np
import pytest

from gammaproc import processes
from gammaproc import (
    CirMethod,
    CthinConfig,
    Dependence,
    GammaParams,
    ParameterError,
    ProcessKind,
    TimeGrid,
    UnsupportedKindError,
    ar1_path,
    changepoint_path,
    cir_path,
    cthin_path,
    derive_stream,
    make_uniform_grid,
    marginal_sample,
    pair_sample,
    random_measure_path,
    simulate_ensemble,
    tent_partition,
    thinned_path,
    triplet_sample,
    walker_sample,
)

P11 = GammaParams(1.0, 1.0)
DEP5 = Dependence.from_rho(0.5)


# -- tent partition ------------------------------------------------------------


def test_tent_partition_worked_three_point_example():
    # uniform grid 0,1,2 at rho = 0.5: cell masses
    #   {0},{1},{2} -> 0.5, 0.25, 0.5 and {0,1},{1,2} -> 0.25, {0,1,2} -> 0.25
    part = tent_partition(make_uniform_grid(0.0, 1.0, 3), DEP5)
    m = part.masses
    assert m[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert m[1, 1] == pytest.approx(0.25, abs=1e-15)
    assert m[2, 2] == pytest.approx(0.5, abs=1e-15)
    assert m[0, 1] == pytest.approx(0.25, abs=1e-15)
    assert m[1, 2] == pytest.approx(0.25, abs=1e-15)
    assert m[0, 2] == pytest.approx(0.25, abs=1e-15)


def test_tent_partition_row_and_pair_sums():
    grid = TimeGrid(np.array([0.0, 0.3, 1.1, 2.4]))
    dep = Dependence.from_rho(0.8)
    part = tent_partition(grid, dep)
    for k in range(grid.n):
        assert part.row_sum(k) == pytest.approx(1.0, abs=1e-13)
    for k in range(grid.n):
        for l in range(k + 1, grid.n):
            gap = grid.times[l] - grid.times[k]
            assert part.pair_sum(k, l) == pytest.approx(dep.gap_corr(gap), abs=1e-13)


def test_tent_partition_masses_read_only():
    part = tent_partition(make_uniform_grid(0.0, 1.0, 3), DEP5)
    with pytest.raises(ValueError):
        part.masses[0, 0] = 2.0


# -- path samplers: structural invariants ---------------------------------------


def test_ar1_path_respects_decay_floor():
    grid = make_uniform_grid(0.0, 0.5, 4000)
    path = ar1_path(derive_stream(1, 0), grid, P11, DEP5)
    rho_g = DEP5.rho**grid.gaps
    assert np.all(path.values[1:] >= rho_g * path.values[:-1])
    assert np.all(path.values > 0.0)


def test_changepoint_path_keeps_or_refreshes():
    grid = make_uniform_grid(0.0, 1.0, 4000)
    path = changepoint_path(derive_stream(2, 0), grid, P11, DEP5)
    same = path.values[1:] == path.values[:-1]
    # kept steps are bit-identical; refresh probability 1 - rho = 0.5
    frac = np.mean(same)
    assert 0.45 < frac < 0.55


def test_thinned_path_positive():
    grid = make_uniform_grid(0.0, 1.0, 2000)
    path = thinned_path(derive_stream(3, 0), grid, P11, DEP5)
    assert np.all(path.values > 0.0)


def test_random_measure_path_positive_and_stationary_mean():
    grid = make_uniform_grid(0.0, 1.0, 20000)
    path = random_measure_path(derive_stream(4, 0), grid, P11, DEP5)
    assert np.all(path.values > 0.0)
    assert abs(np.mean(path.values) - P11.mean) < 0.1


def test_cir_path_methods():
    grid = make_uniform_grid(0.0, 1.0, 500)
    exact = cir_path(derive_stream(5, 0), grid, P11, DEP5, method=CirMethod.EXACT)
    assert np.all(exact.values >= 0.0)
    euler = cir_path(derive_stream(5, 0), grid, P11, DEP5, method=CirMethod.EULER,
                     substeps=16)
    assert euler.values.shape == (500,)
    sou = cir_path(derive_stream(5, 0), grid, P11, DEP5, method=CirMethod.SQUARED_OU)
    assert np.all(sou.values >= 0.0)


def test_cir_squared_ou_requires_half_integer_alpha():
    grid = make_uniform_grid(0.0, 1.0, 10)
    with pytest.raises(ParameterError):
        cir_path(derive_stream(0, 0), grid, GammaParams(1.3, 1.0), DEP5,
                 method=CirMethod.SQUARED_OU)


def test_cir_method_parse():
    assert CirMethod.parse("exact") is CirMethod.EXACT
    assert CirMethod.parse("squared-ou") is CirMethod.SQUARED_OU
    with pytest.raises(ParameterError):
        CirMethod.parse("heun")


def test_cthin_path_requires_lattice_aligned_grid():
    grid = TimeGrid(np.array([0.0, 0.3701]))
    with pytest.raises(ParameterError):
        cthin_path(derive_stream(0, 0), grid, P11, DEP5, config=CthinConfig(256))


def test_cthin_path_runs_and_is_positive():
    grid = make_uniform_grid(0.0, 0.25, 64)
    path = cthin_path(derive_stream(6, 0), grid, P11, DEP5, config=CthinConfig(64))
    assert np.all(path.values > 0.0)
    assert path.values.shape == (64,)


def test_cthin_config_validation():
    with pytest.raises(ParameterError):
        CthinConfig(0)


# -- ensembles -------------------------------------------------------------------


def test_ensemble_path_is_pure_function_of_seed_and_index():
    grid = make_uniform_grid(0.0, 1.0, 4)
    for kind in ProcessKind:
        small = simulate_ensemble(kind, grid, P11, DEP5, 3, master_seed=11)
        large = simulate_ensemble(kind, grid, P11, DEP5, 7, master_seed=11)
        assert np.array_equal(small.values, large.values[:3]), kind


def test_ensemble_threads_do_not_change_values(monkeypatch):
    grid = make_uniform_grid(0.0, 1.0, 5)
    opts = {"cthin": CthinConfig(64)}
    one = {kind: simulate_ensemble(kind, grid, P11, DEP5, 40, master_seed=3, threads=1,
                                   **opts) for kind in ProcessKind}
    # blocks of a few paths, so that each of the four workers takes several
    monkeypatch.setattr(processes, "_BLOCK_DRAWS", 16)
    for kind in ProcessKind:
        four = simulate_ensemble(kind, grid, P11, DEP5, 40, master_seed=3, threads=4, **opts)
        assert one[kind].values.tobytes() == four.values.tobytes(), kind


# Stream contract: ensemble path m is byte-identical to the path operation run
# on derive_stream(master_seed, m).  (grid, params, dep) per case; the last
# case makes the thinned beta ratio 0/0, so comparing bytes also pins its NaN.
STREAM_CASES = {
    "one-point": (make_uniform_grid(0.0, 1.0, 1), GammaParams(1.5, 2.0), DEP5),
    "three-point": (make_uniform_grid(0.0, 1.0, 3), GammaParams(1.5, 2.0), DEP5),
    "irregular": (TimeGrid(np.array([0.0, 0.25, 0.3125, 1.5, 2.0])),
                  GammaParams(1.5, 2.0), Dependence.from_rho(0.8)),
    "small-shape": (make_uniform_grid(0.0, 1.0, 20), GammaParams(0.01, 1.0),
                    Dependence.from_rho(0.001)),
}
STREAM_SAMPLERS = {
    "ar1": (ProcessKind.AR1, {}, ar1_path),
    "thinned": (ProcessKind.THINNED, {}, thinned_path),
    "rm": (ProcessKind.RANDOM_MEASURE, {}, random_measure_path),
    "changepoint": (ProcessKind.CHANGE_POINT, {}, changepoint_path),
    "cir-exact": (ProcessKind.SQUARED_OU, {"method": CirMethod.EXACT}, cir_path),
    "cir-euler": (ProcessKind.SQUARED_OU, {"method": CirMethod.EULER, "substeps": 4},
                  cir_path),
    "cir-squared-ou": (ProcessKind.SQUARED_OU, {"method": CirMethod.SQUARED_OU},
                       cir_path),
    "cthin": (ProcessKind.CONTINUOUSLY_THINNED, {"cthin": CthinConfig(64)}, cthin_path),
}


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("case", list(STREAM_CASES))
@pytest.mark.parametrize("sampler", list(STREAM_SAMPLERS))
def test_ensemble_paths_match_path_operations_byte_for_byte(sampler, case):
    kind, opts, path_fn = STREAM_SAMPLERS[sampler]
    grid, params, dep = STREAM_CASES[case]
    path_opts = {"config": opts["cthin"]} if "cthin" in opts else opts
    seed, n_paths = 7, 20  # 20 lanes: a block builds as numpy columns, a path alone as floats
    if sampler == "cir-squared-ou" and case == "small-shape":
        # 2*alpha is not an integer: both routes refuse it the same way
        with pytest.raises(ParameterError, match="2\\*alpha"):
            simulate_ensemble(kind, grid, params, dep, n_paths, master_seed=seed, **opts)
        with pytest.raises(ParameterError, match="2\\*alpha"):
            path_fn(derive_stream(seed, 0), grid, params, dep, **path_opts)
        return
    ens = simulate_ensemble(kind, grid, params, dep, n_paths, master_seed=seed, **opts)
    for m in range(n_paths):
        path = path_fn(derive_stream(seed, m), grid, params, dep, **path_opts)
        assert ens.values[m].tobytes() == path.values.tobytes(), (sampler, case, m)


# -- batch statistical samplers ---------------------------------------------------


def test_walker_sample_moments():
    # innovation mean is (1-rho) alpha / beta
    p = GammaParams(2.0, 1.0)
    rho = 0.3
    x = walker_sample(100000, p, rho, master_seed=8)
    target = (1.0 - rho) * p.mean
    assert abs(np.mean(x) - target) < 4 * np.std(x) / np.sqrt(x.size)
    # atom at zero with P = rho^alpha
    p_hat = np.mean(x == 0.0)
    assert abs(p_hat - rho**p.alpha) < 4 * np.sqrt(rho**p.alpha * (1 - rho**p.alpha) / x.size)


@pytest.mark.parametrize("kind", list(ProcessKind))
def test_marginal_sample_mean_variance(kind):
    p = GammaParams(2.5, 2.0)
    x = marginal_sample(kind, 50000, p, DEP5, master_seed=9)
    se_mean = np.std(x) / np.sqrt(x.size)
    assert abs(np.mean(x) - p.mean) < 4 * se_mean


@pytest.mark.parametrize("kind", [k for k in ProcessKind
                                  if k is not ProcessKind.CONTINUOUSLY_THINNED])
def test_pair_sample_correlation(kind):
    n = 200000
    x0, x1 = pair_sample(kind, n, P11, DEP5, master_seed=10)
    r = np.corrcoef(x0, x1)[0, 1]
    # correlation of a gamma pair estimated at n=2e5 is good to ~3/sqrt(n)
    assert abs(r - DEP5.rho) < 0.02
    m = marginal_sample(kind, 1000, P11, DEP5, master_seed=10)
    assert np.all(m >= 0.0)


def test_pair_sample_rejects_cthin():
    with pytest.raises(UnsupportedKindError):
        pair_sample(ProcessKind.CONTINUOUSLY_THINNED, 10, P11, DEP5, master_seed=0)


def test_triplet_sample_shapes_and_kinds():
    out = triplet_sample(ProcessKind.THINNED, 1000, P11, DEP5, master_seed=1)
    assert out.shape == (3, 1000)
    out = triplet_sample(ProcessKind.RANDOM_MEASURE, 1000, P11, DEP5, master_seed=1)
    assert out.shape == (3, 1000)
    with pytest.raises(UnsupportedKindError):
        triplet_sample(ProcessKind.AR1, 10, P11, DEP5, master_seed=0)


def test_triplet_sample_lag2_correlation_is_rho_squared():
    out = triplet_sample(ProcessKind.RANDOM_MEASURE, 200000, P11, DEP5, master_seed=12)
    r2 = np.corrcoef(out[0], out[2])[0, 1]
    assert abs(r2 - DEP5.rho**2) < 0.02
