import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gammaproc import processes
from gammaproc import (
    CirMethod,
    CthinConfig,
    Dependence,
    GammaParams,
    NumericalError,
    ParameterError,
    ProcessKind,
    TestFunction,
    TimeGrid,
    UnsupportedKindError,
    derive_stream,
    generator_check,
    make_uniform_grid,
    marginal_sample,
    sample_path,
    simulate_ensemble,
    tent_partition,
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


def _reference_band_masses(times, rho, d):
    # _band_masses as it was before a diagonal's power rows were shared, verbatim
    n = len(times)
    a_d = rho ** (times[d:] - times[: n - d])
    m = a_d.copy()
    if d + 1 <= n - 1:
        a_d1 = rho ** (times[d + 1 :] - times[: n - d - 1])
        m[1:] -= a_d1  # A(i-1, j), i = 1..n-1-d
        m[: n - d - 1] -= a_d1  # A(i, j+1), i = 0..n-2-d
    if d + 2 <= n - 1:
        a_d2 = rho ** (times[d + 2 :] - times[: n - d - 2])
        m[1 : n - d - 1] += a_d2  # A(i-1, j+1), i = 1..n-2-d
    lo = float(np.min(m))
    if lo < -1e-9:
        raise NumericalError(f"tent partition produced mass {lo} < 0 on diagonal {d}")
    return np.maximum(m, 0.0)


def _irregular_times(n, seed):
    return np.cumsum(np.random.default_rng(seed).uniform(0.01, 1.5, n))


@pytest.mark.parametrize("n", [2, 3, 4, 40])
@pytest.mark.parametrize("rho", [0.001, 0.5, 0.999])
def test_tent_partition_gives_the_reference_band_mass_bytes(n, rho):
    times, dep = _irregular_times(n, seed=n), Dependence.from_rho(rho)
    ref = np.zeros((n, n))
    for d in range(n):
        idx = np.arange(n - d)
        ref[idx, idx + d] = _reference_band_masses(times, dep.rho, d)
    assert tent_partition(TimeGrid(times), dep).masses.tobytes() == ref.tobytes()


def _reference_add_diagonal(self, values, d, cells):
    # _RandomMeasurePlan._add_diagonal as it was with index gathers, verbatim
    n = self.n
    k = np.arange(n)
    csum = np.zeros((cells.shape[0], n - d + 1))
    np.cumsum(cells, axis=1, out=csum[:, 1:])
    hi = np.minimum(k, n - 1 - d) + 1
    lo = np.maximum(0, k - d)
    values += csum[:, hi] - csum[:, lo]


@pytest.mark.parametrize("alpha,rho", [(2.0, 0.5), (0.01, 0.001), (0.7, 0.9)])
def test_rm_diagonal_by_diagonal_route_gives_the_planned_route_bytes(monkeypatch, alpha, rho):
    grid = TimeGrid(_irregular_times(60, seed=7))
    params, dep = GammaParams(alpha, 1.3), Dependence.from_rho(rho)

    def path():
        return sample_path(ProcessKind.RANDOM_MEASURE, derive_stream(8, 3), grid, params,
                           dep).values.tobytes()

    def ensemble():
        return simulate_ensemble(ProcessKind.RANDOM_MEASURE, grid, params, dep, 5,
                                 master_seed=8).values.tobytes()

    assert processes._RandomMeasurePlan(grid, params, dep).width is not None
    planned = [path(), ensemble()]
    with monkeypatch.context() as m:
        m.setattr(processes._RandomMeasurePlan, "_add_diagonal", _reference_add_diagonal)
        assert [path(), ensemble()] == planned
    monkeypatch.setattr(processes, "_PLAN_CELLS", 10)
    assert processes._RandomMeasurePlan(grid, params, dep).width is None
    assert path() == planned[0]


# -- path samplers: structural invariants ---------------------------------------


def test_ar1_path_respects_decay_floor():
    grid = make_uniform_grid(0.0, 0.5, 4000)
    path = sample_path(ProcessKind.AR1, derive_stream(1, 0), grid, P11, DEP5)
    rho_g = DEP5.rho**grid.gaps
    assert np.all(path.values[1:] >= rho_g * path.values[:-1])
    assert np.all(path.values > 0.0)


def test_changepoint_path_keeps_or_refreshes():
    grid = make_uniform_grid(0.0, 1.0, 4000)
    path = sample_path(ProcessKind.CHANGE_POINT, derive_stream(2, 0), grid, P11, DEP5)
    same = path.values[1:] == path.values[:-1]
    # kept steps are bit-identical; refresh probability 1 - rho = 0.5
    frac = np.mean(same)
    assert 0.45 < frac < 0.55


def test_thinned_path_positive():
    grid = make_uniform_grid(0.0, 1.0, 2000)
    path = sample_path(ProcessKind.THINNED, derive_stream(3, 0), grid, P11, DEP5)
    assert np.all(path.values > 0.0)


def test_random_measure_path_positive_and_stationary_mean():
    grid = make_uniform_grid(0.0, 1.0, 20000)
    path = sample_path(ProcessKind.RANDOM_MEASURE, derive_stream(4, 0), grid, P11, DEP5)
    assert np.all(path.values > 0.0)
    assert abs(np.mean(path.values) - P11.mean) < 0.1


def test_cir_path_methods():
    grid = make_uniform_grid(0.0, 1.0, 500)
    exact = sample_path(ProcessKind.SQUARED_OU, derive_stream(5, 0), grid, P11, DEP5,
                        method=CirMethod.EXACT)
    assert np.all(exact.values >= 0.0)
    euler = sample_path(ProcessKind.SQUARED_OU, derive_stream(5, 0), grid, P11, DEP5,
                        method=CirMethod.EULER, substeps=16)
    assert euler.values.shape == (500,)
    sou = sample_path(ProcessKind.SQUARED_OU, derive_stream(5, 0), grid, P11, DEP5,
                      method=CirMethod.SQUARED_OU)
    assert np.all(sou.values >= 0.0)


def test_cir_squared_ou_requires_half_integer_alpha():
    grid = make_uniform_grid(0.0, 1.0, 10)
    with pytest.raises(ParameterError):
        sample_path(ProcessKind.SQUARED_OU, derive_stream(0, 0), grid, GammaParams(1.3, 1.0),
                    DEP5, method=CirMethod.SQUARED_OU)


def test_cir_method_parse():
    assert CirMethod.parse("exact") is CirMethod.EXACT
    assert CirMethod.parse("squared-ou") is CirMethod.SQUARED_OU
    with pytest.raises(ParameterError):
        CirMethod.parse("heun")


def test_cthin_path_requires_lattice_aligned_grid():
    grid = TimeGrid(np.array([0.0, 0.3701]))
    with pytest.raises(ParameterError):
        sample_path(ProcessKind.CONTINUOUSLY_THINNED, derive_stream(0, 0), grid, P11, DEP5,
                    cthin=CthinConfig(256))


def test_cthin_path_runs_and_is_positive():
    grid = make_uniform_grid(0.0, 0.25, 64)
    path = sample_path(ProcessKind.CONTINUOUSLY_THINNED, derive_stream(6, 0), grid, P11, DEP5,
                       cthin=CthinConfig(64))
    assert np.all(path.values > 0.0)
    assert path.values.shape == (64,)


def test_cthin_config_validation():
    with pytest.raises(ParameterError):
        CthinConfig(0)


def _scalar_scan(a, z, x0):
    out = np.empty(a.size)
    x = x0
    for i in range(a.size):
        x = a[i] * x + z[i]
        out[i] = x
    return out


def test_affine_scan_underflow_fallback_equals_numpy_scalar_loop():
    rng = np.random.default_rng(5)
    # the product of 1024 uniforms underflows, so every block takes the loop
    # (the short last block through its zero factor)
    a = rng.random(2500)
    a[-5] = 0.0
    z = rng.gamma(0.3, 1.0, size=a.size)
    out = processes._affine_scan_blocks(a, z, 1.7)
    assert out.tobytes() == _scalar_scan(a, z, 1.7).tobytes()


def _reference_affine_scan_blocks(a, z, x0, out=None):
    # the scan as it was before underflowing blocks ran in one exact pass, verbatim
    n = a.size
    if out is None:
        out = np.empty(n)
    x = x0
    for s in range(0, n, 1024):
        e = min(s + 1024, n)
        ab = a[s:e]
        p = np.cumprod(ab)
        if p[-1] > 1e-280:
            c = np.cumsum(z[s:e] / p)
            out[s:e] = p * (x + c)
            x = out[e - 1]
        else:
            # the same fl(a*x + z) per element, on Python floats
            xs = []
            for ai, zi in zip(ab.tolist(), z[s:e].tolist()):
                x = ai * x + zi
                xs.append(x)
            out[s:e] = xs
    return out


def _scan_block(rng, kind, size):
    """Factors and top-ups of one 1024-step block of the given kind."""
    z = rng.gamma(0.3, 1.0, size)
    if kind == "formula":  # its prefix product stays above 1e-280
        a = 0.97 + 0.03 * rng.random(size)
        hold = rng.random(size) < 0.3
        a[hold], z[hold] = 1.0, 0.0
        return a, z
    u = rng.random(size)
    zeros = {"mixed": 0.02, "zero-rich": 0.3, "tiny": 0.0}[kind]
    a = rng.random(size)
    tiny = u < 0.1
    a[tiny] = 10.0 ** -rng.uniform(10.0, 300.0, np.count_nonzero(tiny))
    hold = (u >= 0.1) & (u < 0.8)  # exact ones with zero top-ups
    a[hold], z[hold] = 1.0, 0.0
    a[(u >= 0.8) & (u < 0.8 + zeros)] = 0.0
    z[rng.random(size) < 0.05] = 0.0  # some zero top-ups with other factors
    a[rng.integers(size)] = 10.0 ** -rng.uniform(285.0, 300.0)  # the product underflows
    return a, z


BLOCK_KINDS = ["formula", "mixed", "zero-rich", "tiny"]


def _scan_case(n, kinds, seed):
    rng = np.random.default_rng(seed)
    blocks = [_scan_block(rng, kinds[i % len(kinds)], min(1024, n - s))
              for i, s in enumerate(range(0, n, 1024))]
    return np.concatenate([b[0] for b in blocks]), np.concatenate([b[1] for b in blocks])


def _assert_scan_matches_reference(a, z, x0):
    ref = _reference_affine_scan_blocks(a, z, x0)
    assert processes._affine_scan_blocks(a, z, x0).tobytes() == ref.tobytes()
    out = np.empty(a.size)
    assert processes._affine_scan_blocks(a, z, x0, out=out) is out
    assert out.tobytes() == ref.tobytes()


# past one group of 16 full blocks, with a short last block
GROUPS_N = 33 * 1024 + 17
SCAN_CASES = [
    (5 * 1024 + 17, ["mixed"]),                     # one run from index 0 to n
    (5 * 1024 + 17, ["mixed", "formula", "formula"]),  # a run at 0, then formula blocks
    (5 * 1024 + 17, ["formula", "formula", "zero-rich"]),  # a run that ends at n
    (5 * 1024 + 17, ["formula", "mixed", "tiny", "zero-rich", "formula"]),  # a run over blocks
    (5 * 1024 + 17, ["mixed", "formula"]),          # runs alternating with formula blocks
    (5 * 1024 + 17, ["tiny"]),                      # no zero factor: one segment, one tail
    (5 * 1024 + 17, ["zero-rich"]),                 # many segments in lockstep
    (GROUPS_N, ["formula"]),                        # formula carries chained across groups
    # groups holding both routes; runs over blocks 14-16 and 31-33 cross group
    # edges, the second into the short last block
    (GROUPS_N, ["formula"] * 14 + ["mixed", "zero-rich", "tiny"]),
    (GROUPS_N, ["mixed", "formula"]),               # alternating, a formula last block
    (GROUPS_N, ["tiny", "formula", "formula", "zero-rich"]),  # runs over blocks 15-16, 31-32
]


@pytest.mark.parametrize("n,kinds", SCAN_CASES,
                         ids=[f"kinds{i}" for i in range(len(SCAN_CASES))])
def test_exact_scan_runs_give_the_reference_bytes(n, kinds):
    a, z = _scan_case(n, kinds, seed=len(kinds))
    # each kind of block takes the route it is named for
    routes = [np.cumprod(a[s:s + 1024])[-1] > 1e-280 for s in range(0, a.size, 1024)]
    assert routes == [kinds[i % len(kinds)] == "formula" for i in range(len(routes))]
    for x0 in (0.0, 1.7, 3e5):
        _assert_scan_matches_reference(a, z, x0)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 5000) | st.integers(16 * 1024 + 1, 18 * 1024 + 17),
       kinds=st.lists(st.sampled_from(BLOCK_KINDS), min_size=1, max_size=5),
       seed=st.integers(0, 2**32 - 1),
       x0=st.sampled_from([0.0, 1e-300, 0.4, 1.7, 3e5]))
def test_exact_scan_gives_the_reference_bytes_on_any_block_layout(n, kinds, seed, x0):
    a, z = _scan_case(n, kinds, seed)
    _assert_scan_matches_reference(a, z, x0)


def _cthin_allocating_reference(grid, params, dep, steps_per_unit, rng):
    # the lattice loop with fresh arrays per chunk, before its buffers were reused
    a, b = params.alpha, params.beta
    eps = 1.0 / steps_per_unit
    q = dep.rho**eps
    p = 1.0 - q
    gen = rng.gen
    x = gen.gamma(a, 1.0 / b)
    n_steps = int(np.rint((grid.times[-1] - grid.times[0]) / eps))
    g1 = gen.gamma(a * p, 1.0, size=n_steps)
    g2 = gen.gamma(a * q, 1.0, size=n_steps)
    s = g1 + g2
    thin = np.where(s > 0.0, g1 / np.where(s > 0.0, s, 1.0), p)
    zeta = gen.gamma(a * p, 1.0 / b, size=n_steps)
    lattice = np.concatenate(([x], processes._affine_scan_blocks(1.0 - thin, zeta, x)))
    idx = np.rint((grid.times - grid.times[0]) / eps).astype(int)
    return lattice[idx], int(np.sum(s == 0.0))


@pytest.mark.parametrize("params,rho", [(GammaParams(2.0, 1.5), 0.5),
                                        (GammaParams(0.001, 1.0), 0.001)])
def test_cthin_reused_buffers_give_the_allocating_loop_bytes(params, rho):
    grid = make_uniform_grid(0.0, 0.5, 30)
    dep = Dependence.from_rho(rho)
    path = sample_path(ProcessKind.CONTINUOUSLY_THINNED, derive_stream(9, 2), grid, params, dep,
                       cthin=CthinConfig(64))
    ref, underflows = _cthin_allocating_reference(grid, params, dep, 64,
                                                  derive_stream(9, 2))
    assert path.values.tobytes() == ref.tobytes()
    # the small shape makes both beta-stage gammas underflow to 0 at many steps
    assert (underflows > 0) == (params.alpha < 0.01)


CTHIN_POINTS = [(0.01, 0.001), (0.001, 0.5), (0.05, 0.5), (2.0, 0.5)]


@pytest.mark.parametrize("steps_per_unit", [64, 256, 4096])
@pytest.mark.parametrize("alpha,rho", CTHIN_POINTS)
def test_cthin_gives_the_reference_scan_bytes(monkeypatch, alpha, rho, steps_per_unit):
    # 8 time units: several scan blocks, and two groups of them at 4096 steps
    grid = make_uniform_grid(0.0, 1.0, 9)
    params, dep, config = GammaParams(alpha, 1.0), Dependence.from_rho(rho), CthinConfig(
        steps_per_unit)
    exact_runs = []
    run = processes._exact_affine_run
    monkeypatch.setattr(processes, "_exact_affine_run",
                        lambda *args: exact_runs.append(1) or run(*args))

    def both():
        path = sample_path(ProcessKind.CONTINUOUSLY_THINNED, derive_stream(4, 1), grid, params,
                           dep, cthin=config)
        ens = simulate_ensemble(ProcessKind.CONTINUOUSLY_THINNED, grid, params, dep, 6,
                                master_seed=4, cthin=config)
        return [path.values.tobytes(), ens.values.tobytes()]

    with monkeypatch.context() as m:
        m.setattr(processes, "_BLOCK_DRAWS", 2 * grid.n)  # blocks of two paths
        new = both()
        m.setattr(processes, "_affine_scan_blocks", _reference_affine_scan_blocks)
        ref = both()
    assert new == ref
    # the small shapes go through the exact route, the default point does not
    assert bool(exact_runs) == (alpha < 1.0)


# -- ensembles -------------------------------------------------------------------


def test_ensemble_path_is_pure_function_of_seed_and_index():
    grid = make_uniform_grid(0.0, 1.0, 4)
    for kind in ProcessKind:
        small = simulate_ensemble(kind, grid, P11, DEP5, 3, master_seed=11)
        large = simulate_ensemble(kind, grid, P11, DEP5, 7, master_seed=11)
        assert np.array_equal(small.values, large.values[:3]), kind


def test_ensemble_values_are_held_once():
    import tracemalloc

    grid = make_uniform_grid(0.0, 1.0, 200)
    tracemalloc.start()
    try:
        ens = simulate_ensemble(ProcessKind.CHANGE_POINT, grid, P11, DEP5, 20000,
                                master_seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not ens.values.flags.writeable
    assert peak < 1.25 * ens.values.nbytes


# Stream contract, one stream per path: ensemble path m is byte-identical to
# the path operation run on derive_stream(master_seed, m).  This holds for the
# whole-path plans (exact cir, Euler, squared-OU, cthin) and for the plans with
# a width whenever a block holds one path (B == 1).  (grid, params, dep) per
# case; the last case makes the thinned beta ratio 0/0, so comparing bytes
# also pins its NaN.
STREAM_CASES = {
    "one-point": (make_uniform_grid(0.0, 1.0, 1), GammaParams(1.5, 2.0), DEP5),
    "three-point": (make_uniform_grid(0.0, 1.0, 3), GammaParams(1.5, 2.0), DEP5),
    "irregular": (TimeGrid(np.array([0.0, 0.25, 0.3125, 1.5, 2.0])),
                  GammaParams(1.5, 2.0), Dependence.from_rho(0.8)),
    "small-shape": (make_uniform_grid(0.0, 1.0, 20), GammaParams(0.01, 1.0),
                    Dependence.from_rho(0.001)),
}
STREAM_SAMPLERS = {
    "ar1": (ProcessKind.AR1, {}),
    "thinned": (ProcessKind.THINNED, {}),
    "rm": (ProcessKind.RANDOM_MEASURE, {}),
    "changepoint": (ProcessKind.CHANGE_POINT, {}),
    "cir-exact": (ProcessKind.SQUARED_OU, {"method": CirMethod.EXACT}),
    "cir-euler": (ProcessKind.SQUARED_OU, {"method": CirMethod.EULER, "substeps": 4}),
    "cir-squared-ou": (ProcessKind.SQUARED_OU, {"method": CirMethod.SQUARED_OU}),
    "cthin": (ProcessKind.CONTINUOUSLY_THINNED, {"cthin": CthinConfig(64)}),
}
WIDTH_SAMPLERS = ("ar1", "thinned", "rm", "changepoint")


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("case", list(STREAM_CASES))
@pytest.mark.parametrize("sampler", list(STREAM_SAMPLERS))
def test_ensemble_paths_match_path_operations_byte_for_byte(monkeypatch, sampler, case):
    kind, opts = STREAM_SAMPLERS[sampler]
    grid, params, dep = STREAM_CASES[case]
    seed, n_paths = 7, 20  # 20 lanes: a block builds as numpy columns, a path alone as floats
    if sampler in WIDTH_SAMPLERS:
        monkeypatch.setattr(processes, "_BLOCK_DRAWS", 1)  # B == 1: a stream per path
    if sampler == "cir-squared-ou" and case == "small-shape":
        # 2*alpha is not an integer: both routes refuse it the same way
        with pytest.raises(ParameterError, match="2\\*alpha"):
            simulate_ensemble(kind, grid, params, dep, n_paths, master_seed=seed, **opts)
        with pytest.raises(ParameterError, match="2\\*alpha"):
            sample_path(kind, derive_stream(seed, 0), grid, params, dep, **opts)
        return
    ens = simulate_ensemble(kind, grid, params, dep, n_paths, master_seed=seed, **opts)
    for m in range(n_paths):
        path = sample_path(kind, derive_stream(seed, m), grid, params, dep, **opts)
        assert ens.values[m].tobytes() == path.values.tobytes(), (sampler, case, m)


# Stream contract, one stream per block: with B = _BLOCK_DRAWS // width > 1,
# block j (paths j*B .. j*B + B - 1) is drawn from derive_stream(seed, j), run
# by run in the path operation's stream order, each run for every lane of the
# block before the next.  _block_reference writes that layout out by hand and
# returns the (width, B) raw draws; lane i is column i.


def _gamma_rows(g, shapes, lanes):
    """Standard gammas for every lane, one call per run of equal shapes."""
    rows, start = [], 0
    while start < shapes.size:
        stop = start + 1
        while stop < shapes.size and shapes[stop] == shapes[start]:
            stop += 1
        rows.append(g.standard_gamma(float(shapes[start]), size=(stop - start, lanes)))
        start = stop
    return np.concatenate(rows)


def _block_reference(kind, grid, params, dep, seed, block, lanes):
    g = derive_stream(seed, block).gen
    a, times, n = params.alpha, grid.times, grid.n
    rho_g = dep.rho ** np.diff(times)
    if kind is ProcessKind.AR1:
        head = g.standard_gamma(a, size=(n, lanes))  # X_0 and the mixing L
        counts = g.poisson((1.0 - rho_g)[:, None] / rho_g[:, None] * head[1:])
        return np.concatenate((head[:1], g.standard_gamma(counts)))
    if kind is ProcessKind.THINNED:
        kept, fresh = a * rho_g, a * (1.0 - rho_g)
        return _gamma_rows(g, np.concatenate(([a], kept, fresh, fresh)), lanes)
    if kind is ProcessKind.RANDOM_MEASURE:
        masses = tent_partition(grid, dep).masses
        shapes = [a * np.diagonal(masses, d) for d in range(n)
                  if np.any(dep.rho ** (times[d:] - times[: n - d]) >= 1e-18)]
        return _gamma_rows(g, np.concatenate(shapes), lanes)
    x0 = g.standard_gamma(a, size=(1, lanes))
    keep = g.random((n - 1, lanes))
    return np.concatenate((x0, keep, g.standard_gamma(a, size=(n - 1, lanes))))


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("lanes", [None, 3])
@pytest.mark.parametrize("case", list(STREAM_CASES))
@pytest.mark.parametrize("sampler", WIDTH_SAMPLERS)
def test_ensemble_blocks_follow_the_block_stream_layout(monkeypatch, sampler, case, lanes):
    kind = STREAM_SAMPLERS[sampler][0]
    grid, params, dep = STREAM_CASES[case]
    plan = processes._plan_for_kind(kind, grid, params, dep, None, 16, None)
    if lanes is None:  # the real block size
        lanes = processes._BLOCK_DRAWS // plan.width
    else:
        monkeypatch.setattr(processes, "_BLOCK_DRAWS", lanes * plan.width + plan.width - 1)
    assert lanes > 1
    seed, n_paths = 9, min(2 * lanes + 3, 200)
    ens = simulate_ensemble(kind, grid, params, dep, n_paths, master_seed=seed)
    for block in range(-(-n_paths // lanes)):
        draws = _block_reference(kind, grid, params, dep, seed, block, lanes)
        assert draws.shape == (plan.width, lanes)
        for m in range(block * lanes, min((block + 1) * lanes, n_paths)):
            want = plan.build(draws[:, m % lanes][None])[0]
            assert ens.values[m].tobytes() == want.tobytes(), (sampler, case, m)


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


def test_walker_innovation_zero_atom_probability():
    # P(innovation = 0) = P(N = 0) = E[exp(-(1-rho)/rho L)] = rho^alpha
    params = GammaParams(2.0, 1.0)
    rho = 0.3
    n = 20000
    x = walker_sample(n, params, rho, master_seed=11)
    assert np.all(x >= 0.0)
    p_hat = np.mean(x == 0.0)
    p = rho**params.alpha
    assert abs(p_hat - p) < 4 * np.sqrt(p * (1 - p) / n)


def test_walker_innovation_rejects_bad_rho():
    params = GammaParams(1.0, 1.0)
    for rho in (0.0, 1.0, 1.2):
        with pytest.raises(ParameterError):
            walker_sample(10, params, rho, master_seed=0)


def test_cir_transition_conditional_mean():
    # E[X_dt | X_0 = x] = x rho_d + (alpha/beta)(1 - rho_d), one exact lane step
    params = GammaParams(1.5, 2.0)
    dep = Dependence.from_rho(0.5)
    x0, dt = 2.0, 0.7
    rho_d = dep.gap_corr(dt)
    n = 20000
    draws = processes._lane_step(ProcessKind.SQUARED_OU, derive_stream(3, 0).gen,
                                 np.full(n, x0), params.alpha, params.beta, rho_d)
    target = x0 * rho_d + params.mean * (1.0 - rho_d)
    assert np.all(draws >= 0.0)
    assert abs(np.mean(draws) - target) < 4 * np.std(draws) / np.sqrt(n)


@pytest.mark.parametrize("kind", list(ProcessKind))
def test_marginal_sample_mean_variance(kind):
    p = GammaParams(2.5, 2.0)
    x = marginal_sample(kind, 50000, p, DEP5, master_seed=9)
    se_mean = np.std(x) / np.sqrt(x.size)
    assert abs(np.mean(x) - p.mean) < 4 * se_mean


@pytest.mark.parametrize("steps_per_unit", [1, 2])
def test_cthin_marginal_sample_takes_a_lattice_step_at_coarse_lattices(steps_per_unit):
    # a quarter time unit rounds to 0 lattice steps here; the sample must still
    # run the kernel once, not return its Ga(alpha, beta) start draws
    n, params = 1000, GammaParams(2.0, 1.0)
    x = marginal_sample(ProcessKind.CONTINUOUSLY_THINNED, n, params, DEP5, master_seed=5,
                        cthin=CthinConfig(steps_per_unit))
    g = derive_stream(5, 0).gen
    start = g.gamma(params.alpha, 1.0 / params.beta, size=n)
    q = DEP5.rho ** (1.0 / steps_per_unit)
    step = processes._lane_step(ProcessKind.CONTINUOUSLY_THINNED, g, start, params.alpha,
                                params.beta, q)
    assert x.tobytes() != start.tobytes()
    assert x.tobytes() == step.tobytes()


@pytest.mark.parametrize("kind", [k for k in ProcessKind
                                  if k is not ProcessKind.CONTINUOUSLY_THINNED])
def test_two_point_ensemble_correlation(kind):
    n = 200000
    pairs = simulate_ensemble(kind, make_uniform_grid(0.0, 1.0, 2), P11, DEP5, n, 10).values
    r = np.corrcoef(pairs.T)[0, 1]
    # correlation of a gamma pair estimated at n=2e5 is good to ~3/sqrt(n)
    assert abs(r - DEP5.rho) < 0.02
    m = marginal_sample(kind, 1000, P11, DEP5, master_seed=10)
    assert np.all(m >= 0.0)


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


# -- the lane kernel against the batch samplers' earlier bodies -------------------
# The _ref_* functions are the batch samplers and the generator-check step as
# they were written before each kind's one-gap lane update moved into
# processes._lane_step.  The samplers must still give their values bit for bit.


def _ref_marginal(kind, n, params, dep, master_seed, gap, method, cthin, euler_burn, substeps):
    g = derive_stream(master_seed, 0).gen
    a, b = params.alpha, params.beta
    rho_g = dep.rho ** float(gap)
    if kind is ProcessKind.AR1:
        x = g.gamma(a, 1.0 / b, size=n)
        for _ in range(2):
            mixing = g.gamma(a, 1.0, size=n)
            counts = g.poisson((1.0 - rho_g) / rho_g * mixing)
            x = rho_g * x + g.gamma(counts, rho_g / b)
        return x
    if kind is ProcessKind.THINNED:
        x = g.gamma(a, 1.0 / b, size=n)
        for _ in range(2):
            g1 = g.gamma(a * rho_g, 1.0, size=n)
            g2 = g.gamma(a * (1.0 - rho_g), 1.0, size=n)
            x = g1 / (g1 + g2) * x + g.gamma(a * (1.0 - rho_g), 1.0 / b, size=n)
        return x
    if kind is ProcessKind.RANDOM_MEASURE:
        r = rho_g
        shapes = {(2, 2): 1.0 - r, (1, 2): r - r * r, (0, 2): r * r}
        x = np.zeros(n)
        for block in [(2, 2), (1, 2), (0, 2)]:
            x += g.gamma(a * shapes[block], 1.0 / b, size=n)
        return x
    if kind is ProcessKind.CHANGE_POINT:
        x = g.gamma(a, 1.0 / b, size=n)
        for _ in range(2):
            keep = g.random(n) < rho_g
            fresh = g.gamma(a, 1.0 / b, size=n)
            x = np.where(keep, x, fresh)
        return x
    if kind is ProcessKind.SQUARED_OU:
        if method is CirMethod.EXACT:
            x = g.gamma(a, 1.0 / b, size=n)
            c = b / (1.0 - rho_g)
            for _ in range(2):
                k = g.poisson(c * x * rho_g)
                x = g.gamma(a + k, 1.0 / c, size=n)
            return x
        if method is CirMethod.SQUARED_OU:
            j = round(2.0 * a)
            if abs(2.0 * a - j) > 1e-9 or j < 1:
                raise ParameterError("2*alpha")
            z = g.standard_normal((n, j))
            half = dep.rho ** (float(gap) / 2.0)
            for _ in range(2):
                z = half * z + np.sqrt(1.0 - half * half) * g.standard_normal((n, j))
            return np.sum(z * z, axis=1) / (2.0 * b)
        h = float(gap) / substeps
        n_steps = int(np.ceil(float(euler_burn) / dep.lam / h))
        x = g.gamma(a, 1.0 / b, size=n)
        mean = a / b
        sig = np.sqrt(2.0 * dep.lam / b)
        sqh = np.sqrt(h)
        for _ in range(n_steps):
            x = x - dep.lam * (x - mean) * h + sig * np.sqrt(
                np.maximum(x, 0.0)
            ) * sqh * g.standard_normal(n)
        return x
    eps = 1.0 / cthin.steps_per_unit
    n_steps = int(round(0.25 * cthin.steps_per_unit))
    q = dep.rho**eps
    p = 1.0 - q
    x = g.gamma(a, 1.0 / b, size=n)
    for _ in range(n_steps):
        g1 = g.gamma(a * p, 1.0, size=n)
        g2 = g.gamma(a * q, 1.0, size=n)
        s = g1 + g2
        thin = np.where(s > 0.0, g1 / np.where(s > 0.0, s, 1.0), p)
        x = (1.0 - thin) * x + g.gamma(a * p, 1.0 / b, size=n)
    return x


def _ref_triplet(kind, n, params, dep, master_seed, gap):
    g = derive_stream(master_seed, 0).gen
    a, b = params.alpha, params.beta
    rho_g = dep.rho ** float(gap)
    out = np.empty((3, n))
    if kind is ProcessKind.THINNED:
        x = out[0] = g.gamma(a, 1.0 / b, size=n)
        for step in (1, 2):
            g1 = g.gamma(a * rho_g, 1.0, size=n)
            g2 = g.gamma(a * (1.0 - rho_g), 1.0, size=n)
            x = out[step] = g1 / (g1 + g2) * x + g.gamma(a * (1.0 - rho_g), 1.0 / b, size=n)
        return out
    if kind is ProcessKind.RANDOM_MEASURE:
        r = rho_g
        shapes = {(0, 0): 1.0 - r, (1, 1): (1.0 - r) ** 2, (2, 2): 1.0 - r,
                  (0, 1): r - r * r, (1, 2): r - r * r, (0, 2): r * r}
        c = {blk: g.gamma(a * shape, 1.0 / b, size=n) for blk, shape in shapes.items()}
        out[0] = c[(0, 0)] + c[(0, 1)] + c[(0, 2)]
        out[1] = c[(1, 1)] + c[(0, 1)] + c[(1, 2)] + c[(0, 2)]
        out[2] = c[(2, 2)] + c[(1, 2)] + c[(0, 2)]
        return out
    raise UnsupportedKindError(kind)


def _ref_walker(n, params, rho, master_seed):
    g = derive_stream(master_seed, 0).gen
    mixing = g.gamma(params.alpha, 1.0, size=n)
    counts = g.poisson((1.0 - rho) / rho * mixing)
    return g.gamma(counts, rho / params.beta)


def _ref_generator_fd(kind, phi, x0, params, dep, eps, n_mc, master_seed):
    g = derive_stream(master_seed, 0).gen
    a, b = params.alpha, params.beta
    phi_x0 = float(phi.phi(x0))
    sums, squares, done = [], [], 0
    while done < n_mc:
        nb = min(n_mc - done, 1 << 17)
        if kind is ProcessKind.SQUARED_OU:
            rho_d = dep.rho**eps
            c = b / (1.0 - rho_d)
            k = g.poisson(c * x0 * rho_d, size=nb)
            y = g.gamma(a + k, 1.0 / c, size=nb)
        else:
            q = dep.rho**eps
            p = 1.0 - q
            g1 = g.gamma(a * p, 1.0, size=nb)
            g2 = g.gamma(a * q, 1.0, size=nb)
            s = g1 + g2
            thin = np.where(s > 0.0, g1 / np.where(s > 0.0, s, 1.0), p)
            y = (1.0 - thin) * x0 + g.gamma(a * p, 1.0 / b, size=nb)
        d = (phi.phi(y) - phi_x0) / eps
        sums.append(np.sum(d))
        squares.append(np.sum(d * d))
        done += nb
    fd = math.fsum(sums) / n_mc
    var = max(math.fsum(squares) - n_mc * fd * fd, 0.0) / (n_mc - 1)
    return fd, float(np.sqrt(var / n_mc))


def _outcome(fn, *args, **kwargs):
    """The bytes of what ``fn`` returns, or the type of what it raises."""
    try:
        with np.errstate(invalid="ignore"):
            out = fn(*args, **kwargs)
    except (ParameterError, NumericalError) as exc:
        return type(exc)
    return out.tobytes()


KERNEL_POINTS = {
    "default": (GammaParams(2.0, 1.0), Dependence.from_rho(0.5)),
    "small-shape": (GammaParams(0.01, 1.0), Dependence.from_rho(0.001)),
    "large-shape": (GammaParams(37.0, 2.5), Dependence.from_rho(0.999)),
}
KERNEL_SAMPLERS = [(kind, CirMethod.EXACT) for kind in ProcessKind
                   if kind is not ProcessKind.SQUARED_OU]
KERNEL_SAMPLERS += [(ProcessKind.SQUARED_OU, m) for m in CirMethod]


@pytest.mark.parametrize("gap", [1.0, 0.37])
@pytest.mark.parametrize("point", list(KERNEL_POINTS))
@pytest.mark.parametrize("kind,method", KERNEL_SAMPLERS,
                         ids=[f"{k.cli_name}-{m.value}" for k, m in KERNEL_SAMPLERS])
def test_batch_samplers_equal_their_earlier_bodies(kind, method, point, gap):
    params, dep = KERNEL_POINTS[point]
    n, cthin = 500, CthinConfig(64)
    # a short Euler burn-in: rho 0.999 would otherwise take 2e5 substeps
    opts = {"method": method, "cthin": cthin, "euler_burn": 0.05, "substeps": 4}
    got = _outcome(marginal_sample, kind, n, params, dep, 21, gap=gap, **opts)
    assert got == _outcome(_ref_marginal, kind, n, params, dep, 21, gap, **opts)
    if method is CirMethod.EXACT:
        try:
            want = _outcome(_ref_triplet, kind, n, params, dep, 22, gap)
        except UnsupportedKindError:
            with pytest.raises(UnsupportedKindError):
                triplet_sample(kind, n, params, dep, 22, gap=gap)
        else:
            assert _outcome(triplet_sample, kind, n, params, dep, 22, gap=gap) == want
    rho = dep.rho**gap
    assert (walker_sample(n, params, rho, 23).tobytes()
            == _ref_walker(n, params, rho, 23).tobytes())


@pytest.mark.parametrize("n_mc", [3000, (1 << 17) + 5])
@pytest.mark.parametrize("point", list(KERNEL_POINTS))
@pytest.mark.parametrize("kind", [ProcessKind.SQUARED_OU, ProcessKind.CONTINUOUSLY_THINNED])
def test_generator_check_equals_its_earlier_step(kind, point, n_mc):
    params, dep = KERNEL_POINTS[point]
    phi = TestFunction.identity()
    eps = 1e-3 / dep.lam
    for x0 in (0.0, 2.0):
        chk = generator_check(kind, phi, x0, params, dep, n_mc=n_mc, master_seed=24)
        fd, se = _ref_generator_fd(kind, phi, x0, params, dep, eps, n_mc, 24)
        assert (chk.fd_estimate, chk.se) == (fd, se)


# -- batch-sampler arguments and the AR(1) ladder's limits ---------------------------


GRID3 = make_uniform_grid(0.0, 1.0, 3)
NON_INTEGRAL = {
    "ensemble-n_paths": lambda: simulate_ensemble(ProcessKind.AR1, GRID3, P11, DEP5, 2.9, 1),
    "ensemble-seed": lambda: simulate_ensemble(ProcessKind.AR1, GRID3, P11, DEP5, 2, 1.7),
    "cthin-steps": lambda: CthinConfig(2.5),
    "euler-substeps": lambda: sample_path(ProcessKind.SQUARED_OU, derive_stream(0, 0), GRID3,
                                          P11, DEP5, method=CirMethod.EULER, substeps=2.5),
    "marginal-n": lambda: marginal_sample(ProcessKind.AR1, 100.9, P11, DEP5, master_seed=0),
    "triplet-n": lambda: triplet_sample(ProcessKind.THINNED, 10.5, P11, DEP5, master_seed=0),
    "walker-n": lambda: walker_sample(10.5, P11, 0.5, master_seed=0),
    "generator-n_mc": lambda: generator_check(ProcessKind.SQUARED_OU, TestFunction.identity(),
                                              1.0, P11, DEP5, n_mc=100.5),
    "grid-n": lambda: make_uniform_grid(0.0, 1.0, 2.5),
    "stream-seed": lambda: derive_stream(float("nan"), 0),
}


@pytest.mark.parametrize("call", list(NON_INTEGRAL.values()), ids=list(NON_INTEGRAL))
def test_a_non_integral_count_or_seed_is_refused_not_truncated(call):
    with pytest.raises(ParameterError, match="must be an integer"):
        call()


def test_integral_floats_and_numpy_integers_count_as_their_ints():
    ens = simulate_ensemble(ProcessKind.AR1, GRID3, P11, DEP5, 3.0, np.uint64(1))
    assert ens.master_seed == 1 and type(ens.master_seed) is int
    assert ens.values.tobytes() == simulate_ensemble(ProcessKind.AR1, GRID3, P11, DEP5, 3,
                                                     1).values.tobytes()
    assert CthinConfig(np.int64(4)).steps_per_unit == 4
    assert (marginal_sample(ProcessKind.AR1, 1e2, P11, DEP5, master_seed=0).tobytes()
            == marginal_sample(ProcessKind.AR1, 100, P11, DEP5, master_seed=0).tobytes())
    assert generator_check(ProcessKind.SQUARED_OU, TestFunction.identity(), 1.0, P11, DEP5,
                           n_mc=1e3).n_mc == 1000


@pytest.mark.parametrize("euler_burn", [0.0, -1.0, float("nan"), float("inf")])
def test_marginal_sample_rejects_an_euler_burn_that_is_not_finite_and_positive(euler_burn):
    # nan and inf raised ValueError and OverflowError, and a burn-in <= 0 returned the
    # unstepped Ga(alpha, beta) start draws
    with pytest.raises(ParameterError, match="euler_burn"):
        marginal_sample(ProcessKind.SQUARED_OU, 10, P11, DEP5, master_seed=0,
                        method=CirMethod.EULER, euler_burn=euler_burn)


@pytest.mark.parametrize("gap", [0.0, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("sampler", [marginal_sample, triplet_sample])
def test_batch_samplers_reject_a_gap_that_is_not_finite_and_positive(sampler, gap):
    for kind in ProcessKind:
        with pytest.raises(ParameterError, match="gap"):
            sampler(kind, 10, P11, DEP5, master_seed=0, gap=gap)


@pytest.mark.parametrize("dep", [Dependence(50.0), Dependence(800.0),
                                 Dependence.from_rho(1e-25)])
def test_ar1_ladder_past_numpy_poisson_limit_is_a_numerical_error(dep):
    # rho_g = 1.9e-22 and 1e-25 put the Poisson mean past numpy's 9.2e18;
    # exp(-800) underflows to 0
    grid = make_uniform_grid(0.0, 1.0, 5)
    with pytest.raises(NumericalError):
        marginal_sample(ProcessKind.AR1, 100, P11, dep, master_seed=0)
    with pytest.raises(NumericalError):
        sample_path(ProcessKind.AR1, derive_stream(0, 0), grid, P11, dep)
    with pytest.raises(NumericalError):
        simulate_ensemble(ProcessKind.AR1, grid, P11, dep, 40, master_seed=0)
    if dep.rho > 0.0:
        with pytest.raises(NumericalError):
            walker_sample(100, P11, dep.rho, master_seed=0)


def test_exact_cir_gap_correlation_of_one_is_a_numerical_error():
    # rho**1e-300 rounds to 1.0, so c = beta / (1 - rho_g) does not exist
    dep = Dependence(1e-300)
    with pytest.raises(NumericalError):
        marginal_sample(ProcessKind.SQUARED_OU, 100, P11, DEP5, master_seed=0, gap=1e-300)
    with pytest.raises(NumericalError):
        sample_path(ProcessKind.SQUARED_OU, derive_stream(0, 0),
                    TimeGrid(np.array([0.0, 1e-300])), P11, DEP5)
    with pytest.raises(NumericalError):
        simulate_ensemble(ProcessKind.SQUARED_OU, make_uniform_grid(0.0, 1.0, 3), P11, dep,
                          4, master_seed=0)
    with pytest.raises(NumericalError):
        generator_check(ProcessKind.SQUARED_OU, TestFunction.identity(), 1.0, P11, dep,
                        n_mc=100)


def test_exact_cir_poisson_mean_past_numpy_limit_is_a_numerical_error():
    # at gap 1e-16, c = beta / (1 - rho_g) is about 1e16, so c * x * rho_g passes 9.2e18
    params = GammaParams(2000.0, 1.0)
    with pytest.raises(NumericalError):
        marginal_sample(ProcessKind.SQUARED_OU, 100, params, DEP5, master_seed=0, gap=1e-16)
    with pytest.raises(NumericalError):
        sample_path(ProcessKind.SQUARED_OU, derive_stream(0, 0),
                    make_uniform_grid(0.0, 1e-16, 3), params, DEP5)
