import math

import numpy as np
import pytest

import gammaproc
from gammaproc import analytic, core, processes, stats
from gammaproc import (
    Dependence,
    Ensemble,
    GammaParams,
    ParameterError,
    ProcessKind,
    SamplePath,
    TimeGrid,
    derive_stream,
    make_uniform_grid,
)


def test_gamma_params_moments():
    p = GammaParams(2.5, 2.0)
    assert p.mean == 2.5 / 2.0
    assert p.var == 2.5 / 4.0


@pytest.mark.parametrize("alpha,beta", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0),
                                        (np.nan, 1.0), (1.0, np.inf)])
def test_gamma_params_rejects_bad_values(alpha, beta):
    with pytest.raises(ParameterError):
        GammaParams(alpha, beta)


def test_dependence_round_trip():
    dep = Dependence.from_rho(0.5)
    # the stored unit-lag correlation is exactly the value passed in
    assert dep.rho == 0.5
    assert dep.lam == -np.log(0.5)
    dep2 = Dependence(dep.lam)
    assert dep2.rho == dep.rho


def test_dependence_gap_corr_is_power():
    # Python's float power element by element, not numpy's vector power, which
    # picks a SIMD routine at import: with AVX-512 on, it differs in the last
    # bit from Python's at each of the (rho, gap) pairs of the loop below
    dep = Dependence.from_rho(0.7)
    assert dep.gap_corr(1.0) == 0.7
    assert dep.gap_corr(2.0) == 0.7**2.0
    assert dep.gap_corr(0.25) == 0.7**0.25
    gaps = [1.0, 3.0, 0.25, 3.0, 1.0, 3.0]
    assert dep.gap_corr(np.array(gaps)).tolist() == [0.7**d for d in gaps]
    empty = dep.gap_corr(np.array([]))
    assert empty.shape == (0,) and empty.dtype == np.float64
    for rho, gap in [(0.001, 0.001), (0.9, 0.1), (math.exp(-0.7), 0.1)]:
        dep = Dependence.from_rho(rho)
        assert dep.gap_corr(gap) == rho**gap
        assert dep.gap_corr(np.full(5, gap)).tolist() == [rho**gap] * 5


def _grids_of_every_gap_pattern():
    rng = np.random.default_rng(5)
    yield make_uniform_grid(0.0, 1.0, 100000)  # one gap value
    yield make_uniform_grid(3.0, 0.5, 1000)
    yield make_uniform_grid(0.0, 0.37, 100000)  # 22 distinct gaps, by rounding
    yield make_uniform_grid(0.0, 0.1, 2)  # one gap
    yield make_uniform_grid(-1e-300, 1e-300, 2)
    yield TimeGrid(np.cumsum(rng.exponential(size=500)))  # every gap distinct
    yield TimeGrid(np.array([0.0, 1.0, 2.0, 2.5, 3.5, 3.75]))


@pytest.mark.parametrize("rho", [0.001, 0.5, math.exp(-0.7), 0.999])
def test_dependence_gap_corr_keeps_the_per_gap_bytes_on_every_grid(rho):
    # an array of one gap value takes one power and no sort; it must give the
    # bytes of one Python power per gap
    dep = Dependence.from_rho(rho)
    grids = list(_grids_of_every_gap_pattern())
    assert np.unique(grids[2].gaps).size == 22
    for grid in grids:
        expected = np.array([rho**g for g in grid.gaps.tolist()], dtype=float)
        got = dep.gap_corr(grid.gaps)
        assert got.dtype == np.float64 and got.tobytes() == expected.tobytes()
        assert dep.gap_corr(grid.gaps / 2.0).tobytes() == \
            np.array([rho**g for g in (grid.gaps / 2.0).tolist()]).tobytes()


@pytest.mark.parametrize("rho", [0.0, 1.0, -0.1, 1.5, np.nan, np.inf])
def test_dependence_rejects_degenerate_rho(rho):
    with pytest.raises(ParameterError, match=r"^rho must lie strictly in \(0, 1\), got "):
        Dependence.from_rho(rho)


def test_dependence_rejects_nonpositive_lambda():
    with pytest.raises(ParameterError):
        Dependence(0.0)
    with pytest.raises(ParameterError):
        Dependence(-1.0)


def test_time_grid_gaps():
    g = TimeGrid(np.array([0.0, 0.5, 2.0]))
    assert g.n == 3
    assert len(g) == 3
    assert np.array_equal(g.gaps, np.array([0.5, 1.5]))


def test_time_grid_requires_strict_increase():
    with pytest.raises(ParameterError):
        TimeGrid(np.array([0.0, 1.0, 1.0]))
    with pytest.raises(ParameterError):
        TimeGrid(np.array([0.0, -1.0]))


def test_time_grid_values_are_read_only():
    g = TimeGrid(np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        g.times[0] = 3.0


def test_make_uniform_grid():
    g = make_uniform_grid(1.0, 0.5, 4)
    assert np.allclose(g.times, [1.0, 1.5, 2.0, 2.5])
    with pytest.raises(ParameterError):
        make_uniform_grid(0.0, 0.0, 4)
    with pytest.raises(ParameterError):
        make_uniform_grid(0.0, 1.0, 0)
    for t0 in (np.nan, np.inf, -np.inf):
        with pytest.raises(ParameterError, match="^t0 must be finite"):
            make_uniform_grid(t0, 1.0, 3)


@pytest.mark.parametrize("times", [np.zeros((2, 2)), np.array([]), np.array([0.0, np.nan]),
                                   np.array([0.0, np.inf])])
def test_time_grid_refuses_a_grid_that_is_not_1d_non_empty_and_finite(times):
    with pytest.raises(ParameterError, match="^grid"):
        TimeGrid(times)


@pytest.mark.parametrize("value", [0.0, -0.0, 1e-300, 2.5, 7])
def test_require_finite_nonnegative_returns_the_float(value):
    v = core._require_finite_nonnegative("u", value)
    assert type(v) is float and v == value


@pytest.mark.parametrize("value", [-1e-300, -1.0, np.nan, np.inf, -np.inf])
def test_require_finite_nonnegative_refuses(value):
    with pytest.raises(ParameterError, match=r"^u must be finite and >= 0, got "):
        core._require_finite_nonnegative("u", value)


def test_require_open_unit_returns_the_float():
    # the refusals are pinned through Dependence.from_rho above
    for value in (5e-324, 0.5, np.float64(0.25), 1.0 - 2.0**-53):
        v = core._require_open_unit("rho", value)
        assert type(v) is float and v == value


def test_process_kind_parse_round_trip():
    for kind in ProcessKind:
        assert ProcessKind.parse(kind.cli_name) is kind
    with pytest.raises(ParameterError):
        ProcessKind.parse("nope")


def test_sample_path_shape_check():
    g = make_uniform_grid(0.0, 1.0, 3)
    with pytest.raises(ParameterError):
        SamplePath(g, np.zeros(2), ProcessKind.AR1)
    sp = SamplePath(g, np.array([1.0, 2.0, 3.0]), ProcessKind.AR1)
    with pytest.raises(ValueError):
        sp.values[0] = 9.0


def test_ensemble_paths_are_views_of_rows():
    g = make_uniform_grid(0.0, 1.0, 2)
    vals = np.array([[1.0, 2.0], [3.0, 4.0]])
    ens = Ensemble(g, ProcessKind.THINNED, vals, master_seed=7)
    assert ens.n_paths == 2
    assert np.array_equal(ens.path(1).values, [3.0, 4.0])
    assert [ens.path(m).values[0] for m in range(ens.n_paths)] == [1.0, 3.0]
    with pytest.raises(ParameterError):
        Ensemble(g, ProcessKind.THINNED, np.zeros((2, 3)), master_seed=0)


def test_read_only_values_are_kept_and_writeable_ones_copied():
    g = make_uniform_grid(0.0, 1.0, 2)
    frozen = np.array([[1.0, 2.0], [3.0, 4.0]])
    frozen.setflags(write=False)
    ens = Ensemble(g, ProcessKind.AR1, frozen, master_seed=0)
    assert ens.values is frozen
    assert np.shares_memory(ens.path(1).values, frozen)
    live = np.array([[1.0, 2.0], [3.0, 4.0]])
    ens = Ensemble(g, ProcessKind.AR1, live, master_seed=0)
    live[0, 0] = 9.0
    assert ens.values[0, 0] == 1.0 and not ens.values.flags.writeable
    row = np.array([5.0, 6.0])
    sp = SamplePath(g, row, ProcessKind.AR1)
    row[0] = 0.0
    assert sp.values[0] == 5.0 and not sp.values.flags.writeable


def test_derive_stream_reproducible_and_distinct():
    a1 = derive_stream(123, 0).gen.random(8)
    a2 = derive_stream(123, 0).gen.random(8)
    b = derive_stream(123, 1).gen.random(8)
    c = derive_stream(124, 0).gen.random(8)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)


def test_derive_stream_is_insensitive_to_call_order():
    # stream m is a pure function of (master_seed, m)
    first = derive_stream(9, 3).gen.random(4)
    _ = derive_stream(9, 0).gen.random(100)
    again = derive_stream(9, 3).gen.random(4)
    assert np.array_equal(first, again)


def test_rekey_gives_the_words_of_a_fresh_stream():
    rng = derive_stream(9, 0)
    # leave a half-used 64-bit word and a part-used Philox block behind
    rng.gen.integers(0, 1 << 32, size=3, dtype=np.uint32)
    rng.gen.random(5)
    for m in (5, 0, (1 << 64) - 1):
        rng.rekey(m)
        fresh = derive_stream(9, m)
        assert rng.stream_index == m
        assert np.array_equal(rng.words(7), fresh.words(7))
        assert (rng.gen.standard_gamma(0.3, size=4).tobytes()
                == fresh.gen.standard_gamma(0.3, size=4).tobytes())
        rng.gen.integers(0, 1 << 32, dtype=np.uint32)


@pytest.mark.parametrize("seed", [-1, 1 << 64, 1 << 70])
def test_derive_stream_refuses_a_seed_outside_64_bits(seed):
    # masking it would alias a seed inside the range: -1 to 2**64 - 1, 2**70 to 0
    with pytest.raises(ParameterError, match=r"\[0, 2\*\*64\)"):
        derive_stream(seed, 0)
    assert derive_stream((1 << 64) - 1, 0).master_seed == (1 << 64) - 1


@pytest.mark.parametrize("module", [gammaproc, core, analytic, processes, stats],
                         ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
