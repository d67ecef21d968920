import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from scipy import special

from gammaproc import (
    Dependence,
    Ensemble,
    GammaParams,
    NumericalError,
    ParameterError,
    ProcessKind,
    SamplePath,
    TestFunction,
    TimeGrid,
    UnsupportedKindError,
    analytic,
    chf_gof,
    default_omega_pairs,
    default_omega_triples,
    derive_stream,
    empirical_acf,
    empirical_chf,
    empirical_moments,
    generator_check,
    ks_statistic,
    make_uniform_grid,
    marginal_sample,
    reversibility_check,
    sample_path,
    simulate_ensemble,
    tail_check,
    two_sample_chf,
)
from gammaproc.cli import _tail_grid

P11 = GammaParams(1.0, 1.0)
DEP5 = Dependence.from_rho(0.5)


# -- moments --------------------------------------------------------------------


def test_empirical_moments_small_array():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    rep = empirical_moments(x)
    assert rep.n == 4
    assert rep.mean == pytest.approx(2.5)
    assert rep.variance == pytest.approx(np.var(x, ddof=1))
    assert rep.se_mean == pytest.approx(np.std(x, ddof=1) / 2.0)


def _reference_moments(x):
    """(mean, variance, se_mean), written as before the deviations were squared in place."""
    n = x.size
    mean = float(np.mean(x))
    d = x - mean
    m2 = float(np.mean(d * d))
    return mean, m2 * n / (n - 1), float(np.sqrt(m2 / (n - 1)))


# repeated values, and values from 1e-300 to 1e3
_AWKWARD = np.array([1e-300, 1e-300, 3e-300, 0.5, 0.5, 0.5, 2.0**-30, 1e-5, 3.0, 7.25,
                     123.456, 1e3, 1e3, 999.9999999999999])


@pytest.mark.parametrize("sample", ["awkward", "gamma-1e5"])
def test_empirical_moments_keeps_the_bytes_of_mean_variance_and_se_mean(sample):
    x = _AWKWARD if sample == "awkward" else derive_stream(3, 0).gen.gamma(2.0, 1.0, 100000)
    before = x.copy()
    rep = empirical_moments(x)
    mean, var, se_mean = _reference_moments(x)
    assert [rep.mean.hex(), rep.variance.hex(), rep.se_mean.hex()] == [
        mean.hex(), var.hex(), se_mean.hex()]
    assert x.tobytes() == before.tobytes()  # the deviations are squared in place, not x


def test_empirical_moments_se_variance_against_exact_central_moments():
    f = [Fraction(v) for v in _AWKWARD.tolist()]
    n = len(f)
    mean = sum(f) / n
    m2 = sum((v - mean) ** 2 for v in f) / n
    m4 = sum((v - mean) ** 4 for v in f) / n
    q = (m4 - m2 * m2) / n
    with localcontext() as ctx:
        ctx.prec = 60
        exact = (Decimal(q.numerator) / Decimal(q.denominator)).sqrt()
        ulps = abs(Decimal(empirical_moments(_AWKWARD).se_variance) - exact) / Decimal(
            math.ulp(float(exact)))
    assert ulps <= 4


def test_empirical_moments_z_scores_detect_shift():
    g = derive_stream(1, 0).gen
    x = g.gamma(1.0, 1.0, size=50000)
    z_mean, z_var = empirical_moments(x).z_scores(P11)
    assert z_mean < 4.0 and z_var < 4.0
    z_mean_off, _ = empirical_moments(x + 0.5).z_scores(P11)
    assert z_mean_off > 10.0


# -- empirical chf ----------------------------------------------------------------


def test_empirical_chf_at_zero_is_exactly_one():
    x = derive_stream(2, 0).gen.gamma(1.0, 1.0, size=1000).reshape(-1, 1)
    est = empirical_chf(x, np.array([[0.0]]))
    assert est.estimate[0] == 1.0 + 0.0j
    assert est.se_re[0] == 0.0
    assert est.se_im[0] == 0.0


def test_empirical_chf_conjugate_symmetry_is_bitwise():
    x = derive_stream(3, 0).gen.gamma(2.0, 1.0, size=5000).reshape(-1, 1)
    w = np.array([[0.7], [-0.7], [2.2], [-2.2]])
    est = empirical_chf(x, w)
    assert est.estimate[0] == np.conj(est.estimate[1])
    assert est.estimate[2] == np.conj(est.estimate[3])
    assert est.se_re[0] == est.se_re[1]
    assert est.se_im[0] == est.se_im[1]


def test_empirical_chf_matches_direct_sum():
    # independent route: plain numpy evaluation on a small sample
    g = derive_stream(4, 0).gen
    x = g.gamma(1.5, 1.0, size=(300, 2))
    w = np.array([[0.5, -1.0], [1.0, 2.0]])
    est = empirical_chf(x, w)
    for j, (s, t) in enumerate(w):
        direct = np.mean(np.exp(1j * (s * x[:, 0] + t * x[:, 1])))
        assert est.estimate[j] == pytest.approx(direct, rel=1e-12)
        re = np.cos(s * x[:, 0] + t * x[:, 1])
        assert est.se_re[j] == pytest.approx(np.std(re, ddof=1) / np.sqrt(300), rel=1e-10)


def test_empirical_chf_chunking_invariance():
    # block boundary must not change the result beyond float reassociation
    from gammaproc import stats as st

    g = derive_stream(5, 0).gen
    x = g.gamma(1.0, 1.0, size=2 * st._CHF_BLOCK + 17).reshape(-1, 1)
    w = np.array([[1.0]])
    est = empirical_chf(x, w)
    direct = np.mean(np.exp(1j * x[:, 0]))
    assert est.estimate[0] == pytest.approx(direct, rel=1e-12, abs=0.0)


def _direct_chf(x, w):
    """The direct route: exp(i x w^T) over the whole (N, M) phase matrix."""
    z = np.exp(1j * (x @ w.T))
    root_n = np.sqrt(len(x))
    return z.mean(0), z.real.std(0, ddof=1) / root_n, z.imag.std(0, ddof=1) / root_n


_TINY = 2.0**-1074

_DIRECT_CASES = {
    "d1": (1, [[0.0], [0.7], [-0.7], [2.2], [1.4], [-3.3], [0.1], [1.0 / 3.0]]),
    "d2_zeros_negatives_duplicates": (2, [
        [0.0, 1.3], [0.5, 0.0], [-0.5, 1.0], [0.5, 1.0], [0.5, 1.0], [1.0 / 3.0, -2.0 / 3.0],
        [-1.0, -1.0], [0.0, 0.0], [-0.0, 0.7], [0.0, -1.3], [0.25, 0.5], [2.0, -4.0], [-0.1, 0.2],
    ]),
    "d3_zeros_negatives_duplicates": (3, [
        [0.25, 0.25, 0.25], [1.0, -1.0, 2.0], [1.0, -1.0, 2.0], [0.0, 0.0, 1.0],
        [0.3, 0.0, -0.7], [-0.3, 0.0, 0.7], [2.0, 1.0, -2.0], [-1.0, -0.5, -0.25],
        [0.1, 0.2, 0.4], [0.0, 0.0, 0.0], [1.0 / 3.0, -1.0, 0.5],
    ]),
    "dyadic_chain": (2, [[2.0**k, 2.0**-k] for k in range(-6, 7)]
                     + [[-(2.0**k), 2.0**k] for k in range(-6, 7)]),
    "subnormal": (1, [[3 * _TINY], [2 * _TINY], [-3 * _TINY]]),
}


@pytest.mark.parametrize("case", list(_DIRECT_CASES))
def test_empirical_chf_matches_the_direct_route(case):
    d, rows = _DIRECT_CASES[case]
    w = np.array(rows)
    x = derive_stream(31, 0).gen.gamma(1.5, 1.0, size=(3000, d))
    x[7] = x[3]  # duplicate sample rows
    est = empirical_chf(x, w)
    want, se_re, se_im = _direct_chf(x, w)
    for i in range(len(w)):
        assert est.estimate[i] == pytest.approx(want[i], rel=1e-12, abs=0.0)
        assert est.se_re[i] == pytest.approx(se_re[i], rel=1e-10, abs=0.0)
        assert est.se_im[i] == pytest.approx(se_im[i], rel=1e-10, abs=0.0)
    if case == "subnormal":
        # the imaginary parts are a few multiples of 2^-1074: squaring the
        # phasor of 2 * 2^-1074 would give 3 * 2^-1074 half as much again
        assert est.estimate.imag == pytest.approx(want.imag, rel=1e-12, abs=0.0)
        assert est.estimate.imag[0] != 0.0


@pytest.mark.parametrize("offset", [-1, 1, 17])
def test_empirical_chf_matches_the_direct_route_across_block_edges(offset):
    from gammaproc import stats as st

    n = st._CHF_BLOCK + offset
    x = derive_stream(32, 0).gen.gamma(1.0, 1.0, size=(n, 3))
    w = np.array([[0.25, 0.5, 1.0], [1.0, -2.0, 0.0], [-0.7, 0.3, 1.1], [0.0, 0.0, 0.0]])
    est = empirical_chf(x, w)
    want, se_re, se_im = _direct_chf(x, w)
    assert est.estimate == pytest.approx(want, rel=1e-12, abs=0.0)
    assert est.se_re[:3] == pytest.approx(se_re[:3], rel=1e-10, abs=0.0)
    assert est.se_im[:3] == pytest.approx(se_im[:3], rel=1e-10, abs=0.0)
    assert (est.estimate[3], est.se_re[3], est.se_im[3]) == (1.0, 0.0, 0.0)


def test_phasor_plan_squares_only_exact_halvings_and_at_most_three_times():
    from gammaproc.stats import _phasor_plan

    # 2^-6 .. 2^6: one direct evaluation, then three squarings, then again
    mags, src, _ = _phasor_plan(2.0 ** np.arange(-6, 7))
    assert src.tolist() == [-1, 0, 1, 2, -1, 4, 5, 6, -1, 8, 9, 10, -1]
    # 3 * 2^-1074 halves to 1.5 * 2^-1074, which rounds to 2 * 2^-1074
    mags, src, _ = _phasor_plan(np.array([3 * _TINY, 2 * _TINY]))
    assert src.tolist() == [-1, -1]
    mags, src, inv = _phasor_plan(np.array([0.0, -1.0, 0.5, -0.0, 1.0]))
    assert mags.tolist() == [0.0, 0.5, 1.0]
    assert src.tolist() == [-2, -1, 1]
    assert inv.tolist() == [0, 2, 1, 0, 2]


@pytest.mark.parametrize("d", [2, 3])
def test_empirical_chf_conjugate_symmetry_is_bitwise_on_several_coordinates(d):
    x = derive_stream(33, 0).gen.gamma(2.0, 1.0, size=(5000, d))
    w = default_omega_pairs(1.0) if d == 2 else default_omega_triples(1.0)
    w = np.vstack((w, [[0.3] * d, [1.0 / 3.0] + [0.0] * (d - 1)]))
    est = empirical_chf(x, np.vstack((w, -w)))
    m = len(w)
    assert np.array_equal(est.estimate[:m], np.conj(est.estimate[m:]))
    assert np.array_equal(est.se_re[:m], est.se_re[m:])
    assert np.array_equal(est.se_im[:m], est.se_im[m:])


def test_empirical_chf_memory_is_one_block():
    import tracemalloc

    x = derive_stream(34, 0).gen.gamma(1.0, 1.0, size=(100_000, 3))
    w = default_omega_triples(1.0)
    tracemalloc.start()
    try:
        empirical_chf(x, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the N x M phase matrix alone is 15 MiB here
    assert peak < 8 * 2**20


def test_empirical_chf_validates_shapes():
    with pytest.raises(ParameterError):
        empirical_chf(np.zeros((10, 2)), np.array([[1.0, 2.0, 3.0]]))
    with pytest.raises(ParameterError):
        empirical_chf(np.zeros((1, 1)), np.array([[1.0]]))


CHF_ENTRY_POINTS = {
    "empirical_chf": lambda x, ens, w: empirical_chf(x, w),
    "two_sample_chf": lambda x, ens, w: two_sample_chf(x, x, w),
    "chf_gof": lambda x, ens, w: chf_gof(ens, P11, DEP5, omegas=w),
}


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("entry", list(CHF_ENTRY_POINTS))
def test_chf_entry_points_refuse_a_frequency_that_is_not_finite(entry, bad):
    x = derive_stream(2, 0).gen.gamma(1.0, 1.0, size=(100, 2))
    ens = simulate_ensemble(ProcessKind.AR1, make_uniform_grid(0.0, 1.0, 2), P11, DEP5, 100,
                            master_seed=2)
    for w in ([[0.5, bad]], [[bad, 0.5], [1.0, 1.0]]):
        with pytest.raises(ParameterError, match="finite"):
            CHF_ENTRY_POINTS[entry](x, ens, np.array(w))


# -- KS -----------------------------------------------------------------------


def test_two_sample_chf_is_symmetric_and_pools_the_standard_errors():
    rng = np.random.default_rng(4)
    a, b = rng.gamma(2.0, size=(500, 2)), rng.gamma(2.5, size=(700, 2))
    w = np.array([[0.5, -1.0], [1.0, 2.0]])
    z, est_a, est_b = two_sample_chf(a, b, w)
    assert z.tobytes() == two_sample_chf(b, a, w)[0].tobytes()
    diff = est_a.estimate - est_b.estimate
    np.testing.assert_allclose(z, np.maximum(
        np.abs(diff.real) / np.hypot(est_a.se_re, est_b.se_re),
        np.abs(diff.imag) / np.hypot(est_a.se_im, est_b.se_im)), rtol=1e-12)


def test_ks_statistic_accepts_matching_sample():
    x = derive_stream(6, 0).gen.gamma(2.0, 0.5, size=100000)  # Ga(2, 2) in rate form
    rep = ks_statistic(x, GammaParams(2.0, 2.0))
    assert rep.n == 100000
    assert rep.critical_1pct == pytest.approx(1.628 / np.sqrt(100000))
    assert rep.passed


def test_ks_statistic_rejects_wrong_rate():
    x = derive_stream(6, 0).gen.gamma(2.0, 0.5, size=100000)
    rep = ks_statistic(x, GammaParams(2.0, 2.4))
    assert not rep.passed


def test_ks_statistic_handles_values_below_support():
    # a negative input (no sampler writes one, but ks_statistic takes any array) sits
    # at cdf 0, not NaN
    x = np.concatenate([derive_stream(7, 0).gen.gamma(1.0, 1.0, size=5000), [-1e-3]])
    rep = ks_statistic(x, P11)
    assert np.isfinite(rep.statistic)


def test_ks_statistic_refuses_a_nan_sample():
    x = np.concatenate([derive_stream(7, 0).gen.gamma(1.0, 1.0, size=5000), [np.nan]])
    with pytest.raises(NumericalError, match="NaN"):
        ks_statistic(x, P11)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ks_statistic_is_finite_with_repeated_infinities():
    # the gap between two infinities, inf - inf, is NaN; it was integrated, so
    # the cdf and the statistic were NaN
    x = np.concatenate([derive_stream(9, 0).gen.gamma(2.0, 1.0, size=1000), [np.inf, np.inf]])
    stat = ks_statistic(x, GammaParams(2.0, 1.0)).statistic
    cdf = special.gammainc(2.0, np.sort(x))
    i = np.arange(1, x.size + 1)
    assert abs(stat - np.max(np.maximum(i / x.size - cdf, cdf - (i - 1) / x.size))) <= 1e-12


def test_ks_statistic_matches_an_mpmath_reference_on_a_sample_without_zeros():
    import mpmath as mp

    mp.mp.dps = 40
    x = np.sort(derive_stream(8, 0).gen.gamma(0.5, 0.5, size=20000))  # Ga(0.5, 2)
    assert x[0] > 0.0
    stat = ks_statistic(x[::-1], GammaParams(0.5, 2.0)).statistic
    # the sup is attained at a sample whose one-sided distance, scored with
    # cdf values accurate to 1e-12, is within 2e-12 of the statistic
    cdf = special.gammainc(0.5, 2.0 * x)
    i = np.arange(1, x.size + 1)
    gap = np.maximum(i / x.size - cdf, cdf - (i - 1) / x.size)
    ref = 0.0
    for k in np.flatnonzero(gap >= stat - 2e-12):
        f = mp.gammainc(0.5, 0, 2 * mp.mpf(x[k]), regularized=True)
        ref = max(ref, float(max((k + 1) / mp.mpf(x.size) - f, f - k / mp.mpf(x.size))))
    assert abs(stat - ref) <= 1e-12


TINY = GammaParams(1e-3, 1.0)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("kind", [ProcessKind.AR1, ProcessKind.RANDOM_MEASURE,
                                  ProcessKind.CHANGE_POINT, ProcessKind.SQUARED_OU])
def test_ks_statistic_scores_underflowed_zeros_against_the_rounded_law(kind, seed):
    x = marginal_sample(kind, 100000, TINY, DEP5, master_seed=seed)
    # a correctly rounded Ga(1e-3, 1) draw is 0.0 with probability F(2^-1075) = 0.4749
    zeros = np.flatnonzero(x == 0.0)
    assert 0.46 < zeros.size / x.size < 0.49
    rep = ks_statistic(x, TINY)
    assert rep.passed, rep
    # power control: 3% of the zeros moved to the smallest double must fail
    x[zeros[: int(0.03 * zeros.size)]] = 2.0**-1074
    assert not ks_statistic(x, TINY).passed


def test_ks_statistic_needs_enough_data():
    with pytest.raises(ParameterError):
        ks_statistic(np.ones(10), P11)


# -- ACF ------------------------------------------------------------------------


def test_empirical_acf_tracks_geometric_decay():
    grid = make_uniform_grid(0.0, 1.0, 100000)
    path = sample_path(ProcessKind.AR1, derive_stream(8, 0), grid, P11, DEP5)
    rep = empirical_acf(path, DEP5, max_lag=3)
    assert np.array_equal(rep.target, np.array([0.5, 0.25, 0.125]))
    assert rep.max_z < 4.0


def test_empirical_acf_detects_wrong_dependence():
    grid = make_uniform_grid(0.0, 1.0, 100000)
    path = sample_path(ProcessKind.AR1, derive_stream(8, 0), grid, P11, DEP5)
    wrong = empirical_acf(path, Dependence.from_rho(0.9), max_lag=3)
    assert wrong.max_z > 10.0


def test_empirical_acf_default_batch_length():
    grid = make_uniform_grid(0.0, 0.5, 50000)
    path = sample_path(ProcessKind.AR1, derive_stream(9, 0), grid, P11, DEP5)
    rep = empirical_acf(path, DEP5, max_lag=2)
    assert rep.batch_len == int(np.ceil(50.0 / (DEP5.lam * 0.5)))


def test_empirical_acf_validates_length():
    grid = make_uniform_grid(0.0, 1.0, 30)
    path = sample_path(ProcessKind.AR1, derive_stream(0, 0), grid, P11, DEP5)
    with pytest.raises(ParameterError):
        empirical_acf(path, DEP5, max_lag=5)


def test_empirical_acf_refuses_a_non_uniform_grid_and_a_constant_path():
    times = np.arange(200.0)
    times[-1] += 0.5
    path = SamplePath(TimeGrid(times), np.arange(200.0), ProcessKind.AR1)
    with pytest.raises(ParameterError, match="uniform grid"):
        empirical_acf(path, DEP5, max_lag=3)
    flat = SamplePath(make_uniform_grid(0.0, 1.0, 200), np.ones(200), ProcessKind.AR1)
    with pytest.raises(ParameterError, match="^path has zero variance"):
        empirical_acf(flat, DEP5, max_lag=3)


@pytest.mark.parametrize("max_lag", [2.5, 0, -1, float("nan")])
def test_empirical_acf_refuses_a_max_lag_that_is_not_a_positive_integer(max_lag):
    # a fractional lag count was truncated: 2.5 gave lags [1 2]
    grid = make_uniform_grid(0.0, 1.0, 2000)
    path = sample_path(ProcessKind.AR1, derive_stream(0, 0), grid, P11, DEP5)
    with pytest.raises(ParameterError, match="max_lag"):
        empirical_acf(path, DEP5, max_lag=max_lag)
    assert empirical_acf(path, DEP5, max_lag=3.0).lags.tolist() == [1, 2, 3]


def test_chf_gof_refuses_a_one_point_grid_and_omegas_that_are_not_pairs():
    one = Ensemble(make_uniform_grid(0.0, 1.0, 1), ProcessKind.AR1, np.ones((5, 1)), 0)
    with pytest.raises(ParameterError, match="grid with at least 2 points"):
        chf_gof(one, P11, DEP5)
    two = Ensemble(make_uniform_grid(0.0, 1.0, 2), ProcessKind.AR1,
                   np.arange(10.0).reshape(5, 2), 0)
    with pytest.raises(ParameterError, match=r"omegas must be \(s, t\) pairs"):
        chf_gof(two, P11, DEP5, omegas=default_omega_triples(1.0))


# -- reversibility -----------------------------------------------------------------


def test_reversibility_counts_on_handmade_path():
    grid = make_uniform_grid(0.0, 1.0, 3)
    path = SamplePath(grid, np.array([1.0, 0.4, 0.3]), ProcessKind.AR1)
    rep = reversibility_check(path, DEP5)
    # forward: 0.4 < 0.5*1.0 violates; 0.3 >= 0.5*0.4 holds
    assert rep.n_steps == 2
    assert rep.forward_violations == 1
    # backward: 1.0 >= 0.5*0.4 and 0.4 >= 0.5*0.3 both hold
    assert rep.backward_violations == 0


def test_reversibility_thinned_violates_both_directions():
    grid = make_uniform_grid(0.0, 1.0, 20000)
    path = sample_path(ProcessKind.THINNED, derive_stream(10, 0), grid, P11, DEP5)
    rep = reversibility_check(path, DEP5)
    assert rep.forward_violations > 0
    assert rep.backward_violations > 0


def test_reversibility_check_refuses_a_single_point():
    path = SamplePath(make_uniform_grid(0.0, 1.0, 1), np.ones(1), ProcessKind.AR1)
    with pytest.raises(ParameterError, match="^path must hold at least 2 observations, got 1"):
        reversibility_check(path, DEP5)


# -- generator check ----------------------------------------------------------------


def test_generator_check_validation():
    for x0 in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ParameterError, match="^x0 must be finite and >= 0"):
            generator_check(ProcessKind.SQUARED_OU, (TestFunction.identity(),), (x0,), P11,
                            DEP5, n_mc=100)
    with pytest.raises(ParameterError, match="^x0s must hold at least one start point"):
        generator_check(ProcessKind.SQUARED_OU, (TestFunction.identity(),), (), P11, DEP5,
                        n_mc=100)
    with pytest.raises(ParameterError, match="^n_mc must be at least 2"):
        generator_check(ProcessKind.SQUARED_OU, (TestFunction.identity(),), (1.0,), P11, DEP5,
                        n_mc=1)


@pytest.mark.parametrize("kind", [k for k in ProcessKind if k not in analytic.GENERATOR_KINDS],
                         ids=lambda k: k.cli_name)
def test_generator_check_refuses_a_kind_without_a_generator_before_drawing(kind, monkeypatch):
    from gammaproc import stats as st

    def refuse(*args, **kwargs):
        raise AssertionError("generator_check drew before refusing the kind")

    monkeypatch.setattr(st, "derive_stream", refuse)
    monkeypatch.setattr(st, "_lane_plan", refuse)
    with pytest.raises(UnsupportedKindError, match="^generator_apply does not support kind"):
        generator_check(kind, (TestFunction.identity(),), (1.0,), P11, DEP5, n_mc=100)


def test_generator_check_refuses_no_test_functions_before_drawing(monkeypatch):
    from gammaproc import stats as st

    def refuse(*args, **kwargs):
        raise AssertionError("generator_check drew with no test function")

    monkeypatch.setattr(st, "derive_stream", refuse)
    monkeypatch.setattr(st, "_lane_plan", refuse)
    for phis in ((), []):
        with pytest.raises(ParameterError, match="^phis must hold at least one"):
            generator_check(ProcessKind.SQUARED_OU, phis, (1.0,), P11, DEP5, n_mc=100)


@pytest.mark.parametrize("epsilon", [0.0, -1.0, float("nan"), float("inf")])
def test_generator_check_rejects_an_epsilon_that_is_not_finite_and_positive(epsilon):
    with pytest.raises(ParameterError, match="epsilon"):
        generator_check(ProcessKind.SQUARED_OU, (TestFunction.identity(),), (1.0,), P11, DEP5,
                        epsilon=epsilon, n_mc=100)


def test_generator_check_identity_quick():
    (rep,) = generator_check(ProcessKind.SQUARED_OU, (TestFunction.identity(),), (2.0,), P11,
                             DEP5, n_mc=200000, master_seed=13)
    assert rep.analytic == pytest.approx(-DEP5.lam * (2.0 - 1.0), rel=1e-12)
    assert rep.z < 4.0


def test_generator_check_blocks_do_not_follow_the_chf_block(monkeypatch):
    # the replicate block is part of generator_check's stream layout
    from gammaproc import stats as st

    assert st._GENERATOR_BLOCK == 1 << 17
    args = (ProcessKind.CONTINUOUSLY_THINNED, (TestFunction.identity(),), (2.0,), P11, DEP5)
    (before,) = generator_check(*args, n_mc=(1 << 17) + 5, master_seed=14)
    monkeypatch.setattr(st, "_CHF_BLOCK", 1 << 10)
    (after,) = generator_check(*args, n_mc=(1 << 17) + 5, master_seed=14)
    assert (after.fd_estimate, after.se) == (before.fd_estimate, before.se)


# -- tail table ---------------------------------------------------------------------


def test_tail_check_columns_match_manual_computation():
    from gammaproc import gamma_survival, levy_tail

    u = np.array([5.0, 10.0, 20.0])
    table = tail_check(P11, u)
    for i, v in enumerate(u):
        assert table.nl_survival[i] == pytest.approx(
            -np.log(gamma_survival(v, P11)) / v, rel=1e-12
        )
        assert table.nl_levy[i] == pytest.approx(
            -np.log(levy_tail(v, P11).exact) / v, rel=1e-12
        )
    assert table.tail_ok


def test_tail_check_validates_grid():
    with pytest.raises(ParameterError):
        tail_check(P11, np.array([2.0, 1.0]))
    with pytest.raises(ParameterError):
        tail_check(P11, np.array([-1.0, 1.0]))


# shapes over which the CLI's tail check was measured: every tenth to 200,
# every fifth unit to 2000, and two far shapes
_TAIL_ALPHAS = ([float(a) for a in np.round(np.arange(0.1, 200.05, 0.1), 10)]
                + [float(a) for a in np.arange(205.0, 2000.5, 5.0)] + [1e4, 1e5])


def _cli_tail_ok(alpha, beta):
    params = GammaParams(alpha, beta)
    return tail_check(params, _tail_grid(params)).tail_ok


def test_the_cli_tail_grid_is_the_fixed_grid_up_to_alpha_15():
    for a in np.round(np.arange(0.1, 15.05, 0.1), 10):
        assert _tail_grid(GammaParams(a, 3.0)).tobytes() == (
            np.array([5.0, 10.0, 15.0, 20.0, 25.0, 30.0]) / 3.0).tobytes()


@pytest.mark.parametrize("beta", [1.0, 3.0])
def test_tail_check_passes_the_exact_columns_at_every_alpha(beta):
    # the Levy column's -log(value)/(beta u) crosses 1 near beta u = alpha, so
    # |column - 1| is not monotone there; the ratios to the leading terms are
    assert [a for a in _TAIL_ALPHAS if not _cli_tail_ok(a, beta)] == []


@pytest.mark.parametrize("beta", [1.0, 3.0])
def test_tail_check_fails_a_survival_column_of_the_wrong_law(beta, monkeypatch):
    # Ga(2 alpha, beta) in place of Ga(alpha, beta); the grid reaches beta u = 2 alpha
    # but stops at 600, so the check tells the two laws apart for alpha below 550
    right = analytic.gamma_survival
    monkeypatch.setattr(analytic, "gamma_survival",
                        lambda u, p: right(u, GammaParams(2.0 * p.alpha, p.beta)))
    passed = [a for a in _TAIL_ALPHAS if _cli_tail_ok(a, beta)]
    assert passed == [a for a in _TAIL_ALPHAS if a >= 550.0]


@pytest.mark.parametrize("alpha", [0.5, 2.0, 10.0, 60.0, 500.0, 1e5])
def test_tail_check_fails_a_levy_column_of_the_wrong_law(alpha, monkeypatch):
    # the exact tail of Ga(alpha, beta / 2) against the approximant of Ga(alpha, beta)
    from gammaproc import stats as st

    def wrong(u, p):
        t = analytic.levy_tail(u, p)
        return t._replace(exact=analytic.levy_tail(u / 2.0, p).exact)

    monkeypatch.setattr(st, "levy_tail", wrong)
    assert not tail_check(GammaParams(alpha, 1.0), _tail_grid(GammaParams(alpha, 1.0))).tail_ok
