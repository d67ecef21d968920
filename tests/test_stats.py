import numpy as np
import pytest

from gammaproc import (
    Dependence,
    GammaParams,
    ParameterError,
    ProcessKind,
    SamplePath,
    TestFunction,
    ar1_path,
    derive_stream,
    empirical_acf,
    empirical_chf,
    empirical_moments,
    generator_check,
    ks_statistic,
    make_uniform_grid,
    reversibility_check,
    tail_check,
    thinned_path,
    two_sample_chf,
)

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
    x = g.gamma(1.0, 1.0, size=st._CHF_BLOCK + 17).reshape(-1, 1)
    w = np.array([[1.0]])
    est = empirical_chf(x, w)
    direct = np.mean(np.exp(1j * x[:, 0]))
    assert est.estimate[0] == pytest.approx(direct, rel=1e-12)


def test_empirical_chf_validates_shapes():
    with pytest.raises(ParameterError):
        empirical_chf(np.zeros((10, 2)), np.array([[1.0, 2.0, 3.0]]))
    with pytest.raises(ParameterError):
        empirical_chf(np.zeros((1, 1)), np.array([[1.0]]))


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
    # transiently negative inputs (Euler excursions) sit at cdf 0, not NaN
    x = np.concatenate([derive_stream(7, 0).gen.gamma(1.0, 1.0, size=5000), [-1e-3]])
    rep = ks_statistic(x, P11)
    assert np.isfinite(rep.statistic)


def test_ks_statistic_needs_enough_data():
    with pytest.raises(ParameterError):
        ks_statistic(np.ones(10), P11)


# -- ACF ------------------------------------------------------------------------


def test_empirical_acf_tracks_geometric_decay():
    grid = make_uniform_grid(0.0, 1.0, 100000)
    path = ar1_path(derive_stream(8, 0), grid, P11, DEP5)
    rep = empirical_acf(path, DEP5, max_lag=3)
    assert np.array_equal(rep.target, np.array([0.5, 0.25, 0.125]))
    assert rep.max_z < 4.0


def test_empirical_acf_detects_wrong_dependence():
    grid = make_uniform_grid(0.0, 1.0, 100000)
    path = ar1_path(derive_stream(8, 0), grid, P11, DEP5)
    wrong = empirical_acf(path, Dependence.from_rho(0.9), max_lag=3)
    assert wrong.max_z > 10.0


def test_empirical_acf_default_batch_length():
    grid = make_uniform_grid(0.0, 0.5, 50000)
    path = ar1_path(derive_stream(9, 0), grid, P11, DEP5)
    rep = empirical_acf(path, DEP5, max_lag=2)
    assert rep.batch_len == int(np.ceil(50.0 / (DEP5.lam * 0.5)))


def test_empirical_acf_validates_length():
    grid = make_uniform_grid(0.0, 1.0, 30)
    path = ar1_path(derive_stream(0, 0), grid, P11, DEP5)
    with pytest.raises(ParameterError):
        empirical_acf(path, DEP5, max_lag=5)


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
    path = thinned_path(derive_stream(10, 0), grid, P11, DEP5)
    rep = reversibility_check(path, DEP5)
    assert rep.forward_violations > 0
    assert rep.backward_violations > 0


# -- generator check ----------------------------------------------------------------


def test_generator_check_validation():
    with pytest.raises(ParameterError):
        generator_check(ProcessKind.AR1, TestFunction.identity(), 1.0, P11, DEP5,
                        n_mc=100)
    for x0 in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ParameterError, match="x0"):
            generator_check(ProcessKind.SQUARED_OU, TestFunction.identity(), x0, P11,
                            DEP5, n_mc=100)


@pytest.mark.parametrize("epsilon", [0.0, -1.0, float("nan"), float("inf")])
def test_generator_check_rejects_an_epsilon_that_is_not_finite_and_positive(epsilon):
    with pytest.raises(ParameterError, match="epsilon"):
        generator_check(ProcessKind.SQUARED_OU, TestFunction.identity(), 1.0, P11, DEP5,
                        epsilon=epsilon, n_mc=100)


def test_generator_check_identity_quick():
    rep = generator_check(ProcessKind.SQUARED_OU, TestFunction.identity(), 2.0, P11,
                          DEP5, n_mc=200000, master_seed=13)
    assert rep.analytic == pytest.approx(-DEP5.lam * (2.0 - 1.0), rel=1e-12)
    assert rep.z < 4.0


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
