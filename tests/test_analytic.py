import math

import mpmath as mp
import numpy as np
import pytest

from gammaproc import (
    Dependence,
    GammaParams,
    NumericalError,
    PAIR_CHF_KINDS,
    ParameterError,
    ProcessKind,
    TestFunction,
    TimeGrid,
    UnsupportedKindError,
    cir_transition_density,
    gamma_chf,
    gamma_survival,
    generator_apply,
    innovation_chf,
    levy_tail,
    log_bessel_i,
    make_uniform_grid,
    pair_chf,
    rm_joint_chf,
)

P11 = GammaParams(1.0, 1.0)
DEP5 = Dependence.from_rho(0.5)


def test_gamma_chf_against_direct_formula():
    p = GammaParams(2.5, 2.0)
    for w in (-3.0, -0.5, 0.0, 0.4, 2.0):
        expected = (1.0 - 1j * w / p.beta) ** (-p.alpha)
        assert gamma_chf(w, p) == pytest.approx(expected, rel=1e-14)
    assert gamma_chf(0.0, p) == 1.0 + 0.0j


def test_gamma_chf_vectorized():
    p = GammaParams(0.7, 1.3)
    w = np.array([-1.0, 0.0, 2.0])
    out = gamma_chf(w, p)
    assert out.shape == (3,)
    assert out[1] == 1.0 + 0.0j


def test_innovation_chf_ratio_form():
    # chf of the AR(1) innovation: [ (1 - i w/beta) / (1 - i rho w / beta) ]^{-alpha}
    p = GammaParams(2.0, 1.0)
    rho = 0.3
    for w in (0.25, 1.0, -2.0):
        expected = ((1.0 - 1j * w / p.beta) / (1.0 - 1j * rho * w / p.beta)) ** (-p.alpha)
        assert innovation_chf(w, p, rho) == pytest.approx(expected, rel=1e-13)
    # stationarity identity: chf_X(w) = chf_X(rho w) * chf_innov(w)
    for w in (0.5, 2.0):
        lhs = gamma_chf(w, p)
        rhs = gamma_chf(rho * w, p) * innovation_chf(w, p, rho)
        assert lhs == pytest.approx(rhs, rel=1e-13)


def test_pair_chf_margins_reduce_to_gamma_chf():
    kinds = [ProcessKind.AR1, ProcessKind.THINNED, ProcessKind.RANDOM_MEASURE,
             ProcessKind.CHANGE_POINT, ProcessKind.SQUARED_OU]
    for kind in kinds:
        for w in (0.5, -1.5):
            assert pair_chf(kind, w, 0.0, P11, DEP5) == pytest.approx(gamma_chf(w, P11), abs=1e-12)
            assert pair_chf(kind, 0.0, w, P11, DEP5) == pytest.approx(gamma_chf(w, P11), abs=1e-12)


def test_pair_chf_changepoint_worked_value():
    # mixture form at s=t=1, alpha=beta=1, rho=0.5:
    # 0.5 * (1-2i)^{-1} + 0.5 * (1-i)^{-2} = 0.1 + 0.45i
    val = pair_chf(ProcessKind.CHANGE_POINT, 1.0, 1.0, P11, DEP5)
    assert val == pytest.approx(0.1 + 0.45j, abs=1e-15)


def test_pair_chf_thinned_equals_random_measure():
    rng = np.random.default_rng(2026)
    args = rng.uniform(-4.0, 4.0, size=(200, 2))
    for s, t in args:
        a = pair_chf(ProcessKind.THINNED, s, t, P11, DEP5)
        b = pair_chf(ProcessKind.RANDOM_MEASURE, s, t, P11, DEP5)
        assert abs(a - b) < 1e-14


def test_pair_chf_squared_ou_quadratic_form():
    p = GammaParams(1.5, 2.0)
    dep = Dependence.from_rho(0.7)
    for s, t in ((0.5, 1.0), (-1.0, 2.0)):
        rho = dep.rho
        expected = (1.0 - 1j * (s + t) / p.beta - s * t * (1.0 - rho) / p.beta**2) ** (-p.alpha)
        assert pair_chf(ProcessKind.SQUARED_OU, s, t, p, dep) == pytest.approx(expected, rel=1e-13)


def test_pair_chf_cthin_unsupported():
    with pytest.raises(UnsupportedKindError):
        pair_chf(ProcessKind.CONTINUOUSLY_THINNED, 1.0, 1.0, P11, DEP5)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("kind", PAIR_CHF_KINDS, ids=lambda k: k.cli_name)
def test_pair_chf_refuses_a_frequency_that_is_not_finite(kind, bad):
    # ar1, thinned, changepoint and cir returned nan+nanj here
    for s, t in ((bad, 1.0), (1.0, bad)):
        with pytest.raises(ParameterError, match="finite"):
            pair_chf(kind, s, t, P11, DEP5)


def test_rm_joint_chf_singleton_is_gamma_chf():
    g = TimeGrid(np.array([0.0]))
    for w in (0.5, -2.0):
        val = rm_joint_chf(np.array([w]), g, P11, DEP5)
        assert val == pytest.approx(gamma_chf(w, P11), rel=1e-14)


def test_rm_joint_chf_factorizes_at_large_separation():
    # tent overlap decays like rho^gap, so far-apart points are nearly independent
    g = TimeGrid(np.array([0.0, 80.0]))
    val = rm_joint_chf(np.array([1.0, 1.0]), g, P11, DEP5)
    indep = gamma_chf(1.0, P11) ** 2
    assert val == pytest.approx(indep, abs=1e-12)


@pytest.mark.parametrize("q", [-1.0, -0.5, 0.0, 0.5, 1.0, 2.5, 4.0])
@pytest.mark.parametrize("x", [1e-3, 0.1, 1.0, 10.0, 40.0, 200.0, 700.0])
def test_log_bessel_i_against_mpmath(q, x):
    mp.mp.dps = 40
    ref = float(mp.log(mp.besseli(q, x)))
    got = log_bessel_i(q, x)
    assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("q", [37.0, 150.0, 1000.0])
@pytest.mark.parametrize("x", [1e-3, 31.0, 40.0])
def test_log_bessel_i_far_above_the_argument_against_mpmath(q, x):
    # at q = 150, x = 1e-3 and at q = 1000 the scaled I_q(x) e^-x underflows
    # to 0, so only a log-space sum, such as the power series, can answer
    test_log_bessel_i_against_mpmath(q, x)


# either side of the switch from the power series to Hankel's expansion at
# x = max(50, q^2/4), and far past it
_HANKEL_CASES = [(q, f * max(50.0, q * q / 4.0))
                 for q in (-1.0, 0.5, 4.0, 37.0, 150.0, 1000.0) for f in (0.99, 1.01)]
_HANKEL_CASES += [(q, x) for q in (-1.0, 0.0, 2.5, 80.0, 1000.0) for x in (1e6, 1e9, 1e12)]


@pytest.mark.parametrize("q,x", _HANKEL_CASES)
def test_log_bessel_i_around_the_hankel_switch_and_at_large_arguments_against_mpmath(q, x):
    mp.mp.dps = 50
    ref = mp.log(mp.besseli(q, x))
    assert abs(log_bessel_i(q, x) - ref) <= 1e-13 * max(abs(ref), 1)


@pytest.mark.parametrize("q,x", [(1.0, 1e10), (1.0, 1e15), (1000.0, 1e12)])
def test_log_bessel_i_is_finite_at_large_arguments(q, x):
    # a power series of x/2 terms raised MemoryError at x = 1e15
    got = log_bessel_i(q, x)
    # I_q(x) = e^x / sqrt(2 pi x) (1 - (4 q^2 - 1) / (8 x) + O(x^-2))
    lead = x - 0.5 * math.log(2.0 * math.pi * x) + math.log1p(-(4.0 * q * q - 1.0) / (8.0 * x))
    assert math.isfinite(got) and got == pytest.approx(lead, rel=1e-15)


def test_log_bessel_i_at_extreme_arguments():
    assert log_bessel_i(0.0, 5e-324) == 0.0  # where x/2 rounds to 0
    q = 1e300
    assert log_bessel_i(q, 1.0) == pytest.approx(q * math.log(0.5) - math.lgamma(q + 1.0),
                                                 rel=1e-15)
    assert log_bessel_i(1e154, 1.7e308) == pytest.approx(1.7e308, rel=1e-15)
    # the series needs about 13 sqrt(k0) terms around its largest, k0 near
    # 1e10 and 3.5e307 here
    for q, x in ((3e5, 0.999 * 3e5**2 / 4.0), (1.7e308, 1.7e308)):
        with pytest.raises(NumericalError, match="needs more than"):
            log_bessel_i(q, x)


def test_cir_transition_density_from_zero_state():
    # from x = 0 (u = 0) the transition is Ga(alpha, c) with c = beta / (1 - rho**dt):
    # c^alpha y^(alpha-1) e^(-c y) / Gamma(alpha), and at y = 0 inf, c or 0 as
    # alpha is below, at or above 1
    dep, dt = Dependence.from_rho(0.5), 0.7
    mp.mp.dps = 30
    c = mp.mpf(2.0) / (1 - mp.mpf(dep.rho) ** mp.mpf(dt))
    for alpha, at_zero in ((0.3, math.inf), (1.0, float(c)), (1.5, 0.0), (7.0, 0.0)):
        p = GammaParams(alpha, 2.0)
        assert cir_transition_density(0.0, 0.0, p, dep, dt) == pytest.approx(at_zero, rel=1e-14)
        for y in (1e-3, 0.8, 5.0):
            expected = c**alpha * mp.mpf(y) ** (alpha - 1) * mp.exp(-c * y) / mp.gamma(alpha)
            assert cir_transition_density(y, 0.0, p, dep, dt) == pytest.approx(float(expected),
                                                                               rel=1e-12)


@pytest.mark.parametrize("alpha", [0.3, 1.0, 1.5])
def test_cir_transition_density_at_zero_target_state(alpha):
    # v = 0 from x > 0: inf below alpha = 1, c e^(-u) at it, 0 above
    p, dep, dt, x = GammaParams(alpha, 2.0), Dependence.from_rho(0.5), 0.7, 1.3
    mp.mp.dps = 30
    rho_d = mp.mpf(dep.rho) ** mp.mpf(dt)
    c = mp.mpf(p.beta) / (1 - rho_d)
    expected = {0.3: math.inf, 1.0: float(c * mp.exp(-c * x * rho_d)), 1.5: 0.0}[alpha]
    assert cir_transition_density(0.0, x, p, dep, dt) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("args,name", [
    ((-1.0, 1.0, 1.0), "y"), ((float("nan"), 1.0, 1.0), "y"),
    ((1.0, -1e-300, 1.0), "x"), ((1.0, float("inf"), 1.0), "x"),
    ((1.0, 1.0, 0.0), "dt"), ((1.0, 1.0, float("nan")), "dt"),
])
def test_cir_transition_density_names_the_refused_argument(args, name):
    y, x, dt = args
    with pytest.raises(ParameterError, match=rf"^{name} must be finite and >"):
        cir_transition_density(y, x, P11, DEP5, dt)


@pytest.mark.parametrize("q", [-1.0, -0.5, 0.0, 0.5, 2.0])
def test_log_bessel_i_at_zero_argument_against_mpmath(q):
    # I_q(0): 1 at q = 0, 0 for q > 0 and at q = -1 (I_{-1} = I_1), inf for -1 < q < 0
    assert log_bessel_i(q, 0.0) == float(mp.log(mp.besseli(q, 0)))


@pytest.mark.parametrize("x", [-1.0, float("nan"), float("inf")])
def test_log_bessel_i_refuses_an_argument_that_is_not_finite_and_nonnegative(x):
    with pytest.raises(ParameterError, match="^x must be finite and >= 0"):
        log_bessel_i(1.0, x)


def test_cir_transition_density_is_zero_from_a_far_state():
    # u = 1e300: I_1 at 2 sqrt(u v) = 2.8e150 raised ValueError
    assert cir_transition_density(1.0, 1e300, GammaParams(2.0, 1.0), Dependence(0.5), 1.0) == 0.0


@pytest.mark.parametrize("y,x,dt", [
    (1.0, 1e308, 0.01),  # u = c x rho_d overflows
    (1e10, 1e300, 1.0),  # u and v are finite, u v overflows
])
def test_cir_transition_density_is_zero_where_u_or_u_v_overflows(y, x, dt):
    # both raised "x must be finite and >= 0, got inf", about an x never passed
    assert cir_transition_density(y, x, GammaParams(2.0, 1.0), Dependence(0.5), dt) == 0.0


@pytest.mark.parametrize("alpha", [0.3, 2.0, 300.0])
@pytest.mark.parametrize("x", [1e10, 1e16, 1e20, 1e100])
def test_cir_transition_density_near_the_mean_from_a_far_state_against_mpmath(alpha, x):
    # -u - v + log I(2 sqrt(u v)) cancels near the mean: summed as written it
    # read 2.1e-9 for 3.8e-11 at x = 1e16 and 2.3e222 at 1e18 (y = x rho_d + 2).
    # The reference takes the same rounded u and v: at large x one ulp of u moves
    # the mean by many standard deviations.
    dep = Dependence(0.5)
    rho_d = dep.rho
    c = 1.0 / (1.0 - rho_d)
    y = x * rho_d + 0.5 * math.sqrt(x)
    with mp.workdps(60):
        u, v, a = mp.mpf(c * x * rho_d), mp.mpf(c * y), mp.mpf(alpha)
        want = c * mp.exp(-u - v) * (v / u) ** ((a - 1) / 2) * mp.besseli(a - 1, 2 * mp.sqrt(u * v))
    got = cir_transition_density(y, x, GammaParams(alpha, 1.0), dep, 1.0)
    assert got == pytest.approx(float(want), rel=1e-9)


def test_cir_transition_density_refuses_a_gap_correlation_that_rounds_to_one():
    # rho**1e-300 is 1.0, so c = beta / (1 - rho_d) divided by zero
    with pytest.raises(NumericalError, match="rounds to 1"):
        cir_transition_density(1.0, 1.0, GammaParams(2.0, 1.0), Dependence(0.5), 1e-300)


def test_cir_transition_density_poisson_mixture_identity():
    # density equals sum_k Poisson(k; c x rho_d) * Gamma(y; alpha + k, c)
    p = GammaParams(1.2, 1.0)
    dep = Dependence.from_rho(0.6)
    dt, x, y = 0.5, 1.7, 0.9
    rho_d = dep.gap_corr(dt)
    c = p.beta / (1.0 - rho_d)
    lam_mix = c * x * rho_d
    mp.mp.dps = 30
    total = mp.mpf(0)
    for k in range(200):
        w = mp.e ** (-lam_mix) * mp.mpf(lam_mix) ** k / mp.factorial(k)
        dens = mp.mpf(c) ** (p.alpha + k) * mp.mpf(y) ** (p.alpha + k - 1) \
            * mp.e ** (-c * y) / mp.gamma(p.alpha + k)
        total += w * dens
    got = cir_transition_density(y, x, p, dep, dt)
    assert got == pytest.approx(float(total), rel=1e-11)


def test_test_function_exponential_requires_nonpositive_theta():
    with pytest.raises(ParameterError):
        TestFunction.exponential(0.5)


@pytest.mark.parametrize("name,theta,match", [
    ("cube", 0.0, "^unknown test function 'cube'"),
    ("Identity", 0.0, "^unknown test function 'Identity'"),
    ("exponential", 2.0, "^exponential test functions require theta <= 0, got 2.0"),
    ("exponential", math.nan, "theta <= 0, got nan"),
    ("exponential", -math.inf, "theta <= 0, got -inf"),
])
def test_test_function_checks_its_fields_when_built_directly(name, theta, match):
    # TestFunction("cube") acted as the constant 1, and TestFunction("exponential", 2.0)
    # skipped the rule that TestFunction.exponential enforces
    with pytest.raises(ParameterError, match=match):
        TestFunction(name, theta)


def test_test_function_built_directly_equals_its_constructor():
    assert TestFunction("exponential", -0.5) == TestFunction.exponential(-0.5)
    assert TestFunction("square") == TestFunction.square()
    assert TestFunction("identity") == TestFunction.identity()


def test_exponential_test_function_and_its_squared_ou_generator_against_mpmath():
    mp.mp.dps = 30
    theta = -0.7
    f = TestFunction.exponential(theta)
    p = GammaParams(1.5, 2.0)
    lam = mp.mpf(DEP5.lam)
    for x in (0.0, 0.4, 3.0):
        e = mp.exp(theta * mp.mpf(x))
        assert f.phi(x) == pytest.approx(float(e), rel=1e-15)
        assert f.dphi(x) == pytest.approx(float(theta * e), rel=1e-15)
        assert f.d2phi(x) == pytest.approx(float(theta**2 * e), rel=1e-15)
        # theta e^(theta x) (-lam (x - alpha/beta) + (lam/beta) x theta)
        expected = theta * e * (-lam * (x - mp.mpf(p.alpha) / p.beta) + lam / p.beta * x * theta)
        got = generator_apply(ProcessKind.SQUARED_OU, f, x, p, DEP5)
        assert got == pytest.approx(float(expected), rel=1e-13)


@pytest.mark.parametrize("x", [-1.0, float("nan"), float("inf")])
def test_generator_apply_refuses_a_state_that_is_not_finite_and_nonnegative(x):
    with pytest.raises(ParameterError, match="^x must be finite and >= 0"):
        generator_apply(ProcessKind.SQUARED_OU, TestFunction.identity(), x, P11, DEP5)


def test_generator_identity_closed_form_both_kinds():
    # A id(x) = -lam (x - alpha/beta) for both generators
    p = GammaParams(2.0, 3.0)
    dep = Dependence.from_rho(0.4)
    f = TestFunction.identity()
    for x in (0.1, 1.0, 5.0):
        expected = -dep.lam * (x - p.mean)
        got_ou = generator_apply(ProcessKind.SQUARED_OU, f, x, p, dep)
        got_ct = generator_apply(ProcessKind.CONTINUOUSLY_THINNED, f, x, p, dep)
        assert got_ou == pytest.approx(expected, rel=1e-12)
        assert got_ct == pytest.approx(expected, rel=1e-9)


def test_generator_square_closed_forms():
    # squared OU: A x^2 = -2 lam x (x - alpha/beta) + 2 (lam/beta) x
    #   at alpha=beta=1, x=2: -2 lam 2 (2-1) + 2 lam 2 = 0
    f = TestFunction.square()
    assert generator_apply(ProcessKind.SQUARED_OU, f, 2.0, P11, DEP5) == pytest.approx(0.0, abs=1e-14)
    # continuously thinned at the same point: lam (alpha + 1)/beta^2 + 2 lam x alpha/beta
    #   - lam x^2 (2 - 1/(alpha+1)) ... = -lam for alpha=beta=1, x=2
    got = generator_apply(ProcessKind.CONTINUOUSLY_THINNED, f, 2.0, P11, DEP5)
    assert got == pytest.approx(-DEP5.lam, rel=1e-10)


CTHIN_FUNCTIONS = (TestFunction.identity(), TestFunction.square(), TestFunction.exponential(0.0),
                   TestFunction.exponential(-0.8), TestFunction.exponential(-3.0))


def _cthin_generator_mp(f, x, alpha, beta, lam):
    """Both jump integrals of the cthin generator by mpmath quadrature.

    The downward integral is taken in w = (1 - u/x)^alpha, where
    alpha u^{-1} (1 - u/x)^{alpha-1} du = dw / (1 - w^{1/alpha}) and
    f(x - u) = f(x w^{1/alpha}); in u, plain quadrature misses the
    (1 - u/x)^{alpha-1} endpoint singularity by up to 11% at alpha = 0.05.
    An exponential with z = -theta x > 1 lives below w = z^{-alpha}, which
    is made a breakpoint.
    """
    x, a, b = mp.mpf(x), mp.mpf(alpha), mp.mpf(beta)
    if f.name == "identity":
        g = lambda y: y
    elif f.name == "square":
        g = lambda y: y * y
    else:
        g = lambda y: mp.exp(f.theta * y)
    up = a * mp.quad(lambda u: (g(x + u) - g(x)) / u * mp.exp(-b * u), [0, 1 / b, mp.inf])
    down = 0
    if x > 0:
        z = -f.theta * x
        cuts = [0, (1 / mp.mpf(z)) ** a, 1] if z > 1 else [0, 1]
        down = mp.quad(lambda w: (g(x * w ** (1 / a)) - g(x)) / (1 - w ** (1 / a)), cuts)
    return float(lam * (up + down))


def _assert_matches_oracle(f, x, p, dep):
    ref = _cthin_generator_mp(f, x, p.alpha, p.beta, dep.lam)
    got = generator_apply(ProcessKind.CONTINUOUSLY_THINNED, f, x, p, dep)
    # exp(0 x) is constant, so its reference is exactly 0
    assert got == pytest.approx(ref, rel=1e-10, abs=0.0 if ref else 1e-15), (f, x, p)


@pytest.mark.parametrize("alpha", [1e-3, 0.01, 0.05, 0.5, 2.0, 7.3])
def test_cthin_generator_closed_forms_against_mpmath(alpha):
    mp.mp.dps = 30
    dep = Dependence(0.7)
    for beta in (0.3, 1.0, 3.0):
        p = GammaParams(alpha, beta)
        for x in (0.0, 0.01, 0.5, 2.0, 10.0):
            for f in CTHIN_FUNCTIONS:
                _assert_matches_oracle(f, x, p, dep)


@pytest.mark.parametrize("x", [300.0, 1000.0])
def test_cthin_generator_exponential_at_large_z_against_mpmath(x):
    # z = -theta x = 900 and 3000: e^{-z} underflows, the series it multiplies
    # does not; the larger z is summed by its asymptotic expansion
    mp.mp.dps = 30
    for alpha in (1e-3, 0.5, 2.0, 7.3):
        _assert_matches_oracle(TestFunction.exponential(-3.0), x,
                               GammaParams(alpha, 1.0), Dependence(0.7))


def test_cthin_generator_exponential_at_huge_z_is_its_leading_asymptotics():
    # at z = 1e9 the next term past a lam Gamma(a) z^{-a} (1 + a/z) is below 1e-16 of it
    dep = Dependence(0.7)
    for alpha in (1e-3, 2.0, 7.3):
        got = generator_apply(ProcessKind.CONTINUOUSLY_THINNED, TestFunction.exponential(-1.0),
                              1e9, GammaParams(alpha, 1.0), dep)
        expected = dep.lam * math.gamma(alpha + 1.0) * 1e9 ** -alpha * (1.0 + alpha / 1e9)
        assert got == pytest.approx(expected, rel=1e-12)


def test_cthin_generator_series_past_its_term_budget_is_a_numerical_error(monkeypatch):
    from gammaproc import analytic

    monkeypatch.setattr(analytic, "_SERIES_TERMS", 100)
    with pytest.raises(NumericalError):
        generator_apply(ProcessKind.CONTINUOUSLY_THINNED, TestFunction.exponential(-3.0),
                        300.0, GammaParams(2.0, 1.0), DEP5)


@pytest.mark.parametrize("alpha", [1e-3, 0.05, 2.0, 7.3])
def test_cthin_generator_is_stationary_under_the_gamma_law(alpha):
    # E[A f(X)] = 0 for X ~ Ga(alpha, beta); in s = (beta x)^alpha the law is
    # e^{-beta x} ds / Gamma(alpha + 1), smooth at s = 0 for every shape
    mp.mp.dps = 20
    dep = Dependence(0.7)
    hi = alpha + 10.0 * math.sqrt(alpha) + 10.0
    cuts = [0.0, alpha**alpha, hi**alpha, (hi + 100.0) ** alpha]
    for beta in (0.3, 3.0):
        p = GammaParams(alpha, beta)
        for f in CTHIN_FUNCTIONS[1:]:
            def weighted(s):
                x = float(s ** (1.0 / alpha)) / beta
                return generator_apply(ProcessKind.CONTINUOUSLY_THINNED, f, x, p, dep) \
                    * math.exp(-beta * x)
            mean = mp.quad(weighted, cuts)
            scale = mp.quad(lambda s: abs(weighted(s)), cuts)
            assert abs(mean) <= 1e-12 * scale, (f, p)


def test_generator_unsupported_kind():
    with pytest.raises(UnsupportedKindError):
        generator_apply(ProcessKind.AR1, TestFunction.identity(), 1.0, P11, DEP5)


def test_levy_tail_and_survival_against_mpmath():
    mp.mp.dps = 40
    p = GammaParams(1.5, 2.0)
    for u in (0.5, 2.0, 10.0):
        lt = levy_tail(u, p)
        ref_exact = float(p.alpha * mp.e1(p.beta * u))
        ref_surv = float(mp.gammainc(p.alpha, p.beta * u, mp.inf, regularized=True))
        assert lt.exact == pytest.approx(ref_exact, rel=1e-13)
        assert lt.approximant == pytest.approx(
            p.alpha / (p.beta * u) * math.exp(-p.beta * u), rel=1e-13
        )
        assert gamma_survival(u, p) == pytest.approx(ref_surv, rel=1e-13)


def test_tail_argument_validation():
    assert gamma_survival(0.0, P11) == 1.0
    for u in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ParameterError, match="^u must be finite and >= 0"):
            gamma_survival(u, P11)
    for u in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ParameterError, match="^u must be finite and > 0"):
            levy_tail(u, P11)


@pytest.mark.parametrize("rho", [0.0, 1.0, -0.5, float("nan"), float("inf")])
def test_innovation_chf_refuses_a_rho_step_outside_the_open_unit_interval(rho):
    with pytest.raises(ParameterError, match=r"^rho_step must lie strictly in \(0, 1\)"):
        innovation_chf(1.0, P11, rho)
