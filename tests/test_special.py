"""The in-house incomplete gamma functions and E1 against mpmath at 40 digits,
with scipy as a second, installed oracle on whole samples."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy import special

from gammaproc import GammaParams, NumericalError, derive_stream
from gammaproc._special import exp1, gammainc_sorted, gammaincc
from gammaproc.cli import _tail_grid

mp.mp.dps = 40
NORMAL_MIN = 2.0**-1022
SHAPES = [1e-3, 0.01, 0.5, 2.0, 37.0, 1e3, 1e4, 1e5]


def _q_ref(a, x):
    return mp.gammainc(mp.mpf(a), mp.mpf(x), mp.inf, regularized=True)


def _p_ref(a, x):
    # 1 - Q at 40 digits: mpmath's lower series does not converge near x = a at a = 1e5
    return 1.0 if x == math.inf else float(1 - _q_ref(a, x))


def _p_bound(a):
    return 1e-12 if a <= 1e3 else 1e-10


def _q_bound(a):
    return 1e-13 if a <= 100.0 else 1e-11


def _draws(a, seed):
    return np.sort(derive_stream(seed, 0).gen.gamma(a, 1.0, size=100000))


@pytest.mark.parametrize("size", [1000, 100000])
@pytest.mark.parametrize("a", SHAPES)
def test_sorted_p_matches_scipy_on_gamma_draws(a, size):
    x = _draws(a, 31)[::100000 // size]
    p = gammainc_sorted(a, x)
    assert np.all((p >= 0.0) & (p <= 1.0))
    assert np.max(np.abs(p - special.gammainc(a, x))) <= _p_bound(a)


@pytest.mark.parametrize("a", SHAPES)
def test_sorted_p_matches_mpmath_on_gamma_draws(a):
    x = _draws(a, 32)
    p = gammainc_sorted(a, x)
    # every exact anchor of the first block's end and a spread of the rest
    rng = np.random.default_rng(7)
    idx = np.unique(np.concatenate([rng.choice(x.size, 60, replace=False),
                                    [0, 2046, 2047, 2048, 2049, x.size - 1]]))
    err = max(abs(p[i] - _p_ref(a, x[i])) for i in idx)
    assert err <= _p_bound(a), (a, err)


@pytest.mark.parametrize("a", SHAPES)
def test_sorted_p_at_edge_points(a):
    # zeros, subnormals, the smallest normal, values around x = a and a + 1,
    # which switch between the series, the fraction and Temme's expansion
    x = np.sort(np.array([0.0, 0.0, 5e-324, 1e-310, NORMAL_MIN, 1e-300, 1e-8, 1.0999999, 1.1,
                          a * (1.0 - 1e-12), a, a * (1.0 + 1e-12), 0.75 * a, 1.25 * a,
                          a + 1.0, a + 1.0 + 1e-9, 2.0 * a + 50.0, math.inf]))
    p = gammainc_sorted(a, x)
    for xi, pi in zip(x, p):
        assert abs(pi - _p_ref(a, xi)) <= _p_bound(a), (a, xi)


def _q_points(a):
    # up to x = 1000, where Q is near the smallest normal and its exponent near -700
    xs = [5e-324, 1e-300, 1e-20, 1e-3, 0.5, 1.0999999, 1.1, 2.0, 5.0, 30.0, 200.0, 600.0,
          700.0, 750.0, 800.0, 850.0, 900.0, 950.0, 1000.0,
          0.75 * a, 0.7499 * a, 1.25 * a, 1.2501 * a, a + 1.0, a + 1.0 - 1e-9]
    xs += [a * f for f in (0.01, 0.5, 0.9, 0.99, 1.0, 1.01, 1.1, 2.0, 3.0, 5.0)]
    return [x for x in xs if x > 0.0]


@pytest.mark.parametrize("a", [1e-3, 0.01, 0.3, 0.999, 1.0, 1.5, 2.0, 9.99, 10.0, 37.0, 100.0,
                               101.0, 999.0, 1e3, 1e4, 1e5])
def test_q_relative_error_wherever_q_is_normal(a):
    for x in _q_points(a):
        ref = _q_ref(a, x)
        q = gammaincc(a, x)
        if ref >= NORMAL_MIN:
            assert abs(q - ref) <= _q_bound(a) * ref, (a, x, q, float(ref))
        else:
            assert 0.0 <= q < 1e-300


def test_q_relative_error_where_its_exponent_is_large():
    # at Q near 1e-300 the exponent a log x - x - log Gamma(a) is near -700, so
    # rounding it to a double alone costs up to 5.7e-14 (1.4e-13 at a = 36.648,
    # x = 731.863 when it was rounded term by term)
    rng = np.random.default_rng(9)
    cases = [(36.647998325086924, 731.8629617908974)]
    cases += [(a, x) for a in np.exp(rng.uniform(math.log(1e-3), math.log(100.0), 40))
              for x in rng.uniform(200.0, 1100.0, 15)]
    for a, x in cases:
        ref = _q_ref(a, x)
        if ref >= NORMAL_MIN:
            assert abs(gammaincc(a, x) - ref) <= 1e-13 * ref, (a, x)


def test_q_and_e1_on_the_cli_tail_grids():
    # every tenth shape of the tail check's measured range, and its far shapes
    shapes = [float(a) for a in np.round(np.arange(0.1, 200.05, 1.0), 10)]
    shapes += [float(a) for a in np.arange(205.0, 2000.5, 45.0)] + [1e4, 1e5]
    for a in shapes:
        for beta in (1.0, 3.0):
            params = GammaParams(a, beta)
            for u in _tail_grid(params):
                z = beta * u
                q_ref, e1_ref = _q_ref(a, z), mp.e1(mp.mpf(z))
                assert abs(gammaincc(a, z) - q_ref) <= _q_bound(a) * q_ref, (a, beta, u)
                assert abs(exp1(z) - e1_ref) <= 1e-13 * e1_ref, (a, beta, u)


def test_e1_relative_error_wherever_it_is_normal():
    zs = [5e-324, 1e-300, 1e-20, 1e-3, 0.5, 0.999999, 1.0, 1.000001, 2.0, 10.0, 100.0, 700.0]
    zs += list(np.exp(np.random.default_rng(3).uniform(-50.0, 6.6, 200)))
    for z in zs:
        ref = mp.e1(mp.mpf(z))
        if ref >= NORMAL_MIN:
            assert abs(exp1(z) - ref) <= 1e-13 * ref, z
    assert exp1(750.0) == 0.0
    assert exp1(math.inf) == 0.0


def test_the_ends_of_the_domain():
    for a in (1e-8, 2.0, 1e12):
        assert gammaincc(a, 0.0) == 1.0
        assert gammaincc(a, math.inf) == 0.0
    with pytest.raises(NumericalError):
        exp1(0.0)


def test_every_valid_input_gives_a_value_in_range_or_raises():
    rng = np.random.default_rng(11)
    shapes = np.exp(rng.uniform(math.log(1e-8), math.log(1e12), 300))
    for a in shapes:
        xs = [a * math.exp(rng.normal(0.0, 0.05)), a * math.exp(rng.uniform(-30.0, 5.0)),
              math.exp(rng.uniform(-745.0, 700.0))]
        for x in xs:
            try:
                q = gammaincc(a, x)
            except NumericalError:
                continue
            assert 0.0 <= q <= 1.0, (a, x, q)
        x = np.sort(rng.gamma(a, 1.0, size=3000))
        p = gammainc_sorted(a, x)
        assert np.all((p >= 0.0) & (p <= 1.0)), a
    for z in np.exp(rng.uniform(-745.0, 7.0, 500)):
        assert math.isfinite(exp1(z)) and exp1(z) >= 0.0, z
