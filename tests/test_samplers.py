import numpy as np
import pytest

from gammaproc import (
    Dependence,
    GammaParams,
    ParameterError,
    ProcessKind,
    derive_stream,
    walker_sample,
)
from gammaproc.processes import _lane_step
from gammaproc.samplers import beta_draw, gamma_draw, poisson_draw


def test_gamma_draw_zero_shape_is_exact_zero():
    rng = derive_stream(0, 0)
    assert gamma_draw(rng, 0.0, 2.0) == 0.0
    vals = gamma_draw(rng, np.array([0.0, 1.0, 0.0]), 1.0)
    assert vals[0] == 0.0 and vals[2] == 0.0 and vals[1] > 0.0


def test_gamma_draw_moments():
    rng = derive_stream(42, 0)
    x = gamma_draw(rng, 2.5, 2.0, size=200000)
    assert abs(np.mean(x) - 1.25) < 4 * np.std(x) / np.sqrt(x.size)
    assert np.all(x >= 0.0)


def test_gamma_draw_rejects_bad_args():
    rng = derive_stream(0, 0)
    with pytest.raises(ParameterError):
        gamma_draw(rng, -1.0, 1.0)
    with pytest.raises(ParameterError):
        gamma_draw(rng, 1.0, 0.0)


def test_beta_draw_range_and_moments():
    rng = derive_stream(7, 0)
    a, b = 0.8, 1.6
    x = beta_draw(rng, a, b, size=200000)
    assert np.all((x >= 0.0) & (x <= 1.0))
    target = a / (a + b)
    assert abs(np.mean(x) - target) < 4 * np.std(x) / np.sqrt(x.size)


def test_poisson_draw_mean():
    rng = derive_stream(5, 0)
    k = poisson_draw(rng, 3.7, size=200000)
    assert abs(np.mean(k) - 3.7) < 4 * np.sqrt(3.7 / k.size)


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
    draws = _lane_step(ProcessKind.SQUARED_OU, derive_stream(3, 0).gen, np.full(n, x0),
                       params.alpha, params.beta, rho_d)
    target = x0 * rho_d + params.mean * (1.0 - rho_d)
    assert np.all(draws >= 0.0)
    assert abs(np.mean(draws) - target) < 4 * np.std(draws) / np.sqrt(n)
