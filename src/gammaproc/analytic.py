"""Closed-form quantities: characteristic functions, the diffusion transition
density, generators, and tail integrals.

All complex powers are evaluated as ``exp(a * Log z)`` with the principal
logarithm.  Every factor that appears here either has real part exactly 1
(``1 - i*w/beta``) or never meets the branch cut while ``(s, t)`` ranges over
the reals, so the principal branch is the unique continuous continuation from
the value 1 at the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import integrate
from scipy.special import exp1, gammaincc, gammaln, logsumexp

from .core import (
    Dependence,
    GammaParams,
    NumericalError,
    ParameterError,
    ProcessKind,
    TimeGrid,
    UnsupportedKindError,
)

__all__ = [
    "gamma_chf",
    "innovation_chf",
    "pair_chf",
    "rm_joint_chf",
    "log_bessel_i",
    "cir_transition_density",
    "TestFunction",
    "generator_apply",
    "LevyTail",
    "levy_tail",
    "gamma_survival",
]


def _as_float_array(omega):
    w = np.asarray(omega, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ParameterError("frequencies must be finite")
    return w


def gamma_chf(omega, params: GammaParams):
    """Characteristic function of Ga(alpha, beta): (1 - i w / beta)^(-alpha)."""
    w = _as_float_array(omega)
    out = np.exp(-params.alpha * np.log(1.0 - 1j * w / params.beta))
    return complex(out) if np.ndim(omega) == 0 else out


def innovation_chf(omega, params: GammaParams, rho_step):
    """Characteristic function of the AR(1) innovation at per-step rho.

    Equals gamma_chf(w)/gamma_chf(rho*w) = ((beta - i w)/(beta - i rho w))^(-alpha).
    """
    rho = float(rho_step)
    if not (0.0 < rho < 1.0):
        raise ParameterError(f"rho_step must lie strictly in (0, 1), got {rho_step!r}")
    w = _as_float_array(omega)
    b = params.beta
    out = np.exp(
        -params.alpha * (np.log(1.0 - 1j * w / b) - np.log(1.0 - 1j * rho * w / b))
    )
    return complex(out) if np.ndim(omega) == 0 else out


def pair_chf(kind: ProcessKind, s, t, params: GammaParams, dep: Dependence):
    """Joint chf E exp(i s X_0 + i t X_1) at unit lag for the given kind.

    The five kinds with closed forms are supported; the continuously-thinned
    process has no closed pair chf (its bivariate law is not the thinned one:
    only marginals and covariance agree) and raises UnsupportedKindError.
    """
    s = float(s)
    t = float(t)
    a, b, rho = params.alpha, params.beta, dep.rho
    if kind is ProcessKind.AR1:
        log_val = (
            np.log(1.0 - 1j * (s + rho * t) / b)
            + np.log(1.0 - 1j * t / b)
            - np.log(1.0 - 1j * rho * t / b)
        )
        return complex(np.exp(-a * log_val))
    if kind is ProcessKind.THINNED:
        log_val = (
            (1.0 - rho) * np.log(1.0 - 1j * s / b)
            + rho * np.log(1.0 - 1j * (s + t) / b)
            + (1.0 - rho) * np.log(1.0 - 1j * t / b)
        )
        return complex(np.exp(-a * log_val))
    if kind is ProcessKind.RANDOM_MEASURE:
        # Deliberately routed through the tent partition of the two-point grid
        # so the identity with the thinned closed form is a cross-check of two
        # independent code paths, not a tautology.
        grid = TimeGrid(np.array([0.0, 1.0]))
        return rm_joint_chf(np.array([s, t]), grid, params, dep)
    if kind is ProcessKind.CHANGE_POINT:
        same = np.exp(-a * np.log(1.0 - 1j * (s + t) / b))
        indep = np.exp(
            -a * (np.log(1.0 - 1j * s / b) + np.log(1.0 - 1j * t / b))
        )
        return complex(rho * same + (1.0 - rho) * indep)
    if kind is ProcessKind.SQUARED_OU:
        z = 1.0 - 1j * (s + t) / b - s * t * (1.0 - rho) / b**2
        return complex(np.exp(-a * np.log(z)))
    if kind is ProcessKind.CONTINUOUSLY_THINNED:
        raise UnsupportedKindError(
            "the continuously-thinned process has no closed-form pair chf; "
            "compare empirically instead"
        )
    raise UnsupportedKindError(f"no pair chf for kind {kind!r}")


def rm_joint_chf(omegas, grid: TimeGrid, params: GammaParams, dep: Dependence):
    """n-point chf of the random-measure process from its tent partition.

    E exp(i sum_k w_k X_{t_k}) = prod_{i<=j} (1 - i S_ij / beta)^(-alpha m_ij)
    with S_ij = w_i + ... + w_j, because the cell variables are independent
    Ga(alpha m_ij, beta) and X_{t_k} sums the cells whose index interval
    contains k.
    """
    from .processes import tent_partition

    w = _as_float_array(omegas)
    if w.shape != (grid.n,):
        raise ParameterError(
            f"omegas must have one entry per grid time ({grid.n}), got shape {w.shape}"
        )
    part = tent_partition(grid, dep)
    csum = np.concatenate(([0.0], np.cumsum(w)))
    total = 0.0 + 0.0j
    for i in range(grid.n):
        s_ij = csum[i + 1 :] - csum[i]  # S_{i,j} for j = i..n-1
        total += np.sum(part.masses[i, i:] * np.log(1.0 - 1j * s_ij / params.beta))
    return complex(np.exp(-params.alpha * total))


# -- modified Bessel function of the first kind, log scale --------------------


def _log_bessel_series(q, x, terms):
    k = np.arange(terms, dtype=float)
    with np.errstate(divide="ignore"):
        logs = (q + 2.0 * k) * math.log(x / 2.0) - gammaln(k + 1.0) - gammaln(q + k + 1.0)
    return float(logsumexp(logs))

def _log_bessel_asymptotic(q, x):
    # I_q(x) ~ e^x / sqrt(2 pi x) * sum_k (-1)^k a_k(q) / x^k with
    # a_k = prod_{j<=k} (4q^2 - (2j-1)^2) / (k! 8^k).  The series is asymptotic:
    # sum to the smallest term; give up (return None) if it cannot reach ~1e-12.
    mu = 4.0 * q * q
    term = 1.0
    total = 1.0
    smallest = 1.0
    for k in range(1, 60):
        term *= -(mu - (2.0 * k - 1.0) ** 2) / (8.0 * k * x)
        if abs(term) >= smallest:
            break
        smallest = abs(term)
        total += term
        if smallest < 1e-17:
            break
    if smallest > 1e-12 or total <= 0.0:
        return None
    return x + math.log(total) - 0.5 * math.log(2.0 * math.pi * x)


def log_bessel_i(q, x):
    """log I_q(x) for q >= -1, x >= 0, without overflow for x up to ~700.

    Power series in log space below x = 30 (all terms are positive, so the
    log-sum-exp is stable for any argument); the large-argument asymptotic
    expansion above, falling back to the (always convergent) series whenever
    the asymptotic series cannot reach tolerance for the given order.
    """
    q = float(q)
    x = float(x)
    if q < -1.0 or not math.isfinite(q):
        raise ParameterError(f"order q must be finite and >= -1, got {q!r}")
    if x < 0.0 or not math.isfinite(x):
        raise ParameterError(f"argument x must be finite and >= 0, got {x!r}")
    if x == 0.0:
        if q == 0.0:
            return 0.0
        return -math.inf if q > 0.0 else math.inf
    if x <= 30.0:
        return _log_bessel_series(q, x, 140)
    val = _log_bessel_asymptotic(q, x)
    if val is not None:
        return val
    n_terms = int(x / 2.0 + 12.0 * math.sqrt(x) + abs(q) + 80.0)
    return _log_bessel_series(q, x, n_terms)


def cir_transition_density(y, x, params: GammaParams, dep: Dependence, dt):
    """Transition density f(y | x) over a gap dt for the stationary gamma diffusion.

    With rho_d = rho**dt, c = beta / (1 - rho_d), u = c x rho_d, v = c y:

        f(y | x) = c exp(-u - v) (v/u)^((alpha-1)/2) I_{alpha-1}(2 sqrt(u v)).

    Satisfies detailed balance against Ga(alpha, beta) and reduces to the
    stationary density as dt -> infinity (u -> 0).
    """
    y = float(y)
    x = float(x)
    if y < 0.0 or x < 0.0 or not (math.isfinite(x) and math.isfinite(y)):
        raise ParameterError("states must be finite and >= 0")
    dt = float(dt)
    if not (dt > 0.0) or not math.isfinite(dt):
        raise ParameterError(f"dt must be finite and > 0, got {dt!r}")
    a = params.alpha
    rho_d = dep.rho**dt
    c = params.beta / (1.0 - rho_d)
    u = c * x * rho_d
    v = c * y
    if u == 0.0:
        # limit of a vanishing noncentrality: plain Ga(alpha, c)
        if v == 0.0:
            if a > 1.0:
                return 0.0
            return c if a == 1.0 else math.inf
        log_f = a * math.log(c) + (a - 1.0) * math.log(y) - v - gammaln(a)
        return math.exp(log_f)
    if v == 0.0:
        if a > 1.0:
            return 0.0
        return c * math.exp(-u) if a == 1.0 else math.inf
    log_f = (
        math.log(c)
        - u
        - v
        + 0.5 * (a - 1.0) * (math.log(v) - math.log(u))
        + log_bessel_i(a - 1.0, 2.0 * math.sqrt(u * v))
    )
    return math.exp(log_f)


# -- generators ----------------------------------------------------------------


@dataclass(frozen=True)
class TestFunction:
    """Test functions for generator checks: identity, square, or exp(theta x).

    ``remainder_up(x, u)`` is f(x+u) - f(x) - u f'(x) and ``remainder_down``
    is f(x-u) - f(x) + u f'(x); they are provided in cancellation-free form
    because the generator quadratures integrate them against u^{-1} weights.
    """

    __test__ = False  # not a test case despite the name

    name: str
    theta: float = 0.0

    @classmethod
    def identity(cls):
        return cls("identity")

    @classmethod
    def square(cls):
        return cls("square")

    @classmethod
    def exponential(cls, theta):
        theta = float(theta)
        if theta > 0.0 or not math.isfinite(theta):
            raise ParameterError(
                f"exponential test functions require theta <= 0, got {theta!r}"
            )
        return cls("exponential", theta)

    def phi(self, x):
        if self.name == "identity":
            return np.asarray(x, dtype=float) + 0.0
        if self.name == "square":
            return np.square(np.asarray(x, dtype=float))
        return np.exp(self.theta * np.asarray(x, dtype=float))

    def dphi(self, x):
        if self.name == "identity":
            return np.ones_like(np.asarray(x, dtype=float))
        if self.name == "square":
            return 2.0 * np.asarray(x, dtype=float)
        return self.theta * np.exp(self.theta * np.asarray(x, dtype=float))

    def d2phi(self, x):
        if self.name == "identity":
            return np.zeros_like(np.asarray(x, dtype=float))
        if self.name == "square":
            return 2.0 * np.ones_like(np.asarray(x, dtype=float))
        return self.theta**2 * np.exp(self.theta * np.asarray(x, dtype=float))

    def remainder_up(self, x, u):
        if self.name == "identity":
            return 0.0
        if self.name == "square":
            return u * u
        return math.exp(self.theta * x) * (math.expm1(self.theta * u) - self.theta * u)

    def remainder_down(self, x, u):
        if self.name == "identity":
            return 0.0
        if self.name == "square":
            return u * u
        return math.exp(self.theta * x) * (math.expm1(-self.theta * u) + self.theta * u)


def _quad(f, lo, hi, what):
    val, err, info, *rest = integrate.quad(
        f, lo, hi, epsabs=1e-11, epsrel=1e-10, limit=200, full_output=1
    )
    if rest:
        raise NumericalError(
            f"quadrature for {what} did not converge: {rest[0]} "
            f"(estimate {val!r}, error {err!r})"
        )
    return val


def generator_apply(kind: ProcessKind, f: TestFunction, x, params: GammaParams, dep: Dependence):
    """Infinitesimal generator applied to a test function at state x.

    SquaredOU (diffusion):  -lam (x - alpha/beta) f'(x) + (lam/beta) x f''(x).

    ContinuouslyThinned (jump process):

        int_0^inf [f(x+u) - f(x)] alpha lam u^{-1} e^{-beta u} du
      + int_0^x   [f(x-u) - f(x)] alpha lam u^{-1} (1 - u/x)^{alpha-1} du.

    Both integrands are O(1) in value but 0/0 at u = 0; the linear part is
    integrated in closed form (the u * f'(x) term against either weight) and
    only the O(u) remainder is handed to adaptive quadrature.
    """
    x = float(x)
    if x < 0.0 or not math.isfinite(x):
        raise ParameterError(f"state x must be finite and >= 0, got {x!r}")
    a, b, lam = params.alpha, params.beta, dep.lam
    if kind is ProcessKind.SQUARED_OU:
        return float(
            -lam * (x - a / b) * f.dphi(x) + (lam / b) * x * f.d2phi(x)
        )
    if kind is ProcessKind.CONTINUOUSLY_THINNED:
        fp = float(f.dphi(x))
        up = a * lam * fp / b
        if f.name != "identity":
            up += a * lam * _quad(
                lambda u: f.remainder_up(x, u) / u * math.exp(-b * u),
                0.0,
                np.inf,
                "the upward-jump integral",
            )
        down = 0.0
        if x > 0.0:
            down = -lam * x * fp
            if f.name != "identity":
                down += a * lam * _quad(
                    lambda u: f.remainder_down(x, u) / u * (1.0 - u / x) ** (a - 1.0),
                    0.0,
                    x,
                    "the downward-jump integral",
                )
        return float(up + down)
    raise UnsupportedKindError(
        f"generator_apply supports the SquaredOU and ContinuouslyThinned kinds, not {kind!r}"
    )


# -- tails ---------------------------------------------------------------------


class LevyTail(NamedTuple):
    exact: float
    approximant: float


def levy_tail(u, params: GammaParams):
    """Upper Levy tail nu((u, inf)) of Ga(alpha, beta), exact and approximate.

    The Levy measure is alpha s^{-1} e^{-beta s} ds, so the exact tail is
    alpha * E1(beta u); the closed approximant alpha/(beta u) e^{-beta u} is
    the first term of the asymptotic expansion of E1.
    """
    u = float(u)
    if not (u > 0.0) or not math.isfinite(u):
        raise ParameterError(f"threshold u must be finite and > 0, got {u!r}")
    a, b = params.alpha, params.beta
    return LevyTail(
        exact=float(a * exp1(b * u)),
        approximant=float(a / (b * u) * math.exp(-b * u)),
    )


def gamma_survival(u, params: GammaParams):
    """P(X > u) for X ~ Ga(alpha, beta) (regularized upper incomplete gamma)."""
    u = float(u)
    if u < 0.0 or not math.isfinite(u):
        raise ParameterError(f"threshold u must be finite and >= 0, got {u!r}")
    return float(gammaincc(params.alpha, params.beta * u))
