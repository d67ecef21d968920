"""Closed-form quantities: characteristic functions, the diffusion transition
density, generators, and tail integrals.

All complex powers are evaluated as ``exp(a * Log z)`` with the principal
logarithm.  Every factor that appears here either has real part exactly 1
(``1 - i*w/beta``) or never meets the branch cut while ``(s, t)`` ranges over
the reals, so the principal branch is the unique continuous continuation from
the value 1 at the origin.

Every function here is written in numpy and ``math``: ``log_bessel_i`` sums
a power series or Hankel's expansion, the two tails take ``Q`` and ``E1``
from the in-house ``_special`` module, and the generators are closed forms,
with no quadrature.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._special import _log_stirling, exp1, gammaincc
from .core import (
    Dependence,
    GammaParams,
    NumericalError,
    ParameterError,
    ProcessKind,
    TimeGrid,
    UnsupportedKindError,
    _require_finite_nonnegative,
    _require_finite_positive,
    _require_open_unit,
)
from .processes import _cir_rate, tent_partition

__all__ = [
    "PAIR_CHF_KINDS",
    "GENERATOR_KINDS",
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
    rho = _require_open_unit("rho_step", rho_step)
    w = _as_float_array(omega)
    b = params.beta
    out = np.exp(
        -params.alpha * (np.log(1.0 - 1j * w / b) - np.log(1.0 - 1j * rho * w / b))
    )
    return complex(out) if np.ndim(omega) == 0 else out


# -- pair chfs: one formula per kind, each (s, t, params, dep) -> chf ------------


def _ar1_pair_chf(s, t, params, dep):
    a, b, rho = params.alpha, params.beta, dep.rho
    return np.exp(-a * (np.log(1.0 - 1j * (s + rho * t) / b) + np.log(1.0 - 1j * t / b)
                        - np.log(1.0 - 1j * rho * t / b)))


def _thinned_pair_chf(s, t, params, dep):
    a, b, rho = params.alpha, params.beta, dep.rho
    return np.exp(-a * ((1.0 - rho) * np.log(1.0 - 1j * s / b)
                        + rho * np.log(1.0 - 1j * (s + t) / b)
                        + (1.0 - rho) * np.log(1.0 - 1j * t / b)))


def _rm_pair_chf(s, t, params, dep):
    # Deliberately routed through the tent partition of the two-point grid so
    # the identity with the thinned closed form is a cross-check of two
    # independent code paths, not a tautology.
    return rm_joint_chf(np.array([s, t]), TimeGrid(np.array([0.0, 1.0])), params, dep)


def _changepoint_pair_chf(s, t, params, dep):
    a, b, rho = params.alpha, params.beta, dep.rho
    same = np.exp(-a * np.log(1.0 - 1j * (s + t) / b))
    indep = np.exp(-a * (np.log(1.0 - 1j * s / b) + np.log(1.0 - 1j * t / b)))
    return rho * same + (1.0 - rho) * indep


def _cir_pair_chf(s, t, params, dep):
    a, b, rho = params.alpha, params.beta, dep.rho
    return np.exp(-a * np.log(1.0 - 1j * (s + t) / b - s * t * (1.0 - rho) / b**2))


# The continuously-thinned process has no closed pair chf: its bivariate
# law is not the thinned one, only marginals and covariance agree.
_PAIR_CHFS = {ProcessKind.AR1: _ar1_pair_chf, ProcessKind.THINNED: _thinned_pair_chf,
              ProcessKind.RANDOM_MEASURE: _rm_pair_chf,
              ProcessKind.CHANGE_POINT: _changepoint_pair_chf, ProcessKind.SQUARED_OU: _cir_pair_chf}
# The kinds with a closed-form pair chf (``pair_chf``), from its table.
PAIR_CHF_KINDS = tuple(_PAIR_CHFS)


def _formula(table, operation, kind):
    """``kind``'s entry in ``table``; a kind without one is ``operation``'s UnsupportedKindError."""
    if kind not in table:
        raise UnsupportedKindError.of(operation, kind)
    return table[kind]


def pair_chf(kind: ProcessKind, s, t, params: GammaParams, dep: Dependence):
    """Joint chf E exp(i s X_0 + i t X_1) at unit lag for the given kind.

    The kinds of ``PAIR_CHF_KINDS`` (``_PAIR_CHFS``' keys) are supported;
    any other kind, such as the continuously-thinned process, raises
    UnsupportedKindError.  Non-finite frequencies are a ParameterError.
    """
    s, t = _as_float_array((float(s), float(t))).tolist()
    return complex(_formula(_PAIR_CHFS, "pair_chf", kind)(s, t, params, dep))


def rm_joint_chf(omegas, grid: TimeGrid, params: GammaParams, dep: Dependence):
    """n-point chf of the random-measure process from its tent partition.

    E exp(i sum_k w_k X_{t_k}) = prod_{i<=j} (1 - i S_ij / beta)^(-alpha m_ij)
    with S_ij = w_i + ... + w_j, because the cell variables are independent
    Ga(alpha m_ij, beta) and X_{t_k} sums the cells whose index interval
    contains k.
    """
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

# terms a log-space series may sum (at most about a second).  The Bessel
# series needs more only at orders above about 2.5e5; the downward-jump
# series of _thinning_series only when alpha > z/4 and z - alpha is above
# about 1e6
_SERIES_TERMS = 1 << 20

# log_bessel_i takes Hankel's expansion from x = max(_HANKEL_FROM, q^2/4) on.
# There the ratio of its consecutive terms, (4 q^2 - (2k - 1)^2) / (8 k x), is
# at most 2/k in size while (2k - 1)^2 < 4 q^2 and below k/(2x) after, so the
# terms fall below 1e-17 of the sum within about 30 terms, long before the
# expansion diverges, and the e^-x part it omits is e^-2x of the sum.
_HANKEL_FROM = 50.0


def _log_power_over_gamma(a, hx, log_hx):
    """log(hx^(a - 1) / Gamma(a)) for a > 0.  From a = 10 on it is formed as
    a (log(hx / a) + 1) - log(hx) plus Stirling's log(a^a e^-a / Gamma(a)),
    so that two terms of size a log(a) do not cancel."""
    if a < 10.0:
        return (a - 1.0) * log_hx - math.lgamma(a)
    r = hx / a
    log_r = math.log(r) if r >= sys.float_info.min else log_hx - math.log(a)
    return a * (log_r + 1.0) - log_hx + _log_stirling(a)


def _log_bessel_series(q, x):
    """log I_q(x) from the power series sum_k (x/2)^(q+2k) / (k! Gamma(q+k+1)), q > -1.

    The ratio of term k + 1 to term k, (x/2)^2 / ((k+1)(q+k+1)), falls with
    k, so the terms rise to a largest one, at k0, and then fall.  The sum
    starts there, in units of that term, and runs outward both ways until a
    term is below 1e-17 of the total: O(sqrt(k0)) terms.  More than
    ``_SERIES_TERMS`` of them is a NumericalError.
    """
    hx = 0.5 * x
    log_hx = math.log(x) - math.log(2.0)  # not log(hx): x/2 rounds at a subnormal x
    # the root of (k+1)(q+k+1) = hx^2 (to within 1 for q < 0), in a form
    # that neither overflows nor divides 0 by 0
    k0 = max(0, math.ceil(hx / (math.hypot(q / x, 1.0) + max(q, 0.0) / x) - 1.0))
    log_peak = _log_power_over_gamma(k0 + 1.0, hx, log_hx) + _log_power_over_gamma(q + k0 + 1.0,
                                                                                   hx, log_hx)
    total, n = 1.0, 0
    for step in (1, -1):
        term, k = 1.0, k0
        while term > 1e-17 * total and (step == 1 or k > 0) and n < _SERIES_TERMS:
            # each ratio as a product of two factors, neither of which overflows
            term *= (hx / (k + 1.0)) * (hx / (q + k + 1.0)) if step == 1 else (k / hx) * ((q + k) / hx)
            k += step
            total += term
            n += 1
    # the sum takes at least about 13 sqrt(k0) terms, so a k0 past
    # _SERIES_TERMS^2 (where q + k0 may overflow) needs too many as well
    if n == _SERIES_TERMS or k0 > _SERIES_TERMS**2:
        raise NumericalError(f"the Bessel series at q = {q!r}, x = {x!r} "
                             f"needs more than {_SERIES_TERMS} terms")
    return log_peak + math.log(total)


def _log_bessel_hankel(q, x):
    """log I_q(x) - x by Hankel's expansion (DLMF 10.40.1), for x >= max(_HANKEL_FROM, q^2/4):
    I_q(x) ~ e^x / sqrt(2 pi x) sum_k (-1)^k a_k(q) / x^k with
    a_k(q) / a_{k-1}(q) = (4 q^2 - (2k - 1)^2) / (8k)."""
    term = total = 1.0
    k = 0
    while abs(term) > 1e-17 * total:
        k += 1
        j = 2.0 * k - 1.0
        term *= (j - 2.0 * q) / (8.0 * k) * ((j + 2.0 * q) / x)
        total += term
    return math.log(total) - 0.5 * (math.log(2.0 * math.pi) + math.log(x))


def log_bessel_i(q, x):
    """log I_q(x) for q >= -1, x >= 0, without overflow at any finite x.

    The power series (DLMF 10.25.2, ``_log_bessel_series``) below
    x = max(50, q^2/4) and Hankel's large-argument expansion (DLMF 10.40.1,
    ``_log_bessel_hankel``) from there on, both in ``math`` alone.  Against
    mpmath at 50 digits the error is at most 1.2e-14 of
    ``max(|log I_q(x)|, 1)`` for orders -1 to 1000 and x from 1e-300 to 1e12
    (1500 random points).  Only an order far above 1000 (above about 2.5e5
    at x just below q^2/4) needs more than ``_SERIES_TERMS`` series terms,
    which is a NumericalError.
    """
    q = float(q)
    if q < -1.0 or not math.isfinite(q):
        raise ParameterError(f"order q must be finite and >= -1, got {q!r}")
    x = _require_finite_nonnegative("x", x)
    if x == 0.0:
        if q == 0.0:
            return 0.0
        # I_q(0) is 0 for q > 0 and for q = -1 (I_{-1} = I_1), infinite for -1 < q < 0
        return -math.inf if q > 0.0 or q == -1.0 else math.inf
    if x >= max(_HANKEL_FROM, 0.25 * q * q):
        return x + _log_bessel_hankel(q, x)
    return _log_bessel_series(1.0 if q == -1.0 else q, x)


def cir_transition_density(y, x, params: GammaParams, dep: Dependence, dt):
    """Transition density f(y | x) over a gap dt for the stationary gamma diffusion.

    With rho_d = rho**dt, c = beta / (1 - rho_d), u = c x rho_d, v = c y:

        f(y | x) = c exp(-u - v) (v/u)^((alpha-1)/2) I_{alpha-1}(2 sqrt(u v)).

    Satisfies detailed balance against Ga(alpha, beta) and reduces to the
    stationary density as dt -> infinity (u -> 0).  A gap correlation rho_d
    that rounds to 1 leaves no c, which is the sampler's NumericalError
    (``processes._cir_rate``).
    """
    y = _require_finite_nonnegative("y", y)
    x = _require_finite_nonnegative("x", x)
    dt = _require_finite_positive("dt", dt)
    a = params.alpha
    rho_d = dep.rho**dt
    c = _cir_rate(params.beta, rho_d)
    u = c * x * rho_d
    v = c * y
    if u == 0.0:
        # limit of a vanishing noncentrality: plain Ga(alpha, c)
        if v == 0.0:
            if a > 1.0:
                return 0.0
            return c if a == 1.0 else math.inf
        log_f = a * math.log(c) + (a - 1.0) * math.log(y) - v - math.lgamma(a)
        return math.exp(log_f)
    if v == 0.0:
        if a > 1.0:
            return 0.0
        return c * math.exp(-u) if a == 1.0 else math.inf
    if math.isinf(u) or math.isinf(v):
        # the density of v = c y peaks near 1 / sqrt(4 pi u), so here f is below
        # about c 1e-154
        return 0.0
    q, su, sv = a - 1.0, math.sqrt(u), math.sqrt(v)
    z = 2.0 * su * sv  # not 2 sqrt(u v), which overflows first
    log_f = math.log(c) + 0.5 * q * (math.log(v) - math.log(u))
    if z >= max(_HANKEL_FROM, 0.25 * q * q):
        # -u - v + z cancels where u is near v: it is -(su - sv)^2, with su - sv
        # taken from u - v, which is exact there
        d = (u - v) / (su + sv)
        log_f += _log_bessel_hankel(q, z) - d * d
    else:
        log_f += log_bessel_i(q, z) - u - v
    return math.exp(log_f)


# -- generators ----------------------------------------------------------------


@dataclass(frozen=True)
class TestFunction:
    """Test functions for generator checks: identity, square, or exp(theta x).

    The name must be one of the three, and an exponential's theta must be
    finite and <= 0; anything else is a ParameterError.
    """

    __test__ = False  # not a test case despite the name

    name: str
    theta: float = 0.0

    def __post_init__(self):
        if self.name not in ("identity", "square", "exponential"):
            raise ParameterError(f"unknown test function {self.name!r}; expected one of "
                                 "identity, square, exponential")
        theta = float(self.theta)
        if self.name == "exponential" and (theta > 0.0 or not math.isfinite(theta)):
            raise ParameterError(f"exponential test functions require theta <= 0, got {theta!r}")

    @classmethod
    def identity(cls):
        return cls("identity")

    @classmethod
    def square(cls):
        return cls("square")

    @classmethod
    def exponential(cls, theta):
        return cls("exponential", float(theta))

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


def _thinning_series(z, a):
    """e^{-z} sum_{k>=1} z^k / (k (a)_k) for z >= 0, (a)_k the rising factorial.

    Summed in log space with ``math.lgamma``, so that e^{-z} cannot underflow
    it, and stopped past the largest term once a term is below 1e-17 of the
    total.  Past z = 1000 with 4 a <= z, Watson's lemma on the integral
    int_0^1 (e^{-zw} - e^{-z}) w^{a-1} / (1 - w) dw gives Gamma(a) z^{-a}
    sum_n (a)_n z^{-n} instead, with a remainder below z e^{-z/14} of it.
    """
    if z == 0.0:
        return 0.0
    log_z = math.log(z)
    if z > 1000.0 and 4.0 * a <= z:
        term = total = 1.0
        n = 0
        while term > 1e-17 * total:
            term *= (a + n) / z
            total += term
            n += 1
        return math.exp(math.lgamma(a) - a * log_z) * total
    base = math.lgamma(a) - z
    total = 0.0
    for k in range(1, _SERIES_TERMS):
        term = math.exp(base + k * log_z - math.log(k) - math.lgamma(a + k))
        total += term
        # the next term is smaller once z k < (k + 1)(a + k)
        if z * k < (k + 1) * (a + k) and term <= 1e-17 * total:
            return total
    raise NumericalError(f"the downward-jump series at z = {z!r}, alpha = {a!r} "
                         f"needs more than {_SERIES_TERMS} terms")


def _cir_generator(f, x, a, b, lam):
    return float(-lam * (x - a / b) * f.dphi(x) + (lam / b) * x * f.d2phi(x))


def _cthin_generator(f, x, a, b, lam):
    if f.name == "identity":
        return a * lam / b - lam * x
    if f.name == "square":
        return (2.0 * a * lam * x / b + a * lam / b**2
                - 2.0 * lam * x * x + lam * x * x / (a + 1.0))
    z = -f.theta * x
    return a * lam * (-math.exp(-z) * math.log1p(-f.theta / b) + _thinning_series(z, a))


# The generators, one per kind, each (f, x, alpha, beta, lam) -> (L f)(x).
_GENERATORS = {ProcessKind.SQUARED_OU: _cir_generator,
               ProcessKind.CONTINUOUSLY_THINNED: _cthin_generator}
# The kinds with a closed-form generator (``generator_apply``), from its table.
GENERATOR_KINDS = tuple(_GENERATORS)


def generator_apply(kind: ProcessKind, f: TestFunction, x, params: GammaParams, dep: Dependence):
    """Infinitesimal generator applied to a test function at state x.

    The kinds of ``GENERATOR_KINDS`` (``_GENERATORS``' keys) are supported;
    any other kind raises UnsupportedKindError.

    SquaredOU (diffusion):  -lam (x - alpha/beta) f'(x) + (lam/beta) x f''(x).

    ContinuouslyThinned (jump process):

        int_0^inf [f(x+u) - f(x)] alpha lam u^{-1} e^{-beta u} du
      + int_0^x   [f(x-u) - f(x)] alpha lam u^{-1} (1 - u/x)^{alpha-1} du,

    in closed form for every test function.  With a = alpha, b = beta,
    u = x v in the downward integral, and B(k, a) = int_0^1 v^{k-1}
    (1-v)^{a-1} dv = (k-1)! / (a)_k:

        identity     a lam / b - lam x
        square       2 a lam x / b + a lam / b^2 - 2 lam x^2 + lam x^2 / (a+1)
        exp(theta x) a lam e^{-z} [-log1p(-theta/b) + sum_{k>=1} z^k / (k (a)_k)]

    where z = -theta x >= 0.  The upward exponential integral is Frullani's,
    int_0^inf (e^{theta u} - 1) e^{-b u} u^{-1} du = log(b / (b - theta)); the
    downward one expands e^{z v} - 1 in powers of z v and integrates each
    power against v^{-1} (1-v)^{a-1} as a Beta integral.
    """
    x = _require_finite_nonnegative("x", x)
    return _formula(_GENERATORS, "generator_apply", kind)(f, x, params.alpha, params.beta, dep.lam)


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
    u = _require_finite_positive("u", u)
    a, b = params.alpha, params.beta
    return LevyTail(
        exact=float(a * exp1(b * u)),
        approximant=float(a / (b * u) * math.exp(-b * u)),
    )


def gamma_survival(u, params: GammaParams):
    """P(X > u) for X ~ Ga(alpha, beta) (regularized upper incomplete gamma)."""
    u = _require_finite_nonnegative("u", u)
    return gammaincc(params.alpha, params.beta * u)
