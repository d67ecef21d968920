"""The regularized incomplete gamma functions and the exponential integral E1,
in numpy and ``math`` alone.

``gammaincc(a, x)`` is ``Q(a, x) = Gamma(a, x) / Gamma(a)``, ``exp1(z)`` is
``E1(z) = int_z^inf e^-t / t dt``, and ``gammainc_sorted(a, x)`` is
``P(a, x) = 1 - Q(a, x)`` on an ascending array.  The methods are the textbook
ones (DiDonato and Morris 1986, ACM TOMS 12; Temme 1979; Numerical Recipes
6.2-6.3):

* the power series of ``P`` for ``x < a + 1``;
* the Legendre continued fraction of ``Q`` for ``x >= a + 1``;
* for ``a < 1`` and ``x < 1.1``, the Taylor series of ``P(a, x) / x^a``,
  with ``Q`` formed without the cancellation of ``1 - P``, and the continued
  fraction from ``x = 1.1`` on, so that ``Q`` keeps its relative accuracy;
* for ``a >= 1000`` and ``|x - a| <= a/4``, Temme's uniform expansion to
  four terms in ``1/a``, where the series and the fraction would take
  ``O(sqrt(a))`` terms.

The factor ``x^a e^-x / Gamma(a)`` is formed in logs; from ``a = 10`` on as
``exp(-(x - a) + a log(x/a))`` times the Stirling factor, so its rounding
error grows with ``|x - a|`` and not with ``a log x``.

Every function returns a value in ``[0, 1]`` (a finite value for ``E1``) or
raises ``NumericalError``; none returns NaN.
"""

from __future__ import annotations

import math

import numpy as np

from .core import NumericalError

_EPS = 2.0**-53
_TINY = 1e-300
_NORMAL_MIN = 2.0**-1022
_MAX_TERMS = 10_000
_EULER = 0.5772156649015329
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

# Temme's expansion takes over at this shape, within a/4 of x = a.
_TEMME_MIN = 1000.0

# Taylor coefficients of c_0(eta) = 1/(lambda - 1) - 1/eta, from the exact
# reversion of eta^2/2 = lambda - 1 - log(lambda) (Temme 1979):
# -1/3, 1/12, -2/135, 1/864, 1/2835, -139/777600, ...
_C0 = (
    -0.3333333333333333, 0.08333333333333333, -0.014814814814814815,
    0.0011574074074074073, 0.0003527336860670194, -0.0001787551440329218,
    3.919263178522438e-05, -2.185448510679992e-06, -1.85406221071516e-06,
    8.296711340953087e-07, -1.7665952736826078e-07, 6.707853543401498e-09,
    1.0261809784240309e-08, -4.382036018453353e-09, 9.14769958223679e-10,
    -2.5514193994946248e-11, -5.830772132550426e-11, 2.4361948020667415e-11,
    -5.0276692801141755e-12, 1.1004392031956135e-13, 3.371763262400985e-13,
    -1.392388722418162e-13,
)
# g_1..g_3 of Stirling's series Gamma(a) ~ sqrt(2 pi / a) (a/e)^a sum_k g_k a^-k
_STIRLING_G = (1.0 / 12.0, 1.0 / 288.0, -139.0 / 51840.0)
# the exponent's series log(Gamma(a)) - Stirling's leading terms,
# sum_k B_2k / (2k (2k - 1) a^(2k - 1)); 8 terms reach 3e-17 at a = 10
_STIRLING_LOG = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0,
                 -691.0 / 360360.0, 1.0 / 156.0, -3617.0 / 122400.0)
# 1/Gamma(1 + a) = 1 + sum_k RG[k - 1] a^k (Abramowitz and Stegun 6.1.34)
_RECIP_GAMMA = (
    0.5772156649015329, -0.6558780715202539, -0.04200263503409524,
    0.16653861138229148, -0.04219773455554433, -0.009621971527876973,
    0.0072189432466631, -0.0011651675918590652, -0.00021524167411495098,
    0.0001280502823881162, -2.013485478078824e-05, -1.2504934821426706e-06,
    1.133027231981696e-06, -2.056338416977607e-07, 6.116095104481416e-09,
    5.002007644469223e-09, -1.18127457048702e-09, 1.0434267116911005e-10,
    7.782263439905071e-12, -3.696805618642206e-12, 5.100370287454476e-13,
    -2.0583260535665066e-14, -5.348122539423018e-15, 1.2267786282382608e-15,
    -1.1812593016974588e-16, 1.1866922547516004e-18, 1.4123806553180319e-18,
)
# 6-point Gauss-Legendre rule on [-1, 1], the nonnegative half
_GL_NODES = (0.2386191860831969, 0.6612093864662645, 0.9324695142031519)
_GL_WEIGHTS = (0.46791393457269104, 0.3607615730481387, 0.17132449237917027)
# gammainc_sorted evaluates P exactly at least once per this many samples
_BLOCK = 2048
# and integrates this many gaps at a time, so that the temporaries stay in
# cache and are reused from the heap instead of mapped afresh on every call
_CHUNK = 8192


def _temme_rows():
    """Taylor coefficients of c_0..c_3, by DLMF 8.12.9:
    c_k = c_{k-1}'(eta)/eta + (-1)^k g_k (1/eta + c_0)."""
    rows = [_C0]
    for k, g in enumerate(_STIRLING_G, start=1):
        prev = rows[-1]
        rows.append(tuple((n + 2) * prev[n + 2] + (-1) ** k * g * _C0[n]
                          for n in range(len(prev) - 2)))
    return tuple(rows)


_TEMME = _temme_rows()


def _horner(coefs, z):
    s = 0.0
    for c in reversed(coefs):
        s = s * z + c
    return s


def _log_stirling(a):
    """``log(a^a e^-a / Gamma(a))`` for ``a >= 10``, by Stirling's series."""
    return 0.5 * math.log(a) - _HALF_LOG_2PI - _horner(_STIRLING_LOG, 1.0 / (a * a)) / a


def _log_d(a, x):
    """``log(x^a e^-x / Gamma(a))`` for ``x > 0``, elementwise."""
    if a < 10.0:
        return a * np.log(x) - x - math.lgamma(a)
    t = x - a
    # within a factor 1.5 of a, x - a is exact and log1p keeps log(x/a) exact too
    near = np.abs(t) <= 0.5 * a
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.where(near, np.log1p(t / a), np.log(x / a))
    return a * log_ratio - t + _log_stirling(a)


def _prefactor(a, x):
    """``x^a e^-x / Gamma(a)`` for a float ``x > 0``.  The exponent's terms
    are summed exactly, as ``hi + lo``, so that ``x - a`` and the sum are not
    rounded before ``exp``."""
    if a < 10.0:
        terms = [a * math.log(x), -x, -math.lgamma(a)]
    else:
        t = x - a
        # where x/a is below the smallest normal the factor underflows to 0
        log_ratio = math.log1p(t / a) if abs(t) <= 0.5 * a else math.log(max(x / a, _NORMAL_MIN))
        terms = [a * log_ratio, -x, a, _log_stirling(a)]
    hi = math.fsum(terms)
    return math.exp(hi) * (1.0 + math.fsum([*terms, -hi]))


def _series(a, x):
    """P(a, x) by its power series; x < a + 1."""
    total = term = 1.0
    n = a
    for _ in range(_MAX_TERMS):
        n += 1.0
        term *= x / n
        total += term
        if term <= _EPS * total:
            return _prefactor(a, x) / a * total
    raise NumericalError(f"the incomplete gamma series did not converge at a = {a!r}, x = {x!r}")


def _continued_fraction(a, x):
    """Q(a, x) by the Legendre continued fraction (modified Lentz); x >= a + 1
    or, for a < 1, x >= 1.1."""
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_TERMS):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) >= _TINY else _TINY)
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= _EPS:
            return _prefactor(a, x) * h
    raise NumericalError(
        f"the incomplete gamma continued fraction did not converge at a = {a!r}, x = {x!r}")


def _small_shape(a, x):
    """(P, Q) for a < 1 and x < 1.1 from P(a, x) = x^a / Gamma(1 + a) (1 + a J),
    J = sum_{n>=1} (-x)^n / (n! (a + n)) (DiDonato and Morris 1986)."""
    j = 0.0
    term = 1.0
    for n in range(1, _MAX_TERMS):
        term *= -x / n
        add = term / (a + n)
        j += add
        if abs(add) <= _EPS * abs(j):
            break
    # log Gamma(1 + a) = -log1p(1/Gamma(1 + a) - 1), to full relative precision at small a
    u = a * math.log(x) + math.log1p(a * _horner(_RECIP_GAMMA, a))
    xa = math.exp(u)
    return xa * (1.0 + a * j), -math.expm1(u) - xa * a * j


def _temme(a, x):
    """(P, Q) by Temme's uniform expansion (DLMF 8.12.3-8.12.8); |x - a| <= a/4."""
    y = (x - a) / a
    phi = max(y - math.log1p(y), 0.0)  # lambda - 1 - log(lambda) = eta^2 / 2
    eta = math.copysign(math.sqrt(2.0 * phi), y)
    s = 0.0
    for row in reversed(_TEMME):
        s = s / a + _horner(row, eta)
    r = math.exp(-a * phi) / math.sqrt(2.0 * math.pi * a) * s
    v = eta * math.sqrt(0.5 * a)
    return 0.5 * math.erfc(-v) - r, 0.5 * math.erfc(v) + r


def _pq(a, x):
    """(P(a, x), Q(a, x)) for a > 0 and x >= 0, each in [0, 1]."""
    if x == 0.0:
        return 0.0, 1.0
    if x == math.inf:
        return 1.0, 0.0
    if a >= _TEMME_MIN and abs(x - a) <= 0.25 * a:
        p, q = _temme(a, x)
    elif a < 1.0:
        if x < 1.1:
            p, q = _small_shape(a, x)
        else:
            q = _continued_fraction(a, x)
            p = 1.0 - q
    elif x < a + 1.0:
        p = _series(a, x)
        q = 1.0 - p
    else:
        q = _continued_fraction(a, x)
        p = 1.0 - q
    return min(max(p, 0.0), 1.0), min(max(q, 0.0), 1.0)


def gammaincc(a, x):
    """Q(a, x), the regularized upper incomplete gamma function, for a > 0, x >= 0."""
    return _pq(float(a), float(x))[1]


def gammainc_sorted(a, x):
    """P(a, x) at every entry of ``x``, an ascending array of values in [0, inf].

    P is evaluated exactly at the first sample, once per 2048 samples, and at
    every sample whose gap from its predecessor is too wide to integrate or
    not a number (``inf - inf``, between two infinities); in between, each
    gap's mass of the ``Ga(a, 1)`` density is added to the last exact value.
    A gap ``(x0, x0 + w)`` is integrated when
    ``w (max(4, |a - 1|) + x0) <= x0``: the log density then moves by at most
    1 across it and the singularity at 0 lies 4 widths away.  A gap that
    starts at a subnormal value, where the rules below would lose their
    precision, is not integrated.
    """
    a = float(a)
    x = np.asarray(x, dtype=float)
    n = x.size
    left = x[:-1]
    with np.errstate(invalid="ignore"):
        w = np.diff(x)
    anchor = np.ones(n, dtype=bool)
    # the negated test fails a NaN gap, so that gap is anchored too
    anchor[1:] = (left < _NORMAL_MIN) | ~(w * (max(4.0, abs(a - 1.0)) + left) <= left)
    anchor[::_BLOCK] = True
    mass = np.zeros(n)
    with np.errstate(all="ignore"):  # the gaps that do not fit are dropped
        for s in range(0, n - 1, _CHUNK):
            mass[s + 1:s + 1 + _CHUNK] = _gap_mass(a, left[s:s + _CHUNK], w[s:s + _CHUNK])
    mass[anchor] = 0.0
    run = np.cumsum(mass)
    at = np.flatnonzero(anchor)
    # P(a, 0) = 0: the zeros, a prefix of the sample, need no evaluation
    exact = np.zeros(at.size)
    first = np.searchsorted(x[at], 0.0, side="right")
    exact[first:] = [_pq(a, v)[0] for v in x[at[first:]].tolist()]
    p = np.repeat(exact - run[at], np.diff(np.append(at, n)))
    p += run
    return np.clip(p, 0.0, 1.0, out=p)


def _gap_mass(a, x0, w):
    """``P(a, x0 + w) - P(a, x0)`` for gaps that fit ``gammainc_sorted``'s rule.

    With ``g`` the log density, ``m`` the midpoint, ``h = w/2``, ``q = h/m``
    and ``G_k = g^(k)(m) h^k``, the scale ``u = max(|G_1|, q, q sqrt|a - 1|)``
    bounds ``|G_k| / (k - 1)!`` by ``u^k``.  Where ``u <= 1e-4`` the mass is
    ``w f(m) (1 + (G_1^2 + G_2)/6)``, the exact integral of the Taylor
    expansion of ``exp(g)`` to ``s^2``, whose remainder is below ``u^4 / 5``;
    elsewhere it is a 6-point Gauss-Legendre rule, each node's density taken
    relative to the midpoint's.
    """
    am1 = a - 1.0
    h = 0.5 * w
    m = x0 + h
    q = h / m
    g1sq = am1 * q
    g1sq -= h  # G_1; G_2 = -am1 q^2
    g1sq *= g1sq
    corr = q * q
    corr *= am1
    wide = np.flatnonzero((g1sq > 1e-8) | (q > 1e-4 / max(1.0, math.sqrt(abs(am1)))))
    corr -= g1sq
    corr *= -1.0 / 3.0
    corr += 2.0  # w f(m) = 2 q D(m), D = m^a e^-m / Gamma(a)
    mass = np.exp(_log_d(a, m))
    d_m = mass[wide]
    mass *= q
    mass *= corr
    hw, mw, s = h[wide], m[wide], 0.0
    for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
        d = hw * node
        r = d / mw
        s = s + weight * (np.exp(am1 * np.log1p(r) - d) + np.exp(am1 * np.log1p(-r) + d))
    mass[wide] = d_m * (hw / mw) * s
    return mass


def exp1(z):
    """E1(z) for z > 0; 0.0 where it underflows.  Raises ``NumericalError`` at
    z = 0, where E1 is infinite."""
    z = float(z)
    if not z > 0.0:
        raise NumericalError(f"E1 is not finite at z = {z!r}")
    if z == math.inf:
        return 0.0
    if z <= 1.0:
        # -gamma - log z + sum_{k>=1} (-1)^(k+1) z^k / (k k!)
        s = 0.0
        term = -1.0
        for k in range(1, _MAX_TERMS):
            term *= -z / k
            add = term / k
            s += add
            if abs(add) <= _EPS * abs(s):
                return s - _EULER - math.log(z)
    else:
        # e^-z / (z + 1 - 1/(z + 3 - 4/(z + 5 - ...))) by modified Lentz
        b = z + 1.0
        c = 1.0 / _TINY
        d = 1.0 / b
        h = d
        for i in range(1, _MAX_TERMS):
            an = -float(i * i)
            b += 2.0
            d = 1.0 / (an * d + b)
            c = b + an / c
            delta = c * d
            h *= delta
            if abs(delta - 1.0) <= _EPS:
                return h * math.exp(-z)
    raise NumericalError(f"E1 did not converge at z = {z!r}")
