"""Statistical verification: moment/ACF/KS checks, empirical chf comparisons,
generator finite differences, reversibility counts, and tail tables.

All pass/fail style quantities are reported as z-scores (deviation divided by
a Monte Carlo standard error) or as KS statistics with the asymptotic 1%
critical value 1.628/sqrt(n); callers decide thresholds (the suite convention
is 4 standard errors per comparison).

Estimators that need i.i.d. replicates consume ensembles column-wise: one
observation per path.  Long-path estimators (the ACF) use batch means to get
standard errors that survive serial dependence.

Every function here is written in numpy and ``math``: ``ks_statistic``
scores the sample with the in-house incomplete gamma function of
``_special``, ``tail_check`` reaches ``Q`` and ``E1`` through the
``analytic`` tails, and both analytic generators of ``generator_check`` are
closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._special import gammainc_sorted
from .analytic import TestFunction, _as_float_array, generator_apply, levy_tail, pair_chf
from .core import (
    Dependence,
    Ensemble,
    GammaParams,
    NumericalError,
    ParameterError,
    ProcessKind,
    SamplePath,
    _require_finite_nonnegative,
    _require_finite_positive,
    _require_integer,
    _require_positive_int,
    derive_stream,
)
from .processes import _lane_plan

__all__ = [
    "MomentReport",
    "empirical_moments",
    "AcfReport",
    "empirical_acf",
    "KsReport",
    "ks_statistic",
    "ChfEstimate",
    "empirical_chf",
    "ChfComparison",
    "chf_gof",
    "two_sample_chf",
    "ReversibilityReport",
    "reversibility_check",
    "GeneratorCheck",
    "generator_check",
    "TailTable",
    "tail_check",
    "default_omega_axis",
    "default_omega_pairs",
    "default_omega_triples",
]


# -- moments ------------------------------------------------------------------


@dataclass(frozen=True)
class MomentReport:
    n: int
    mean: float
    se_mean: float
    variance: float
    se_variance: float

    def z_scores(self, params: GammaParams):
        """(z_mean, z_variance) against the Ga(alpha, beta) targets."""
        return (
            abs(self.mean - params.mean) / self.se_mean,
            abs(self.variance - params.var) / self.se_variance,
        )


def empirical_moments(values) -> MomentReport:
    """Sample mean and variance with asymptotic standard errors.

    se(mean) = s/sqrt(n); se(variance) uses the asymptotic variance
    (m4 - m2^2)/n of the sample variance, with central moments m2, m4.
    The deviations d are squared in place for m2 and squared again for
    m4, the mean of (d*d)*(d*d): two correctly rounded multiplies an
    element.  ``d**4`` would be numpy's vector ``power``, whose last bit
    depends on the host's SIMD routine; on 1e5 values it made the call
    take 5.9 ms, and the squares make it 0.12 ms (2 vCPUs, numpy 2.4).
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ParameterError("empirical_moments needs a 1-D sample of size >= 2")
    n = x.size
    mean = float(np.mean(x))
    d = x - mean
    d *= d
    m2 = float(np.mean(d))
    d *= d
    m4 = float(np.mean(d))
    var = m2 * n / (n - 1)
    se_var = np.sqrt(max(m4 - m2 * m2, 0.0) / n)
    return MomentReport(
        n=n,
        mean=mean,
        se_mean=float(np.sqrt(m2 / (n - 1))),
        variance=float(var),
        se_variance=float(se_var),
    )


# -- autocorrelation ----------------------------------------------------------


@dataclass(frozen=True)
class AcfReport:
    lags: np.ndarray
    estimates: np.ndarray
    standard_errors: np.ndarray
    target: np.ndarray
    batch_len: int
    n: int

    @property
    def max_z(self):
        return float(np.max(np.abs(self.estimates - self.target) / self.standard_errors))


def _acf_batch_len(lam, dt):
    """``empirical_acf``'s batch length on a grid of step dt: ceil(50 / (lam dt)), at least 1."""
    return max(int(np.ceil(50.0 / (lam * dt))), 1)


def empirical_acf(path: SamplePath, dep: Dependence, max_lag) -> AcfReport:
    """Stationary ACF estimate at lags 1..max_lag with batch-means standard errors.

    The estimate at lag k is the mean of y_t = (x_t - m)(x_{t+k} - m)/v over t
    (m, v the global sample mean/variance); its standard error is the batch-
    means error of that mean.  The batch length is 50 autocorrelation
    times, i.e. ceil(50 / (lam * dt)) steps, so neighbouring batches are
    effectively independent.  Targets are the geometric column rho_1^k with
    rho_1 = rho**dt (built by cumulative products, so target[k] = target[k-1] *
    rho_1 exactly).
    """
    max_lag = _require_positive_int("max_lag", max_lag)
    x = path.values
    n = x.size
    if n < 10 * max_lag:
        raise ParameterError(
            f"path of length {n} is too short for max_lag={max_lag} (need >= {10 * max_lag})"
        )
    gaps = path.grid.gaps
    dt = float(gaps[0])
    if np.any(np.abs(gaps - dt) > 1e-9 * max(dt, 1.0)):
        raise ParameterError("empirical_acf requires a uniform grid")
    batch_len = _acf_batch_len(dep.lam, dt)
    m = float(np.mean(x))
    d = x - m
    v = float(np.mean(d * d))
    if v <= 0.0:
        raise ParameterError("path has zero variance; ACF undefined")
    lags = np.arange(1, max_lag + 1)
    est = np.empty(max_lag)
    se = np.empty(max_lag)
    for i, k in enumerate(lags):
        y = d[: n - k] * d[k:] / v
        nb = y.size // batch_len
        if nb < 2:
            raise ParameterError(
                f"path too short for batch-means standard errors (batch_len={batch_len})"
            )
        bm = np.mean(y[: nb * batch_len].reshape(nb, batch_len), axis=1)
        est[i] = float(np.mean(y))
        se[i] = float(np.std(bm, ddof=1) / np.sqrt(nb))
    rho_1 = dep.gap_corr(dt)
    target = np.cumprod(np.full(max_lag, rho_1))
    return AcfReport(
        lags=lags, estimates=est, standard_errors=se, target=target,
        batch_len=int(batch_len), n=n,
    )


# -- Kolmogorov-Smirnov against the gamma marginal ----------------------------


@dataclass(frozen=True)
class KsReport:
    n: int
    statistic: float
    critical_1pct: float

    @property
    def passed(self):
        return self.statistic < self.critical_1pct


def ks_statistic(values, params: GammaParams) -> KsReport:
    """Sup-distance between the empirical cdf and the cdf of ``fl(X)``, X ~ Ga(alpha, beta).

    The reference is the law of X rounded to a double.  Every X below
    ``2^-1075`` rounds to 0.0, so that law has an atom at 0.0 of mass
    ``F(2^-1075)``: about 0.475 at ``alpha = 1e-3``, 5.9e-4 at
    ``alpha = 0.01``, and no larger than the smallest double from
    ``alpha = 1`` on.  The mass is ``(beta 2^-1075)^alpha / Gamma(alpha + 1)``,
    the incomplete gamma function to a relative error of order
    ``beta 2^-1075``, formed in logs because ``2^-1075`` is not a double.  As
    for any law with an atom (Conover 1972), ``d_plus`` compares with the
    right limit ``F(0) = F(2^-1075)`` and ``d_minus`` with the left limit
    ``F(0-) = 0``.  A positive value x is scored at ``P(alpha, beta x)``,
    the regularized lower incomplete gamma function of ``_special``, which
    reads the sorted sample in one pass.  A NaN in the sample raises
    ``NumericalError``.

    The 1% critical value is the asymptotic 1.628/sqrt(n).
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    if n < 100:
        raise ParameterError(f"ks_statistic needs at least 100 values, got {n}")
    if np.isnan(x[-1]):  # np.sort puts NaN last
        raise NumericalError("non-finite value in the sample (NaN)")
    # the target law lives on [0, inf); anything below has cdf 0
    cdf = gammainc_sorted(params.alpha, params.beta * np.maximum(x, 0.0))
    atom = math.exp(params.alpha * (math.log(params.beta) - 1075.0 * math.log(2.0))
                    - math.lgamma(params.alpha + 1.0))
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - np.where(x == 0.0, atom, cdf))
    d_minus = np.max(cdf - (i - 1) / n)
    return KsReport(n=n, statistic=float(max(d_plus, d_minus)),
                    critical_1pct=float(1.628 / np.sqrt(n)))


# -- empirical characteristic functions ---------------------------------------


@dataclass(frozen=True)
class ChfEstimate:
    """(1/N) sum exp(i <omega, X>) per omega row, with componentwise standard errors."""

    omegas: np.ndarray
    estimate: np.ndarray
    se_re: np.ndarray
    se_im: np.ndarray
    n: int


def _as_omega_matrix(omegas, d=None):
    w = _as_float_array(omegas)
    if w.ndim == 1:
        w = w[:, None] if d in (None, 1) else w[None, :]
    if w.ndim != 2:
        raise ParameterError("omegas must be a vector or a matrix of row vectors")
    return w


# samples per block of ``empirical_chf``: each phasor buffer holds this many
_CHF_BLOCK = 1 << 12
# squarings allowed from a directly evaluated phasor; each one doubles its error
_CHF_SQUARINGS = 3


def _phasor_plan(col):
    """The phasors one coordinate needs for the frequencies ``col``.

    Returns ``(mags, src, inv)``: the distinct |omega| in ascending order,
    for each the index of the phasor it squares (-1: evaluate cos and sin
    directly; -2: omega = 0, no phasor), and each row's index into ``mags``.
    """
    mags, inv = np.unique(np.abs(col), return_inverse=True)
    src = np.full(mags.size, -1)
    depth = np.zeros(mags.size, dtype=int)
    for k, a in enumerate(mags):
        if a == 0.0:
            src[k] = -2
            continue
        h = a * 0.5
        if h + h != a or not h < a:  # inexact below the normal range; inf; nan
            continue
        i = int(np.searchsorted(mags, h))
        if i < k and mags[i] == h and depth[i] < _CHF_SQUARINGS:
            src[k], depth[k] = i, depth[i] + 1
    return mags, src, inv


def _chf_plan(w, d):
    """Everything ``empirical_chf`` computes from the (M, d) frequencies ``w`` alone.

    Returns ``(steps, rows, products, row_product, row_flip)``.  ``steps``
    fills the ``rows`` phasor rows of a block in order, each
    ``(dst, op, src, a)``: ``"cis"`` writes cos and sin of ``a x_src`` into
    row ``dst``, ``"square"`` the square of row ``src`` and ``"conj"`` its
    conjugate.  ``products`` lists the rows each distinct product
    multiplies, first factor first.  Row r of ``w`` reads product
    ``row_product[r]`` (-1: the all-zero row), with its imaginary part
    negated where ``row_flip[r]``.

    A row's summand is (re, +-im): im is formed without the sign of the
    row's first nonzero factor, and each later factor is conjugated or not
    relative to that first one.  Rows equal up to that sign share one
    product; omega and -omega are such a pair.  A phasor gets a conjugate
    row only when some product reads it conjugated, so the first factor
    never needs one.
    """
    coords = [_phasor_plan(w[:, j]) for j in range(d)]
    m = w.shape[0]
    products = {}
    row_product, row_flip = np.full(m, -1), np.zeros(m, dtype=bool)
    for r in range(m):
        terms = [(j, int(inv[r]), bool(w[r, j] < 0.0))
                 for j, (_, src, inv) in enumerate(coords) if src[inv[r]] != -2]
        if terms:
            row_flip[r] = flip = terms[0][2]
            key = tuple((j, k, conj != flip) for j, k, conj in terms)
            row_product[r] = products.setdefault(key, len(products))
    conjugated = {(j, k) for key in products for j, k, conj in key if conj}
    slot, steps = {}, []
    for j, (mags, src, _) in enumerate(coords):
        for k, a in enumerate(mags):
            if src[k] == -2:
                continue
            slot[j, k, False] = dst = len(slot)
            # exp(2i h x) = exp(i h x)^2
            steps.append((dst, "cis", j, a) if src[k] == -1
                         else (dst, "square", slot[j, src[k], False], None))
            if (j, k) in conjugated:
                slot[j, k, True] = len(slot)
                steps.append((len(slot) - 1, "conj", dst, None))
    return steps, len(slot), [[slot[f] for f in key] for key in products], row_product, row_flip


def _chf_args(samples, omegas):
    """``samples`` as an (N, d) array with N >= 2 and ``omegas`` as an (M, d) matrix."""
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] < 2:
        raise ParameterError("samples must be an (N, d) array with N >= 2")
    w = _as_omega_matrix(omegas, d=x.shape[1])
    if w.shape[1] != x.shape[1]:
        raise ParameterError(
            f"omega dimension {w.shape[1]} does not match sample dimension {x.shape[1]}"
        )
    return x, w


def empirical_chf(samples, omegas) -> ChfEstimate:
    """Empirical joint chf of an (N, d) sample at each row of ``omegas`` (M, d).

    Standard errors are the standard deviations of cos/sin summands over
    sqrt(N), hence bounded by 1/sqrt(N).

    The summands are products of per-coordinate phasors, not cos and sin of
    the N x M phase matrix.  For each coordinate j and each distinct
    |omega_j| > 0 the block holds one phasor exp(i |omega_j| x_j): one cos
    and one sin, or, when |omega_j| / 2 has a phasor and halving is exact,
    that phasor squared.  At most ``_CHF_SQUARINGS`` squarings follow one
    direct evaluation, because each doubles the phase error, so the default
    axis {0.25, 0.5, 1, 2}/beta costs one cos and one sin per coordinate.
    A negative omega_j takes the conjugate and omega_j = 0 the factor 1, so
    a row of zeros gives exactly 1 with standard error 0.  The estimator is
    exactly conjugate-symmetric: the rows omega and -omega form the same
    products up to the sign of the imaginary part, so their estimates are
    conjugate bit for bit.

    Per block the passes are: the phasors, a conjugate only of a phasor
    that some product reads conjugated (7 of 12 for the default triples),
    the products, their sum, and one contiguous pass that squares the real
    and imaginary parts together before a second sum.  The plan of phasors
    and products depends on ``omegas`` alone (``_chf_plan``), so
    ``two_sample_chf`` makes it once for both samples.

    Accumulation is blocked: pairwise sums over ``_CHF_BLOCK`` samples in
    buffers allocated once per call, then an exact compensated combination of
    the block totals.  Memory is one block of phasors and of their products
    whatever N, and million-replicate estimates do not lose digits.
    """
    x, w = _chf_args(samples, omegas)
    return _chf_estimate(x, w, _chf_plan(w, x.shape[1]))


def _chf_estimate(x, w, plan):
    """``empirical_chf`` of the checked sample ``x`` at ``w``, from ``_chf_plan(w, d)``."""
    steps, rows, products, row_product, row_flip = plan
    n = x.shape[0]
    width = min(n, _CHF_BLOCK)
    phasor = np.empty((rows, width), dtype=complex)
    z = np.empty((len(products), width), dtype=complex)
    arg = np.empty(width)
    blocks = range(0, n, _CHF_BLOCK)
    sums = np.empty((len(blocks), 4, len(products)))  # re, im, re^2, im^2
    for b, s in enumerate(blocks):
        nb = min(n - s, _CHF_BLOCK)
        ph, zb, t = list(phasor[:, :nb]), z[:, :nb], arg[:nb]
        for dst, op, src, a in steps:
            if op == "cis":
                np.multiply(x[s : s + nb, src], a, out=t)
                np.cos(t, out=ph[dst].real)
                np.sin(t, out=ph[dst].imag)
            elif op == "square":
                np.square(ph[src], out=ph[dst])
            else:
                np.conjugate(ph[src], out=ph[dst])
        for out, (first, *rest) in zip(zb, products):
            acc = ph[first]
            if not rest:
                np.copyto(out, acc)
            for f in rest:
                acc = np.multiply(acc, ph[f], out=out)
        tot_z = np.sum(zb, axis=1)
        sq = zb.view(float)
        np.square(sq, out=sq)
        tot_sq = np.sum(zb, axis=1)
        sums[b] = (tot_z.real, tot_z.imag, tot_sq.real, tot_sq.imag)
    # one column per product, then the summand 1 of an all-zero row (index -1)
    tot = np.array([[*map(math.fsum, per), one]
                    for per, one in zip(sums.transpose(1, 2, 0).tolist(), (n, 0.0, n, 0.0))])
    tot = tot[:, row_product]
    tot[1, row_flip] = -tot[1, row_flip]
    mean_re, mean_im = tot[0] / n, tot[1] / n
    var_re = np.maximum(tot[2] - n * mean_re**2, 0.0) / (n - 1)
    var_im = np.maximum(tot[3] - n * mean_im**2, 0.0) / (n - 1)
    return ChfEstimate(
        omegas=w,
        estimate=mean_re + 1j * mean_im,
        se_re=np.sqrt(var_re / n),
        se_im=np.sqrt(var_im / n),
        n=n,
    )


def default_omega_axis(beta):
    """The default per-coordinate frequency grid {+-0.25, +-0.5, +-1, +-2}/beta."""
    base = np.array([0.25, 0.5, 1.0, 2.0])
    return np.concatenate((base, -base)) / beta


def _omega_pairs(axis):
    """All (s, t) pairs from a frequency axis, s-major: len(axis)**2 rows."""
    ax = np.asarray(axis, dtype=float)
    s, t = np.meshgrid(ax, ax, indexing="ij")
    return np.column_stack((s.ravel(), t.ravel()))


def default_omega_pairs(beta):
    """All 64 (s, t) pairs from the default axis."""
    return _omega_pairs(default_omega_axis(beta))


def default_omega_triples(beta):
    """20 fixed frequency triples used by ``compare --points 3``."""
    rows = [
        (0.25, 0.25, 0.25), (0.5, 0.5, 0.5), (1, 1, 1), (2, 2, 2),
        (0.5, -0.5, 0.5), (1, -1, 1), (2, -2, 2), (0.25, -0.25, 0.25),
        (1, -0.5, 1), (2, -1, 2), (1, -2, 1), (0.5, -1, 0.5),
        (1, 2, -1), (2, 1, -2), (0.5, 1, -0.5), (1, 0.5, -1),
        (1, -1, 2), (2, -2, 1), (2, -0.5, 2), (0.5, -2, 0.5),
    ]
    return np.asarray(rows, dtype=float) / beta


@dataclass(frozen=True)
class ChfComparison:
    omegas: np.ndarray
    empirical: np.ndarray
    se_re: np.ndarray
    se_im: np.ndarray
    analytic: np.ndarray
    z_scores: np.ndarray
    n: int

    @property
    def max_z(self):
        return float(np.max(self.z_scores))

    @property
    def argmax_omega(self):
        return self.omegas[int(np.argmax(self.z_scores))]


def _chf_z(diff, se_re, se_im):
    """The larger of |Re diff| / se_re and |Im diff| / se_im at each omega.

    A component with no difference and no standard error scores 0: at
    omega = 0 both chfs are exactly 1 and every summand is the same.
    """
    def z(d, se):
        d = np.abs(d)
        with np.errstate(invalid="ignore"):  # 0 / 0 only
            return np.where((d == 0.0) & (se == 0.0), 0.0, d / se)

    return np.maximum(z(diff.real, se_re), z(diff.imag, se_im))


def chf_gof(ensemble: Ensemble, params: GammaParams, dep: Dependence,
            omegas=None) -> ChfComparison:
    """Empirical pair chf of (X_{t_0}, X_{t_1}) across paths vs the closed form.

    One pair per path keeps the replicates i.i.d., so the componentwise
    standard errors are honest.  The analytic side is ``pair_chf`` at the
    pair correlation rho**(t_1 - t_0).
    """
    if ensemble.grid.n < 2:
        raise ParameterError("chf_gof needs a grid with at least 2 points")
    if omegas is None:
        omegas = default_omega_pairs(params.beta)
    w = _as_omega_matrix(omegas)
    if w.shape[1] != 2:
        raise ParameterError("chf_gof omegas must be (s, t) pairs")
    span = float(ensemble.grid.times[1] - ensemble.grid.times[0])
    r = dep.gap_corr(span)
    # a pair correlation that underflows to 0 or rounds to 1, which from_rho
    # refuses, is an independent or an identical pair: Dependence keeps its
    # lam and sets rho to 0 or 1
    dep_pair = Dependence.from_rho(r) if 0.0 < r < 1.0 else Dependence(dep.lam * span)
    est = empirical_chf(ensemble.values[:, :2], w)
    analytic = np.array(
        [pair_chf(ensemble.kind, s, t, params, dep_pair) for s, t in w]
    )
    z = _chf_z(est.estimate - analytic, est.se_re, est.se_im)
    return ChfComparison(
        omegas=w, empirical=est.estimate, se_re=est.se_re, se_im=est.se_im,
        analytic=analytic, z_scores=z, n=est.n,
    )


def two_sample_chf(a, b, omegas):
    """Two-sample comparison of the empirical chfs of samples ``a`` and ``b``.

    ``a`` and ``b`` are (N, d) samples and ``omegas`` an (M, d) matrix.  z at
    each omega row is the larger of |Re diff| and |Im diff| divided by the
    pooled standard error sqrt(se_a^2 + se_b^2); the statistic is exactly
    symmetric in the two samples.  Returns ``(z, est_a, est_b)``.  Both
    samples must have the same dimension d; the chf plan is made once.
    """
    x_a, w = _chf_args(a, omegas)
    x_b, _ = _chf_args(b, omegas)
    if x_b.shape[1] != x_a.shape[1]:
        raise ParameterError(
            f"samples a and b must have one dimension, got {x_a.shape[1]} and {x_b.shape[1]}")
    plan = _chf_plan(w, x_a.shape[1])
    est_a = _chf_estimate(x_a, w, plan)
    est_b = _chf_estimate(x_b, w, plan)
    se_re = np.sqrt(est_a.se_re**2 + est_b.se_re**2)
    se_im = np.sqrt(est_a.se_im**2 + est_b.se_im**2)
    return _chf_z(est_a.estimate - est_b.estimate, se_re, se_im), est_a, est_b


# -- pathwise time-reversal asymmetry ------------------------------------------


@dataclass(frozen=True)
class ReversibilityReport:
    n_steps: int
    forward_violations: int
    backward_violations: int

    @property
    def backward_violation_rate(self):
        return self.backward_violations / self.n_steps


def reversibility_check(path: SamplePath, dep: Dependence) -> ReversibilityReport:
    """Count violations of X_{t_k} >= rho_k X_{t_{k-1}} forward and backward in time.

    The per-gap factor is ``Dependence.gap_corr`` of the grid's gaps, the same
    routine the path plans use, so the forward check reproduces exactly the
    floating-point products the recursion formed.  The AR(1) construction
    adds a nonnegative innovation to that product, hence never violates
    forward; its time reversal has no such constraint.
    """
    x = path.values
    if x.size < 2:
        raise ParameterError(f"path must hold at least 2 observations, got {x.size}")
    rho_g = dep.gap_corr(path.grid.gaps)
    fwd = int(np.count_nonzero(x[1:] < rho_g * x[:-1]))
    bwd = int(np.count_nonzero(x[:-1] < rho_g * x[1:]))
    return ReversibilityReport(n_steps=x.size - 1, forward_violations=fwd,
                               backward_violations=bwd)


# -- infinitesimal generators --------------------------------------------------


@dataclass(frozen=True)
class GeneratorCheck:
    kind: ProcessKind
    phi: TestFunction
    x0: float
    epsilon: float
    n_mc: int
    fd_estimate: float
    se: float
    analytic: float

    @property
    def z(self):
        return abs(self.fd_estimate - self.analytic) / self.se


# replicates per block of ``generator_check``'s steps: part of its stream
# layout, so changing it changes every estimate it reports
_GENERATOR_BLOCK = 1 << 17


def generator_check(
    kind: ProcessKind,
    phis,
    x0s,
    params: GammaParams,
    dep: Dependence,
    epsilon=None,
    n_mc=1_000_000,
    master_seed=0,
) -> tuple[GeneratorCheck, ...]:
    """Finite-difference generator estimates (E[phi(X_eps) | X_0 = x0] - phi(x0))/eps.

    Every replicate starts exactly at a start point x0 of ``x0s`` and makes
    one conditional step of length eps at the gap correlation rho**eps, the
    ``lane_step`` of the kind's plan class in ``processes._PLANS``: the
    exact Poisson-gamma transition for the squared OU kind, one series step
    X_eps = M x0 + Z for the continuously-thinned kind.  Each start
    point's n_mc steps are drawn in blocks of ``_GENERATOR_BLOCK`` from the
    head of the stream (master_seed, 0), and every test function of
    ``phis`` is scored on them.  A plan with ``lane_factors`` (cthin) draws
    factors M and Z that do not depend on x0, so one draw of them serves
    every start point, applied to one start at a time; a cir step's draws
    do, so each start point restarts the stream.  Either way each start
    point's steps are the ones a call on it alone would draw.  The call
    returns one
    ``GeneratorCheck`` per function and start point, function by function
    and within each in the order of ``x0s``, each with the bytes a call on
    that function and start point alone would give.  Its rows share their
    transitions and are not independent.  The default eps = 1e-3/lam keeps
    the O(eps) finite-difference bias far below the Monte Carlo standard
    error at n_mc ~ 1e6.  The analytic side comes first, so
    ``generator_apply`` refuses a kind outside ``GENERATOR_KINDS``
    (``UnsupportedKindError``) before anything is drawn.
    """
    phis = tuple(phis)
    if not phis:
        raise ParameterError("phis must hold at least one test function")
    x0s = tuple(_require_finite_nonnegative("x0", x0) for x0 in x0s)
    if not x0s:
        raise ParameterError("x0s must hold at least one start point")
    n_mc = _require_integer("n_mc", n_mc)
    if n_mc < 2:
        raise ParameterError("n_mc must be at least 2")
    eps = _require_finite_positive("epsilon", 1e-3 / dep.lam if epsilon is None else epsilon)
    analytic = [[generator_apply(kind, phi, x0, params, dep) for x0 in x0s] for phi in phis]
    a, b, r = params.alpha, params.beta, dep.gap_corr(eps)
    sizes = [min(n_mc - done, _GENERATOR_BLOCK) for done in range(0, n_mc, _GENERATOR_BLOCK)]
    blocks = [[[] for _ in x0s] for _ in phis]  # per block: (sum of d, sum of d * d)

    def score(j, y):
        for per_phi, phi in zip(blocks, phis):
            d = (phi.phi(y) - float(phi.phi(x0s[j]))) / eps
            per_phi[j].append((np.sum(d), np.sum(d * d)))

    plan = _lane_plan(kind)
    if plan.lane_factors is not None:
        g = derive_stream(master_seed, 0).gen
        for n in sizes:
            factors = list(plan.lane_factors(g, a, b, r, n))
            for j, x0 in enumerate(x0s):
                y = x0
                for m, z in factors:
                    y = m * y + z
                score(j, y)
    else:
        for j, x0 in enumerate(x0s):
            g = derive_stream(master_seed, 0).gen
            for n in sizes:
                score(j, plan.lane_step(g, np.full(n, x0), a, b, r))
    checks = []
    for phi, per_phi, an_phi in zip(phis, blocks, analytic):
        for x0, per_block, an in zip(x0s, per_phi, an_phi):
            fd = math.fsum(s for s, _ in per_block) / n_mc
            var = max(math.fsum(q for _, q in per_block) - n_mc * fd * fd, 0.0) / (n_mc - 1)
            checks.append(GeneratorCheck(kind=kind, phi=phi, x0=x0, epsilon=eps, n_mc=n_mc,
                                         fd_estimate=fd, se=float(np.sqrt(var / n_mc)),
                                         analytic=an))
    return tuple(checks)


# -- tail table ----------------------------------------------------------------


@dataclass(frozen=True)
class TailTable:
    """Tail comparison rows: survival P[X > u], Levy tail, and its exponential approximant.

    The three trailing columns are -log(value)/(beta u); all approach 1 as
    beta u grows, though not monotonically (the Levy column crosses 1 near
    beta u = alpha).  ``tail_ok`` records whether each exact column draws
    nearer to its leading asymptotic term along the whole grid: |log r|
    must be non-increasing, to 1e-12, for the survival ratio
    r = P[X > u] / ((beta u)^(alpha-1) e^(-beta u) / Gamma(alpha)) and for
    the Levy ratio r = approximant / exact.  A column that underflows to 0
    fails.  Against a survival column of the wrong law, such as that of
    Ga(2 alpha, beta), the check has power only where the grid reaches past
    beta u = alpha.  The CLI's grid runs in six even steps to
    beta u = min(max(30, 2 alpha), 600), so it fails that column at every
    alpha up to 545 and passes correct columns up to alpha 1e5; the cap at
    600 keeps the Levy column from underflowing to 0.
    """

    u: np.ndarray
    survival: np.ndarray
    levy_exact: np.ndarray
    approximant: np.ndarray
    nl_survival: np.ndarray
    nl_levy: np.ndarray
    nl_approximant: np.ndarray
    tail_ok: bool


def tail_check(params: GammaParams, u_grid) -> TailTable:
    from .analytic import gamma_survival

    u = np.asarray(u_grid, dtype=float)
    if u.ndim != 1 or u.size < 1 or np.any(u <= 0.0) or np.any(np.diff(u) <= 0.0):
        raise ParameterError("u_grid must be strictly increasing and positive")
    surv = np.array([gamma_survival(v, params) for v in u])
    tails = [levy_tail(v, params) for v in u]
    exact = np.array([t.exact for t in tails])
    approx = np.array([t.approximant for t in tails])
    a, bu = params.alpha, params.beta * u
    with np.errstate(divide="ignore", invalid="ignore"):
        nl_surv = -np.log(surv) / bu
        nl_levy = -np.log(exact) / bu
        nl_approx = -np.log(approx) / bu
        log_ratios = (np.log(surv) - ((a - 1.0) * np.log(bu) - bu - math.lgamma(a)),
                      np.log(approx / exact))
    ok = all(np.all(np.diff(np.abs(r)) <= 1e-12) for r in log_ratios)
    return TailTable(
        u=u, survival=surv, levy_exact=exact, approximant=approx,
        nl_survival=nl_surv, nl_levy=nl_levy, nl_approximant=nl_approx,
        tail_ok=bool(ok),
    )
