"""``empirical_chf`` and ``two_sample_chf`` write the bytes of a fixed reference.

The reference is a verbatim copy of ``empirical_chf`` as it stood before
its plan was shared between the two samples of ``two_sample_chf``, before
conjugates were made only for the phasors a product reads conjugated, and
before the squares were taken in one contiguous pass: one cos and sin, one
squaring or one conjugate per phasor in a fixed layout.  Every case must
give the same ``.tobytes()`` for the estimate, both standard errors and the
two-sample z.
"""

import math

import numpy as np
import pytest

from gammaproc import ParameterError, derive_stream
from gammaproc.stats import (
    _CHF_BLOCK,
    _CHF_SQUARINGS,
    ChfEstimate,
    _as_omega_matrix,
    _chf_z,
    default_omega_pairs,
    default_omega_triples,
    empirical_chf,
    two_sample_chf,
)


def _reference_phasor_plan(col):
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


def _reference_empirical_chf(samples, omegas) -> ChfEstimate:
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

    Accumulation is blocked: pairwise sums over ``_CHF_BLOCK`` samples in
    buffers allocated once per call, then an exact compensated combination of
    the block totals.  Memory is one block of phasors and of their products
    whatever N, and million-replicate estimates do not lose digits.
    """
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
    n, m = x.shape[0], w.shape[0]
    plans = [_reference_phasor_plan(w[:, j]) for j in range(w.shape[1])]
    # A row's summand is (re, +-im): im is formed without the sign of the
    # row's first nonzero factor, and each later factor is conjugated or not
    # relative to that first one.  Rows equal up to that sign share one
    # product; omega and -omega are such a pair.
    products = {}
    row_product, row_flip = np.full(m, -1), np.zeros(m, dtype=bool)
    for r in range(m):
        terms = [(j, int(inv[r]), bool(w[r, j] < 0.0))
                 for j, (_, src, inv) in enumerate(plans) if src[inv[r]] != -2]
        if terms:
            row_flip[r] = flip = terms[0][2]
            key = tuple((j, k, conj != flip) for j, k, conj in terms)
            row_product[r] = products.setdefault(key, len(products))
    width = min(n, _CHF_BLOCK)
    # phasor[j][k, 0] = exp(i mags[k] x_j) and phasor[j][k, 1] its conjugate
    phasor = [np.empty((mags.size, 2, width), dtype=complex) for mags, _, _ in plans]
    z = np.empty((len(products), width), dtype=complex)
    arg = np.empty(width)
    blocks = range(0, n, _CHF_BLOCK)
    sums = np.empty((len(blocks), 4, len(products)))  # re, im, re^2, im^2
    for b, s in enumerate(blocks):
        nb = min(n - s, _CHF_BLOCK)
        for j, (mags, src, _) in enumerate(plans):
            p = phasor[j][:, :, :nb]
            for k, a in enumerate(mags):
                if src[k] == -2:
                    continue
                if src[k] == -1:
                    np.multiply(x[s : s + nb, j], a, out=arg[:nb])
                    np.cos(arg[:nb], out=p[k, 0].real)
                    np.sin(arg[:nb], out=p[k, 0].imag)
                else:  # exp(2i h x) = exp(i h x)^2
                    np.square(p[src[k], 0], out=p[k, 0])
                np.conjugate(p[k, 0], out=p[k, 1])
        zb = z[:, :nb]
        for u, ((j, k, _), *rest) in enumerate(products):
            acc = phasor[j][k, 0, :nb]
            if not rest:
                np.copyto(zb[u], acc)
            for j, k, conj in rest:
                acc = np.multiply(acc, phasor[j][k, int(conj), :nb], out=zb[u])
        tot_z = np.sum(zb, axis=1)
        np.square(zb.real, out=zb.real)
        np.square(zb.imag, out=zb.imag)
        tot_sq = np.sum(zb, axis=1)
        sums[b] = (tot_z.real, tot_z.imag, tot_sq.real, tot_sq.imag)
    # one column per product, then the summand 1 of an all-zero row (index -1)
    tot = np.array([[math.fsum(sums[:, i, u]) for u in range(len(products))] + [one]
                    for i, one in enumerate((n, 0.0, n, 0.0))])[:, row_product]
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


def _reference_two_sample_chf(a, b, omegas):
    """Two-sample comparison of the empirical chfs of samples ``a`` and ``b``.

    ``a`` and ``b`` are (N, d) samples and ``omegas`` an (M, d) matrix.  z at
    each omega row is the larger of |Re diff| and |Im diff| divided by the
    pooled standard error sqrt(se_a^2 + se_b^2); the statistic is exactly
    symmetric in the two samples.  Returns ``(z, est_a, est_b)``.
    """
    est_a = _reference_empirical_chf(a, omegas)
    est_b = _reference_empirical_chf(b, omegas)
    se_re = np.sqrt(est_a.se_re**2 + est_b.se_re**2)
    se_im = np.sqrt(est_a.se_im**2 + est_b.se_im**2)
    return _chf_z(est_a.estimate - est_b.estimate, se_re, se_im), est_a, est_b


_TINY = 2.0**-1074

# (sample dimension, sample sizes, frequency rows); d = 0 is a 1-D sample
_CASES = {
    "default_triples": (3, (2, 4095, 4096, 4097, 20000), default_omega_triples(1.0)),
    "default_pairs": (2, (2, 4095, 4096, 4097, 20000), default_omega_pairs(1.0)),
    "scaled_triples": (3, (4097,), default_omega_triples(1.7)),
    "zeros_repeats_and_signs": (3, (5, 4097), [
        [0.0, 0.0, 0.0], [0.5, 0.0, 1.0], [0.0, 0.0, -2.0], [1.0, -1.0, 2.0],
        [1.0, -1.0, 2.0], [-1.0, 1.0, -2.0], [0.0, -1.0, 0.5], [-0.5, 1.0, 2.0],
        [-0.0, 0.25, -0.25], [0.3, 0.7, -0.3], [-0.3, -0.7, 0.3],
    ]),
    "one_dimensional": (0, (2, 4097), [0.0, 0.7, -0.7, 2.2, 1.1, -0.25]),
    "long_halving_chain": (2, (4097,), [[2.0**k, -(2.0 ** (2 - k))] for k in range(-3, 3)]
                           + [[-(2.0**k), 0.5] for k in range(-3, 3)]),
    "inexact_halves": (1, (4097,), [[3 * _TINY], [2 * _TINY], [-3 * _TINY], [5 * _TINY],
                                   [1.5], [0.75], [1.0 / 3.0]]),
}


def _sample(seed, n, d):
    x = derive_stream(seed, 0).gen.gamma(1.5, 1.0, size=(n, max(d, 1)))
    if n > 7:
        x[7] = x[3]  # repeated sample rows
    return x[:, 0] if d == 0 else x


def _estimate_bytes(est):
    return [est.estimate.tobytes(), est.se_re.tobytes(), est.se_im.tobytes()]


@pytest.mark.parametrize("case", list(_CASES))
def test_empirical_chf_and_two_sample_chf_write_the_reference_bytes(case):
    d, sizes, rows = _CASES[case]
    w = np.asarray(rows, dtype=float)
    for n in sizes:
        a, b = _sample(41, n, d), _sample(42, n + 3, d)
        want = _reference_empirical_chf(a, w)
        got = empirical_chf(a, w)
        assert _estimate_bytes(got) == _estimate_bytes(want), n
        z, est_a, est_b = two_sample_chf(a, b, w)
        ref_z, ref_a, ref_b = _reference_two_sample_chf(a, b, w)
        assert z.tobytes() == ref_z.tobytes(), n
        assert _estimate_bytes(est_a) + _estimate_bytes(est_b) == (
            _estimate_bytes(ref_a) + _estimate_bytes(ref_b)), n


def test_two_sample_chf_refuses_samples_of_different_dimension():
    # a frequency vector is a column for a 1-D sample and one row for a 3-D one
    with pytest.raises(ParameterError, match="samples a and b"):
        two_sample_chf(_sample(1, 50, 0), _sample(2, 50, 3), [0.5, 1.0, 2.0])
