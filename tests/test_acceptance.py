"""Acceptance suite: the verification contract for the whole package.

Each criterion prints one ``[criterion N] PASS/FAIL`` line (written past the
capture so the lines are visible in a normal pytest run) and asserts the same
condition.  Tolerances follow the documented contract: Kolmogorov-Smirnov
statistics compare against the 1% critical value 1.628/sqrt(N); moment, chf
and generator comparisons allow 4 standard errors; separation statements
demand 5 (triplet discrimination) or 8 (generator gap) standard errors.

Monte-Carlo tests run with frozen master seeds so the suite is deterministic;
the laws themselves are exercised against independent analytic or
extended-precision oracles throughout.
"""

import functools
import json
import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, special

from gammaproc import (
    CirMethod,
    Dependence,
    GammaParams,
    ProcessKind,
    TestFunction,
    TimeGrid,
    cir_transition_density,
    default_omega_triples,
    derive_stream,
    empirical_acf,
    empirical_chf,
    gamma_chf,
    gamma_survival,
    generator_apply,
    generator_check,
    innovation_chf,
    ks_statistic,
    levy_tail,
    make_uniform_grid,
    marginal_sample,
    pair_chf,
    rm_joint_chf,
    sample_path,
    simulate_ensemble,
    tail_check,
    tent_partition,
    triplet_sample,
    two_sample_chf,
    walker_sample,
)
from gammaproc import processes
from gammaproc.cli import main as cli_main

MASTER = 20260817
P11 = GammaParams(1.0, 1.0)
DEP5 = Dependence.from_rho(0.5)

# 20 frequency pairs for the pair-chf criteria (units of 1/beta)
PAIR_OMEGAS = np.array([
    (0.25, 0.25), (0.5, 0.5), (1.0, 1.0), (2.0, 2.0),
    (0.25, -0.25), (0.5, -0.5), (1.0, -1.0), (2.0, -2.0),
    (1.0, 0.5), (0.5, 1.0), (2.0, 1.0), (1.0, 2.0),
    (2.0, -1.0), (1.0, -2.0), (-0.5, 2.0), (2.0, -0.5),
    (0.25, 2.0), (2.0, 0.25), (-1.0, -1.0), (-2.0, -0.5),
])

FIVE_CLOSED_FORM_KINDS = [
    ProcessKind.AR1,
    ProcessKind.THINNED,
    ProcessKind.RANDOM_MEASURE,
    ProcessKind.CHANGE_POINT,
    ProcessKind.SQUARED_OU,
]


def _report(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"[{label}] {'PASS' if ok else 'FAIL'} {detail}", flush=True)
    assert ok, f"{label}: {detail}"


def _pair_z(samples, omegas, analytic):
    est = empirical_chf(samples, omegas)
    diff = est.estimate - analytic
    return np.maximum(np.abs(diff.real) / est.se_re, np.abs(diff.imag) / est.se_im)


# -- criterion 1: marginal KS grid ----------------------------------------------


def test_criterion_01_marginal_ks_grid(capsys):
    n = 100000
    crit = 1.628 / np.sqrt(n)
    alphas = [0.5, 1.0, 2.5]
    betas = [1.0, 2.0]
    rhos = [0.1, 0.5, 0.9]
    worst = 0.0
    worst_cell = None
    for ki, kind in enumerate(ProcessKind):
        for ia, alpha in enumerate(alphas):
            for ib, beta in enumerate(betas):
                for ir, rho in enumerate(rhos):
                    seed = MASTER + ki * 1000 + ia * 100 + ib * 10 + ir
                    params = GammaParams(alpha, beta)
                    dep = Dependence.from_rho(rho)
                    x = marginal_sample(kind, n, params, dep, master_seed=seed)
                    stat = ks_statistic(x, params).statistic
                    if stat > worst:
                        worst, worst_cell = stat, (kind.cli_name, alpha, beta, rho)
    ok = worst < crit
    _report(capsys, "criterion 1", ok,
            f"108-cell marginal KS grid at N={n}: worst {worst:.5f} "
            f"(cell {worst_cell}) vs critical {crit:.5f}")


def _lattice_cthin_marginal(n, params, dep, seed, steps_per_unit=256):
    # the removed lattice sampler's marginal_sample, kept as a power control: a
    # quarter time unit of beta thinnings at q = rho**(1/steps_per_unit), whose
    # kept fraction 1 - g1/(g1+g2) cancels to 0 at small shapes
    g = derive_stream(seed, 0).gen
    a, b = params.alpha, params.beta
    q = dep.rho ** (1.0 / steps_per_unit)
    p = 1.0 - q
    x = g.gamma(a, 1.0 / b, size=n)
    for _ in range(steps_per_unit // 4):
        g1 = g.standard_gamma(a * p, size=n)
        s = g1 + g.standard_gamma(a * q, size=n)
        thin = np.divide(g1, s, out=np.full(n, p), where=s > 0.0)
        x = (1.0 - thin) * x + g.standard_gamma(a * p, size=n) / b
    return x


def test_criterion_01_cthin_marginal_at_small_shapes(capsys):
    n = 100000
    crit = 1.628 / np.sqrt(n)
    rows = []
    for alpha in (0.02, 0.05):
        params = GammaParams(alpha, 1.0)
        for seed in (1, 2, 3):
            x = marginal_sample(ProcessKind.CONTINUOUSLY_THINNED, n, params, DEP5, seed)
            rows.append((alpha, seed, ks_statistic(x, params).statistic, int(np.sum(x == 0.0))))
    lattice = _lattice_cthin_marginal(n, GammaParams(0.02, 1.0), DEP5, 1)
    control = ks_statistic(lattice, GammaParams(0.02, 1.0)).statistic
    worst = max(rows, key=lambda r: r[2])
    zeros = sum(r[3] for r in rows)
    ok = worst[2] < crit and zeros == 0 and control > crit
    _report(capsys, "criterion 1b", ok,
            f"cthin marginal KS at alpha 0.02 and 0.05, seeds 1-3: worst {worst[2]:.5f} "
            f"(alpha {worst[0]}, seed {worst[1]}), {zeros} exact zeros, vs critical "
            f"{crit:.5f}; the lattice control at alpha 0.02 reads {control:.4f} (must fail)")


def _cthin_variance_z(alpha, n, seed):
    """z of the sample variance of n cthin lanes a unit of lam-time after a Ga(alpha, 1) start."""
    g = derive_stream(seed, 0).gen
    x = g.gamma(alpha, 1.0, size=n)
    y = processes._CthinPlan.lane_step(g, x, alpha, 1.0, math.exp(-1.0))
    return (y.var(ddof=1) - alpha) / (alpha * math.sqrt(2.0 / (n - 1) + 6.0 / (alpha * n)))


def test_criterion_01_cthin_variance_at_large_shapes(capsys, monkeypatch):
    # the stationary law keeps its variance alpha under the series at large shapes,
    # where a remainder without variance would lose much of it
    n = 20000
    z = {alpha: _cthin_variance_z(alpha, n, MASTER + k) for k, alpha in enumerate((300.0, 1000.0))}
    # power control: the components j >= J as a deterministic decay at their mean
    # rate c, a gamma remainder of rate 1e12 (variance c/1e12 per unit of lam-time),
    # which lowers the stationary variance by a (a+1)^2 / ((a+J)(a+J+1)(2a+1))
    monkeypatch.setattr(processes, "_cthin_series",
                        functools.lru_cache(maxsize=16)(processes._cthin_series.__wrapped__))
    monkeypatch.setattr(processes, "_cthin_remainder",
                        lambda a: (a / (a + processes._CTHIN_TERMS) / math.log1p(1e-12), 1e12))
    control = _cthin_variance_z(300.0, n, MASTER)
    ok = max(abs(v) for v in z.values()) <= 4.0 and abs(control) > 4.0
    _report(capsys, "criterion 1c", ok,
            f"cthin variance one lam-time after a Ga(alpha, 1) start, n={n}: z "
            + ", ".join(f"{v:.2f} at alpha {a:g}" for a, v in z.items())
            + f" (<= 4); a deterministic remainder at alpha 300 reads z {control:.1f} (must fail)")


# -- criterion 2: autocorrelation -------------------------------------------------


def test_criterion_02_autocorrelation(capsys):
    grid = make_uniform_grid(0.0, 1.0, 100000)
    max_z = {}
    for kind in ProcessKind:
        path = sample_path(kind, derive_stream(MASTER, 0), grid, P11, DEP5)
        max_z[kind.cli_name] = empirical_acf(path, DEP5, max_lag=5).max_z
    worst = max(max_z.values())
    ok = worst <= 4.0
    _report(capsys, "criterion 2", ok,
            f"lag 1..5 acf vs 0.5^k, 1e5 steps: worst z {worst:.2f} over six kinds (<= 4)")


# cthin's limit moments: the point, the shapes, and the orders (i, j) of
# E[(X_s - m)^i (X_t - m)^j], m = alpha / beta, that the oracle scores
CTHIN_BETA, CTHIN_LAM = 1.3, 0.6
CTHIN_ALPHAS = (0.05, 0.7, 2.0, 10.0)
CTHIN_ORDERS = ((1, 1), (1, 2), (2, 2), (0, 1), (0, 2), (0, 3))
# the irregular grid 0, 0.4, 1.5
CTHIN_GAPS = (0.4, 1.1)


def _cthin_limit_moment(i, j, t, alpha, beta, lam):
    """E[(X_0 - m)^i (X_t - m)^j] of the stationary cthin limit process, m = alpha / beta.

    The generator maps x^k to a lam sum_{l<k} C(k,l) Gamma(k-l) b^(l-k) x^l
    - a lam (sum_{r<k} 1/(a+r)) x^k, so E[X_t^q | X_0 = x] is column q of
    the matrix exponential of t times that matrix, and the mixed moments
    reduce to the gamma moments E[X^k] = (a)_k / b^k.
    """
    from scipy.linalg import expm

    a, b, deg = alpha, beta, i + j
    gen = np.zeros((deg + 1, deg + 1))
    for k in range(1, deg + 1):
        for lo in range(k):
            gen[lo, k] = a * lam * special.comb(k, lo) * special.gamma(k - lo) * b ** (lo - k)
        gen[k, k] = -a * lam * sum(1.0 / (a + r) for r in range(k))
    cond = expm(t * gen)
    raw = [special.poch(a, k) / b**k for k in range(2 * deg + 1)]
    m = a / b
    total = 0.0
    for p in range(i + 1):
        for q in range(j + 1):
            # E[X_0^p X_t^q] = sum_l cond[l, q] E[X_0^(p + l)]
            joint = sum(cond[lo, q] * raw[p + lo] for lo in range(q + 1))
            total += special.comb(i, p) * special.comb(j, q) * (-m) ** (i - p + j - q) * joint
    return total


def _cthin_moment_z(alpha, lam, seed, n=200000):
    """The z-scores of n independent cthin lanes at (alpha, lam) against the limit at CTHIN_LAM.

    Every lane starts at X_0 ~ Ga(alpha, beta) and takes one lane step per
    gap: one of 1 (lag 1), and one per gap of the irregular grid 0, 0.4, 1.5,
    whose pair (0, 1.5) spans two steps.  The marginal orders are scored at
    the end of each pair; the pair (0, 1.5) scores the joint orders only.
    """
    g = derive_stream(seed, 0).gen

    def step(x, gap):
        return processes._CthinPlan.lane_step(g, x, alpha, CTHIN_BETA, math.exp(-lam * gap))

    m = alpha / CTHIN_BETA
    x0 = g.gamma(alpha, 1.0 / CTHIN_BETA, size=n)
    grid = [x0, step(x0, CTHIN_GAPS[0])]
    grid.append(step(grid[1], CTHIN_GAPS[1]))
    pairs = [(1.0, x0, step(x0, 1.0), CTHIN_ORDERS),
             (0.4, grid[0], grid[1], CTHIN_ORDERS),
             (1.1, grid[1], grid[2], CTHIN_ORDERS),
             (1.5, grid[0], grid[2], CTHIN_ORDERS[:3])]
    rows = []
    for t, xs, xt, orders in pairs:
        for i, j in orders:
            y = (xs - m) ** i * (xt - m) ** j
            want = _cthin_limit_moment(i, j, t, alpha, CTHIN_BETA, CTHIN_LAM)
            rows.append(((t, i, j), (y.mean() - want) / (y.std() / math.sqrt(n))))
    return rows


def test_cthin_limit_moment_oracle_matches_the_closed_forms():
    a, b, lam, t = 0.7, 1.3, 0.6, 1.0
    assert _cthin_limit_moment(1, 1, t, a, b, lam) == pytest.approx(a * math.exp(-lam) / b**2,
                                                                    rel=1e-13)
    assert _cthin_limit_moment(0, 1, t, a, b, lam) == pytest.approx(0.0, abs=1e-14)
    assert _cthin_limit_moment(0, 2, t, a, b, lam) == pytest.approx(a / b**2, rel=1e-13)
    assert _cthin_limit_moment(0, 3, t, a, b, lam) == pytest.approx(2 * a / b**3, rel=1e-13)
    # E[X_0^2 X_1^2] of the limit process, from its centred moments
    m = a / b
    raw = sum(special.comb(2, p) * special.comb(2, q) * m ** (4 - p - q)
              * _cthin_limit_moment(p, q, t, a, b, lam) for p in range(3) for q in range(3))
    assert raw == pytest.approx(2.407944, abs=5e-7)


def test_criterion_02_cthin_limit_moments(capsys):
    # orders (1,1)..(0,3) at lag 1 and on an irregular grid, against the limit process
    rows = [((alpha, *cell), z) for k, alpha in enumerate(CTHIN_ALPHAS)
            for cell, z in _cthin_moment_z(alpha, CTHIN_LAM, MASTER + k)]
    cell, worst = max(rows, key=lambda r: abs(r[1]))
    ok = abs(worst) <= 4.0
    _report(capsys, "criterion 2b", ok,
            f"cthin mixed moments vs the limit generator's, {len(rows)} cells: worst |z| "
            f"{abs(worst):.2f} at {cell} (<= 4)")


def test_criterion_02_cthin_limit_moments_power_control(capsys):
    # the same scoring fails on the law whose rho is 0.02 above the oracle's
    lam = -math.log(math.exp(-CTHIN_LAM) + 0.02)
    worst = {alpha: max(abs(z) for _, z in _cthin_moment_z(alpha, lam, MASTER + k))
             for k, alpha in enumerate(CTHIN_ALPHAS)}
    ok = max(worst.values()) > 4.0
    _report(capsys, "criterion 2b power", ok,
            "rho off by 0.02: worst |z| per alpha "
            + ", ".join(f"{a}: {z:.1f}" for a, z in worst.items()) + " (some > 4)")


def _cthin_ensemble_moment_z(alpha, lam, seed, n=200000):
    """The z-scores of n-path 2-point cthin ensembles at (alpha, lam) against the limit at CTHIN_LAM.

    The pairs come from ``simulate_ensemble`` in blocks of lanes, one
    ensemble at lag 1 and one at the irregular grid's first gap, 0.4; each
    scores the orders (1, 1) and (2, 2).
    """
    m = alpha / CTHIN_BETA
    rows = []
    for k, t in enumerate((1.0, CTHIN_GAPS[0])):
        ens = simulate_ensemble(ProcessKind.CONTINUOUSLY_THINNED, make_uniform_grid(0.0, t, 2),
                                GammaParams(alpha, CTHIN_BETA), Dependence(lam), n,
                                master_seed=seed + k)
        xs, xt = ens.values.T
        for i, j in ((1, 1), (2, 2)):
            y = (xs - m) ** i * (xt - m) ** j
            want = _cthin_limit_moment(i, j, t, alpha, CTHIN_BETA, CTHIN_LAM)
            rows.append(((t, i, j), (y.mean() - want) / (y.std() / math.sqrt(n))))
    return rows


def test_criterion_02_cthin_ensemble_limit_moments(capsys):
    # the same oracle through the ensemble's blocks of lanes, not the lane steps
    rows = [((alpha, *cell), z) for k, alpha in enumerate(CTHIN_ALPHAS)
            for cell, z in _cthin_ensemble_moment_z(alpha, CTHIN_LAM, MASTER + 2 * k)]
    cell, worst = max(rows, key=lambda r: abs(r[1]))
    ok = abs(worst) <= 4.0
    _report(capsys, "criterion 2c", ok,
            f"cthin 2-point ensembles vs the limit generator's moments, {len(rows)} cells: "
            f"worst |z| {abs(worst):.2f} at {cell} (<= 4)")


def test_criterion_02_cthin_ensemble_limit_moments_power_control(capsys):
    # the same scoring fails on the law whose rho is 0.02 above the oracle's
    lam = -math.log(math.exp(-CTHIN_LAM) + 0.02)
    worst = {alpha: max(abs(z) for _, z in _cthin_ensemble_moment_z(alpha, lam, MASTER + 2 * k))
             for k, alpha in enumerate(CTHIN_ALPHAS)}
    ok = max(worst.values()) > 4.0
    _report(capsys, "criterion 2c power", ok,
            "rho off by 0.02: worst |z| per alpha "
            + ", ".join(f"{a}: {z:.1f}" for a, z in worst.items()) + " (some > 4)")


# -- criterion 3: innovation sampler ------------------------------------------------


def test_criterion_03_innovation_chf(capsys):
    n = 100000
    omegas = np.array([0.25, 0.5, 1.0, 2.0])
    worst = 0.0
    for alpha, beta, rho in ((2.0, 1.0, 0.3), (0.7, 2.0, 0.8)):
        params = GammaParams(alpha, beta)
        x = walker_sample(n, params, rho, master_seed=MASTER)
        analytic = np.array([innovation_chf(w, params, rho) for w in omegas])
        z = _pair_z(x.reshape(-1, 1), omegas.reshape(-1, 1), analytic)
        worst = max(worst, float(np.max(z)))
    ok = worst <= 4.0
    _report(capsys, "criterion 3", ok,
            f"walker innovation chf at 4 frequencies x 2 parameter sets, "
            f"N={n}: worst z {worst:.2f} (<= 4)")


# -- criterion 4: pair-chf agreement --------------------------------------------------


def _pairs(kind, n, seed):
    """n pairs (X_0, X_1) of ``kind``: the rows of a 2-point ensemble."""
    return simulate_ensemble(kind, make_uniform_grid(0.0, 1.0, 2), P11, DEP5, n, seed).values


@functools.cache
def _criterion_04_pairs():
    """Criterion 4's samples: N = 1e5 pairs of each closed-form kind, seed MASTER + index."""
    return {kind: _pairs(kind, 100000, MASTER + ki)
            for ki, kind in enumerate(FIVE_CLOSED_FORM_KINDS)}


def _criterion_04_oracle(kind):
    return np.array([pair_chf(kind, s, t, P11, DEP5) for s, t in PAIR_OMEGAS])


def test_criterion_04_pair_chf(capsys):
    n = 100000
    worst = 0.0
    worst_kind = None
    for kind, samples in _criterion_04_pairs().items():
        z = float(np.max(_pair_z(samples, PAIR_OMEGAS, _criterion_04_oracle(kind))))
        if z > worst:
            worst, worst_kind = z, kind.cli_name
    # thinned and random-measure closed forms are one law: machine-level identity
    rng = np.random.default_rng(MASTER)
    args = rng.uniform(-4.0, 4.0, size=(1000, 2))
    ident = max(
        abs(pair_chf(ProcessKind.THINNED, s, t, P11, DEP5)
            - pair_chf(ProcessKind.RANDOM_MEASURE, s, t, P11, DEP5))
        for s, t in args
    )
    ok = worst <= 4.0 and ident < 1e-13
    _report(capsys, "criterion 4", ok,
            f"pair chf at 20 frequency pairs, N={n} pairs: worst z {worst:.2f} "
            f"({worst_kind}, <= 4); thinned==rm identity max |diff| {ident:.2e} at "
            f"1000 random arguments")


def test_criterion_04_power_control(capsys):
    # Each closed-form oracle scores every kind's criterion-4 pairs.  The kinds share
    # the marginal and the autocorrelation, so a wrong oracle differs only in the
    # joint law: each of the 18 ordered pairs of distinct laws must score z > 5, and
    # thinned and rm, which share the law of every adjacent pair, must still pass (z <= 4).
    same_law = {ProcessKind.THINNED, ProcessKind.RANDOM_MEASURE}
    oracles = {kind: _criterion_04_oracle(kind) for kind in FIVE_CLOSED_FORM_KINDS}
    distinct, shared = {}, {}
    for data_kind, samples in _criterion_04_pairs().items():
        for oracle_kind, analytic in oracles.items():
            if oracle_kind is data_kind:
                continue
            z = float(np.max(_pair_z(samples, PAIR_OMEGAS, analytic)))
            pair = f"{oracle_kind.cli_name} oracle on {data_kind.cli_name}"
            (shared if {oracle_kind, data_kind} == same_law else distinct)[pair] = z
    weakest = min(distinct, key=distinct.get)
    ok = (len(distinct) == 18 and distinct[weakest] > 5.0 and len(shared) == 2
          and max(shared.values()) <= 4.0)
    _report(capsys, "criterion 4 power", ok,
            f"18 mismatched oracles, N=100000 pairs: smallest z {distinct[weakest]:.1f} "
            f"({weakest}, > 5); thinned/rm oracles on each other's pairs: max z "
            f"{max(shared.values()):.2f} (<= 4)")


# -- criterion 5: triplet separation ---------------------------------------------------


def _thinned_triplet_chf_quad(w, params, dep):
    """Quadrature oracle for the thinned three-point chf (independent route).

    Conditioning on the second thinning variable u ~ Be(a rho, a (1-rho))
    reduces the triplet chf to the closed pair form integrated against the
    beta density.
    """
    a, b = params.alpha, params.beta
    r = dep.rho
    qb = 1.0 - r
    w1, w2, w3 = (float(v) for v in w)
    norm = special.beta(a * r, a * qb)

    def integrand(u, part):
        s = w2 + w3 * u
        val = (
            (1.0 - 1j * (w1 + s) / b) ** (-a * r)
            * (1.0 - 1j * s / b) ** (-a * qb)
            * u ** (a * r - 1.0) * (1.0 - u) ** (a * qb - 1.0) / norm
        )
        return val.real if part == 0 else val.imag

    re = integrate.quad(integrand, 0.0, 1.0, args=(0,), epsabs=1e-12,
                        epsrel=1e-11, limit=200)[0]
    im = integrate.quad(integrand, 0.0, 1.0, args=(1,), epsabs=1e-12,
                        epsrel=1e-11, limit=200)[0]
    pref = (1.0 - 1j * w1 / b) ** (-a * qb) * (1.0 - 1j * w3 / b) ** (-a * qb)
    return pref * (re + 1j * im)


def test_criterion_05_triplet_separation(capsys):
    n = 1_000_000
    grid3 = make_uniform_grid(0.0, 1.0, 3)
    omegas = default_omega_triples(P11.beta)

    def triplets(kind, seed):
        return triplet_sample(kind, n, P11, DEP5, master_seed=seed).T

    def max_z(a, b):
        return float(np.max(two_sample_chf(a, b, omegas)[0]))

    trip_t = triplets(ProcessKind.THINNED, MASTER)
    trip_r = triplets(ProcessKind.RANDOM_MEASURE, MASTER + 1)
    z = two_sample_chf(trip_t, trip_r, omegas)[0]
    sep_z = float(np.max(z))
    top = omegas[int(np.argmax(z))]

    # dual route: each empirical triplet chf must match its own analytic oracle
    oracle_t = _thinned_triplet_chf_quad(top, P11, DEP5)
    oracle_r = rm_joint_chf(top, grid3, P11, DEP5)
    z_t = float(np.max(_pair_z(trip_t, top.reshape(1, 3), np.array([oracle_t]))))
    z_r = float(np.max(_pair_z(trip_r, top.reshape(1, 3), np.array([oracle_r]))))
    analytic_gap = abs(oracle_t - oracle_r)

    # the laws of adjacent pairs coincide: two-sample pair z must stay below 4
    pair_z = float(np.max(two_sample_chf(
        _pairs(ProcessKind.THINNED, n, MASTER + 6),
        _pairs(ProcessKind.RANDOM_MEASURE, n, MASTER + 7), PAIR_OMEGAS)[0]))

    # null calibration: same kind, different seeds
    null_t = max_z(trip_t, triplets(ProcessKind.THINNED, MASTER + 2))
    null_r = max_z(trip_r, triplets(ProcessKind.RANDOM_MEASURE, MASTER + 3))
    null_z = max(null_t, null_r)

    ok = (sep_z > 5.0 and pair_z < 4.0 and null_z < 4.0
          and z_t <= 4.0 and z_r <= 4.0 and analytic_gap > 0.0)
    _report(capsys, "criterion 5", ok,
            f"thinned vs random-measure triplet chf, N={n} each: max two-sample z "
            f"{sep_z:.1f} (> 5) at omega {tuple(float(v) for v in top)}; "
            f"analytic gap {analytic_gap:.4f} "
            f"(oracle agreement z {z_t:.2f}/{z_r:.2f}); two-point z {pair_z:.2f} (< 4); "
            f"null z {null_z:.2f} (< 4)")


# -- criterion 6: CIR consistency ------------------------------------------------------


def test_criterion_06a_exact_chain_preserves_gamma(capsys):
    n = 100000
    worst = 0.0
    for i, params in enumerate((P11, GammaParams(1.5, 2.0))):
        x = marginal_sample(ProcessKind.SQUARED_OU, n, params, DEP5,
                            master_seed=MASTER + i)
        worst = max(worst, ks_statistic(x, params).statistic)
    crit = 1.628 / np.sqrt(n)
    ok = worst < crit
    _report(capsys, "criterion 6a", ok,
            f"exact-transition chain marginal KS at N={n}: worst {worst:.5f} < {crit:.5f}")


def test_criterion_06b_conditional_mean(capsys):
    dt = 0.7
    rho_d = DEP5.gap_corr(dt)
    worst = 0.0
    for i, x0 in enumerate((0.1, 1.0, 5.0)):
        (rep,) = generator_check(ProcessKind.SQUARED_OU, (TestFunction.identity(),), (x0,),
                                 P11, DEP5, epsilon=dt, n_mc=200000,
                                 master_seed=MASTER + i)
        target_rate = (x0 * rho_d + P11.mean * (1.0 - rho_d) - x0) / dt
        z = abs(rep.fd_estimate - target_rate) / rep.se
        worst = max(worst, z)
    ok = worst <= 4.0
    _report(capsys, "criterion 6b", ok,
            f"conditional mean x*rho_d + (a/b)(1-rho_d) after gap {dt}: worst z "
            f"{worst:.2f} over x0 in (0.1, 1, 5) (<= 4)")


def _euler_cir_marginal(n, params, dep, seed, substeps=16, burn=12.0):
    # the removed full-truncation Euler scheme's marginal_sample, kept as a power
    # control: lanes from a Ga(alpha, beta) start stepped for ``burn``
    # autocorrelation times at ``substeps`` steps per unit; the diffusion reads
    # max(X, 0), and a finite step leaves a stationary bias
    g = derive_stream(seed, 0).gen
    a, b, lam = params.alpha, params.beta, dep.lam
    h = 1.0 / substeps
    x = g.gamma(a, 1.0 / b, size=n)
    sig, sqh = math.sqrt(2.0 * lam / b), math.sqrt(h)
    for _ in range(math.ceil(burn / lam / h)):
        noise = sig * np.sqrt(np.maximum(x, 0.0)) * sqh * g.standard_normal(n)
        x = x - lam * (x - a / b) * h + noise
    return x


def test_criterion_06c_exact_marginal_and_euler_control(capsys):
    # the exact sampler must pass KS; the Euler scheme at 16 substeps per unit,
    # biased at Feller-critical alpha = 1, must fail it at the same N at seeds 1-3
    n = 100000
    crit = 1.628 / np.sqrt(n)
    x_x = marginal_sample(ProcessKind.SQUARED_OU, n, P11, DEP5, master_seed=MASTER)
    ks_x = ks_statistic(x_x, P11).statistic
    controls = [ks_statistic(_euler_cir_marginal(n, P11, DEP5, seed), P11).statistic
                for seed in (1, 2, 3)]
    ok = ks_x < crit and min(controls) > crit
    _report(capsys, "criterion 6c", ok,
            f"exact cir marginal KS {ks_x:.5f} < {crit:.5f} at N={n}; the Euler control "
            f"(16 substeps/unit) at seeds 1-3 reads "
            f"{', '.join(f'{c:.4f}' for c in controls)} (each must fail)")


def test_criterion_06d_squared_ou_matches_exact_acf(capsys):
    grid = make_uniform_grid(0.0, 1.0, 100000)
    exact = sample_path(ProcessKind.SQUARED_OU, derive_stream(MASTER, 0), grid, P11, DEP5,
                        method=CirMethod.EXACT)
    sou = sample_path(ProcessKind.SQUARED_OU, derive_stream(MASTER, 1), grid, P11, DEP5,
                      method=CirMethod.SQUARED_OU)
    rep_e = empirical_acf(exact, DEP5, max_lag=1)
    rep_s = empirical_acf(sou, DEP5, max_lag=1)
    z = abs(rep_e.estimates[0] - rep_s.estimates[0]) / np.hypot(
        rep_e.standard_errors[0], rep_s.standard_errors[0])
    ok = z <= 4.0
    _report(capsys, "criterion 6d", ok,
            f"squared-OU mode vs exact transition lag-1 acf: "
            f"{rep_s.estimates[0]:.4f} vs {rep_e.estimates[0]:.4f}, z {z:.2f} (<= 4)")


def test_criterion_06e_transition_density(capsys):
    params = GammaParams(1.2, 1.0)
    dep = DEP5
    dt, x_from = 0.7, 1.3

    total = integrate.quad(
        lambda y: cir_transition_density(y, x_from, params, dep, dt),
        0.0, np.inf, epsabs=1e-12, epsrel=1e-11, limit=300,
    )[0]
    int_dev = abs(total - 1.0)

    def stationary(v):
        return (params.beta**params.alpha * v ** (params.alpha - 1.0)
                * np.exp(-params.beta * v) / special.gamma(params.alpha))

    axis = np.linspace(0.25, 6.0, 20)
    balance = 0.0
    for xv in axis:
        for yv in axis:
            fwd = stationary(xv) * cir_transition_density(yv, xv, params, dep, dt)
            bwd = stationary(yv) * cir_transition_density(xv, yv, params, dep, dt)
            balance = max(balance, abs(fwd - bwd))
    ok = int_dev <= 1e-8 and balance <= 1e-9
    _report(capsys, "criterion 6e", ok,
            f"transition density: integral deviation {int_dev:.2e} (<= 1e-8), "
            f"detailed balance {balance:.2e} on 20x20 grid (<= 1e-9)")


def test_criterion_06f_positive_paths(capsys):
    grid = make_uniform_grid(0.0, 1.0, 100000)
    params = GammaParams(1.5, 1.0)
    path = sample_path(ProcessKind.SQUARED_OU, derive_stream(MASTER, 0), grid, params, DEP5,
                       method=CirMethod.EXACT)
    lo = float(np.min(path.values))
    ok = lo > 0.0
    _report(capsys, "criterion 6f", ok,
            f"alpha=1.5 exact path minimum over 1e5 steps: {lo:.2e} (> 0)")


# -- criterion 7: generators -----------------------------------------------------------


def test_criterion_07_generator_checks(capsys):
    kinds = (ProcessKind.SQUARED_OU, ProcessKind.CONTINUOUSLY_THINNED)
    functions = (TestFunction.identity(), TestFunction.square())
    worst = 0.0
    for i, kind in enumerate(kinds):
        for j, phi in enumerate(functions):
            for k, x0 in enumerate((0.5, 2.0)):
                (rep,) = generator_check(kind, (phi,), (x0,), P11, DEP5, n_mc=1_000_000,
                                         master_seed=MASTER + 10 * i + 4 * j + k)
                worst = max(worst, rep.z)

    # identity generators agree...
    id_gap = max(
        abs(generator_apply(ProcessKind.SQUARED_OU, TestFunction.identity(), x0, P11, DEP5)
            - generator_apply(ProcessKind.CONTINUOUSLY_THINNED, TestFunction.identity(),
                              x0, P11, DEP5))
        for x0 in (0.5, 2.0)
    )
    # ...while the square generators separate by more than 8 pooled se at x0=2
    (sq_ou,) = generator_check(ProcessKind.SQUARED_OU, (TestFunction.square(),), (2.0,), P11,
                               DEP5, n_mc=10_000_000, master_seed=MASTER)
    (sq_ct,) = generator_check(ProcessKind.CONTINUOUSLY_THINNED, (TestFunction.square(),),
                               (2.0,), P11, DEP5, n_mc=10_000_000, master_seed=MASTER + 1)
    gap = abs(sq_ou.analytic - sq_ct.analytic)
    pooled = float(np.hypot(sq_ou.se, sq_ct.se))
    ratio = gap / pooled
    ok = (worst <= 4.0 and id_gap < 1e-9 and ratio > 8.0
          and sq_ou.z <= 4.0 and sq_ct.z <= 4.0)
    _report(capsys, "criterion 7", ok,
            f"finite-difference generator at eps=1e-3/lam, N=1e6: worst z {worst:.2f} "
            f"over 8 combos (<= 4); identity generators agree ({id_gap:.1e}); square "
            f"generators at x0=2 separate by {gap:.4f} = {ratio:.1f} pooled se (> 8)")


# -- criterion 8: reversibility ----------------------------------------------------------


def test_criterion_08_reversibility(capsys):
    from gammaproc import reversibility_check

    grid = make_uniform_grid(0.0, 1.0, 100000)
    path = sample_path(ProcessKind.AR1, derive_stream(MASTER, 0), grid, P11, DEP5)
    rep = reversibility_check(path, DEP5)

    sym = 0.0
    for kind in (ProcessKind.THINNED, ProcessKind.RANDOM_MEASURE,
                 ProcessKind.CHANGE_POINT, ProcessKind.SQUARED_OU):
        for s, t in PAIR_OMEGAS:
            sym = max(sym, abs(pair_chf(kind, s, t, P11, DEP5)
                               - pair_chf(kind, t, s, P11, DEP5)))
    asym = max(abs(pair_chf(ProcessKind.AR1, s, t, P11, DEP5)
                   - pair_chf(ProcessKind.AR1, t, s, P11, DEP5))
               for s, t in PAIR_OMEGAS)
    ok = (rep.forward_violations == 0 and rep.backward_violation_rate > 0.0
          and sym < 1e-12 and asym > 1e-3)
    _report(capsys, "criterion 8", ok,
            f"ar1 over 1e5 steps: forward violations {rep.forward_violations} (== 0), "
            f"backward rate {rep.backward_violation_rate:.3f} (> 0); four kinds' pair "
            f"chfs symmetric to {sym:.1e}, ar1 asymmetry {asym:.2f}")


# -- criterion 9: tent partition -----------------------------------------------------------


def _tent_height(x, t, lam):
    return lam * np.exp(-2.0 * lam * np.abs(x - t))


def _cell_area_oracle(times, lam, i, j):
    """Planar-geometry oracle: area where exactly tents i..j cover the point."""
    inside = times[i:j + 1]
    outside = np.concatenate((times[:i], times[j + 1:]))

    def width(x):
        lo = np.min(_tent_height(x, inside, lam))
        hi = np.max(_tent_height(x, outside, lam)) if outside.size else 0.0
        return max(0.0, lo - hi)

    lo, hi = times[0] - 30.0 / lam, times[-1] + 30.0 / lam
    val = integrate.quad(width, lo, hi, points=list(times), limit=400,
                         epsabs=1e-10, epsrel=1e-9)[0]
    return val


def test_criterion_09_tent_partition(capsys):
    # worked three-point example at rho = 0.5
    part3 = tent_partition(make_uniform_grid(0.0, 1.0, 3), DEP5)
    m = part3.masses
    worked = np.array([m[0, 0], m[1, 1], m[2, 2], m[0, 1], m[1, 2], m[0, 2]])
    expect = np.array([0.5, 0.25, 0.5, 0.25, 0.25, 0.25])
    worked_dev = float(np.max(np.abs(worked - expect)))

    # random grids up to n=50: nonnegative masses, unit row sums
    rng = np.random.default_rng(MASTER)
    row_dev, min_mass = 0.0, np.inf
    for n, rho in ((5, 0.3), (17, 0.6), (50, 0.9)):
        times = np.cumsum(rng.uniform(0.05, 1.0, size=n))
        part = tent_partition(TimeGrid(times), Dependence.from_rho(rho))
        min_mass = min(min_mass, float(np.min(part.masses)))
        for k in range(n):
            row_dev = max(row_dev, abs(part.row_sum(k) - 1.0))

    # inclusion-exclusion vs direct 2-D geometry of the tent overlaps
    oracle_dev = 0.0
    for n, rho, salt in ((6, 0.5, 1), (5, 0.8, 2)):
        g = np.random.default_rng(MASTER + salt)
        times = np.cumsum(g.uniform(0.2, 1.2, size=n))
        dep = Dependence.from_rho(rho)
        part = tent_partition(TimeGrid(times), dep)
        for i in range(n):
            for j in range(i, n):
                oracle = _cell_area_oracle(times, dep.lam, i, j)
                oracle_dev = max(oracle_dev, abs(oracle - part.masses[i, j]))
    ok = (worked_dev < 1e-14 and min_mass >= 0.0 and row_dev <= 1e-12
          and oracle_dev <= 1e-6)
    _report(capsys, "criterion 9", ok,
            f"tent partition: worked 3-point values to {worked_dev:.1e}; min mass "
            f"{min_mass:.1e} (>= 0), row sums within {row_dev:.1e} (<= 1e-12) up to "
            f"n=50; geometry oracle agreement {oracle_dev:.1e} (<= 1e-6)")


# -- criterion 10: tail behavior --------------------------------------------------------------


def test_criterion_10_tail(capsys):
    mp.mp.dps = 40
    u_grid = np.array([5.0, 10.0, 15.0, 20.0, 25.0, 30.0])
    table = tail_check(P11, u_grid)
    i10 = 1
    i30 = 5
    r10 = table.nl_approximant[i10] / table.nl_survival[i10]
    r30 = table.nl_approximant[i30] / table.nl_survival[i30]
    converges = abs(r30 - 1.0) < abs(r10 - 1.0)

    rel = 0.0
    for i, u in enumerate(u_grid):
        ref_surv = float(mp.gammainc(1.0, u, mp.inf, regularized=True))
        ref_levy = float(mp.e1(u))
        rel = max(rel,
                  abs(table.survival[i] - ref_surv) / ref_surv,
                  abs(table.levy_exact[i] - ref_levy) / ref_levy)
    ok = converges and rel <= 1e-10 and table.tail_ok
    _report(capsys, "criterion 10", ok,
            f"-log(approximant)/-log(survival) ratio {r10:.4f} at u=10 -> {r30:.4f} "
            f"at u=30 (approaches 1); exact columns within {rel:.1e} of "
            f"extended-precision oracles (<= 1e-10)")


# -- criterion 11: determinism -----------------------------------------------------------------


def test_criterion_11_determinism(capsys, tmp_path):
    base = ["simulate", "--process", "cir", "--alpha", "1.5", "--beta", "2.0",
            "--rho", "0.5", "--n", "32", "--paths", "5", "--seed", "20260817"]
    runs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.csv"
        assert cli_main(base + ["--out", str(out)]) == 0
        runs.append(out.read_bytes())
    same_csv = runs[0] == runs[1]

    out_j1 = tmp_path / "x1.json"
    out_j2 = tmp_path / "x2.json"
    jbase = ["simulate", "--process", "cthin", "--n", "8", "--paths", "3",
             "--seed", "7", "--format", "json"]
    assert cli_main(jbase + ["--out", str(out_j1)]) == 0
    assert cli_main(jbase + ["--out", str(out_j2)]) == 0
    same_json = out_j1.read_bytes() == out_j2.read_bytes()

    ok = same_csv and same_json
    _report(capsys, "criterion 11", ok,
            f"byte-identical simulate output on a repeated run: cir csv {same_csv}, "
            f"cthin json {same_json}")
