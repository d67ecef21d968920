import argparse
import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gammaproc import processes
from gammaproc.cli import _resolve_grid
from gammaproc import (
    CirMethod,
    Dependence,
    GammaParams,
    NumericalError,
    ParameterError,
    ProcessKind,
    TestFunction,
    TimeGrid,
    UnsupportedKindError,
    derive_stream,
    generator_check,
    make_uniform_grid,
    marginal_sample,
    sample_path,
    simulate_ensemble,
    tent_partition,
    triplet_sample,
    walker_sample,
)

P11 = GammaParams(1.0, 1.0)
DEP5 = Dependence.from_rho(0.5)


# -- tent partition ------------------------------------------------------------


def test_tent_partition_worked_three_point_example():
    # uniform grid 0,1,2 at rho = 0.5: cell masses
    #   {0},{1},{2} -> 0.5, 0.25, 0.5 and {0,1},{1,2} -> 0.25, {0,1,2} -> 0.25
    part = tent_partition(make_uniform_grid(0.0, 1.0, 3), DEP5)
    m = part.masses
    assert m[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert m[1, 1] == pytest.approx(0.25, abs=1e-15)
    assert m[2, 2] == pytest.approx(0.5, abs=1e-15)
    assert m[0, 1] == pytest.approx(0.25, abs=1e-15)
    assert m[1, 2] == pytest.approx(0.25, abs=1e-15)
    assert m[0, 2] == pytest.approx(0.25, abs=1e-15)


def test_tent_partition_row_and_pair_sums():
    grid = TimeGrid(np.array([0.0, 0.3, 1.1, 2.4]))
    dep = Dependence.from_rho(0.8)
    part = tent_partition(grid, dep)
    for k in range(grid.n):
        assert part.row_sum(k) == pytest.approx(1.0, abs=1e-13)
    for k in range(grid.n):
        for l in range(k + 1, grid.n):
            gap = grid.times[l] - grid.times[k]
            assert part.pair_sum(k, l) == pytest.approx(dep.gap_corr(gap), abs=1e-13)


def test_tent_partition_masses_read_only():
    part = tent_partition(make_uniform_grid(0.0, 1.0, 3), DEP5)
    with pytest.raises(ValueError):
        part.masses[0, 0] = 2.0


def _reference_band_masses(times, rho, d):
    # _band_masses as it was before a diagonal's power rows were shared, verbatim
    n = len(times)
    a_d = rho ** (times[d:] - times[: n - d])
    m = a_d.copy()
    if d + 1 <= n - 1:
        a_d1 = rho ** (times[d + 1 :] - times[: n - d - 1])
        m[1:] -= a_d1  # A(i-1, j), i = 1..n-1-d
        m[: n - d - 1] -= a_d1  # A(i, j+1), i = 0..n-2-d
    if d + 2 <= n - 1:
        a_d2 = rho ** (times[d + 2 :] - times[: n - d - 2])
        m[1 : n - d - 1] += a_d2  # A(i-1, j+1), i = 1..n-2-d
    lo = float(np.min(m))
    if lo < -1e-9:
        raise NumericalError(f"tent partition produced mass {lo} < 0 on diagonal {d}")
    return np.maximum(m, 0.0)


def _irregular_times(n, seed):
    return np.cumsum(np.random.default_rng(seed).uniform(0.01, 1.5, n))


@pytest.mark.parametrize("n", [2, 3, 4, 40])
@pytest.mark.parametrize("rho", [0.001, 0.5, 0.999])
def test_tent_partition_gives_the_reference_band_mass_bytes(n, rho):
    times, dep = _irregular_times(n, seed=n), Dependence.from_rho(rho)
    ref = np.zeros((n, n))
    for d in range(n):
        idx = np.arange(n - d)
        ref[idx, idx + d] = _reference_band_masses(times, dep.rho, d)
    assert tent_partition(TimeGrid(times), dep).masses.tobytes() == ref.tobytes()


def _reference_add_diagonal(self, values, d, cells):
    # _RandomMeasurePlan._add_diagonal as it was with index gathers, verbatim
    n = self.n
    k = np.arange(n)
    csum = np.zeros((cells.shape[0], n - d + 1))
    np.cumsum(cells, axis=1, out=csum[:, 1:])
    hi = np.minimum(k, n - 1 - d) + 1
    lo = np.maximum(0, k - d)
    values += csum[:, hi] - csum[:, lo]


# (grid, split) of each (alpha, rho): the first two draw a sparse tail from
# diagonals 15 and 1 on 300 gaps of 0.9 to 1.1, where the tail's shape bounds
# are near the cells' shapes, so it keeps cells; the third has no tail on 60
# gaps of 0.01 to 1.5
RM_TAIL_GRID = TimeGrid(np.cumsum(np.random.default_rng(7).uniform(0.9, 1.1, 300)))
RM_ROUTE_CASES = {(2.0, 0.5): (RM_TAIL_GRID, 15), (0.01, 0.001): (RM_TAIL_GRID, 1),
                  (0.7, 0.9): (TimeGrid(_irregular_times(60, seed=7)), 60)}


@pytest.mark.parametrize("alpha,rho", list(RM_ROUTE_CASES))
def test_rm_diagonal_by_diagonal_route_gives_the_planned_route_bytes(monkeypatch, alpha, rho):
    grid, split = RM_ROUTE_CASES[alpha, rho]
    params, dep = GammaParams(alpha, 1.3), Dependence.from_rho(rho)
    plan = processes._RandomMeasurePlan(grid, params, dep)
    assert plan.split == split and bool(plan.tail_bounds.size) == (split < grid.n)

    def path():
        return sample_path(ProcessKind.RANDOM_MEASURE, derive_stream(8, 2), grid, params,
                           dep).values.tobytes()

    def ensemble():
        return simulate_ensemble(ProcessKind.RANDOM_MEASURE, grid, params, dep, 5,
                                 master_seed=8).values.tobytes()

    assert plan.resume is None  # the plan holds every dense diagonal
    planned = [path(), ensemble()]
    with monkeypatch.context() as m:
        m.setattr(processes._RandomMeasurePlan, "_add_diagonal", _reference_add_diagonal)
        assert [path(), ensemble()] == planned
    with monkeypatch.context() as m:  # a tail keeps cells in this path
        m.setattr(processes._RandomMeasurePlan, "_add_tail", lambda self, gen, values: None)
        assert (path() != planned[0]) == (split < grid.n)
    # a capped plan's width, and so its B, differs from the default plan's,
    # so the ensembles compare at B == 1 on both sides
    monkeypatch.setattr(processes, "_BLOCK_DRAWS", 1)
    planned = [path(), ensemble()]
    for plan_cells in (10, 100, 200):
        with monkeypatch.context() as m:
            m.setattr(processes, "_PLAN_CELLS", plan_cells)
            capped = processes._RandomMeasurePlan(grid, params, dep)
            assert capped.resume is not None and capped.width > plan_cells
            assert [path(), ensemble()] == planned, plan_cells


@pytest.mark.parametrize("plan_cells", [10, 100, 200])
def test_rm_diagonal_by_diagonal_route_computes_each_diagonal_once(monkeypatch, plan_cells):
    # the plan keeps the diagonals that fit and each block resumes the walk after
    # them, up to the split; the tail computes no band masses
    grid = RM_TAIL_GRID
    params, dep = GammaParams(2.0, 1.3), Dependence.from_rho(0.5)
    seen = []

    def counted(powers, d):
        seen.append(d)
        return band_masses(powers, d)

    band_masses = processes._band_masses
    monkeypatch.setattr(processes, "_PLAN_CELLS", plan_cells)
    monkeypatch.setattr(processes, "_band_masses", counted)
    plan = processes._RandomMeasurePlan(grid, params, dep)
    assert plan.resume is not None and plan.width > plan_cells and plan.tail_bounds.size
    head = list(seen)
    assert head == list(range(plan.diagonals))
    seen.clear()
    plan.block(derive_stream(8, 3).gen, 1)
    diagonals = seen[-1] + 1
    assert diagonals == plan.split
    assert seen == list(range(len(head), diagonals))
    seen.clear()
    plan.block(derive_stream(8, 4).gen, 1)
    assert seen == list(range(len(head), diagonals))


def test_rm_walk_that_the_cutoff_ends_before_the_split_draws_no_tail():
    # one gap of 0.3 among gaps of 10: every pair correlation on diagonal 7 lies below
    # 1e-18, so the walk ends there, while the shape bounds from the smallest gap put
    # the split at 12; the cells past the walk could not be nonzero in float64
    times = np.concatenate(([0.0], 0.3 + 10.0 * np.arange(19)))
    plan = processes._RandomMeasurePlan(TimeGrid(times), GammaParams(1e-3, 1.0), DEP5)
    assert (plan.diagonals, plan.split, plan.n) == (7, 12, 20)
    gen, dense = derive_stream(8, 0).gen, derive_stream(8, 0).gen
    plan.block(gen, 2)
    masses = tent_partition(plan.grid, DEP5).masses
    _gamma_rows(dense, np.concatenate([1e-3 * np.diagonal(masses, d) for d in range(7)]), 2)
    assert gen.random() == dense.random()  # the block drew its dense cells and nothing more


# -- the rm tail's cells against dense gamma draws --------------------------------

TAIL_SHAPES = (3e-6, 1e-5, 1e-4, 3e-4)  # both sides of processes._TAIL_SHAPE (1e-4)
TAIL_XS = (0.0, 1e-300, 1e-20, 1e-5, 1e-2)
TAIL_CELLS = 2_000_000


@functools.lru_cache(maxsize=None)
def _dense_exceedances(k):
    """How many of TAIL_CELLS dense standard_gamma draws at TAIL_SHAPES[k] exceed each x."""
    x = derive_stream(31, k).gen.standard_gamma(TAIL_SHAPES[k], TAIL_CELLS)
    return np.array([np.count_nonzero(x > t) for t in TAIL_XS])


def _tail_law_max_z(cells):
    """Worst binomial z of P(X > x) between ``cells(gen, s)`` and dense draws, over s and x.

    ``cells`` returns the kept values of TAIL_CELLS cells of shape s (the rest are 0.0).
    """
    worst = 0.0
    for k, s in enumerate(TAIL_SHAPES):
        x = cells(derive_stream(32, k).gen, s)
        tail = np.array([np.count_nonzero(x > t) for t in TAIL_XS])
        dense = _dense_exceedances(k)
        p = (tail + dense) / (2.0 * TAIL_CELLS)
        z = np.abs(tail - dense) / np.sqrt(2.0 * TAIL_CELLS * p * (1.0 - p))
        worst = max(worst, float(np.max(z)))
    return worst


def _tail_sampler(gen, s, bound, draw=processes._tail_cells):
    # the tail's draws for TAIL_CELLS cells of shape s on a diagonal of shape bound
    q_max = processes._nonzero_prob(bound)
    candidates = gen.binomial(TAIL_CELLS, q_max)
    kept, x = draw(gen, np.full(candidates, s), q_max)
    assert x.size == np.count_nonzero(kept)
    return x


def test_rm_tail_cells_have_the_dense_gamma_law():
    # the bound 1.5 s exercises the acceptance step; at the bound s itself every candidate is kept
    assert _tail_law_max_z(lambda gen, s: _tail_sampler(gen, s, 1.5 * s)) <= 4.0
    assert _tail_law_max_z(lambda gen, s: _tail_sampler(gen, s, s)) <= 4.0


def _unconditioned_cells(gen, s, q_max):
    # _tail_cells with U' ~ U(0, 1): it drops the conditioning U' >= 2**(-1100 s)
    q = processes._nonzero_prob(s)
    kept = gen.random(s.size) < q / q_max
    s = s[kept]
    v = gen.random(s.size)
    return kept, np.exp(np.log1p(-v) / s) * gen.standard_gamma(1.0 + s)


@pytest.mark.parametrize("control", ["unconditioned", "shape 5% high"])
def test_rm_tail_law_power_control(control):
    # the law test must fail a tail that forgets the conditioning or is off in shape
    if control == "unconditioned":
        z = _tail_law_max_z(lambda gen, s: _tail_sampler(gen, s, 1.5 * s, _unconditioned_cells))
    else:
        z = _tail_law_max_z(lambda gen, s: _tail_sampler(gen, 1.05 * s, 1.5 * 1.05 * s))
    assert z > 4.0


# Corners of the rm plan (a slice of ROADMAP item 10's corner test): on 300 unit
# gaps, rho 0.999 with alpha up to 0.05 is all sparse (split 0), alpha 2 and 50
# there are all dense (no tail), and rho 1e-6 and 0.5 are mixed.
RM_CORNER_GRID = make_uniform_grid(0.0, 1.0, 300)


@pytest.mark.parametrize("rho", [1e-6, 0.5, 0.999])
@pytest.mark.parametrize("alpha", [1e-3, 0.05, 2.0, 50.0])
def test_rm_corner_paths_and_ensembles_are_finite_nonnegative_and_centred(alpha, rho):
    grid, params, dep = RM_CORNER_GRID, GammaParams(alpha, 1.5), Dependence.from_rho(rho)
    n, n_paths = grid.n, 64
    plan = processes._RandomMeasurePlan(grid, params, dep)
    layout = ("all sparse" if plan.split == 0 else "mixed" if plan.tail_bounds.size
              else "all dense")
    assert layout == {0.999: "all sparse" if alpha < 1.0 else "all dense"}.get(rho, "mixed")
    # the variance of one path's mean: alpha / beta**2 times the mean pair correlation
    lags = np.arange(1, n)
    mean_corr = (n + 2.0 * np.sum((n - lags) * rho**lags)) / n**2
    path_sd = math.sqrt(params.alpha / params.beta**2 * mean_corr)
    path = sample_path(ProcessKind.RANDOM_MEASURE, derive_stream(3, 0), grid, params, dep).values
    ens = simulate_ensemble(ProcessKind.RANDOM_MEASURE, grid, params, dep, n_paths, 4).values
    for values, sd in ((path, path_sd), (ens, path_sd / math.sqrt(n_paths))):
        assert np.all(np.isfinite(values)) and np.all(values >= 0.0)
        # six standard deviations: by Chebyshev, any law stays within with probability >= 35/36
        assert abs(np.mean(values) - params.mean) <= 6.0 * sd


@pytest.mark.xfail(strict=True, reason="rm's dense diagonals sum their cells by differences of "
                   "running sums, which lose a cell small against the sum before it (CHANGES.md "
                   "FOUND: on _add_diagonal; ROADMAP item 16)")
def test_rm_small_cells_survive_at_every_time():
    # X_0 and X_1 have one law, so as many exact zeros; X_1 = (c00 + c11) - c00 is 0.0
    # whenever its own cell c11 is small against c00
    grid, params = make_uniform_grid(0.0, 1.0, 2), GammaParams(0.01, 1.0)
    dep, n_paths = Dependence.from_rho(0.001), 20000
    values = simulate_ensemble(ProcessKind.RANDOM_MEASURE, grid, params, dep, n_paths, 3).values
    zeros = np.count_nonzero(values == 0.0, axis=0) / n_paths
    p = np.mean(zeros)  # pooled, for the binomial standard error of the difference
    assert abs(zeros[1] - zeros[0]) <= 4.0 * math.sqrt(2.0 * p * (1.0 - p) / n_paths), zeros


# -- path samplers: structural invariants ---------------------------------------


def test_ar1_path_respects_decay_floor():
    grid = make_uniform_grid(0.0, 0.5, 4000)
    path = sample_path(ProcessKind.AR1, derive_stream(1, 0), grid, P11, DEP5)
    rho_g = DEP5.rho**grid.gaps
    assert np.all(path.values[1:] >= rho_g * path.values[:-1])
    assert np.all(path.values > 0.0)


def test_changepoint_path_keeps_or_refreshes():
    grid = make_uniform_grid(0.0, 1.0, 4000)
    path = sample_path(ProcessKind.CHANGE_POINT, derive_stream(2, 0), grid, P11, DEP5)
    same = path.values[1:] == path.values[:-1]
    # kept steps are bit-identical; refresh probability 1 - rho = 0.5
    frac = np.mean(same)
    assert 0.45 < frac < 0.55


def test_thinned_path_positive():
    grid = make_uniform_grid(0.0, 1.0, 2000)
    path = sample_path(ProcessKind.THINNED, derive_stream(3, 0), grid, P11, DEP5)
    assert np.all(path.values > 0.0)


def test_random_measure_path_positive_and_stationary_mean():
    grid = make_uniform_grid(0.0, 1.0, 20000)
    path = sample_path(ProcessKind.RANDOM_MEASURE, derive_stream(4, 0), grid, P11, DEP5)
    assert np.all(path.values > 0.0)
    assert abs(np.mean(path.values) - P11.mean) < 0.1


def test_cir_path_methods():
    grid = make_uniform_grid(0.0, 1.0, 500)
    exact = sample_path(ProcessKind.SQUARED_OU, derive_stream(5, 0), grid, P11, DEP5,
                        method=CirMethod.EXACT)
    assert np.all(exact.values >= 0.0)
    sou = sample_path(ProcessKind.SQUARED_OU, derive_stream(5, 0), grid, P11, DEP5,
                      method=CirMethod.SQUARED_OU)
    assert np.all(sou.values >= 0.0)


def _cir_grids(tmp_path):
    times = tmp_path / "times.txt"
    times.write_text("0 0.25 0.5 1.75 1.8\n2.0, 2.25 9.0 11\n")
    ns = argparse.Namespace(times=str(times), t0=0.0, dt=1.0, n=None)
    rng = np.random.default_rng(4)
    return {
        "uniform": make_uniform_grid(0.0, 1.0, 100000),  # verify's acf grid at the default --dt
        "irregular": TimeGrid(np.cumsum(rng.exponential(0.3, 5000))),
        "times": _resolve_grid(ns, 100),
    }


@pytest.mark.parametrize("name", ["uniform", "irregular", "times"])
def test_exact_cir_gap_correlations_keep_the_scalar_power_bytes(tmp_path, name):
    grid = _cir_grids(tmp_path)[name]
    for dep in (DEP5, Dependence(0.1), Dependence.from_rho(0.999)):
        plan = processes._CirExactPlan(grid, GammaParams(1.5, 2.0), dep)
        ref = np.fromiter((dep.rho**dt for dt in grid.gaps.tolist()), float, count=grid.n - 1)
        assert plan.rho_d.tobytes() == ref.tobytes()


def test_cir_squared_ou_requires_half_integer_alpha():
    grid = make_uniform_grid(0.0, 1.0, 10)
    with pytest.raises(ParameterError):
        sample_path(ProcessKind.SQUARED_OU, derive_stream(0, 0), grid, GammaParams(1.3, 1.0),
                    DEP5, method=CirMethod.SQUARED_OU)


def test_cir_method_parse():
    assert CirMethod.parse("exact") is CirMethod.EXACT
    assert CirMethod.parse("squared-ou") is CirMethod.SQUARED_OU
    with pytest.raises(ParameterError):
        CirMethod.parse("heun")


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-lane"])
@pytest.mark.parametrize("lanes", [1, 3, 16, 40])
def test_affine_recursion_equals_a_scalar_loop(lanes, shared):
    # below 16 lanes the rows run on Python floats, 4096 steps at a time; from 16
    # on as numpy columns.  Either way each element is fl(fl(a x) + z).
    rng = np.random.default_rng(lanes)
    steps = 2 * 4096 + 37
    a = rng.random(steps if shared else (lanes, steps))
    a.flat[::97] = 0.0
    a.flat[5::89] = 1e-300  # the product underflows
    z = rng.gamma(0.3, 1.0, (lanes, steps))
    z[:, ::13] = 0.0
    x0 = rng.gamma(2.0, 1.0, lanes)
    out = processes._affine_recursion(a, z, x0)
    a_rows = np.broadcast_to(a, z.shape)
    for i in range(lanes):
        x, want = float(x0[i]), [float(x0[i])]
        for ak, zk in zip(a_rows[i].tolist(), z[i].tolist()):
            x = ak * x + zk
            want.append(x)
        assert out[i].tobytes() == np.array(want).tobytes()


def _cthin_reference_factors(gen, a, b, steps):
    """(M, Z) of every segment, event by event on Python floats, from the draws
    ``processes._cthin_factors`` documents, in its stream order (one chunk)."""
    rate, drift, rem_shape, rem_rate, prob, alias = processes._cthin_series(a)
    terms = processes._CTHIN_TERMS
    sizes = (gen.poisson(rate * steps) + 1).tolist()
    spacing = gen.standard_exponential(sum(sizes))
    n_events = sum(sizes) - len(sizes)
    comp = []
    for v in (gen.random(n_events) * terms).tolist():
        k = int(v)
        comp.append(k if v - k < prob[k] else int(alias[k]))
    mult = [math.exp(-e / (a + j)) for e, j in zip(gen.standard_exponential(n_events), comp)]
    h = []
    pos = 0
    for t, size in zip(steps.tolist(), sizes):
        seg = spacing[pos : pos + size]
        h += (t * seg / seg.sum()).tolist()
        pos += size
    tops = gen.standard_gamma(a * np.array(h)).tolist()
    rems = gen.standard_gamma(rem_shape * np.array(h)).tolist()
    out, i, e = [], 0, 0
    for size in sizes:
        m, z = 1.0, 0.0
        for k in range(size):
            r = math.exp(-rems[i] / rem_rate)  # the remainder factor R of the interval
            # the top-up enters at R^(1/2), times (1 - e^-ch) / (ch) / E[R^(1/2)]
            c = drift * h[i]
            scale_i = -math.expm1(-c) / c if c > 0.0 else 1.0
            scale_i /= (rem_rate / (rem_rate + 0.5)) ** (rem_shape * h[i])
            m, z = m * r, z * r + tops[i] * scale_i / b * math.sqrt(r)
            if k < size - 1:  # every interval but the segment's last ends in an event
                m, z = m * mult[e], z * mult[e]
                e += 1
            i += 1
        out.append((m, z))
    return np.array(out).T


@pytest.mark.parametrize("alpha", [0.02, 0.7, 2.0, 50.0])
def test_cthin_series_factors_equal_an_event_by_event_reference(alpha):
    # several segments of mixed lengths, one with no event at all
    steps = np.array([0.3, 1e-9, 2.0, 0.05, 1.1])
    m, z = processes._cthin_factors(derive_stream(3, 0).gen, alpha, 1.5, steps)
    ref_m, ref_z = _cthin_reference_factors(derive_stream(3, 0).gen, alpha, 1.5, steps)
    np.testing.assert_allclose(m, ref_m, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(z, ref_z, rtol=1e-12, atol=1e-300)


@pytest.mark.parametrize("alpha", [0.001, 0.05, 2.0, 37.0, 5000.0])
def test_cthin_alias_table_draws_each_component_at_its_rate(alpha):
    rate, drift, _, _, prob, alias = processes._cthin_series(alpha)
    terms = processes._CTHIN_TERMS
    # column k gives j = k with probability prob[k] and alias[k] otherwise
    implied = prob.copy()
    np.add.at(implied, alias, 1.0 - prob)
    w = 1.0 / (alpha + np.arange(terms))
    np.testing.assert_allclose(implied / terms, w / w.sum(), rtol=1e-9)
    assert np.all((prob >= 0.0) & (prob <= 1.0))
    # the kept components and the drift lower the conditional mean at rate 1 (per lam)
    assert math.fsum(alpha * w / (alpha + 1.0 + np.arange(terms))) + drift == pytest.approx(1.0)
    assert rate == pytest.approx(alpha * math.fsum(w), rel=1e-12)


@pytest.mark.parametrize("alpha", [1e-8, 0.001, 0.05, 2.0, 37.0, 5000.0, 1e9, 1e15])
def test_cthin_remainder_keeps_the_first_two_moment_rates(alpha):
    # R = exp(-Ga(k t, v)) over lam-time t: E[R] and E[R^2] fall at the rates of
    # the components j >= J it replaces, sum_j a/((a+j)(a+j+s)) for s = 1, 2
    _, drift, k, v, _, _ = processes._cthin_series(alpha)
    big = alpha + processes._CTHIN_TERMS
    assert drift == alpha / big
    assert k * math.log1p(1.0 / v) == pytest.approx(alpha / big, rel=1e-14)
    assert k * math.log1p(2.0 / v) == pytest.approx(alpha / big + alpha / (big + 1.0), rel=1e-14)
    # the log-variance rate, a difference of the two, to the same relative precision
    assert k * math.log1p(1.0 / (v * (v + 2.0))) == pytest.approx(
        alpha / (big * (big + 1.0)), rel=1e-14)


def _cthin_chunk_cuts(a, steps):
    """Where ``processes._cthin_factors`` cuts a run of segments into chunks of
    about ``processes._CTHIN_CHUNK`` expected intervals."""
    chunk = processes._CTHIN_CHUNK
    cost = np.cumsum(processes._cthin_series(a)[0] * steps + 1.0)
    return [0, *np.searchsorted(cost, np.arange(chunk, cost[-1], chunk)).tolist(), steps.size]


def _cthin_reference_chunks(gen, a, b, steps):
    """``_cthin_reference_factors`` chunk by chunk, as ``processes._cthin_factors`` draws."""
    cuts = _cthin_chunk_cuts(a, steps)
    return np.concatenate([_cthin_reference_factors(gen, a, b, steps[lo:hi])
                           for lo, hi in zip(cuts[:-1], cuts[1:]) if hi > lo], axis=1)


def test_cthin_chunks_give_the_one_chunk_factors(monkeypatch):
    steps = np.linspace(0.1, 1.0, 40)
    one = processes._cthin_factors(derive_stream(5, 0).gen, 2.0, 1.0, steps)
    monkeypatch.setattr(processes, "_CTHIN_CHUNK", 64)  # chunks of a few segments
    assert len(set(_cthin_chunk_cuts(2.0, steps))) > 5
    ref = _cthin_reference_chunks(derive_stream(5, 0).gen, 2.0, 1.0, steps)
    chunked = processes._cthin_factors(derive_stream(5, 0).gen, 2.0, 1.0, steps)
    np.testing.assert_allclose(chunked, ref, rtol=1e-12, atol=1e-300)
    assert chunked[0].tobytes() != one[0].tobytes()  # the chunks are part of the stream layout


def test_cthin_long_gaps_go_in_pieces_of_at_most_a_chunk(monkeypatch):
    monkeypatch.setattr(processes, "_CTHIN_CHUNK", 256)
    grid = TimeGrid(np.array([0.0, 0.5, 40.0, 41.0]))
    params = GammaParams(2.0, 1.0)
    rate = processes._cthin_series(2.0)[0]
    plan = processes._plan_class(ProcessKind.CONTINUOUSLY_THINNED)(grid, params, DEP5)
    assert np.all(rate * plan.steps <= 256)
    assert plan.keep.tolist() == [0, 1, 1 + math.ceil(rate * 39.5 * DEP5.lam / 256),
                                  plan.steps.size]
    gen = derive_stream(8, 0).gen
    x = gen.gamma(2.0, 1.0)
    m, z = processes._cthin_factors(gen, 2.0, 1.0, plan.steps)
    want = [x]
    for mk, zk in zip(m.tolist(), z.tolist()):
        want.append(mk * want[-1] + zk)
    path = sample_path(ProcessKind.CONTINUOUSLY_THINNED, derive_stream(8, 0), grid, params, DEP5)
    assert path.values.tobytes() == np.array(want)[plan.keep].tobytes()
    # a lane step of 40 time units takes the same pieces, one after the other
    lanes = processes._CthinPlan.lane_step(derive_stream(9, 0).gen, np.full(3, 1.5), 2.0, 1.0,
                                           DEP5.rho**40.0)
    gen = derive_stream(9, 0).gen
    step = -math.log(DEP5.rho**40.0)
    pieces = math.ceil(rate * step / 256)
    assert pieces > 1
    x = np.full(3, 1.5)
    for _ in range(pieces):
        mk, zk = processes._cthin_factors(gen, 2.0, 1.0, np.full(3, step / pieces))
        x = mk * x + zk
    assert lanes.tobytes() == x.tobytes()


@pytest.mark.parametrize("grid", [TimeGrid(np.array([0.0, 0.3701])),
                                  TimeGrid(np.array([0.0, 1e-10, 2e-10, 1.0])),
                                  make_uniform_grid(0.0, 1e-10, 4),
                                  make_uniform_grid(0.0, 1e-300, 4)],
                         ids=["off-lattice", "near-start", "dt-1e-10", "dt-1e-300"])
def test_cthin_runs_on_any_grid(monkeypatch, grid):
    # the lattice refused these grids; the series samples any gap
    path = sample_path(ProcessKind.CONTINUOUSLY_THINNED, derive_stream(0, 0), grid, P11, DEP5)
    ens = simulate_ensemble(ProcessKind.CONTINUOUSLY_THINNED, grid, P11, DEP5, 2, master_seed=0)
    assert np.all(np.isfinite(ens.values)) and np.all(ens.values > 0.0)
    monkeypatch.setattr(processes, "_BLOCK_DRAWS", 1)  # B == 1: path 0 is drawn from stream 0
    ens = simulate_ensemble(ProcessKind.CONTINUOUSLY_THINNED, grid, P11, DEP5, 2, master_seed=0)
    assert ens.values[0].tobytes() == path.values.tobytes()


def test_cthin_path_runs_and_is_positive():
    grid = make_uniform_grid(0.0, 0.25, 64)
    path = sample_path(ProcessKind.CONTINUOUSLY_THINNED, derive_stream(6, 0), grid, P11, DEP5)
    assert np.all(path.values > 0.0)
    assert path.values.shape == (64,)


def test_cthin_gap_correlation_of_zero_is_a_numerical_error():
    # rho**gap underflows to 0, so the lane step has no lam * gap to run
    with pytest.raises(NumericalError, match="underflowed"):
        marginal_sample(ProcessKind.CONTINUOUSLY_THINNED, 10, P11, Dependence(800.0),
                        master_seed=0)


def test_cthin_gap_correlation_of_one_is_a_step_of_zero_length():
    # rho**1e-300 rounds to 1.0, and -log(1.0) is -0.0, a gamma shape numpy refuses
    x = marginal_sample(ProcessKind.CONTINUOUSLY_THINNED, 100, P11, DEP5, master_seed=0,
                        gap=1e-300)
    assert x.tobytes() == derive_stream(0, 0).gen.gamma(1.0, 1.0, size=100).tobytes()


def test_cthin_path_memory_stays_below_the_lattice_peak():
    import tracemalloc

    grid = make_uniform_grid(0.0, 1.0, 100000)
    params = GammaParams(2.0, 1.0)
    sample_path(ProcessKind.CONTINUOUSLY_THINNED, derive_stream(1, 0), grid, params, DEP5)
    tracemalloc.start()
    try:
        sample_path(ProcessKind.CONTINUOUSLY_THINNED, derive_stream(1, 0), grid, params, DEP5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the 256-per-unit lattice peaked at 11.0 MiB on this path
    assert peak <= 11.0 * 2**20


# -- ensembles -------------------------------------------------------------------


def test_ensemble_path_is_pure_function_of_seed_and_index():
    grid = make_uniform_grid(0.0, 1.0, 4)
    for kind in ProcessKind:
        small = simulate_ensemble(kind, grid, P11, DEP5, 3, master_seed=11)
        large = simulate_ensemble(kind, grid, P11, DEP5, 7, master_seed=11)
        assert np.array_equal(small.values, large.values[:3]), kind


def test_ensemble_values_are_held_once():
    import tracemalloc

    grid = make_uniform_grid(0.0, 1.0, 200)
    tracemalloc.start()
    try:
        ens = simulate_ensemble(ProcessKind.CHANGE_POINT, grid, P11, DEP5, 20000,
                                master_seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not ens.values.flags.writeable
    assert peak < 1.25 * ens.values.nbytes


# Stream contract, one stream per path: ensemble path m is byte-identical to
# the path operation run on derive_stream(master_seed, m).  This holds for the
# whole-path plan (squared-OU) and for the plans with a width whenever
# a block holds one path (B == 1).  (grid, params, dep) per
# case; the last case makes the thinned beta ratio 0/0, so comparing bytes
# also pins its NaN.
STREAM_CASES = {
    "one-point": (make_uniform_grid(0.0, 1.0, 1), GammaParams(1.5, 2.0), DEP5),
    "three-point": (make_uniform_grid(0.0, 1.0, 3), GammaParams(1.5, 2.0), DEP5),
    "irregular": (TimeGrid(np.array([0.0, 0.25, 0.3125, 1.5, 2.0])),
                  GammaParams(1.5, 2.0), Dependence.from_rho(0.8)),
    "small-shape": (make_uniform_grid(0.0, 1.0, 20), GammaParams(0.01, 1.0),
                    Dependence.from_rho(0.001)),
}
STREAM_SAMPLERS = {
    "ar1": (ProcessKind.AR1, {}),
    "thinned": (ProcessKind.THINNED, {}),
    "rm": (ProcessKind.RANDOM_MEASURE, {}),
    "changepoint": (ProcessKind.CHANGE_POINT, {}),
    "cir-exact": (ProcessKind.SQUARED_OU, {"method": CirMethod.EXACT}),
    "cir-squared-ou": (ProcessKind.SQUARED_OU, {"method": CirMethod.SQUARED_OU}),
    "cthin": (ProcessKind.CONTINUOUSLY_THINNED, {}),
}
WIDTH_SAMPLERS = ("ar1", "thinned", "rm", "changepoint", "cir-exact", "cthin")
# the plans that draw a block's raw draws first and build its values after
# (``_block_reference`` and ``_lane_values_reference``)
DRAW_SAMPLERS = WIDTH_SAMPLERS[:4]


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("case", list(STREAM_CASES))
@pytest.mark.parametrize("sampler", list(STREAM_SAMPLERS))
def test_ensemble_paths_match_path_operations_byte_for_byte(monkeypatch, sampler, case):
    kind, opts = STREAM_SAMPLERS[sampler]
    grid, params, dep = STREAM_CASES[case]
    seed, n_paths = 7, 20  # 20 lanes: a block builds as numpy columns, a path alone as floats
    if sampler in WIDTH_SAMPLERS:
        monkeypatch.setattr(processes, "_BLOCK_DRAWS", 1)  # B == 1: a stream per path
    if sampler == "cir-squared-ou" and case == "small-shape":
        # 2*alpha is not an integer: both routes refuse it the same way
        with pytest.raises(ParameterError, match="2\\*alpha"):
            simulate_ensemble(kind, grid, params, dep, n_paths, master_seed=seed, **opts)
        with pytest.raises(ParameterError, match="2\\*alpha"):
            sample_path(kind, derive_stream(seed, 0), grid, params, dep, **opts)
        return
    ens = simulate_ensemble(kind, grid, params, dep, n_paths, master_seed=seed, **opts)
    for m in range(n_paths):
        path = sample_path(kind, derive_stream(seed, m), grid, params, dep, **opts)
        assert ens.values[m].tobytes() == path.values.tobytes(), (sampler, case, m)


# At the Feller-critical shape alpha = 1 the removed Euler scheme's
# full-truncation state could dip below 0; every remaining sampler writes
# finite values >= 0 there, on a fine grid and in a short-gap batch
@pytest.mark.parametrize("sampler", list(STREAM_SAMPLERS))
def test_every_sampler_is_nonnegative_at_the_feller_critical_shape(sampler):
    kind, opts = STREAM_SAMPLERS[sampler]
    ens = simulate_ensemble(kind, make_uniform_grid(0.0, 1.0 / 16, 64), P11, DEP5, 50,
                            master_seed=3, **opts)
    batch = marginal_sample(kind, 5000, P11, DEP5, master_seed=3, gap=1.0 / 16, **opts)
    for values in (ens.values, batch):
        assert np.all(np.isfinite(values)), sampler
        assert np.all(values >= 0.0), sampler


# Stream contract, one stream per block: with B = _BLOCK_DRAWS // width > 1,
# block j (paths j*B .. j*B + B - 1) is drawn from derive_stream(seed, j), run
# by run in the path operation's stream order, each run for every lane of the
# block before the next.  _block_reference writes that layout out by hand and
# returns the (width, B) raw draws; lane i is column i.  Exact cir and cthin
# step their lanes as they draw, so _block_values_reference writes out their
# blocks' values, one row per lane.


def _gamma_rows(g, shapes, lanes):
    """Standard gammas for every lane, one call per run of equal shapes."""
    rows, start = [], 0
    while start < shapes.size:
        stop = start + 1
        while stop < shapes.size and shapes[stop] == shapes[start]:
            stop += 1
        rows.append(g.standard_gamma(float(shapes[start]), size=(stop - start, lanes)))
        start = stop
    return np.concatenate(rows)


def _rm_split_reference(grid, params, dep):
    """(split, bounds) by the rule of the rm plan's docstring, on a grid of two points or more.

    Diagonal d's largest shape is at most alpha rho**(d g_min) (1 - rho**g_max),
    without the last factor at d = n - 1; the diagonals with rho**(d g_min) below
    1e-18 are dropped, and the split is the first bound of at most 1e-4.
    """
    n, gaps = grid.n, np.diff(grid.times)
    d = np.arange(n)
    corr = dep.rho ** (gaps.min() * d)
    bounds = params.alpha * corr * np.where(d < n - 1, 1.0 - dep.rho ** gaps.max(), 1.0)
    bounds = bounds[corr >= 1e-18]
    split = next((k for k, bound in enumerate(bounds) if bound <= 1e-4), n)
    return split, bounds[split:]


def _rm_tail_reference(g, grid, params, dep, split, bounds, lanes):
    """Each lane's sum of the rm tail's cells, drawn cell by cell in the tail's stream order."""
    n, a = grid.n, params.alpha
    masses = tent_partition(grid, dep).masses
    diagonals = split + np.arange(bounds.size)
    q_max = -np.expm1(-(1100.0 * math.log(2.0)) * bounds)
    counts = g.binomial(lanes * (n - diagonals), q_max)  # one count per tail diagonal
    cells = []  # (lane, i, d, q_max), diagonal by diagonal, in the order of the slots drawn
    for d, count, q in zip(diagonals.tolist(), counts.tolist(), q_max.tolist()):
        if count:
            for slot in g.choice(lanes * (n - d), count, replace=False, shuffle=False).tolist():
                cells.append((*divmod(slot, n - d), d, q))
    tail = np.zeros((lanes, n))
    if not cells:
        return tail
    shape = np.array([a * masses[i, i + d] for _, i, d, _ in cells])
    q = -np.expm1(-(1100.0 * math.log(2.0)) * shape)
    accept = g.random(len(cells)) < q / np.array([c[3] for c in cells])
    cells, shape, q = [c for c, ok in zip(cells, accept) if ok], shape[accept], q[accept]
    v = g.random(len(cells))  # U' = 1 - v q on (2**(-1100 s), 1)
    x = np.exp(np.log1p(-v * q) / shape) * g.standard_gamma(1.0 + shape) * (1.0 / params.beta)
    for (lane, i, d, _), xk in zip(cells, x.tolist()):
        tail[lane, i : i + d + 1] += xk
    return tail


def _block_reference(kind, grid, params, dep, seed, block, lanes):
    """(draws, tail): the block's raw draws, and for rm each lane's tail sums (else None)."""
    g = derive_stream(seed, block).gen
    a, times, n = params.alpha, grid.times, grid.n
    rho_g = dep.rho ** np.diff(times)
    if kind is ProcessKind.AR1:
        head = g.standard_gamma(a, size=(n, lanes))  # X_0 and the mixing L
        counts = g.poisson((1.0 - rho_g)[:, None] / rho_g[:, None] * head[1:])
        return np.concatenate((head[:1], g.standard_gamma(counts))), None
    if kind is ProcessKind.THINNED:
        kept, fresh = a * rho_g, a * (1.0 - rho_g)
        return _gamma_rows(g, np.concatenate(([a], kept, fresh, fresh)), lanes), None
    if kind is ProcessKind.RANDOM_MEASURE:
        # the dense diagonals before the split, then the tail
        split, bounds = _rm_split_reference(grid, params, dep) if n > 1 else (1, np.empty(0))
        masses = tent_partition(grid, dep).masses
        shapes = [a * np.diagonal(masses, d) for d in range(min(split, n))
                  if np.any(dep.rho ** (times[d:] - times[: n - d]) >= 1e-18)]
        draws = _gamma_rows(g, np.concatenate(shapes), lanes)
        if len(shapes) < split:  # the cutoff ends the walk first
            bounds = bounds[:0]
        return draws, _rm_tail_reference(g, grid, params, dep, split, bounds, lanes)
    x0 = g.standard_gamma(a, size=(1, lanes))
    keep = g.random((n - 1, lanes))
    return np.concatenate((x0, keep, g.standard_gamma(a, size=(n - 1, lanes)))), None


def _lane_values_reference(kind, grid, params, dep, draws):
    """One ar1, thinned or changepoint lane's values from its raw draws, step by step.

    ``draws`` is one column of ``_block_reference``'s draws; each recursion
    step is fl(a * x + z), as in the kinds' plan docstrings.
    """
    n, inv_beta = grid.n, 1.0 / params.beta
    rho_g = dep.rho ** np.diff(grid.times)
    if kind is ProcessKind.CHANGE_POINT:  # keep the value unless a uniform passes rho_g
        pool = np.concatenate((draws[:1], draws[n:])) * inv_beta
        return pool[np.concatenate(([0], np.cumsum(draws[1:n] >= rho_g)))]
    if kind is ProcessKind.AR1:  # X_0, then each innovation at rho_g / beta
        factors, zetas = rho_g, draws[1:] * (rho_g / params.beta)
    else:  # thinned: X_0, the beta's numerator and denominator gammas, the fresh gammas
        g1, g2 = draws[1:n], draws[n : 2 * n - 1]
        factors, zetas = g1 / (g1 + g2), draws[2 * n - 1 :] * inv_beta
    values = [float(draws[0] * inv_beta)]
    for a, z in zip(factors.tolist(), zetas.tolist()):
        values.append(a * values[-1] + z)
    return np.array(values)


def _rm_dense_reference(plan, params, draws):
    """Values of the dense cells ``draws`` (one row per lane), added diagonal by diagonal."""
    n, cells = plan.n, draws * (1.0 / params.beta)
    values = np.zeros((cells.shape[0], n))
    pos = d = 0
    while pos < cells.shape[1]:
        _reference_add_diagonal(plan, values, d, cells[:, pos : pos + n - d])
        pos, d = pos + n - d, d + 1
    return values


def _block_values_reference(kind, grid, params, dep, seed, block, lanes):
    g = derive_stream(seed, block).gen
    a, b = params.alpha, params.beta
    gaps = np.diff(grid.times).tolist()
    if kind is ProcessKind.SQUARED_OU:
        rates = [(dep.rho**dt, b / (1.0 - dep.rho**dt)) for dt in gaps]
        if lanes < processes._VECTOR_LANES:  # lane after lane, each a one-lane path
            rows = []
            for _ in range(lanes):
                row = [g.gamma(a, 1.0 / b)]
                for r, c in rates:
                    row.append(g.gamma(a + g.poisson(c * row[-1] * r), 1.0 / c))
                rows.append(row)
            return np.array(rows)
        # every lane's X_0, then gap by gap every lane's count, then every lane's gamma
        cols = [g.gamma(a, 1.0 / b, size=lanes)]
        for r, c in rates:
            counts = g.poisson(c * cols[-1] * r)
            cols.append(g.gamma(a + counts, 1.0 / c))
        return np.array(cols).T
    # cthin: every lane's X_0, then the series over every lane's gaps, lane-major
    x0 = g.gamma(a, 1.0 / b, size=lanes).tolist()
    if not gaps:
        return np.array(x0)[:, None]
    m, z = _cthin_reference_chunks(g, a, b, np.tile(dep.lam * np.diff(grid.times), lanes))
    rows = []
    for x, ms, zs in zip(x0, m.reshape(lanes, -1).tolist(), z.reshape(lanes, -1).tolist()):
        row = [x]
        for mk, zk in zip(ms, zs):
            row.append(mk * row[-1] + zk)
        rows.append(row)
    return np.array(rows)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("lanes", [None, 3])
@pytest.mark.parametrize("case", list(STREAM_CASES))
@pytest.mark.parametrize("sampler", WIDTH_SAMPLERS)
def test_ensemble_blocks_follow_the_block_stream_layout(monkeypatch, sampler, case, lanes):
    kind = STREAM_SAMPLERS[sampler][0]
    grid, params, dep = STREAM_CASES[case]
    plan = processes._plan_class(kind)(grid, params, dep)
    if lanes is None:  # the real block size
        lanes = processes._BLOCK_DRAWS // plan.width
    else:
        monkeypatch.setattr(processes, "_BLOCK_DRAWS", lanes * plan.width + plan.width - 1)
    assert lanes > 1
    seed, n_paths = 9, min(2 * lanes + 3, 200)
    ens = simulate_ensemble(kind, grid, params, dep, n_paths, master_seed=seed)
    for block in range(-(-n_paths // lanes)):
        paths = range(block * lanes, min((block + 1) * lanes, n_paths))
        if sampler not in DRAW_SAMPLERS:
            want = _block_values_reference(kind, grid, params, dep, seed, block, lanes)
            got = ens.values[paths.start : paths.stop]
            if kind is ProcessKind.CONTINUOUSLY_THINNED:  # the reference rounds otherwise
                assert plan.steps.size == grid.n - 1  # no gap goes in pieces
                np.testing.assert_allclose(got, want[: len(got)], rtol=1e-12, atol=1e-300)
            else:
                assert got.tobytes() == want[: len(got)].tobytes(), (sampler, case)
            continue
        draws, tail = _block_reference(kind, grid, params, dep, seed, block, lanes)
        assert draws.shape == (plan.width, lanes)
        for m in paths:
            if kind is ProcessKind.RANDOM_MEASURE:
                want = _rm_dense_reference(plan, params, draws[:, m % lanes][None])[0]
                want += tail[m % lanes]
            else:
                want = _lane_values_reference(kind, grid, params, dep, draws[:, m % lanes])
            assert ens.values[m].tobytes() == want.tobytes(), (sampler, case, m)


@pytest.mark.parametrize("n,n_paths", [(3, 20000), (2, 20000)], ids=["compare-triplet", "chf"])
def test_rm_plans_without_a_tail_keep_the_dense_layout(n, n_paths):
    # compare --points 3 and verify's chf check draw these rm ensembles (Ga(2, 1), rho 0.5,
    # unit gaps); with no sparse diagonal every cell is drawn dense, as before the tail existed
    grid, params = make_uniform_grid(0.0, 1.0, n), GammaParams(2.0, 1.0)
    plan = processes._RandomMeasurePlan(grid, params, DEP5)
    assert plan.split == n and plan.tail_bounds.size == 0
    assert plan.width == n * (n + 1) // 2
    lanes, seed = processes._BLOCK_DRAWS // plan.width, 41
    ens = simulate_ensemble(ProcessKind.RANDOM_MEASURE, grid, params, DEP5, n_paths, seed)
    masses = tent_partition(grid, DEP5).masses
    shapes = np.concatenate([2.0 * np.diagonal(masses, d) for d in range(n)])
    for block in range(-(-n_paths // lanes)):
        draws = _gamma_rows(derive_stream(seed, block).gen, shapes, lanes)
        want = _rm_dense_reference(plan, params, draws.T)[: n_paths - block * lanes]
        assert ens.values[block * lanes : (block + 1) * lanes].tobytes() == want.tobytes()


# 5000 irregular times: the float route stores its steps in chunks of 4096
_LONG_IRREGULAR = (TimeGrid(np.cumsum(np.resize([0.25, 0.0625, 1.5, 0.5, 3.0], 5000))),
                   GammaParams(1.5, 2.0), Dependence.from_rho(0.8))


@pytest.mark.parametrize("case", [*STREAM_CASES, "long-irregular"])
def test_exact_cir_numpy_route_at_one_lane_gives_the_float_route_bytes(monkeypatch, case):
    # blocks of fewer than _VECTOR_LANES lanes step on Python floats; at one
    # lane that is the numpy route's stream order, so the bytes must agree
    grid, params, dep = {**STREAM_CASES, "long-irregular": _LONG_IRREGULAR}[case]
    plan = processes._plan_class(ProcessKind.SQUARED_OU, CirMethod.EXACT)(grid, params, dep)
    floats = plan.block(derive_stream(4, 1).gen, 1)
    monkeypatch.setattr(processes, "_VECTOR_LANES", 1)  # numpy at every lane count
    numpy_route = plan.block(derive_stream(4, 1).gen, 1)
    assert floats.shape == (1, grid.n)
    assert floats.tobytes() == numpy_route.tobytes()


# -- batch statistical samplers ---------------------------------------------------


def test_walker_sample_moments():
    # innovation mean is (1-rho) alpha / beta
    p = GammaParams(2.0, 1.0)
    rho = 0.3
    x = walker_sample(100000, p, rho, master_seed=8)
    target = (1.0 - rho) * p.mean
    assert abs(np.mean(x) - target) < 4 * np.std(x) / np.sqrt(x.size)
    # atom at zero with P = rho^alpha
    p_hat = np.mean(x == 0.0)
    assert abs(p_hat - rho**p.alpha) < 4 * np.sqrt(rho**p.alpha * (1 - rho**p.alpha) / x.size)


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
    draws = processes._CirExactPlan.lane_step(derive_stream(3, 0).gen, np.full(n, x0),
                                              params.alpha, params.beta, rho_d)
    target = x0 * rho_d + params.mean * (1.0 - rho_d)
    assert np.all(draws >= 0.0)
    assert abs(np.mean(draws) - target) < 4 * np.std(draws) / np.sqrt(n)


@pytest.mark.parametrize("kind", list(ProcessKind))
def test_marginal_sample_mean_variance(kind):
    p = GammaParams(2.5, 2.0)
    x = marginal_sample(kind, 50000, p, DEP5, master_seed=9)
    se_mean = np.std(x) / np.sqrt(x.size)
    assert abs(np.mean(x) - p.mean) < 4 * se_mean


@pytest.mark.parametrize("gap", [1.0, 0.37])
def test_cthin_marginal_sample_takes_two_lane_steps_of_the_gap(gap):
    # as for the other kinds: a Ga(alpha, beta) start, then two steps at rho**gap
    n, params = 1000, GammaParams(2.0, 1.0)
    x = marginal_sample(ProcessKind.CONTINUOUSLY_THINNED, n, params, DEP5, master_seed=5,
                        gap=gap)
    g = derive_stream(5, 0).gen
    y = g.gamma(params.alpha, 1.0 / params.beta, size=n)
    for _ in range(2):
        y = processes._CthinPlan.lane_step(g, y, params.alpha, params.beta, DEP5.rho**gap)
    assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("kind", [k for k in ProcessKind
                                  if k is not ProcessKind.CONTINUOUSLY_THINNED])
def test_two_point_ensemble_correlation(kind):
    n = 200000
    pairs = simulate_ensemble(kind, make_uniform_grid(0.0, 1.0, 2), P11, DEP5, n, 10).values
    r = np.corrcoef(pairs.T)[0, 1]
    # correlation of a gamma pair estimated at n=2e5 is good to ~3/sqrt(n)
    assert abs(r - DEP5.rho) < 0.02
    m = marginal_sample(kind, 1000, P11, DEP5, master_seed=10)
    assert np.all(m >= 0.0)


def test_triplet_sample_shapes_and_kinds():
    out = triplet_sample(ProcessKind.THINNED, 1000, P11, DEP5, master_seed=1)
    assert out.shape == (3, 1000)
    out = triplet_sample(ProcessKind.RANDOM_MEASURE, 1000, P11, DEP5, master_seed=1)
    assert out.shape == (3, 1000)
    with pytest.raises(UnsupportedKindError):
        triplet_sample(ProcessKind.AR1, 10, P11, DEP5, master_seed=0)


def test_triplet_sample_lag2_correlation_is_rho_squared():
    out = triplet_sample(ProcessKind.RANDOM_MEASURE, 200000, P11, DEP5, master_seed=12)
    r2 = np.corrcoef(out[0], out[2])[0, 1]
    assert abs(r2 - DEP5.rho**2) < 0.02


# -- the lane kernel against the batch samplers' earlier bodies -------------------
# The _ref_* functions are the batch samplers and the generator-check step as
# they were written before each kind's one-gap lane update moved into one
# place, now the lane_step of its plan class.  The samplers must still give
# their values bit for bit.
# cthin's lane step has no earlier body of its own (the lattice it replaced drew
# another law): its reference is the event-by-event series of
# _cthin_reference_chunks, on the same draws, which equals it to rounding.


def _ref_marginal(kind, n, params, dep, master_seed, gap, method):
    g = derive_stream(master_seed, 0).gen
    a, b = params.alpha, params.beta
    rho_g = dep.rho ** float(gap)
    if kind is ProcessKind.AR1:
        x = g.gamma(a, 1.0 / b, size=n)
        for _ in range(2):
            mixing = g.gamma(a, 1.0, size=n)
            counts = g.poisson((1.0 - rho_g) / rho_g * mixing)
            x = rho_g * x + g.gamma(counts, rho_g / b)
        return x
    if kind is ProcessKind.THINNED:
        x = g.gamma(a, 1.0 / b, size=n)
        for _ in range(2):
            g1 = g.gamma(a * rho_g, 1.0, size=n)
            g2 = g.gamma(a * (1.0 - rho_g), 1.0, size=n)
            x = g1 / (g1 + g2) * x + g.gamma(a * (1.0 - rho_g), 1.0 / b, size=n)
        return x
    if kind is ProcessKind.RANDOM_MEASURE:
        r = rho_g
        shapes = {(2, 2): 1.0 - r, (1, 2): r - r * r, (0, 2): r * r}
        x = np.zeros(n)
        for block in [(2, 2), (1, 2), (0, 2)]:
            x += g.gamma(a * shapes[block], 1.0 / b, size=n)
        return x
    if kind is ProcessKind.CONTINUOUSLY_THINNED:
        x = g.gamma(a, 1.0 / b, size=n)
        for _ in range(2):
            m, z = _cthin_reference_chunks(g, a, b, np.full(n, -math.log(rho_g)))
            x = m * x + z
        return x
    if kind is ProcessKind.CHANGE_POINT:
        x = g.gamma(a, 1.0 / b, size=n)
        for _ in range(2):
            keep = g.random(n) < rho_g
            fresh = g.gamma(a, 1.0 / b, size=n)
            x = np.where(keep, x, fresh)
        return x
    if kind is ProcessKind.SQUARED_OU:
        if method is CirMethod.EXACT:
            x = g.gamma(a, 1.0 / b, size=n)
            c = b / (1.0 - rho_g)
            for _ in range(2):
                k = g.poisson(c * x * rho_g)
                x = g.gamma(a + k, 1.0 / c, size=n)
            return x
        j = round(2.0 * a)
        if abs(2.0 * a - j) > 1e-9 or j < 1:
            raise ParameterError("2*alpha")
        z = g.standard_normal((n, j))
        half = dep.rho ** (float(gap) / 2.0)
        for _ in range(2):
            z = half * z + np.sqrt(1.0 - half * half) * g.standard_normal((n, j))
        return np.sum(z * z, axis=1) / (2.0 * b)
    raise UnsupportedKindError(kind)


def _ref_triplet(kind, n, params, dep, master_seed, gap):
    g = derive_stream(master_seed, 0).gen
    a, b = params.alpha, params.beta
    rho_g = dep.rho ** float(gap)
    out = np.empty((3, n))
    if kind is ProcessKind.THINNED:
        x = out[0] = g.gamma(a, 1.0 / b, size=n)
        for step in (1, 2):
            g1 = g.gamma(a * rho_g, 1.0, size=n)
            g2 = g.gamma(a * (1.0 - rho_g), 1.0, size=n)
            x = out[step] = g1 / (g1 + g2) * x + g.gamma(a * (1.0 - rho_g), 1.0 / b, size=n)
        return out
    if kind is ProcessKind.RANDOM_MEASURE:
        r = rho_g
        shapes = {(0, 0): 1.0 - r, (1, 1): (1.0 - r) ** 2, (2, 2): 1.0 - r,
                  (0, 1): r - r * r, (1, 2): r - r * r, (0, 2): r * r}
        c = {blk: g.gamma(a * shape, 1.0 / b, size=n) for blk, shape in shapes.items()}
        out[0] = c[(0, 0)] + c[(0, 1)] + c[(0, 2)]
        out[1] = c[(1, 1)] + c[(0, 1)] + c[(1, 2)] + c[(0, 2)]
        out[2] = c[(2, 2)] + c[(1, 2)] + c[(0, 2)]
        return out
    raise UnsupportedKindError(kind)


def _ref_walker(n, params, rho, master_seed):
    g = derive_stream(master_seed, 0).gen
    mixing = g.gamma(params.alpha, 1.0, size=n)
    counts = g.poisson((1.0 - rho) / rho * mixing)
    return g.gamma(counts, rho / params.beta)


def _ref_generator_fd(kind, phi, x0, params, dep, eps, n_mc, master_seed):
    g = derive_stream(master_seed, 0).gen
    a, b = params.alpha, params.beta
    phi_x0 = float(phi.phi(x0))
    sums, squares, done = [], [], 0
    while done < n_mc:
        nb = min(n_mc - done, 1 << 17)
        rho_d = dep.rho**eps
        if kind is ProcessKind.CONTINUOUSLY_THINNED:
            m, z = _cthin_reference_chunks(g, a, b, np.full(nb, -math.log(rho_d)))
            y = m * x0 + z
        else:
            c = b / (1.0 - rho_d)
            k = g.poisson(c * x0 * rho_d, size=nb)
            y = g.gamma(a + k, 1.0 / c, size=nb)
        d = (phi.phi(y) - phi_x0) / eps
        sums.append(np.sum(d))
        squares.append(np.sum(d * d))
        done += nb
    fd = math.fsum(sums) / n_mc
    var = max(math.fsum(squares) - n_mc * fd * fd, 0.0) / (n_mc - 1)
    return fd, float(np.sqrt(var / n_mc))


def _outcome(fn, *args, **kwargs):
    """The bytes of what ``fn`` returns, or the type of what it raises."""
    try:
        with np.errstate(invalid="ignore"):
            out = fn(*args, **kwargs)
    except (ParameterError, NumericalError) as exc:
        return type(exc)
    return out.tobytes()


KERNEL_POINTS = {
    "default": (GammaParams(2.0, 1.0), Dependence.from_rho(0.5)),
    "small-shape": (GammaParams(0.01, 1.0), Dependence.from_rho(0.001)),
    "large-shape": (GammaParams(37.0, 2.5), Dependence.from_rho(0.999)),
}
KERNEL_SAMPLERS = [(kind, CirMethod.EXACT) for kind in ProcessKind
                   if kind is not ProcessKind.SQUARED_OU]
KERNEL_SAMPLERS += [(ProcessKind.SQUARED_OU, m) for m in CirMethod]


@pytest.mark.parametrize("gap", [1.0, 0.37])
@pytest.mark.parametrize("point", list(KERNEL_POINTS))
@pytest.mark.parametrize("kind,method", KERNEL_SAMPLERS,
                         ids=[f"{k.cli_name}-{m.value}" for k, m in KERNEL_SAMPLERS])
def test_batch_samplers_equal_their_earlier_bodies(kind, method, point, gap):
    params, dep = KERNEL_POINTS[point]
    n = 500
    got = _outcome(marginal_sample, kind, n, params, dep, 21, gap=gap, method=method)
    want = _outcome(_ref_marginal, kind, n, params, dep, 21, gap, method)
    if kind is ProcessKind.CONTINUOUSLY_THINNED:
        # the factors test's bound: Z composes its factors in log space
        np.testing.assert_allclose(np.frombuffer(got), np.frombuffer(want), rtol=1e-12,
                                   atol=1e-300)
    else:
        assert got == want
    if method is CirMethod.EXACT:
        try:
            want = _outcome(_ref_triplet, kind, n, params, dep, 22, gap)
        except UnsupportedKindError:
            with pytest.raises(UnsupportedKindError):
                triplet_sample(kind, n, params, dep, 22, gap=gap)
        else:
            assert _outcome(triplet_sample, kind, n, params, dep, 22, gap=gap) == want
    rho = dep.rho**gap
    assert (walker_sample(n, params, rho, 23).tobytes()
            == _ref_walker(n, params, rho, 23).tobytes())


# cthin's check against its event-by-event reference: both compose the same
# draws, in another order of roundings; the worst of the six cases reads 1e-14
RTOL_CTHIN_FD = 1e-12


@pytest.mark.parametrize("n_mc", [3000, (1 << 17) + 5])
@pytest.mark.parametrize("point", list(KERNEL_POINTS))
@pytest.mark.parametrize("kind", [ProcessKind.SQUARED_OU, ProcessKind.CONTINUOUSLY_THINNED])
def test_generator_check_equals_its_earlier_step(kind, point, n_mc):
    params, dep = KERNEL_POINTS[point]
    phi = TestFunction.identity()
    eps = 1e-3 / dep.lam
    for x0 in (0.0, 2.0):
        (chk,) = generator_check(kind, (phi,), (x0,), params, dep, n_mc=n_mc, master_seed=24)
        fd, se = _ref_generator_fd(kind, phi, x0, params, dep, eps, n_mc, 24)
        if kind is ProcessKind.CONTINUOUSLY_THINNED:
            assert chk.fd_estimate == pytest.approx(fd, rel=RTOL_CTHIN_FD)
            assert chk.se == pytest.approx(se, rel=RTOL_CTHIN_FD)
        else:
            assert (chk.fd_estimate, chk.se) == (fd, se)


@pytest.mark.parametrize("n_mc", [3000, (1 << 17) + 5])
@pytest.mark.parametrize("point", list(KERNEL_POINTS))
@pytest.mark.parametrize("kind", [ProcessKind.SQUARED_OU, ProcessKind.CONTINUOUSLY_THINNED])
def test_generator_check_scores_each_function_and_start_as_a_call_on_it_alone(kind, point,
                                                                              n_mc):
    params, dep = KERNEL_POINTS[point]
    phis, x0s = (TestFunction.identity(), TestFunction.square()), (0.0, 2.0)
    both = generator_check(kind, phis, x0s, params, dep, n_mc=n_mc, master_seed=24)
    alone = tuple(generator_check(kind, (phi,), (x0,), params, dep, n_mc=n_mc,
                                  master_seed=24)[0] for phi in phis for x0 in x0s)
    # repr spells every float field out to the last bit
    assert repr(both) == repr(alone)


# -- batch-sampler arguments and the AR(1) ladder's limits ---------------------------


GRID3 = make_uniform_grid(0.0, 1.0, 3)
NON_INTEGRAL = {
    "ensemble-n_paths": lambda: simulate_ensemble(ProcessKind.AR1, GRID3, P11, DEP5, 2.9, 1),
    "ensemble-seed": lambda: simulate_ensemble(ProcessKind.AR1, GRID3, P11, DEP5, 2, 1.7),
    "marginal-n": lambda: marginal_sample(ProcessKind.AR1, 100.9, P11, DEP5, master_seed=0),
    "triplet-n": lambda: triplet_sample(ProcessKind.THINNED, 10.5, P11, DEP5, master_seed=0),
    "walker-n": lambda: walker_sample(10.5, P11, 0.5, master_seed=0),
    "generator-n_mc": lambda: generator_check(ProcessKind.SQUARED_OU, (TestFunction.identity(),),
                                              (1.0,), P11, DEP5, n_mc=100.5),
    "grid-n": lambda: make_uniform_grid(0.0, 1.0, 2.5),
    "stream-seed": lambda: derive_stream(float("nan"), 0),
}


@pytest.mark.parametrize("call", list(NON_INTEGRAL.values()), ids=list(NON_INTEGRAL))
def test_a_non_integral_count_or_seed_is_refused_not_truncated(call):
    with pytest.raises(ParameterError, match="must be an integer"):
        call()


def test_integral_floats_and_numpy_integers_count_as_their_ints():
    ens = simulate_ensemble(ProcessKind.AR1, GRID3, P11, DEP5, 3.0, np.uint64(1))
    assert ens.master_seed == 1 and type(ens.master_seed) is int
    assert ens.values.tobytes() == simulate_ensemble(ProcessKind.AR1, GRID3, P11, DEP5, 3,
                                                     1).values.tobytes()
    assert (marginal_sample(ProcessKind.AR1, 1e2, P11, DEP5, master_seed=0).tobytes()
            == marginal_sample(ProcessKind.AR1, 100, P11, DEP5, master_seed=0).tobytes())
    assert generator_check(ProcessKind.SQUARED_OU, (TestFunction.identity(),), (1.0,), P11, DEP5,
                           n_mc=1e3)[0].n_mc == 1000


# The Euler scheme went with its options: a caller that still passes one gets a
# TypeError, not a run that ignores it
REMOVED_EULER_KEYWORDS = {
    "path-substeps": lambda: sample_path(ProcessKind.SQUARED_OU, derive_stream(0, 0), GRID3,
                                         P11, DEP5, substeps=4),
    "ensemble-substeps": lambda: simulate_ensemble(ProcessKind.SQUARED_OU, GRID3, P11, DEP5, 2,
                                                   0, substeps=4),
    "marginal-substeps": lambda: marginal_sample(ProcessKind.SQUARED_OU, 10, P11, DEP5,
                                                 master_seed=0, substeps=4),
    "marginal-euler_burn": lambda: marginal_sample(ProcessKind.SQUARED_OU, 10, P11, DEP5,
                                                   master_seed=0, euler_burn=12.0),
}


@pytest.mark.parametrize("call", list(REMOVED_EULER_KEYWORDS.values()),
                         ids=list(REMOVED_EULER_KEYWORDS))
def test_a_removed_euler_keyword_is_refused(call):
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        call()


EULER_AS_METHOD = {
    "parse": lambda: CirMethod.parse("euler"),
    "path": lambda: sample_path(ProcessKind.SQUARED_OU, derive_stream(0, 0), GRID3, P11, DEP5,
                                method="euler"),
    "ensemble": lambda: simulate_ensemble(ProcessKind.SQUARED_OU, GRID3, P11, DEP5, 2, 0,
                                          method="euler"),
    "marginal": lambda: marginal_sample(ProcessKind.SQUARED_OU, 10, P11, DEP5, master_seed=0,
                                        method="euler"),
}


@pytest.mark.parametrize("call", list(EULER_AS_METHOD.values()), ids=list(EULER_AS_METHOD))
def test_euler_is_no_cir_method(call):
    with pytest.raises(ParameterError, match="^unknown cir method 'euler'"):
        call()


@pytest.mark.parametrize("gap", [0.0, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("sampler", [marginal_sample, triplet_sample])
def test_batch_samplers_reject_a_gap_that_is_not_finite_and_positive(sampler, gap):
    for kind in ProcessKind:
        with pytest.raises(ParameterError, match="gap"):
            sampler(kind, 10, P11, DEP5, master_seed=0, gap=gap)


@pytest.mark.parametrize("dep", [Dependence(50.0), Dependence(800.0),
                                 Dependence.from_rho(1e-25)])
def test_ar1_ladder_past_numpy_poisson_limit_is_a_numerical_error(dep):
    # rho_g = 1.9e-22 and 1e-25 put the Poisson mean past numpy's 9.2e18;
    # exp(-800) underflows to 0
    grid = make_uniform_grid(0.0, 1.0, 5)
    with pytest.raises(NumericalError):
        marginal_sample(ProcessKind.AR1, 100, P11, dep, master_seed=0)
    with pytest.raises(NumericalError):
        sample_path(ProcessKind.AR1, derive_stream(0, 0), grid, P11, dep)
    with pytest.raises(NumericalError):
        simulate_ensemble(ProcessKind.AR1, grid, P11, dep, 40, master_seed=0)
    if dep.rho > 0.0:
        with pytest.raises(NumericalError):
            walker_sample(100, P11, dep.rho, master_seed=0)


def test_exact_cir_gap_correlation_of_one_is_a_numerical_error():
    # rho**1e-300 rounds to 1.0, so c = beta / (1 - rho_g) does not exist
    dep = Dependence(1e-300)
    with pytest.raises(NumericalError):
        marginal_sample(ProcessKind.SQUARED_OU, 100, P11, DEP5, master_seed=0, gap=1e-300)
    with pytest.raises(NumericalError):
        sample_path(ProcessKind.SQUARED_OU, derive_stream(0, 0),
                    TimeGrid(np.array([0.0, 1e-300])), P11, DEP5)
    with pytest.raises(NumericalError):
        simulate_ensemble(ProcessKind.SQUARED_OU, make_uniform_grid(0.0, 1.0, 3), P11, dep,
                          4, master_seed=0)
    with pytest.raises(NumericalError):
        generator_check(ProcessKind.SQUARED_OU, (TestFunction.identity(),), (1.0,), P11, dep,
                        n_mc=100)


def test_exact_cir_poisson_mean_past_numpy_limit_partway_along_a_float_lane():
    # 4200 unit gaps, then a gap of 1e-16 in the lane's second chunk of 4096 steps
    grid = TimeGrid(np.append(np.arange(-4200.0, 1.0), 1e-16))
    params = GammaParams(2000.0, 1.0)
    match = re.escape(processes._CIR_MEAN)
    with pytest.raises(NumericalError, match=match):
        sample_path(ProcessKind.SQUARED_OU, derive_stream(0, 0), grid, params, DEP5)
    with pytest.raises(NumericalError, match=match):
        simulate_ensemble(ProcessKind.SQUARED_OU, grid, params, DEP5, 3, master_seed=0)


def test_exact_cir_poisson_mean_past_numpy_limit_is_a_numerical_error():
    # at gap 1e-16, c = beta / (1 - rho_g) is about 1e16, so c * x * rho_g passes 9.2e18
    params = GammaParams(2000.0, 1.0)
    with pytest.raises(NumericalError):
        marginal_sample(ProcessKind.SQUARED_OU, 100, params, DEP5, master_seed=0, gap=1e-16)
    with pytest.raises(NumericalError):
        sample_path(ProcessKind.SQUARED_OU, derive_stream(0, 0),
                    make_uniform_grid(0.0, 1e-16, 3), params, DEP5)
