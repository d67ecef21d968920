"""Path construction for the six stationary Ga(alpha, beta) processes.

Every sampler here produces the same marginal law Ga(alpha, beta) and the same
autocorrelation rho**|s-t| (rho = exp(-lam)); the constructions differ in
their joint laws beyond second order, which is the whole point of the package.

Reproducibility contract
------------------------
``sample_path`` draws one path of a kind from a ``RandomSource`` in a fixed
order, documented on the kind's plan class, so a path is a deterministic
function of the stream.  In ``simulate_ensemble`` path ``m`` is a function
of ``(master_seed, m)`` alone, independent of how many paths are simulated:
paths run in blocks of ``B``, and path ``m`` is lane ``m % B`` of the block
drawn from the head of ``derive_stream(master_seed, m // B)``, in the
block's stream layout, which each plan class documents: ``sample_path``'s
layout with every draw taken for all ``B`` lanes at once, except that exact
cir blocks of fewer than ``_VECTOR_LANES`` lanes draw lane after lane,
cthin runs its series over every lane's segments, lane-major, and rm's
sparse tail draws over every lane's far cells, lane-major.  ``B`` depends
on the kind:

* ``max(1, _BLOCK_DRAWS // width)`` for the plans with a ``width`` per
  path: ar1, thinned, changepoint and exact cir, whose width is their raw
  draws, rm, whose width is its dense cells up to the first diagonal past
  ``_PLAN_CELLS`` and at least n (so a longer rm path runs alone), and
  cthin, whose width is 1 + its series' expected intervals;
* 1 for squared-OU, whose plan simulates whole paths.

When ``B == 1`` path ``m`` is ``sample_path`` of the same kind and options
on ``derive_stream(master_seed, m)``, byte for byte.

Plans and blocks
----------------
Paths and ensembles run on one engine, in two steps:

* **plan**: everything that depends only on (grid, params, dep) - gap
  correlations, gamma shapes, rm band masses and tail bounds, cir per-gap
  constants - is computed once per ``sample_path`` call or ensemble.  The
  plan class comes from ``_PLANS``, the one table of kinds (keyed by kind,
  and by ``CirMethod`` for cir).
* **block**: ``block(gen, lanes)`` draws a block's values, one row per
  lane, from the head of ``gen`` in the documented order.  Each run of
  draws of one law is one generator call over its rows for every lane (a
  gamma of shape k and scale s is drawn as ``s * standard_gamma(k)``,
  which is the same number bit for bit), and the values are built
  vectorized across the block; recursions stay fl(rho * x + zeta) element
  by element.  An ensemble re-keys one Philox stream to each block's key
  in turn, which yields exactly the words of a freshly keyed one, and
  keeps the block's first rows; ``sample_path`` draws the one-lane block.

The ``*_sample`` batch helpers at the bottom draw i.i.d. copies of a
marginal or of a thinned/rm triplet from a *single* stream, as a vector of
lanes.  They exist because statistical verification needs 10^5 - 10^6
independent replicates, for which per-path stream setup dominates runtime.
Pairs need no helper: a 2-point ``simulate_ensemble`` is one pair per path.
The marginal and triplet helpers share one body (``_batch_start`` and
``_batch_rows``): each gap of ar1, thinned, changepoint, exact cir and
cthin is one call of the kind's ``lane_step``, a static method of its plan
class, and rm sums the cells of a small tent partition; the squared-OU
marginal is the last column of a 3-point block.  The stats generator check
steps cir lanes through the exact cir plan's ``lane_step`` and applies the
cthin plan's ``lane_factors`` to each of its start points.  Each helper
documents why its construction has exactly the law of the kind's paths
restricted to those times.

Shared and duplicated update rules
----------------------------------
Written once, for the path plans and the lanes alike:

* the gap correlation rho**gap (``Dependence.gap_corr``, Python's float
  power once per distinct gap): the ar1, thinned, changepoint, exact cir
  and squared-OU plans (at gap/2), ``_batch_start``, the reversibility and
  generator checks and the cir transition density, so their bytes do not
  depend on numpy's SIMD dispatch; rm's tent lag powers stay numpy's
  vector power, one per cell (ROADMAP item 17);
* the AR(1) gamma-Poisson-gamma ladder (``_ar1_ladder``): the ar1 block,
  the ar1 lane step and ``walker_sample``;
* the exact cir transition (``_cir_exact_step``): the exact cir block and
  lane step;
* the exact OU walk (``_ou_walk``): the squared-OU block, which also draws
  ``marginal_sample``'s squared-OU lanes;
* the cthin series factors, X_end = M X_start + Z over a segment
  (``_cthin_factors``): the cthin block's grid gaps and the cthin lane
  factors (``_CthinPlan.lane_factors``);
* run-by-run standard gammas (``_standard_gammas``): the thinned and rm
  blocks;
* the tent partition's band masses, diagonal by diagonal from a rolling
  window of power rows, each row computed once (``_tent_windows``):
  ``tent_partition`` and the rm plan's dense diagonals;
* the tent masses' negative-mass guard and clamp (``_clamped``): the band
  masses and the rm tail's cells.

Still written twice, each for a reason:

* thinned, changepoint and rm draw gap by gap in their batch layouts
  (``lane_step``, ``_rm_cells``) but run by run in their blocks.
  Acceptance criteria 1 and 5 read the batch samplers' bytes at frozen
  seeds with per-cell bounds, so those layouts stay until the criteria
  have family-wise bounds.
* Exact cir steps a block of fewer than ``_VECTOR_LANES`` lanes on Python
  floats, lane after lane (``_CirExactPlan._float_lane``), and a larger
  block in numpy across its lanes: a numpy step's fixed cost outweighs a
  float step's below about 16 lanes.  Both call ``_cir_exact_step``.
* The tent mass formula runs on power rows for a dense diagonal
  (``_band_masses``) and on the four corners of each candidate cell for
  the rm tail (``_RandomMeasurePlan._tail_masses``), in the same order of
  operations: the tail exists to compute no power rows.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Dependence,
    Ensemble,
    GammaParams,
    NumericalError,
    ParameterError,
    ProcessKind,
    RandomSource,
    SamplePath,
    TimeGrid,
    UnsupportedKindError,
    _parse_enum,
    _require_finite_positive,
    _require_open_unit,
    _require_positive_int,
    derive_stream,
)

__all__ = [
    "TentPartition",
    "tent_partition",
    "CirMethod",
    "sample_path",
    "simulate_ensemble",
    "walker_sample",
    "marginal_sample",
    "triplet_sample",
]

# Blocks whose pair correlation falls below this are dropped by the
# random-measure *path* sampler (their Ga(shape < 1e-18, beta) cell draws are
# exactly 0.0 in double precision with overwhelming probability).  The
# tent_partition operation itself keeps every block.
_BAND_CUTOFF = 1e-18


def _band_masses(powers, d):
    """Masses m(i, i+d) of the tent partition along diagonal offset d.

    With A(i, j) = rho**(t_j - t_i) (the overlap area of the unit-area tent
    sets at t_i and t_j), inclusion-exclusion over the nested neighbours gives

        m(i, j) = A(i, j) - A(i-1, j) - A(i, j+1) + A(i-1, j+1),

    where out-of-range terms are dropped.  ``powers`` holds the power rows
    ``rho**(t[d+e:] - t[:n-d-e])`` for e = 0, 1, 2, as far as they exist.
    Interior blocks factor as
    m(i, j) = rho**(t_j - t_i) (1 - rho**(t_i - t_{i-1})) (1 - rho**(t_{j+1} - t_j)),
    so every mass is nonnegative (``_clamped``).
    """
    m = powers[0].copy()
    if len(powers) > 1:
        m[1:] -= powers[1]  # A(i-1, j), i = 1..n-1-d
        m[:-1] -= powers[1]  # A(i, j+1), i = 0..n-2-d
    if len(powers) > 2:
        m[1:-1] += powers[2]  # A(i-1, j+1), i = 1..n-2-d
    return _clamped(m, f"on diagonal {d}")


def _clamped(m, where):
    """Tent masses ``m`` with rounding residues down to -1e-9 clamped to zero.

    A mass below -1e-9 is a NumericalError; ``where`` says where it arose.
    """
    lo = float(np.min(m, initial=0.0))
    if lo < -1e-9:
        raise NumericalError(f"tent partition produced mass {lo} < 0 {where}")
    return np.maximum(m, 0.0)


def _tent_windows(times, rho, cutoff=0.0, start=None, stop=None):
    """The power rows of diagonals d = 0, 1, ... of the tent partition, in turn.

    Diagonal d's band masses are ``_band_masses(window, d)``, from the power
    rows ``rho**(t[d+e:] - t[:n-d-e])`` for e = 0, 1, 2; a rolling window
    computes each row once.  The walk yields ``(d, window)``, and stops
    before the first diagonal whose pair correlations rho**(t_{i+d} - t_i)
    all lie below ``cutoff``, or before diagonal ``stop``; it computes no
    row past the last diagonal it yields.  ``start``, a pair
    ``(d, list(window))`` kept from an earlier walk, resumes that walk at
    diagonal d.
    """
    n = len(times)
    last = n if stop is None else min(n, stop)
    if start is None:
        start = (0, [rho ** (times[e:] - times[: n - e]) for e in range(min(3, n))])
    first, window = start[0], list(start[1])
    for d in range(first, last):
        if not np.any(window[0] >= cutoff):
            return
        yield d, window
        del window[0]
        if d + 3 < n and d + 1 < last:
            window.append(rho ** (times[d + 3 :] - times[: n - d - 3]))


@dataclass(frozen=True)
class TentPartition:
    """Complete partition masses for a grid: ``masses[i, j]`` for i <= j, else 0.

    Row sums over the blocks containing k are exactly 1 (each X_{t_k} is
    Ga(alpha, beta)); the blocks containing both k and l sum to
    rho**(t_l - t_k) (the pair overlap), which fixes the autocorrelation.
    """

    grid: TimeGrid
    dep: Dependence
    masses: np.ndarray

    def row_sum(self, k):
        """Total mass of blocks whose interval [i, j] contains k."""
        return float(np.sum(self.masses[: k + 1, k:]))

    def pair_sum(self, k, l):
        """Total mass of blocks containing both k and l (k <= l)."""
        if k > l:
            k, l = l, k
        return float(np.sum(self.masses[: k + 1, l:]))


def tent_partition(grid: TimeGrid, dep: Dependence) -> TentPartition:
    """The exact tent-set partition of the grid (all n(n+1)/2 blocks, ``_tent_windows``)."""
    n = grid.n
    masses = np.zeros((n, n))
    for d, window in _tent_windows(grid.times, dep.rho):
        idx = np.arange(n - d)
        masses[idx, idx + d] = _band_masses(window, d)
    masses.setflags(write=False)
    return TentPartition(grid=grid, dep=dep, masses=masses)


# -- the engine: plan once, draw each block across its paths -----------------

# Raw draws held per block of paths: 64 KiB, so block buffers stay below
# glibc's default mmap threshold.  Freeing larger ones raises that threshold,
# which moved later arrays onto the heap and kept them resident.  Part of the
# stream layout: a plan with a width draws blocks of
# B = max(1, _BLOCK_DRAWS // width) paths, each from one stream, so changing
# this changes the ensemble values of ar1, thinned, rm, changepoint, exact
# cir and cthin.  Whole-path plans have no width and run blocks of one.
_BLOCK_DRAWS = 1 << 13
# numpy validates array arguments in Python (about 9 us a call), scalar ones
# in C (about 1 us): up to this many scalar calls beat one array call.
_SCALAR_CALLS = 6
# Cell shapes an rm plan keeps (2 MiB); a block walks later dense diagonals one at a time.
_PLAN_CELLS = 1 << 18
# Below this many lanes (the paths of a block) a recursion, or an exact cir
# block, runs on Python floats lane by lane; from it on, one numpy step per
# time step across all lanes.  For exact cir it is part of the stream layout.
_VECTOR_LANES = 16


def _gamma_runs(shapes):
    """Split a vector of gamma shapes into the fewest standard-gamma calls.

    Returns ``(shape, start, stop)`` triples: one scalar call per run of equal
    shapes, or a single array call (``shape`` then a column) when there are
    many runs.  Either way the draws come off the stream in element order, as
    one ``standard_gamma(shapes)`` call would take them.
    """
    shapes = np.asarray(shapes, dtype=float)
    edges = np.flatnonzero(shapes[1:] != shapes[:-1]) + 1
    if edges.size >= _SCALAR_CALLS:
        return [(shapes[:, None], 0, shapes.size)]
    bounds = [0, *edges.tolist(), shapes.size]
    return [(float(shapes[a]), a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def _standard_gammas(gen, runs, out):
    """``out`` filled with standard gammas, one call per run of ``_gamma_runs``, row by row."""
    for shape, a, b in runs:
        gen.standard_gamma(shape, out=out[a:b])
    return out


def _float_chunks(*arrays):
    """(s, zip of the elements s to s + 4096 as Python floats) over equal-length arrays.

    Python floats make a scalar loop several times faster than numpy scalars;
    converting a chunk at a time keeps a long path from holding a Python
    float object per step, and the loop stores its chunk of results with one
    slice assignment rather than a numpy item store per step.
    """
    for s in range(0, len(arrays[0]), 4096):
        yield s, zip(*(a[s : s + 4096].tolist() for a in arrays))


def _affine_recursion(a, z, x0):
    """Rows x with x[:, 0] = x0 and x[:, k] = fl(a[k-1] * x[:, k-1] + z[:, k-1]).

    ``a`` is one factor per step (shared by all lanes) or one per lane and
    step.  Every element is one rounded multiply and one rounded add, in the
    same order, whether the lanes run as numpy columns or as Python floats;
    Python floats go 4096 steps at a time, so a long path does not hold a
    Python float object per step.
    """
    lanes, steps = z.shape
    a = np.broadcast_to(a, z.shape)
    out = np.empty((lanes, steps + 1))
    out[:, 0] = x0
    if lanes >= _VECTOR_LANES:
        for k in range(steps):
            out[:, k + 1] = a[:, k] * out[:, k] + z[:, k]
        return out
    for i in range(lanes):
        x = float(out[i, 0])
        for s, chunk in _float_chunks(a[i], z[i]):
            xs = []
            for ak, zk in chunk:
                x = ak * x + zk
                xs.append(x)
            out[i, s + 1 : s + 4097] = xs
    return out


class _Plan:
    """Everything a kind's paths share on one (grid, params, dep), computed once.

    Each kind's plan class, built as ``cls(grid, params, dep)``, has one
    sampling method: ``block(gen, lanes)`` gives the values of ``lanes``
    paths, one row each, from the head of ``gen``, in the stream order its
    class documents.  An ensemble's block sizes keep path m a function of
    (master_seed, m) alone (the module docstring has the rule), and
    ``sample_path`` draws the one-lane block.
    A plan with a ``width`` (its raw draws per path) sizes its ensemble
    blocks by it; one without runs blocks of one path.  A kind that steps
    lanes gap by gap for the batch samplers holds that update as the static
    method ``lane_step(g, x, a, b, r)``: one gap of gap correlation r for
    every lane of ``x``, drawn from ``g``, at the Ga(a, b) marginal.  cthin
    also exposes the affine factors its step applies, ``lane_factors``.
    """

    width = None
    lane_step = None
    lane_factors = None

    def __init__(self, grid: TimeGrid):
        self.grid = grid
        self.n = grid.n


def _ladder_odds(rho_g):
    """(1 - rho_g) / rho_g, the AR(1) ladder's Poisson mean per unit of mixing L."""
    if not np.all(rho_g > 0.0):
        raise NumericalError("AR(1) innovation ladder: a gap correlation underflowed to 0")
    return (1.0 - rho_g) / rho_g


def _poisson_counts(gen, means, what):
    """Po(means) counts; a mean numpy cannot draw (past about 9.2e18) is a NumericalError."""
    try:
        return gen.poisson(means)
    except ValueError as exc:
        raise NumericalError(f"{what} is too large to draw") from exc


# At a gap correlation rho_g below about 1e-19, or an alpha above about 1e19 (L is
# about alpha), the ladder's mean passes numpy's limit.
_LADDER_MEAN = ("AR(1) innovation ladder: the Poisson mean (1 - rho_g)/rho_g * L "
                "(gap correlation rho_g too small, or alpha too large)")


def _ar1_ladder(gen, alpha, odds, out):
    """AR(1) innovations at gap correlation r, divided by r / beta, into ``out``.

    The gamma-Poisson-gamma ladder: the mixing L ~ Ga(alpha, 1) for every
    element, then every count N ~ Po(odds L) (``odds`` = (1 - r)/r, from
    ``_ladder_odds``), then every Ga(N, 1).  Scaled by r / beta this is the
    innovation zeta ~ Ga(N, beta / r), whose characteristic function
    ((beta - i w) / (beta - i r w))^(-alpha) is exactly what X' = r X + zeta
    needs to keep the Ga(alpha, beta) marginal; P(zeta = 0) = r^alpha.
    """
    gen.standard_gamma(alpha, out=out)
    return gen.standard_gamma(_poisson_counts(gen, odds * out, _LADDER_MEAN), out=out)


class _Ar1Plan(_Plan):
    """Gamma AR(1): X_{t_k} = rho_k X_{t_{k-1}} + zeta_k.

    The innovation for a gap with correlation rho_k is the gamma-Poisson-gamma
    ladder of ``_ar1_ladder`` (mixing L ~ Ga(alpha, 1), count
    N ~ Po(((1-rho_k)/rho_k) L), value ~ Ga(N, beta/rho_k)), its three stages
    drawn vectorized over steps as standard gammas.  Stream order: X_0, all L,
    all N, all values.  The recursion then runs step by step, so that each
    step is literally fl(rho_k * x + zeta_k).  Its lane step draws one gap's
    ladder for every lane.
    """

    def __init__(self, grid, params, dep):
        super().__init__(grid)
        self.alpha = params.alpha
        self.inv_beta = 1.0 / params.beta
        self.rho_g = dep.gap_corr(grid.gaps)
        self.odds = _ladder_odds(self.rho_g)[:, None]
        self.zeta_scale = self.rho_g / params.beta
        self.width = self.n

    def block(self, gen, lanes):
        draws = np.empty((self.width, lanes))
        gen.standard_gamma(self.alpha, out=draws[0])
        _ar1_ladder(gen, self.alpha, self.odds, draws[1:])
        return _affine_recursion(self.rho_g, draws[1:].T * self.zeta_scale,
                                 draws[0] * self.inv_beta)

    @staticmethod
    def lane_step(g, x, a, b, r):
        return r * x + _ar1_ladder(g, a, _ladder_odds(r), np.empty(x.size)) * (r / b)


class _ThinnedPlan(_Plan):
    """Thinned recursion: X_{t_k} = B_k X_{t_{k-1}} + zeta_k.

    B_k ~ Be(alpha rho_k, alpha (1 - rho_k)) thins the previous value
    (beta-gamma decomposition: B X ~ Ga(alpha rho_k, beta) when
    X ~ Ga(alpha, beta)) and zeta_k ~ Ga(alpha (1 - rho_k), beta) replaces the
    removed mass.  Stream order: X_0, the numerator gammas of all B_k, the
    denominator gammas, all zeta_k.  All are gammas, so a path is one vector
    of standard-gamma shapes.  Its lane step draws one gap for every lane:
    all numerator gammas, all denominator gammas, all zeta.
    """

    def __init__(self, grid, params, dep):
        super().__init__(grid)
        rho_g = dep.gap_corr(grid.gaps)
        kept = params.alpha * rho_g
        fresh = params.alpha * (1.0 - rho_g)
        self.runs = _gamma_runs(np.concatenate(([params.alpha], kept, fresh, fresh)))
        self.inv_beta = 1.0 / params.beta
        self.width = 3 * self.n - 2

    def block(self, gen, lanes):
        draws = _standard_gammas(gen, self.runs, np.empty((self.width, lanes)))
        x0, g1, g2, fresh = np.split(draws, [1, self.n, 2 * self.n - 1])
        return _affine_recursion((g1 / (g1 + g2)).T, fresh.T * self.inv_beta, x0[0] * self.inv_beta)

    @staticmethod
    def lane_step(g, x, a, b, r):
        g1 = g.gamma(a * r, 1.0, size=x.size)
        g2 = g.gamma(a * (1.0 - r), 1.0, size=x.size)
        return g1 / (g1 + g2) * x + g.gamma(a * (1.0 - r), 1.0 / b, size=x.size)


# From the first rm diagonal whose largest cell shape is at most this on,
# every diagonal is drawn as the sparse tail (``_RandomMeasurePlan``).  A
# cell of shape s is nonzero in float64 with probability about 762 s
# (``_nonzero_prob``), so past it more than 92% of dense draws would come
# out 0.0, while the tail draws only the cells that can be nonzero.  On
# verify's 1e5-point acf path (alpha 2, rho 0.5) values from 3e-5 to 1e-3
# ran within the timing noise of each other; 1e-5 and 1e-2 ran 1.5-1.8x
# slower (2 vCPUs, numpy 2.4).
_TAIL_SHAPE = 1e-4
# -log of the tail's floor, 2**-1100.  By Stuart's identity a Ga(s) cell is
# U**(1/s) G with U uniform and G ~ Ga(1 + s); a cell whose U**(1/s) lies
# below the floor is below 2**-1100 G, which rounds to 0.0 in float64 (half
# the least subnormal is 2**-1075) unless G > 2**25, a probability below
# e**-3e7.  The tail draws only the cells whose U**(1/s) clears the floor.
_TAIL_FLOOR = 1100.0 * math.log(2.0)


def _nonzero_prob(s):
    """q(s) = 1 - 2**(-1100 s): the chance that a Ga(s) cell's U**(1/s) clears the floor."""
    return -np.expm1(-_TAIL_FLOOR * s)


def _tail_cells(gen, s, q_max):
    """The tail's candidates of shapes ``s``, each drawn at rate ``q_max``: (kept, values).

    A candidate is kept with probability q(s) / q_max, so a cell becomes a
    kept candidate with probability q(s): exactly when its U**(1/s) clears
    the floor.  Given that, U' = 1 - V q(s) is uniform on (2**(-1100 s), 1)
    and a kept cell is the standard Ga(s) value U'**(1/s) G, G ~ Ga(1 + s).
    log U' is taken as log1p(-V q(s)), which keeps its precision where U'
    lies near 1.  Stream order: one acceptance uniform per candidate, then
    one V per kept cell, then one G per kept cell.
    """
    q = _nonzero_prob(s)
    kept = gen.random(s.size) < q / q_max
    s, q = s[kept], q[kept]
    v = gen.random(s.size)
    return kept, np.exp(np.log1p(-v * q) / s) * gen.standard_gamma(1.0 + s)


def _rm_tail(grid, alpha, dep):
    """(split, bounds): the rm plan's first sparse diagonal and a shape bound for each sparse one.

    A cell (i, i+d) has pair correlation rho**(t_{i+d} - t_i), at most
    rho**(d g_min) on diagonal d, and its mass is at most that times
    1 - rho**g_max (the factor of a nested neighbour), except on the last
    diagonal, d = n - 1, whose one cell has none.  The bounds come from
    d, alpha, rho and the smallest and largest gaps alone, so no diagonal
    is walked for them.  The split is the first diagonal whose bound is at
    most ``_TAIL_SHAPE``, and the tail runs to the first diagonal whose
    rho**(d g_min) lies below ``_BAND_CUTOFF``, past every diagonal the
    walk keeps.  A one-point grid has no tail.
    """
    n = grid.n
    if n < 2:
        return n, np.empty(0)
    g_min = float(grid.gaps.min())
    # rho**(d g_min) reaches the cutoff only while d <= horizon / (lam g_min)
    horizon = -math.log(_BAND_CUTOFF)
    reach = dep.lam * g_min
    d = np.arange(n if reach * n <= horizon else min(n, int(horizon / reach) + 2))
    corr = dep.rho ** (g_min * d)
    edge = np.where(d < n - 1, 1.0 - dep.rho ** grid.gaps.max(), 1.0)
    bounds = (alpha * corr * edge)[corr >= _BAND_CUTOFF]
    small = np.flatnonzero(bounds <= _TAIL_SHAPE)
    split = int(small[0]) if small.size else n
    return split, bounds[split:]


class _RandomMeasurePlan(_Plan):
    """Exact grid observation of the random-measure process.

    One independent cell variable zeta(i, j) ~ Ga(alpha m(i, j), beta) per
    partition block, X_{t_k} = sum of the cells whose interval contains k.
    Blocks with pair correlation below 1e-18 are dropped (their draws are 0.0
    in double precision); this keeps the cost O(n * horizon) instead of
    O(n^2).

    The diagonals before the split (``_rm_tail``) are dense: every cell is
    one standard gamma, diagonal d = 0, 1, ... in turn.  The rest are one
    sparse tail, which draws only the cells that can be nonzero in float64
    (``_tail_cells``).  Tail diagonal d holds lanes x (n - d) slots,
    lane-major (slot lane (n - d) + i is cell (i, i+d) of that lane); with
    its shape bound b, a Binomial(slots, q(b)) count of candidates sits at
    distinct uniform slots, and each candidate's shape comes from the four
    corner powers of ``_band_masses``' formula.  One weighted bincount over
    the kept cells' (cell, time) pairs adds each kept cell to every time it
    covers, so a time sums its own cells and one that no kept cell covers
    gets exactly 0.0; the running sum of a difference array would leave
    rounding residues there.  Stream order for a block: the dense cells
    run by run for every lane, then the tail: every tail diagonal's count
    (one binomial call), each diagonal's slots in turn (one choice without
    replacement each, for the diagonals with a count), then
    ``_tail_cells``' draws for all candidates.  The tail is drawn only when
    the walk reaches the split; a walk that the cutoff ends first has none.

    The plan keeps the cell shapes of the dense diagonals that fit in
    ``_PLAN_CELLS``, and a block draws all of their cells in one run of
    ``_gamma_runs``' calls.  Past that the plan keeps the walk's window
    where they end, and each block resumes the walk there and draws each
    later diagonal's cells as it reaches it, so no diagonal is computed
    twice in a block and a block holds the draws of the plan's diagonals
    plus one more diagonal.  The ``width`` counts the dense draws up to and
    including the first diagonal past ``_PLAN_CELLS`` (at least n, for a
    plan with no dense diagonal), so a block's size is a function of (grid,
    params, dep) alone, and a plan past ``_PLAN_CELLS`` draws blocks of one
    path.
    """

    def __init__(self, grid, params, dep):
        super().__init__(grid)
        self.alpha = params.alpha
        self.rho = dep.rho
        self.inv_beta = 1.0 / params.beta
        self.split, self.tail_bounds = _rm_tail(grid, self.alpha, dep)
        shapes, cells, self.resume = [], 0, None
        for d, window in self._walk():
            cells += self.n - d
            if cells > _PLAN_CELLS:
                self.resume = (d, list(window))
                break
            shapes.append(self.alpha * _band_masses(window, d))
        self.diagonals, self.cells = len(shapes), sum(s.size for s in shapes)
        self.runs = _gamma_runs(np.concatenate(shapes)) if shapes else ()
        self.width = max(cells, self.n)

    def _walk(self, start=None):
        """The dense diagonals' walk (``_tent_windows``), from ``start`` up to the split."""
        if not self.split:
            return iter(())
        return _tent_windows(self.grid.times, self.rho, _BAND_CUTOFF, start, self.split)

    def _add_diagonal(self, values, d, cells):
        """Add each lane's diagonal-d cells (scaled) to the times they cover.

        Time k gets csum[min(k + 1, n - d)] - csum[max(0, k - d)] from the
        cells' running sums csum (csum[0] = 0).  Padded with d zeros in front
        and d copies of the last sum behind, both terms are slices.  The pad
        is column-major, as a block's cells are, so each of its columns is
        one contiguous run over the lanes.
        """
        n = self.n
        pad = np.empty((cells.shape[0], n + d + 1), order="F")
        pad[:, : d + 1] = 0.0
        np.cumsum(cells, axis=1, out=pad[:, d + 1 : n + 1])
        pad[:, n + 1 :] = pad[:, n : n + 1]
        values += pad[:, d + 1 :] - pad[:, :n]

    def _tail_masses(self, i, j):
        """The masses of cells (i, j), from ``_band_masses``' four corners in its order."""
        t, rho, last = self.grid.times, self.rho, self.n - 1
        before, after = np.maximum(i - 1, 0), np.minimum(j + 1, last)
        m = rho ** (t[j] - t[i])
        m -= np.where(i > 0, rho ** (t[j] - t[before]), 0.0)
        m -= np.where(j < last, rho ** (t[after] - t[i]), 0.0)
        m += np.where((i > 0) & (j < last), rho ** (t[after] - t[before]), 0.0)
        return _clamped(m, "in the rm tail")

    def _add_tail(self, gen, values):
        """Draw each lane's tail cells and add them to the times they cover (see the class)."""
        if not self.tail_bounds.size:
            return
        lanes, n = values.shape
        diagonals = self.split + np.arange(self.tail_bounds.size)
        slots = lanes * (n - diagonals)
        q_max = _nonzero_prob(self.tail_bounds)
        counts = gen.binomial(slots, q_max)
        if not counts.any():
            return
        picks = [gen.choice(slots[k], counts[k], replace=False, shuffle=False)
                 for k in np.flatnonzero(counts)]
        d = np.repeat(diagonals, counts)
        lane, i = np.divmod(np.concatenate(picks), n - d)
        kept, cells = _tail_cells(gen, self.alpha * self._tail_masses(i, i + d),
                                  np.repeat(q_max, counts))
        if not cells.size:
            return
        cover = d[kept] + 1
        ends = np.cumsum(cover)
        times = np.arange(ends[-1]) + np.repeat((lane * n + i)[kept] - (ends - cover), cover)
        weights = np.repeat(cells * self.inv_beta, cover)
        values += np.bincount(times, weights, minlength=values.size).reshape(lanes, n)

    def _dense_cells(self, gen, lanes):
        """Each dense diagonal d's cells for every lane, scaled: (d, cells), one row per cell.

        The diagonals whose shapes the plan holds are drawn at once; past
        them the walk resumes, and each later diagonal is drawn as the walk
        reaches it.
        """
        held = _standard_gammas(gen, self.runs, np.empty((self.cells, lanes)))
        held *= self.inv_beta
        pos = 0
        for d in range(self.diagonals):
            yield d, held[pos : pos + self.n - d]
            pos += self.n - d
        for d, window in self._walk(self.resume) if self.resume else ():
            shapes = self.alpha * _band_masses(window, d)
            cells = _standard_gammas(gen, _gamma_runs(shapes), np.empty((shapes.size, lanes)))
            cells *= self.inv_beta
            yield d, cells

    def block(self, gen, lanes):
        values = np.zeros((lanes, self.n))
        d = -1
        for d, cells in self._dense_cells(gen, lanes):
            self._add_diagonal(values, d, cells.T)
        if d + 1 == self.split:
            self._add_tail(gen, values)
        return values


class _ChangepointPlan(_Plan):
    """Markov change-point process: piecewise constant, renewed by a Poisson clock.

    Over a gap with correlation rho_k the value is kept with probability
    rho_k (no clock event) and otherwise replaced by a fresh Ga(alpha, beta)
    variate (the value after the last event in the gap, which is independent
    of everything earlier).  Stream order: X_0 (standard gamma), all
    keep-uniforms, all fresh standard gammas (fresh values are drawn
    unconditionally to keep the stream layout branch-free).  Its lane step
    draws one gap for every lane: all keep-uniforms, all fresh values.
    """

    def __init__(self, grid, params, dep):
        super().__init__(grid)
        self.alpha = params.alpha
        self.inv_beta = 1.0 / params.beta
        self.rho_g = dep.gap_corr(grid.gaps)
        self.width = 2 * self.n - 1

    def block(self, gen, lanes):
        n, draws = self.n, np.empty((self.width, lanes))
        gen.standard_gamma(self.alpha, out=draws[0])
        gen.random(out=draws[1:n])
        gen.standard_gamma(self.alpha, out=draws[n:])
        pool = np.concatenate((draws[:1], draws[n:])).T * self.inv_beta
        idx = np.zeros((lanes, n), dtype=np.int64)
        np.cumsum(draws[1:n].T >= self.rho_g, axis=1, out=idx[:, 1:])
        return np.take_along_axis(pool, idx, axis=1)

    @staticmethod
    def lane_step(g, x, a, b, r):
        return np.where(g.random(x.size) < r, x, g.gamma(a, 1.0 / b, size=x.size))


class CirMethod(enum.Enum):
    """Sampling scheme for the squared Ornstein-Uhlenbeck (CIR-type) diffusion."""

    EXACT = "exact"
    SQUARED_OU = "squared-ou"

    @classmethod
    def parse(cls, name):
        return _parse_enum(cls, name, "cir method")


def _cir_rate(b, r):
    """c = b / (1 - r), the exact cir transition's gamma rate at gap correlation r.

    A gap correlation that rounds to 1.0 (gap * lambda below about 1.1e-16)
    leaves no rate, which is a NumericalError.
    """
    if np.any(np.asarray(r) >= 1.0):
        raise NumericalError(
            "exact cir transition: a gap correlation rounds to 1 (gap * lambda too small)"
        )
    return b / (1.0 - r)


# Past numpy's limit at a gap correlation near 1 (c large) or a large state.
_CIR_MEAN = "exact cir transition: the Poisson mean c * x * rho_g"


def _cir_exact_step(gen, x, a, c, r):
    """The exact cir transition from x at gap correlation r: Ga(a + Po(c x r), c).

    c = b / (1 - r) (``_cir_rate``); this is the noncentral-chi-square form
    of the kernel.  ``x`` is a Python float (one path, one scalar Poisson
    and one scalar gamma call) or an array of lanes, whose shape the draws
    take.  The gamma is drawn as a standard gamma times 1/c, which is the
    same number bit for bit and about 7 us faster a call on an array.
    """
    return gen.standard_gamma(a + _poisson_counts(gen, c * x * r, _CIR_MEAN)) * (1.0 / c)


class _CirExactPlan(_Plan):
    """Squared OU / CIR-type diffusion dX = -lam (X - alpha/beta) dt + sqrt(2 lam X / beta) dW.

    Method EXACT samples the transition kernel exactly (Poisson mixture of
    gammas, ``_cir_exact_step``) gap by gap; a path takes 2n - 1 draws, its
    ``width``.  Stream order: a block of ``_VECTOR_LANES`` lanes or more
    draws X_0 of every lane, then gap by gap every lane's Poisson count and
    then every lane's gamma, each a numpy call across the lanes.  A smaller
    block draws its lanes one after another, each as X_0 and then each
    gap's Poisson count and gamma in turn, on Python floats
    (``_float_lane``); at one lane the two orders are the same, and so are
    the bytes.  The lane step is one gap of ``_cir_exact_step``; a float
    lane stores each chunk of 4096 steps with one slice assignment.  The
    fork is kept on a measurement: a numpy step costs 16-22 us at 1 to 32
    lanes and a float step 1.0-1.5 us a lane (1.0 us on a 1e5-step lane,
    min of 7, where a numpy item store per step made it 1.1; 2 vCPUs,
    numpy 2.4), so they break even between about 12 and 20 lanes.  The
    fork at 16 lanes is part of the stream layout and stays; at 2000
    points (blocks of 2 lanes) a 200-path ensemble took 0.75 s on floats
    and 4.1 s in numpy.  Its gap correlations ``rho_d`` come from
    ``Dependence.gap_corr``.
    """

    def __init__(self, grid, params, dep):
        super().__init__(grid)
        self.alpha = params.alpha
        self.beta = params.beta
        self.rho_d = dep.gap_corr(grid.gaps)
        self.c = _cir_rate(self.beta, self.rho_d)
        self.width = 2 * self.n - 1

    def block(self, gen, lanes):
        if lanes < _VECTOR_LANES:
            return np.array([self._float_lane(gen) for _ in range(lanes)])
        a = self.alpha
        out = np.empty((self.n, lanes))
        x = out[0] = gen.gamma(a, 1.0 / self.beta, size=lanes)
        for k, (rho_d, c) in enumerate(zip(self.rho_d, self.c), 1):
            x = out[k] = _cir_exact_step(gen, x, a, c, rho_d)
        return out.T

    def _float_lane(self, gen):
        """One lane's path, step by step on Python floats, stored a chunk at a time."""
        a = self.alpha
        out = np.empty(self.n)
        x = out[0] = gen.gamma(a, 1.0 / self.beta)
        for s, chunk in _float_chunks(self.rho_d, self.c):
            xs = []
            for rho_d, c in chunk:
                x = _cir_exact_step(gen, x, a, c, rho_d)
                xs.append(x)
            out[s + 1 : s + 4097] = xs
        return out

    @staticmethod
    def lane_step(g, x, a, b, r):
        return _cir_exact_step(g, x, a, _cir_rate(b, r), r)


def _squared_ou_coordinates(a):
    """J = 2 alpha, the number of OU coordinates; it must be a positive integer."""
    j = round(2.0 * a)
    if abs(2.0 * a - j) > 1e-9 or j < 1:
        raise ParameterError(
            f"the squared-OU construction requires 2*alpha to be a positive integer, got alpha={a}"
        )
    return j


def _ou_walk(gen, half, shape):
    """Exact OU coordinates of ``shape`` (``(..., J)``), at the start and after each gap.

    The coordinates are unit-variance and ``half[k]`` is gap k's OU
    correlation rho**(gap/2).  Stream order: the start's standard normals,
    then every gap's noise in one call.  Each gap is Z' = a Z + sqrt(1 - a^2) E,
    the exact OU transition.
    """
    z = gen.standard_normal(shape)
    noise = gen.standard_normal((len(half), *shape))
    yield z
    for ak, e in zip(half, noise):
        z = ak * z + math.sqrt(1.0 - ak * ak) * e
        yield z


class _SquaredOuPlan(_Plan):
    """The cir diffusion as J = 2 alpha exact OU coordinates (``_ou_walk``).

    X = sum Z_j^2 / (2 beta); 2 alpha must be a positive integer.  The OU
    update is exact over any gap.  A block walks ``(lanes, J)`` coordinates,
    in ``_ou_walk``'s stream order; the plan has no ``width``, so its
    ensemble blocks hold one path.
    """

    def __init__(self, grid, params, dep):
        super().__init__(grid)
        self.j = _squared_ou_coordinates(params.alpha)
        self.two_beta = 2.0 * params.beta
        self.half = dep.gap_corr(grid.gaps / 2.0)

    def block(self, gen, lanes):
        walk = _ou_walk(gen, self.half, (lanes, self.j))
        return np.array([np.sum(z * z, axis=1) for z in walk]).T / self.two_beta


# Downward-jump components the cthin series draws as events (j < _CTHIN_TERMS);
# a gamma subordinator in log space stands for the rest.  Part of the stream
# layout (the alias table's width), so changing it changes every cthin value.
_CTHIN_TERMS = 1 << 8
# Expected intervals between events per draw chunk of the cthin series (about
# 0.5 MiB per float vector); a longer segment goes in equal pieces.  Part of
# the stream layout.
_CTHIN_CHUNK = 1 << 16
# Floor of a cthin log multiplier; exp of it, and of anything below -745, is 0.
_CTHIN_LOG_FLOOR = -800.0


def _cthin_remainder(a):
    """(k, v): R = exp(-Ga(k t, v)) stands for the cthin components j >= J over lam-time t.

    Their log multipliers y = -log m have Levy density
    a e^(-(a+J) y) / (1 - e^(-y)), nearly a gamma process's a e^(-(a+J) y) / y.
    The shape k and rate v make E[R] and E[R^2] fall at the components'
    own rates, c = a / (a + J) and c + a / (a + J + 1): k log1p(1/v) = c, and
    the log-variance rate 2 c - (c + a / (a + J + 1)) = c / (a + J + 1) is
    k log1p(1 / (v (v + 2))).  Their ratio fixes v, found by bisection
    between a + J - 1 and a + J (it is about a + J - 1/2).
    """
    big = a + _CTHIN_TERMS
    lo, hi = big - 1.0, big
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        below = (big + 1.0) * math.log1p(1.0 / (mid * (mid + 2.0))) > math.log1p(1.0 / mid)
        lo, hi = (mid, hi) if below else (lo, mid)
    return a / big / math.log1p(1.0 / lo), lo


@functools.lru_cache(maxsize=16)
def _cthin_series(a):
    """(rate, drift, rem_shape, rem_rate, prob, alias): the cthin series at shape a, per lam-time.

    Component j < J (J = ``_CTHIN_TERMS``) jumps at rate a / (a + j), so the
    events come at rate a * sum_j 1 / (a + j) (at most J), and an event's
    component is j with probability proportional to 1 / (a + j).  The
    components j >= J lower E[X] at rate ``drift`` = a / (a + J); over an
    interval of length h they are the factor R = exp(-G), G ~ Ga(``rem_shape`` h,
    ``rem_rate``) (``_cthin_remainder``).  ``prob`` and ``alias`` are a
    Walker alias table of the components: a uniform V in [0, J) picks
    column k = floor(V), which is j = k if V - k < prob[k], else alias[k].
    The weights decrease in j, so the columns above the mean (0 .. big - 1)
    fill the ones below it in order: column s below takes its filler from
    the first column whose running excess passes s's running deficit, and
    each filling column in turn is topped up by the next one.
    """
    w = 1.0 / (a + np.arange(_CTHIN_TERMS))
    q = w * (_CTHIN_TERMS / w.sum())  # column heights, mean 1
    big = max(1, int(np.count_nonzero(q >= 1.0)))
    excess = np.cumsum(q[:big] - 1.0)
    deficit = np.concatenate(([0.0], np.cumsum(1.0 - q[big:])))
    prob, alias = q.copy(), np.empty(_CTHIN_TERMS, dtype=np.intp)
    alias[big:] = np.minimum(np.searchsorted(excess, deficit[:-1], side="right"), big - 1)
    # a filling column gives up to the end of the last column it fills
    ends = deficit[np.minimum(np.searchsorted(deficit, excess), deficit.size - 1)]
    prob[:big] = np.minimum(1.0 - (ends - excess), 1.0)
    alias[:big] = np.arange(1, big + 1)
    prob[big - 1], alias[big - 1] = 1.0, big - 1
    prob.setflags(write=False)  # the cache hands the same arrays to every caller
    alias.setflags(write=False)
    return (a * w.sum(), a / (a + _CTHIN_TERMS), *_cthin_remainder(a), prob, alias)


def _cthin_intervals(a, steps):
    """The expected number of series intervals in each segment of lam-time ``steps``."""
    return _cthin_series(a)[0] * steps + 1.0


def _cthin_pieces(a, steps):
    """How many equal pieces each segment of lam-time ``steps`` goes in, each one chunk at most."""
    pieces = np.ceil(_cthin_series(a)[0] * steps / _CTHIN_CHUNK)
    if not np.all(pieces < 2.0**40):
        raise NumericalError("cthin series: a gap holds too many expected jumps to draw")
    return np.maximum(pieces, 1).astype(np.int64)


def _cthin_chunk(gen, a, b, steps):
    """(M, Z) of one chunk of segments: X_end = M X_start + Z over each (``_CthinPlan``).

    A top-up's log factor sums the logs after it in its own segment, from
    the segment's end back, so its rounding error is that of those terms and
    of one subtraction of the next segment's log M, not of the chunk's sums.
    A log multiplier below ``_CTHIN_LOG_FLOOR`` is raised to it: every
    factor it enters is exp(< -745) = 0 either way, and no sum holds a term
    larger than 800 in size.
    """
    rate, drift, rem_shape, rem_rate, prob, alias = _cthin_series(a)
    sizes = _poisson_counts(gen, rate * steps, "cthin series: the jump count") + 1
    ends = np.cumsum(sizes)
    starts, last, n = ends - sizes, ends - 1, int(ends[-1])
    # each segment's intervals: normalized exponential spacings (uniform order statistics)
    h = gen.standard_exponential(n)
    h *= np.repeat(steps / np.add.reduceat(h, starts), sizes)
    events = np.ones(n, dtype=bool)
    events[last] = False
    v = gen.random(n - steps.size) * _CTHIN_TERMS
    k = v.astype(np.intp)
    k = np.where(v - k < prob[k], k, alias[k])
    log_f = np.zeros(n)  # each interval's log factor, the event that ends it included
    log_f[events] = np.maximum(gen.standard_exponential(v.size) / -(a + k), _CTHIN_LOG_FLOOR)
    del v, k
    z, rem = gen.standard_gamma(np.concatenate((a * h, rem_shape * h))).reshape(2, n)
    rem /= rem_rate  # -log R, the remainder over each interval
    log_f -= rem
    log_m = np.add.reduceat(log_f, starts)
    # each interval's log factor to its segment's end: a running sum from the
    # chunk's end, restarted at each segment's end, less what the restarts carry
    log_f[last[:-1]] -= log_m[1:]
    log_f = np.cumsum(log_f[::-1])[::-1]
    log_f -= np.repeat(np.append(log_f[starts[1:]] - log_m[1:], 0.0), sizes)
    # a top-up takes R^(1/2) of its own interval (a midpoint rule) and every
    # factor after it in its segment; over (1 - e^-ch) / (ch) E[R^(1/2)] its mean is exact
    c = drift * h
    z *= np.divide(-np.expm1(-c), c, out=np.ones(n), where=c > 0.0)
    z *= np.exp(0.5 * rem + log_f + h * (rem_shape * math.log1p(0.5 / rem_rate)))
    return np.exp(log_m), np.add.reduceat(z, starts) / b


def _cthin_factors(gen, a, b, steps):
    """(M, Z) for segments of lam-time ``steps``, drawn in chunks of about ``_CTHIN_CHUNK``
    expected intervals; no segment may hold more than a chunk (``_cthin_pieces``)."""
    if not steps.size:
        return steps, steps
    cost = np.cumsum(_cthin_intervals(a, steps))
    cuts = [0, *np.searchsorted(cost, np.arange(_CTHIN_CHUNK, cost[-1], _CTHIN_CHUNK)).tolist(),
            steps.size]
    m, z = np.empty(steps.size), np.empty(steps.size)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi > lo:
            m[lo:hi], z[lo:hi] = _cthin_chunk(gen, a, b, steps[lo:hi])
    return m, z


class _CthinPlan(_Plan):
    """Continuously-thinned process: the limit of beta thinning, by a Levy series.

    ``analytic.generator_apply``'s closed form has two parts (a = alpha,
    b = beta): a gamma subordinator with Levy density a lam u^-1 e^(-b u),
    and downward jumps x -> m x with density a lam m^(a-1) / (1 - m) on
    (0, 1), which is sum_j a lam m^(a+j-1).  So component j is a Poisson
    stream of rate a lam / (a + j) whose multipliers are U^(1/(a+j)), and
    X_t = X_0 prod(m) + the top-ups, each times the multipliers after it
    (a series representation, Rosinski 2001).  The components j < J
    (J = ``_CTHIN_TERMS`` = 256) are drawn as events, at rate
    a lam sum_j 1 / (a + j), which is below J lam at every shape.  The
    rest have log multipliers y = -log m with Levy density
    a lam e^(-(a+J) y) / (1 - e^(-y)), jumps of size about 1 / (a + J):
    as Asmussen and Rosinski (2001) replace small jumps by a Brownian
    motion, they become one process, here a gamma subordinator in log space
    (it keeps the density's 1/y pole), R = exp(-Ga(k lam t, v)) over time t,
    with k and v chosen so that E[R] and E[R^2] fall at the components' own
    rates (``_cthin_remainder``).  The generator is then exact on
    polynomials of degree 2: the mean, the variance and the rho**|s-t|
    autocorrelation of the process are the limit's at every shape.  Higher
    moments differ by the gap between the two densities, a relative O(y) at
    the remainder's jump sizes y ~ 1 / (a + J).

    Over a segment of lam-time t (a grid gap times lam, or a lane's step),
    N ~ Po(a t sum_j 1/(a+j)) events split it into N + 1 intervals, whose
    lengths are t times N + 1 exponential spacings over their sum.  Each
    event draws its component from an alias table and its log multiplier
    -E / (a + j); each interval of length h draws its remainder factor R
    and a top-up Ga(a h, b), which enters at R^(1/2), as if at the
    interval's midpoint, and is scaled so that its mean is exact.
    Composing the intervals in log space gives the segment's
    X_end = M X_start + Z, with no beta ratio to cancel at small shapes.
    To second order the midpoint is the one approximation: it leaves the
    top-ups' second moments off by O(h^2) per interval.  Averaged over the
    exponential intervals, those errors leave the stationary variance low
    by at most 2.4e-6 of itself (near alpha 80; 1e-6 at alpha 1, 8e-7 at
    1000); with J = 1 the same sum predicts +1.27% at alpha 50, and 4e5
    lanes read +1.2%.
    A path is X_0 ~ Ga(a, b) and then fl(M_k x + Z_k) gap by gap
    (``_affine_recursion``); a gap of more than ``_CTHIN_CHUNK`` expected
    intervals is drawn in equal pieces.  A block steps all of its lanes at
    once: its segments are every lane's pieces, lane-major (lane 0's in
    grid order, then lane 1's, ...), in one run of ``_cthin_factors``.
    Stream order: X_0 of every lane, then per chunk of that run every
    segment's count, all spacings, all component uniforms, all multiplier
    exponentials, all top-up gammas, all remainder gammas.  The ``width``
    is 1 + the expected number of intervals of a path, a function of
    (grid, params, dep) alone.  The lane step applies ``lane_factors``.
    """

    def __init__(self, grid, params, dep):
        super().__init__(grid)
        self.a, self.b = params.alpha, params.beta
        steps = dep.lam * grid.gaps
        pieces = _cthin_pieces(self.a, steps)
        self.steps = np.repeat(steps / pieces, pieces)
        self.keep = np.concatenate(([0], np.cumsum(pieces)))  # the grid times among the pieces
        self.width = 1 + int(np.sum(_cthin_intervals(self.a, self.steps)))

    def block(self, gen, lanes):
        x = gen.gamma(self.a, 1.0 / self.b, size=lanes)
        m, z = _cthin_factors(gen, self.a, self.b, np.tile(self.steps, lanes))
        shape = (lanes, self.steps.size)
        return _affine_recursion(m.reshape(shape), z.reshape(shape), x)[:, self.keep]

    @staticmethod
    def lane_factors(g, a, b, r, n):
        """The series factors (M, Z) of one gap of correlation r for n lanes, piece by piece.

        X' = M X + Z over each piece in turn: a segment of lam-time -log r in
        equal pieces of at most one chunk (``_cthin_pieces``).  The factors
        do not depend on X, so one draw serves any start.
        """
        if not r > 0.0:
            raise NumericalError("cthin series: a gap correlation underflowed to 0")
        step = 0.0 - math.log(r)  # +0.0 where r is 1.0: numpy refuses a gamma shape of -0.0
        pieces = int(_cthin_pieces(a, step))
        for _ in range(pieces):
            yield _cthin_factors(g, a, b, np.full(n, step / pieces))

    @staticmethod
    def lane_step(g, x, a, b, r):
        for m, z in _CthinPlan.lane_factors(g, a, b, r, x.size):
            x = m * x + z
        return x


# The one table of kinds: each kind's plan class, by cir method for cir.
_PLANS = {ProcessKind.AR1: _Ar1Plan, ProcessKind.THINNED: _ThinnedPlan,
          ProcessKind.RANDOM_MEASURE: _RandomMeasurePlan,
          ProcessKind.CHANGE_POINT: _ChangepointPlan, ProcessKind.CONTINUOUSLY_THINNED: _CthinPlan,
          ProcessKind.SQUARED_OU: {CirMethod.EXACT: _CirExactPlan,
                                   CirMethod.SQUARED_OU: _SquaredOuPlan}}


def _plan_class(kind, method=CirMethod.EXACT):
    """``kind``'s plan class in ``_PLANS`` (``method``'s for cir; other kinds ignore it)."""
    plan = _PLANS.get(kind)
    if plan is None:
        raise UnsupportedKindError.of("simulation", kind)
    if isinstance(plan, dict) and method not in plan:
        raise ParameterError(f"unknown cir method {method!r}")
    return plan[method] if isinstance(plan, dict) else plan


def _lane_plan(kind):
    """The plan class that holds ``kind``'s lane update, ``lane_step`` (exact cir for cir)."""
    plan = _plan_class(kind)
    if plan.lane_step is None:
        raise UnsupportedKindError.of("the lane update", kind)
    return plan


# -- paths and ensembles -------------------------------------------------------


def sample_path(
    kind: ProcessKind,
    rng: RandomSource,
    grid: TimeGrid,
    params: GammaParams,
    dep: Dependence,
    method: CirMethod = CirMethod.EXACT,
) -> SamplePath:
    """One path of ``kind`` on ``grid``, drawn from the head of ``rng``.

    ``method`` is ``simulate_ensemble``'s: it chooses the cir scheme.  Each
    kind's plan class documents its construction and stream order.  Where a
    kind's ensemble blocks hold one path, as squared-OU's always do,
    ensemble path m is this path on ``derive_stream(master_seed, m)``, byte
    for byte:

    >>> from gammaproc import Dependence, GammaParams, make_uniform_grid
    >>> grid = make_uniform_grid(0.0, 0.5, 6)
    >>> params, dep = GammaParams(2.0, 1.0), Dependence.from_rho(0.5)
    >>> sq_ou = CirMethod.SQUARED_OU
    >>> ens = simulate_ensemble(ProcessKind.SQUARED_OU, grid, params, dep, 3, 7, sq_ou)
    >>> path = sample_path(ProcessKind.SQUARED_OU, derive_stream(7, 2), grid, params, dep, sq_ou)
    >>> path.values.tobytes() == ens.values[2].tobytes()
    True
    """
    plan = _plan_class(kind, method)(grid, params, dep)
    return SamplePath(grid, plan.block(rng.gen, 1)[0], kind)


def simulate_ensemble(
    kind: ProcessKind,
    grid: TimeGrid,
    params: GammaParams,
    dep: Dependence,
    n_paths: int,
    master_seed: int,
    method: CirMethod = CirMethod.EXACT,
) -> Ensemble:
    """Simulate ``n_paths`` independent paths; path m depends on (master_seed, m) alone.

    So the output does not depend on ``n_paths`` itself: a longer run
    extends a shorter one path for path.  The module docstring gives the
    block-stream rule that makes it so.
    """
    n_paths = _require_positive_int("n_paths", n_paths)
    plan = _plan_class(kind, method)(grid, params, dep)
    values = np.empty((n_paths, grid.n))
    lanes = max(1, _BLOCK_DRAWS // plan.width) if plan.width else 1
    rng = derive_stream(master_seed, 0)
    for start in range(0, n_paths, lanes):
        rng.rekey(start // lanes)
        values[start : start + lanes] = plan.block(rng.gen, lanes)[: n_paths - start]
    values.setflags(write=False)  # so Ensemble holds it without a copy
    return Ensemble(grid=grid, kind=kind, values=values, master_seed=rng.master_seed)


# -- vectorized i.i.d. batch samplers (verification workhorses) ---------------


def walker_sample(n, params: GammaParams, rho_step, master_seed):
    """n i.i.d. AR(1) innovations at per-step rho (``_ar1_ladder``)."""
    rho = _require_open_unit("rho_step", rho_step)
    g = derive_stream(master_seed, 0).gen
    out = np.empty(_require_positive_int("n", n))
    return _ar1_ladder(g, params.alpha, _ladder_odds(rho), out) * (rho / params.beta)


def _rm_cells(r, rows):
    """rm's batch layout for the returned ``rows``: ((i, j), mass) cells in draw order.

    The tent partition of [0, gap, 2 gap] (rows 0, 1 and 2) at gap
    correlation r; a marginal (row 2) draws only the cells that cover
    2 gap.  Cell (i, j) is one Ga(alpha mass, beta) variable in every row
    from i to j.
    """
    return {
        (2,): (((2, 2), 1.0 - r), ((1, 2), r - r * r), ((0, 2), r * r)),
        (0, 1, 2): (((0, 0), 1.0 - r), ((1, 1), (1.0 - r) ** 2), ((2, 2), 1.0 - r),
                    ((0, 1), r - r * r), ((1, 2), r - r * r), ((0, 2), r * r)),
    }[rows]


def _batch_start(n, params, dep, master_seed, gap):
    """The batch samplers' shared start: (n, gap, generator, alpha, beta, rho**gap).

    ``n`` must be a positive integer and ``gap`` finite and positive; every
    sampler draws from the head of the stream (master_seed, 0).
    """
    n = _require_positive_int("n", n)
    gap = _require_finite_positive("gap", gap)
    g = derive_stream(master_seed, 0).gen
    return n, gap, g, params.alpha, params.beta, dep.gap_corr(gap)


def _batch_rows(kind, g, a, b, r, n, rows):
    """The rows ``rows`` of X_0, X_1, ... for n i.i.d. lanes, one gap (correlation r) apart.

    rm adds up the cells of ``_rm_cells``, each row its cells in draw
    order.  Every other kind starts from X_0 ~ Ga(a, b) and takes one
    ``lane_step`` of its plan class per gap, up to row ``rows[-1]``.
    """
    if kind is ProcessKind.RANDOM_MEASURE:
        out = np.zeros((len(rows), n))
        for (i, j), mass in _rm_cells(r, rows):
            cell = g.gamma(a * mass, 1.0 / b, size=n)
            for row, k in zip(out, rows):
                if i <= k <= j:
                    row += cell
        return list(out)
    step, x, out = _lane_plan(kind).lane_step, g.gamma(a, 1.0 / b, size=n), []
    for k in range(rows[-1] + 1):
        if k:
            x = step(g, x, a, b, r)
        if k in rows:
            out.append(x)
    return out


def marginal_sample(
    kind: ProcessKind,
    n,
    params: GammaParams,
    dep: Dependence,
    master_seed,
    gap=1.0,
    method: CirMethod = CirMethod.EXACT,
):
    """n i.i.d. copies of X at a fixed time, after the kind's own update mechanism.

    Each lane runs the same recursion as ``sample_path``: two ``lane_step``
    gaps of length ``gap`` from a Ga(alpha, beta) start for the discrete
    recursions, exact cir and cthin; the last column of a 3-point
    squared-OU block with gaps ``gap``.  So a lane value has exactly the law
    of a path value at that time.  ``gap`` must be finite and positive.
    """
    n, gap, g, a, b, rho_g = _batch_start(n, params, dep, master_seed, gap)
    plan = _plan_class(kind, method)
    if plan is _SquaredOuPlan:
        return plan(TimeGrid(gap * np.arange(3.0)), params, dep).block(g, n)[:, -1]
    return _batch_rows(kind, g, a, b, rho_g, n, (2,))[0]


def triplet_sample(kind: ProcessKind, n, params: GammaParams, dep: Dependence, master_seed, gap=1.0):
    """n i.i.d. copies of (X_0, X_gap, X_2gap) for the thinned/random-measure pair.

    These two kinds share only the laws of adjacent pairs (X_0 and X_2gap
    already differ: ROADMAP item 14); their joint laws differ at three
    points, which is what this sampler exists to expose.
    """
    n, _, g, a, b, rho_g = _batch_start(n, params, dep, master_seed, gap)
    if kind not in (ProcessKind.THINNED, ProcessKind.RANDOM_MEASURE):
        raise UnsupportedKindError.of("triplet_sample", kind)
    return np.array(_batch_rows(kind, g, a, b, rho_g, n, (0, 1, 2)))
