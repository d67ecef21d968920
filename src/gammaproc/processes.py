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
drawn from the head of ``derive_stream(master_seed, m // B)``, in
``sample_path``'s stream layout with every draw taken for all ``B`` lanes at
once.  ``B`` depends on the kind:

* ``max(1, _BLOCK_DRAWS // width)`` for the plans with a ``width`` of raw
  draws per path: ar1, thinned, changepoint and rm (up to ``_PLAN_CELLS``
  cells);
* 1 for the plans that simulate whole paths: exact cir, Euler, squared-OU,
  cthin and rm past ``_PLAN_CELLS`` cells.

When ``B == 1`` path ``m`` is ``sample_path`` of the same kind and options
on ``derive_stream(master_seed, m)``, byte for byte.

Plan, draw, build
-----------------
Paths and ensembles run on one engine, in three steps:

* **plan**: everything that depends only on (grid, params, dep) - gap
  correlations, gamma shapes, rm band masses, cir per-gap constants - is
  computed once per ``sample_path`` call or ensemble (``_plan_for_kind``,
  the one dispatch on kind).
* **draw**: a block's raw draws are taken off its stream in the documented
  order, each run of draws of one law in one generator call over its rows
  for every lane (a gamma of shape k and scale s is drawn as
  ``s * standard_gamma(k)``, which is the same number bit for bit).  An
  ensemble re-keys one Philox stream to each block's key in turn, which
  yields exactly the words of a freshly keyed one.
* **build**: a block of paths' draws becomes values, vectorized across the
  block; recursions stay fl(rho * x + zeta) element by element.

An ensemble re-keys one stream to each block in turn and keeps the block's
first rows; ``sample_path`` draws the one-lane block.  Exact cir draws each
step from the state, so it has no separate draw step; it, Euler, squared-OU
and cthin simulate their one-lane blocks whole inside their plans.

The ``*_sample`` batch helpers at the bottom draw i.i.d. copies of a
marginal or of a thinned/rm triplet from a *single* stream, as a vector of
lanes.  They exist because statistical verification needs 10^5 - 10^6
independent replicates, for which per-path stream setup dominates runtime.
Pairs need no helper: a 2-point ``simulate_ensemble`` is one pair per path.
The marginal and triplet helpers share one body (``_batch_start`` and
``_batch_rows``): each gap of ar1, thinned, changepoint, exact cir and each
cthin lattice step is one call of ``_lane_step``, the only lane dispatch on
kind (the stats generator check calls it too), and rm sums the cells of a
small tent partition.  Each helper documents why its construction has
exactly the law of the kind's paths restricted to those times.

Shared and duplicated update rules
----------------------------------
Written once, for the path plans and the lanes alike:

* the AR(1) gamma-Poisson-gamma ladder (``_ar1_ladder``): the ar1 plan, the
  ar1 lane step and ``walker_sample``;
* the exact cir transition (``_cir_exact_step``): the exact cir plan and
  lane step;
* the exact OU walk (``_ou_walk``): the squared-OU plan and
  ``marginal_sample``;
* the cthin lattice draw, kept fraction plus top-up (``_cthin_draw``): the
  cthin plan's chunks and the cthin lane step;
* a plan's run-by-run standard gammas (``_GammaRunsPlan.draw``): thinned
  and rm;
* the tent partition's band masses, with their negative-mass guard and
  clamp, diagonal by diagonal from a rolling window of power rows, each row
  computed once (``_tent_diagonals``): ``tent_partition`` and the rm plan.

Still written twice, each for a reason:

* thinned, changepoint and rm draw gap by gap in their batch layouts
  (``_lane_step``, ``_rm_cells``) but run by run in their plans.  Acceptance
  criteria 1 and 5 read the batch samplers' bytes at frozen seeds with
  per-cell bounds, so those layouts stay until the criteria have
  family-wise bounds.
* cthin paths draw in chunks and scan the lattice (``_affine_scan_blocks``)
  where the lane step multiplies step by step: acceptance criterion 2
  reads cthin path bytes, so they stay as they are for the same reason.
  The scan's 1024-step blocks and its 1e-280 test, which sends a block down
  the prefix formula or the exact recursion, are part of those bytes; the
  16-block groups in which it runs its numpy passes are not.
* Euler steps a path on Python floats and ``marginal_sample``'s lanes in
  numpy.  One substep costs about 1.2 us on Python floats and about 12 us
  as a one-lane numpy step (Xeon, 2 vCPUs, numpy 2.4), so a path would run
  ten times slower on the lane loop.
"""

from __future__ import annotations

import enum
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
    _require_positive_int,
    derive_stream,
)

__all__ = [
    "TentPartition",
    "tent_partition",
    "CirMethod",
    "CthinConfig",
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
    so every mass is nonnegative: rounding residues down to -1e-9 are clamped
    to zero, and a mass below that is a NumericalError.
    """
    m = powers[0].copy()
    if len(powers) > 1:
        m[1:] -= powers[1]  # A(i-1, j), i = 1..n-1-d
        m[:-1] -= powers[1]  # A(i, j+1), i = 0..n-2-d
    if len(powers) > 2:
        m[1:-1] += powers[2]  # A(i-1, j+1), i = 1..n-2-d
    lo = float(np.min(m))
    if lo < -1e-9:
        raise NumericalError(f"tent partition produced mass {lo} < 0 on diagonal {d}")
    return np.maximum(m, 0.0)


def _tent_diagonals(times, rho, cutoff=0.0):
    """The band masses of diagonals d = 0, 1, ... of the tent partition, in turn.

    Diagonal d needs the power rows ``rho**(t[d+e:] - t[:n-d-e])`` for
    e = 0, 1, 2; a rolling window of three computes each row once.  The
    diagonals stop before the first one whose pair correlations
    rho**(t_{i+d} - t_i) all lie below ``cutoff``.
    """
    n = len(times)
    window = [rho ** (times[e:] - times[: n - e]) for e in range(min(3, n))]
    for d in range(n):
        if not np.any(window[0] >= cutoff):
            return
        yield _band_masses(window, d)
        del window[0]
        if d + 3 < n:
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
    """The exact tent-set partition of the grid (all n(n+1)/2 blocks, ``_tent_diagonals``)."""
    n = grid.n
    masses = np.zeros((n, n))
    for d, band in enumerate(_tent_diagonals(grid.times, dep.rho)):
        idx = np.arange(n - d)
        masses[idx, idx + d] = band
    masses.setflags(write=False)
    return TentPartition(grid=grid, dep=dep, masses=masses)


# -- the engine: plan once, draw per block, build across paths ----------------

# Raw draws held per block of paths: 64 KiB, so block buffers stay below
# glibc's default mmap threshold.  Freeing larger ones raises that threshold,
# which moved later arrays onto the heap and kept them resident.  Part of the
# stream layout: a plan with a width draws blocks of
# B = max(1, _BLOCK_DRAWS // width) paths, each from one stream, so changing
# this changes the ensemble values of ar1, thinned, rm and changepoint.
# Whole-path plans have no width and run blocks of one.
_BLOCK_DRAWS = 1 << 13
# numpy validates array arguments in Python (about 9 us a call), scalar ones
# in C (about 1 us): up to this many scalar calls beat one array call.
_SCALAR_CALLS = 6
# Cell shapes an rm plan keeps (2 MiB); longer paths go diagonal by diagonal.
_PLAN_CELLS = 1 << 18
# Below this many lanes (the paths of a block, or the segments of an exact
# scan run) a recursion runs on Python floats lane by lane; from it on, one
# numpy step per time step across all lanes.
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


def _as_floats(*arrays):
    """Zip equal-length arrays as Python floats, converting 4096 elements at a time.

    Python floats make a scalar loop several times faster than numpy scalars;
    converting a chunk at a time keeps a long path from holding a Python
    float object per step.
    """
    for s in range(0, len(arrays[0]), 4096):
        yield from zip(*(a[s : s + 4096].tolist() for a in arrays))


def _float_recursion(a, z, x, out):
    """out[k] = fl(a[k] * out[k-1] + z[k]) from the carry x, on Python floats.

    Like ``_as_floats``, it goes 4096 steps at a time, so a long path does not
    hold a Python float object per step.
    """
    for s in range(0, a.size, 4096):
        xs = []
        for ak, zk in zip(a[s : s + 4096].tolist(), z[s : s + 4096].tolist()):
            x = ak * x + zk
            xs.append(x)
        out[s : s + 4096] = xs


def _affine_recursion(a, z, x0):
    """Rows x with x[:, 0] = x0 and x[:, k] = fl(a[k-1] * x[:, k-1] + z[:, k-1]).

    ``a`` is one factor per step (shared by all lanes) or one per lane and
    step.  Every element is one rounded multiply and one rounded add, in the
    same order, whether the lanes run as numpy columns or as Python floats.
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
        _float_recursion(a[i], z[i], float(out[i, 0]), out[i, 1:])
    return out


class _Plan:
    """Everything a kind's paths share on one (grid, params, dep), computed once.

    ``block(gen, lanes)`` gives the values of ``lanes`` paths, one row each,
    from the head of ``gen``; an ensemble's block sizes keep path m a
    function of (master_seed, m) alone (the module docstring has the rule),
    and ``sample_path`` draws the one-lane block.  A plan with a ``width``
    splits a block in two steps: ``draw(gen, out)`` takes the
    ``width`` raw draws of each of ``out.shape[1]`` lanes off ``gen`` into
    the rows of ``out``, run by run in the documented stream order, and
    ``build(draws)`` turns the block's rows (one per path) into values,
    vectorized across the block.  A plan whose ``width`` is None simulates
    one whole path in ``values(gen)``, and its blocks hold one lane.
    """

    width = None

    def __init__(self, grid: TimeGrid):
        self.grid = grid
        self.n = grid.n

    def block(self, gen, lanes):
        if self.width is None:
            return self.values(gen)[None]
        draws = np.empty((self.width, lanes))
        self.draw(gen, draws)
        return self.build(draws.T)


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


# At a gap correlation rho_g below about 1e-19 the ladder's mean passes numpy's limit.
_LADDER_MEAN = ("AR(1) innovation ladder: the Poisson mean (1 - rho_g)/rho_g * L "
                "(gap correlation rho_g too small)")


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
    step is literally fl(rho_k * x + zeta_k).
    """

    def __init__(self, grid, params, dep):
        super().__init__(grid)
        self.alpha = params.alpha
        self.inv_beta = 1.0 / params.beta
        self.rho_g = dep.rho ** grid.gaps
        self.odds = _ladder_odds(self.rho_g)[:, None]
        self.zeta_scale = self.rho_g / params.beta
        self.width = self.n

    def draw(self, gen, out):
        gen.standard_gamma(self.alpha, out=out[0])
        _ar1_ladder(gen, self.alpha, self.odds, out[1:])

    def build(self, draws):
        return _affine_recursion(
            self.rho_g, draws[:, 1:] * self.zeta_scale, draws[:, 0] * self.inv_beta
        )


class _GammaRunsPlan(_Plan):
    """A plan whose draws are all standard gammas, one call per run of ``self.runs``."""

    def draw(self, gen, out):
        for shape, a, b in self.runs:
            gen.standard_gamma(shape, out=out[a:b])


class _ThinnedPlan(_GammaRunsPlan):
    """Thinned recursion: X_{t_k} = B_k X_{t_{k-1}} + zeta_k.

    B_k ~ Be(alpha rho_k, alpha (1 - rho_k)) thins the previous value
    (beta-gamma decomposition: B X ~ Ga(alpha rho_k, beta) when
    X ~ Ga(alpha, beta)) and zeta_k ~ Ga(alpha (1 - rho_k), beta) replaces the
    removed mass.  Stream order: X_0, the numerator gammas of all B_k, the
    denominator gammas, all zeta_k.  All are gammas, so a path is one vector
    of standard-gamma shapes.
    """

    def __init__(self, grid, params, dep):
        super().__init__(grid)
        rho_g = dep.rho ** grid.gaps
        kept = params.alpha * rho_g
        fresh = params.alpha * (1.0 - rho_g)
        self.runs = _gamma_runs(np.concatenate(([params.alpha], kept, fresh, fresh)))
        self.inv_beta = 1.0 / params.beta
        self.width = 3 * self.n - 2

    def build(self, draws):
        s = self.n - 1
        g1 = draws[:, 1 : 1 + s]
        g2 = draws[:, 1 + s : 1 + 2 * s]
        return _affine_recursion(
            g1 / (g1 + g2), draws[:, 1 + 2 * s :] * self.inv_beta, draws[:, 0] * self.inv_beta
        )


class _RandomMeasurePlan(_GammaRunsPlan):
    """Exact grid observation of the random-measure process.

    One independent cell variable zeta(i, j) ~ Ga(alpha m(i, j), beta) per
    partition block, X_{t_k} = sum of the cells whose interval contains k.
    Blocks with pair correlation below 1e-18 are dropped (their draws are 0.0
    in double precision); this keeps the cost O(n * horizon) instead of
    O(n^2).  Stream order: the cells of diagonal d = 0, 1, ... in turn, as
    standard gammas.

    When a path has at most ``_PLAN_CELLS`` cells the plan keeps every cell
    shape and a path is one row of draws; a longer path is drawn and added
    up one diagonal at a time, so no more than one diagonal is held.
    """

    def __init__(self, grid, params, dep):
        super().__init__(grid)
        self.alpha = params.alpha
        self.rho = dep.rho
        self.inv_beta = 1.0 / params.beta
        shapes, cells = [], 0
        for shape in self._diagonal_shapes():
            cells += shape.size
            if cells > _PLAN_CELLS:
                return
            shapes.append(shape)
        self.diagonals = len(shapes)
        self.runs = _gamma_runs(np.concatenate(shapes))
        self.width = cells

    def _diagonal_shapes(self):
        for band in _tent_diagonals(self.grid.times, self.rho, _BAND_CUTOFF):
            yield self.alpha * band

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

    def build(self, draws):
        cells = draws * self.inv_beta
        values = np.zeros((draws.shape[0], self.n))
        pos = 0
        for d in range(self.diagonals):
            self._add_diagonal(values, d, cells[:, pos : pos + self.n - d])
            pos += self.n - d
        return values

    def values(self, gen):
        """One path of more than ``_PLAN_CELLS`` cells, drawn and added up a diagonal at a time."""
        values = np.zeros((1, self.n))
        for d, shapes in enumerate(self._diagonal_shapes()):
            self._add_diagonal(values, d, gen.standard_gamma(shapes)[None] * self.inv_beta)
        return values[0]


class _ChangepointPlan(_Plan):
    """Markov change-point process: piecewise constant, renewed by a Poisson clock.

    Over a gap with correlation rho_k the value is kept with probability
    rho_k (no clock event) and otherwise replaced by a fresh Ga(alpha, beta)
    variate (the value after the last event in the gap, which is independent
    of everything earlier).  Stream order: X_0 (standard gamma), all
    keep-uniforms, all fresh standard gammas (fresh values are drawn
    unconditionally to keep the stream layout branch-free).
    """

    def __init__(self, grid, params, dep):
        super().__init__(grid)
        self.alpha = params.alpha
        self.inv_beta = 1.0 / params.beta
        self.rho_g = dep.rho ** grid.gaps
        self.width = 2 * self.n - 1

    def draw(self, gen, out):
        n = self.n
        gen.standard_gamma(self.alpha, out=out[0])
        gen.random(out=out[1:n])
        gen.standard_gamma(self.alpha, out=out[n:])

    def build(self, draws):
        n = self.n
        pool = np.concatenate((draws[:, :1], draws[:, n:]), axis=1) * self.inv_beta
        idx = np.zeros((draws.shape[0], n), dtype=np.int64)
        np.cumsum(draws[:, 1:n] >= self.rho_g, axis=1, out=idx[:, 1:])
        return np.take_along_axis(pool, idx, axis=1)


class CirMethod(enum.Enum):
    """Sampling scheme for the squared Ornstein-Uhlenbeck (CIR-type) diffusion."""

    EXACT = "exact"
    EULER = "euler"
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
    take.
    """
    return gen.gamma(a + _poisson_counts(gen, c * x * r, _CIR_MEAN), 1.0 / c)


class _CirExactPlan(_Plan):
    """Squared OU / CIR-type diffusion dX = -lam (X - alpha/beta) dt + sqrt(2 lam X / beta) dW.

    Method EXACT samples the transition kernel exactly (Poisson mixture of
    gammas, ``_cir_exact_step`` on Python floats) gap by gap.  Stream order:
    X_0, then each gap's Poisson count and gamma in turn.
    """

    def __init__(self, grid, params, dep):
        super().__init__(grid)
        self.alpha = params.alpha
        self.beta = params.beta
        # Python's float power rho**dt, gap by gap
        self.rho_d = np.fromiter(
            (dep.rho**dt for (dt,) in _as_floats(grid.gaps)), float, count=self.n - 1
        )
        self.c = _cir_rate(self.beta, self.rho_d)

    def values(self, gen):
        a = self.alpha
        out = np.empty(self.n)
        x = out[0] = gen.gamma(a, 1.0 / self.beta)
        for k, (rho_d, c) in enumerate(_as_floats(self.rho_d, self.c), 1):
            x = out[k] = _cir_exact_step(gen, x, a, c, rho_d)
        return out


class _CirEulerPlan(_Plan):
    """The cir diffusion by ``substeps`` full-truncation Euler steps per gap.

    The diffusion coefficient reads max(X, 0); the state may make small
    negative excursions.  Stream order: X_0, then every substep's standard
    normal in one call.
    """

    def __init__(self, grid, params, dep, substeps):
        super().__init__(grid)
        self.substeps = _require_positive_int("substeps", substeps)
        self.params, self.dep = params, dep

    def values(self, gen):
        grid, m, lam = self.grid, self.substeps, self.dep.lam
        a, b = self.params.alpha, self.params.beta
        values = np.empty(self.n)
        x = gen.gamma(a, 1.0 / b)
        values[0] = x
        mean = a / b
        sig2 = 2.0 * lam / b
        z = gen.standard_normal((self.n - 1) * m)
        pos = 0
        for k in range(1, self.n):
            h = (grid.times[k] - grid.times[k - 1]) / m
            sqh = math.sqrt(h)
            for _ in range(m):
                x = x - lam * (x - mean) * h + math.sqrt(sig2 * max(x, 0.0)) * sqh * z[pos]
                pos += 1
            values[k] = x
        return values


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

    X = sum Z_j^2 / (2 beta); 2 alpha must be a positive integer.  No
    substeps are needed because the OU update is exact over any gap; the
    stream order is ``_ou_walk``'s.
    """

    def __init__(self, grid, params, dep):
        super().__init__(grid)
        self.j = _squared_ou_coordinates(params.alpha)
        self.two_beta = 2.0 * params.beta
        self.half = dep.rho ** (grid.gaps / 2.0)

    def values(self, gen):
        walk = _ou_walk(gen, self.half, (self.j,))
        return np.fromiter(((z * z).sum() for z in walk), float, count=self.n) / self.two_beta


@dataclass(frozen=True)
class CthinConfig:
    """Lattice resolution for the continuously-thinned process (steps per unit time)."""

    steps_per_unit: int = 256

    def __post_init__(self):
        object.__setattr__(
            self, "steps_per_unit", _require_positive_int("steps_per_unit", self.steps_per_unit)
        )


def _cthin_lattice_indices(grid: TimeGrid, eps):
    rel = grid.times - grid.times[0]
    idx = np.rint(rel / eps).astype(np.int64)
    if not np.all(np.abs(rel - idx * eps) <= 1e-9 * np.maximum(1.0, np.abs(rel))):
        raise ParameterError(
            "grid times must lie on the continuously-thinned lattice "
            f"(multiples of 1/{round(1.0 / eps)} from the first time)"
        )
    return idx


# The cthin lattice scan's blocks of steps, and how many go in one numpy pass.
# The block length and the 1e-280 route test fix a path's bytes; the group
# size only sets how many blocks share a call, so it leaves them unchanged.
_SCAN_BLOCK = 1024
_SCAN_GROUP = 16


def _affine_scan_blocks(a, z, x0, out=None):
    """Sequential-in-law evaluation of x_k = a_k x_{k-1} + z_k, vectorized in blocks.

    Preconditions (the cthin lattice meets them): every factor a_k is in
    [0, 1], every top-up z_k is >= 0, and the carry x0 is finite and >= 0.

    The steps go in blocks of ``_SCAN_BLOCK`` (1024), each taking one of two
    routes by its prefix product P = cumprod(a):

    * ``P[-1] > 1e-280``: the prefix formula
      x_k = P_k (x_prev + sum_{i<=k} z_i / P_i); since every a_i lies in
      [0, 1] the ratios P_k / P_i never exceed 1.
    * otherwise (a near-zero thinning factor landed in the block): the exact
      recursion fl(a_k * x + z_k), one rounded multiply and one rounded add
      per step.  Each maximal run of such blocks goes in one call of
      ``_exact_affine_run`` from the carry.

    The full blocks go as the rows of groups of ``_SCAN_GROUP`` (16), and a
    short last block as a group of its own.  A group takes its rows' prefix
    products in one ``cumprod``; each maximal run of formula rows in it takes
    one ``cumsum`` and one combine, with the carries from row to row chained
    on Python floats, and exact rows join the pending exact run, which may
    span groups.  Each element is the number a block-by-block scan gives.
    A given ``out`` must be a contiguous vector: the rows are written through
    a reshaped view of it.
    """
    n = a.size
    if out is None:
        out = np.empty(n)
    full = n - n % _SCAN_BLOCK
    groups = [(s, min(s + _SCAN_GROUP * _SCAN_BLOCK, full), _SCAN_BLOCK)
              for s in range(0, full, _SCAN_GROUP * _SCAN_BLOCK)]
    if full < n:
        groups.append((full, n, n - full))
    x = x0
    run = None  # start of the pending run of exact blocks
    for s, e, width in groups:
        p = np.cumprod(a[s:e].reshape(-1, width), axis=1)
        formula = p[:, -1] > 1e-280
        edges = np.flatnonzero(formula[1:] != formula[:-1]) + 1
        bounds = [0, *edges.tolist(), p.shape[0]]
        for r0, r1 in zip(bounds[:-1], bounds[1:]):
            lo, hi = s + r0 * width, s + r1 * width
            if not formula[r0]:
                if run is None:
                    run = lo
                continue
            if run is not None:
                x = _exact_affine_run(a[run:lo], z[run:lo], x, out[run:lo])
                run = None
            pr = p[r0:r1]
            c = np.cumsum(z[lo:hi].reshape(-1, width) / pr, axis=1)
            carries = []
            for p_last, c_last in zip(pr[:, -1].tolist(), c[:, -1].tolist()):
                carries.append(x)
                x = p_last * (x + c_last)
            c += np.array(carries)[:, None]
            np.multiply(pr, c, out=out[lo:hi].reshape(-1, width))
    if run is not None:
        _exact_affine_run(a[run:], z[run:], x, out[run:])
    return out


def _exact_affine_run(a, z, x, out):
    """out[k] = fl(a[k] * out[k-1] + z[k]) from the carry x; returns out[-1].

    Under ``_affine_scan_blocks``' preconditions two shortcuts are exact:

    * a step with a == 1.0 and z == 0.0 leaves x unchanged bit for bit, so
      it is skipped and its output forward-filled;
    * a step with a == 0.0 gives fl(0 * x + z) == z whatever x was, so each
      exact zero starts a segment independent of everything before it.

    The segments of the remaining steps run as numpy lanes in lockstep,
    longest first, while at least ``_VECTOR_LANES`` of them are still going;
    the few longer tails finish on Python floats.  Either way each step is
    one rounded multiply and one rounded add, as in ``_affine_recursion``.
    """
    moves = (a != 1.0) | (z != 0.0)
    live = np.flatnonzero(moves)
    # vals[0] is the carry, vals[1 + j] the value after the j-th live step
    vals = np.empty(live.size + 1)
    vals[0] = x
    if live.size:
        _exact_segments(a[live], z[live], vals)
    np.take(vals, np.cumsum(moves), out=out)
    return vals[-1]


def _exact_segments(a, z, vals):
    """vals[1 + k] = fl(a[k] * vals[k] + z[k]) for every k; each a[k] == 0 starts afresh."""
    starts = np.flatnonzero(a == 0.0)
    if starts.size == 0 or starts[0] != 0:
        starts = np.concatenate(([0], starts))
    lengths = np.diff(starts, append=a.size)
    order = np.argsort(-lengths, kind="stable")
    starts, lengths = starts[order], lengths[order]
    # the segment at 0 starts from the carry, the others from 0.0, which the
    # zero factor of their first step discards
    x = np.where(starts == 0, vals[0], 0.0)
    res = vals[1:]
    # lockstep to the depth at which fewer than _VECTOR_LANES segments go on;
    # the lanes still going at step k are the first active[k]
    depth = int(lengths[_VECTOR_LANES - 1]) if starts.size >= _VECTOR_LANES else 0
    if depth:
        active = starts.size - np.searchsorted(lengths[::-1], np.arange(depth), side="right")
        ends = np.cumsum(active)
        # the lockstep steps depth-major: row k is ends[k] - active[k] .. ends[k]
        pos = starts[np.arange(ends[-1]) - np.repeat(ends - active, active)]
        pos += np.repeat(np.arange(depth), active)
        a_rows, z_rows, x_rows = a[pos], z[pos], np.empty(pos.size)
        for lo, hi in zip((ends - active).tolist(), ends.tolist()):
            row = x_rows[lo:hi]
            np.multiply(a_rows[lo:hi], x[: hi - lo], out=row)
            np.add(row, z_rows[lo:hi], out=row)
            x = row
        res[pos] = x_rows
    # the few longer tails, one lane at a time on Python floats
    for i in range(int(np.count_nonzero(lengths > depth))):
        lo, hi = starts[i] + depth, starts[i] + lengths[i]
        _float_recursion(a[lo:hi], z[lo:hi], float(x[i]), res[lo:hi])


def _cthin_buffers(size):
    """Scratch for ``_cthin_draw`` on ``size`` steps or lanes: three float vectors and a mask."""
    return np.empty(size), np.empty(size), np.empty(size), np.empty(size, dtype=bool)


def _cthin_draw(gen, a, b, q, buffers):
    """One cthin lattice step for each element of ``buffers``: (kept fraction, top-up).

    With p = 1 - q, the kept fraction is 1 - b_k, b_k = g1 / (g1 + g2) ~
    Be(a p, a q), and the top-up is Ga(a p, b).  Stream order: the beta
    stage's standard gammas g1 (shape a p), then g2 (shape a q), then the
    top-up's.  Where g1 and g2 both underflow to 0 the ratio is 0/0 and the
    thinning is p, its mean.  ``buffers`` is ``_cthin_buffers``' tuple (or
    equal slices of it); the kept fraction and top-up are its first and
    third vectors.
    """
    kept, s, zeta, live = buffers
    p = 1.0 - q
    gen.standard_gamma(a * p, out=kept)
    gen.standard_gamma(a * q, out=s)
    np.add(kept, s, out=s)
    np.greater(s, 0.0, out=live)
    np.divide(kept, s, out=kept, where=live)
    np.logical_not(live, out=live)
    np.copyto(kept, p, where=live)
    np.subtract(1.0, kept, out=kept)
    gen.standard_gamma(a * p, out=zeta)
    zeta *= 1.0 / b  # gamma(shape, scale) is scale * standard_gamma(shape), bit for bit
    return kept, zeta


class _CthinPlan(_Plan):
    """Continuously-thinned process on its eps-lattice, recorded at the grid times.

    With eps = 1/steps_per_unit, q = rho**eps and p = 1 - q, each lattice step
    applies an independent thinning b ~ Be(alpha p, alpha q) and top-up
    zeta ~ Ga(alpha p, beta) (``_cthin_draw``):

        X_{k eps} = (1 - b_k) X_{(k-1) eps} + zeta_k.

    Every lattice point is exactly Ga(alpha, beta) ((1-b) X ~ Ga(alpha q, beta)
    by the beta-gamma decomposition) and the lattice autocorrelation is exactly
    q per step; the discretization only approximates the limiting process in
    its higher-order joint laws.  Grid times must be lattice-aligned.  Stream
    order: X_0, then per simulation chunk the two beta-stage gamma vectors
    followed by the top-up gamma vector.
    """

    def __init__(self, grid, params, dep, config):
        super().__init__(grid)
        eps = 1.0 / config.steps_per_unit
        self.idx = _cthin_lattice_indices(grid, eps)
        self.n_steps = int(self.idx[-1])
        self.params = params
        self.q = dep.rho**eps

    def values(self, gen):
        a, b = self.params.alpha, self.params.beta
        idx, n_steps = self.idx, self.n_steps
        values = np.empty(self.n)
        x = values[0] = gen.gamma(a, 1.0 / b)  # the first time is lattice index 0
        pos = 1
        chunk = 1 << 18
        done = 0
        size = min(chunk, max(n_steps, 1))
        buffers, buf = _cthin_buffers(size), np.empty(size)
        while done < n_steps:
            k = min(chunk, n_steps - done)
            kept, zeta = _cthin_draw(gen, a, b, self.q, [v[:k] for v in buffers])
            out = _affine_scan_blocks(kept, zeta, x, out=buf[:k])
            end = int(np.searchsorted(idx, done + k, side="right"))
            values[pos:end] = out[idx[pos:end] - done - 1]
            pos = end
            x = out[-1]
            done += k
        return values


def _plan_for_kind(kind, grid, params, dep, method, substeps, cthin):
    """The one dispatch on kind (and cir method): the plan that simulates ``kind`` on ``grid``."""
    if kind is ProcessKind.AR1:
        return _Ar1Plan(grid, params, dep)
    if kind is ProcessKind.THINNED:
        return _ThinnedPlan(grid, params, dep)
    if kind is ProcessKind.RANDOM_MEASURE:
        return _RandomMeasurePlan(grid, params, dep)
    if kind is ProcessKind.CHANGE_POINT:
        return _ChangepointPlan(grid, params, dep)
    if kind is ProcessKind.SQUARED_OU:
        if method is CirMethod.EXACT:
            return _CirExactPlan(grid, params, dep)
        if method is CirMethod.EULER:
            return _CirEulerPlan(grid, params, dep, substeps)
        if method is CirMethod.SQUARED_OU:
            return _SquaredOuPlan(grid, params, dep)
        raise ParameterError(f"unknown cir method {method!r}")
    if kind is ProcessKind.CONTINUOUSLY_THINNED:
        return _CthinPlan(grid, params, dep, cthin)
    raise UnsupportedKindError(f"cannot simulate kind {kind!r}")


# -- paths and ensembles -------------------------------------------------------


def sample_path(
    kind: ProcessKind,
    rng: RandomSource,
    grid: TimeGrid,
    params: GammaParams,
    dep: Dependence,
    method: CirMethod = CirMethod.EXACT,
    substeps: int = 16,
    cthin: CthinConfig = CthinConfig(),
) -> SamplePath:
    """One path of ``kind`` on ``grid``, drawn from the head of ``rng``.

    The options are ``simulate_ensemble``'s: ``method`` and ``substeps``
    choose the cir scheme, ``cthin`` the continuously-thinned lattice.  Each
    kind's plan class documents its construction and stream order.  Where a
    kind's ensemble blocks hold one path, ensemble path m is this path on
    ``derive_stream(master_seed, m)``, byte for byte:

    >>> from gammaproc import Dependence, GammaParams, make_uniform_grid
    >>> grid = make_uniform_grid(0.0, 0.5, 6)
    >>> params, dep = GammaParams(2.0, 1.0), Dependence.from_rho(0.5)
    >>> ens = simulate_ensemble(ProcessKind.SQUARED_OU, grid, params, dep, 3, master_seed=7)
    >>> path = sample_path(ProcessKind.SQUARED_OU, derive_stream(7, 2), grid, params, dep)
    >>> path.values.tobytes() == ens.values[2].tobytes()
    True
    """
    plan = _plan_for_kind(kind, grid, params, dep, method, substeps, cthin)
    return SamplePath(grid, plan.block(rng.gen, 1)[0], kind)


def simulate_ensemble(
    kind: ProcessKind,
    grid: TimeGrid,
    params: GammaParams,
    dep: Dependence,
    n_paths: int,
    master_seed: int,
    method: CirMethod = CirMethod.EXACT,
    substeps: int = 16,
    cthin: CthinConfig = CthinConfig(),
) -> Ensemble:
    """Simulate ``n_paths`` independent paths; path m depends on (master_seed, m) alone.

    So the output does not depend on ``n_paths`` itself: a longer run
    extends a shorter one path for path.  The module docstring gives the
    block-stream rule that makes it so.
    """
    n_paths = _require_positive_int("n_paths", n_paths)
    plan = _plan_for_kind(kind, grid, params, dep, method, substeps, cthin)
    values = np.empty((n_paths, grid.n))
    lanes = max(1, _BLOCK_DRAWS // plan.width) if plan.width else 1
    rng = derive_stream(master_seed, 0)
    for start in range(0, n_paths, lanes):
        rng.rekey(start // lanes)
        values[start : start + lanes] = plan.block(rng.gen, lanes)[: n_paths - start]
    values.setflags(write=False)  # so Ensemble holds it without a copy
    return Ensemble(grid=grid, kind=kind, values=values, master_seed=rng.master_seed)


# -- vectorized i.i.d. batch samplers (verification workhorses) ---------------


def _lane_step(kind, g, x, a, b, r):
    """One gap of ``kind``'s update for every lane of ``x``, drawn from ``g``.

    ``a`` and ``b`` are the Ga(a, b) marginal's shape and rate and ``r`` the
    gap correlation; for cthin the step is one lattice step at r = q = rho**eps.
    This is the only lane copy of each update:

    * ar1: X' = r X + zeta, zeta from the innovation ladder ``_ar1_ladder``;
    * thinned: X' = B X + Ga(a (1-r), b) with B ~ Be(a r, a (1-r)), the beta
      drawn as the gamma ratio g1 / (g1 + g2);
    * changepoint: keep X with probability r, else a fresh Ga(a, b);
    * cir: the exact transition ``_cir_exact_step``;
    * cthin: X' = (1 - b_k) X + Ga(a p, b), b_k ~ Be(a p, a r), p = 1 - r,
      drawn by ``_cthin_draw``.
    """
    n = x.size
    if kind is ProcessKind.AR1:
        return r * x + _ar1_ladder(g, a, _ladder_odds(r), np.empty(n)) * (r / b)
    if kind is ProcessKind.THINNED:
        g1 = g.gamma(a * r, 1.0, size=n)
        g2 = g.gamma(a * (1.0 - r), 1.0, size=n)
        return g1 / (g1 + g2) * x + g.gamma(a * (1.0 - r), 1.0 / b, size=n)
    if kind is ProcessKind.CHANGE_POINT:
        keep = g.random(n) < r
        fresh = g.gamma(a, 1.0 / b, size=n)
        return np.where(keep, x, fresh)
    if kind is ProcessKind.SQUARED_OU:
        return _cir_exact_step(g, x, a, _cir_rate(b, r), r)
    if kind is ProcessKind.CONTINUOUSLY_THINNED:
        kept, zeta = _cthin_draw(g, a, b, r, _cthin_buffers(n))
        return kept * x + zeta
    raise UnsupportedKindError(f"no lane update for kind {kind!r}")


def walker_sample(n, params: GammaParams, rho_step, master_seed):
    """n i.i.d. AR(1) innovations at per-step rho (``_ar1_ladder``)."""
    rho = float(rho_step)
    if not (0.0 < rho < 1.0):
        raise ParameterError(f"rho_step must lie strictly in (0, 1), got {rho_step!r}")
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
    return n, gap, g, params.alpha, params.beta, dep.rho**gap


def _batch_rows(kind, g, a, b, r, n, rows):
    """The rows ``rows`` of X_0, X_1, ... for n i.i.d. lanes, one gap (correlation r) apart.

    rm adds up the cells of ``_rm_cells``, each row its cells in draw
    order.  Every other kind starts from X_0 ~ Ga(a, b) and takes one
    ``_lane_step`` per gap, up to row ``rows[-1]``.
    """
    if kind is ProcessKind.RANDOM_MEASURE:
        out = np.zeros((len(rows), n))
        for (i, j), mass in _rm_cells(r, rows):
            cell = g.gamma(a * mass, 1.0 / b, size=n)
            for row, k in zip(out, rows):
                if i <= k <= j:
                    row += cell
        return list(out)
    x, out = g.gamma(a, 1.0 / b, size=n), []
    for k in range(rows[-1] + 1):
        if k:
            x = _lane_step(kind, g, x, a, b, r)
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
    cthin: CthinConfig = CthinConfig(),
    euler_burn=12.0,
    substeps=16,
):
    """n i.i.d. copies of X at a fixed time, after the kind's own update mechanism.

    Each lane runs the same recursion as ``sample_path`` (two ``_lane_step``
    gaps of length ``gap`` from a Ga(alpha, beta) start for the discrete
    recursions and exact cir; for the continuously-thinned process a quarter
    time unit of lattice steps, and at least one; for Euler a burn-in of
    ``euler_burn`` autocorrelation times), so a lane
    value has exactly the law of a path value at that time.  ``gap`` and
    ``euler_burn`` must be finite and positive.
    """
    n, gap, g, a, b, rho_g = _batch_start(n, params, dep, master_seed, gap)
    if kind is ProcessKind.SQUARED_OU and method is not CirMethod.EXACT:
        if method is CirMethod.SQUARED_OU:
            half = np.full(2, dep.rho ** (gap / 2.0))
            *_, z = _ou_walk(g, half, (n, _squared_ou_coordinates(a)))
            return np.sum(z * z, axis=1) / (2.0 * b)
        if method is CirMethod.EULER:
            m = _require_positive_int("substeps", substeps)
            h = gap / m
            burn = _require_finite_positive("euler_burn", euler_burn)
            n_steps = int(math.ceil(burn / dep.lam / h))
            x = g.gamma(a, 1.0 / b, size=n)
            mean = a / b
            sig = math.sqrt(2.0 * dep.lam / b)
            sqh = math.sqrt(h)
            for _ in range(n_steps):
                x = x - dep.lam * (x - mean) * h + sig * np.sqrt(
                    np.maximum(x, 0.0)
                ) * sqh * g.standard_normal(n)
            return x
        raise ParameterError(f"unknown cir method {method!r}")
    steps, r = 2, rho_g
    if kind is ProcessKind.CONTINUOUSLY_THINNED:
        steps = max(1, int(round(0.25 * cthin.steps_per_unit)))
        r = dep.rho ** (1.0 / cthin.steps_per_unit)
    return _batch_rows(kind, g, a, b, r, n, (steps,))[0]


def triplet_sample(kind: ProcessKind, n, params: GammaParams, dep: Dependence, master_seed, gap=1.0):
    """n i.i.d. copies of (X_0, X_gap, X_2gap) for the thinned/random-measure pair.

    These two kinds share all pair laws; their joint laws first differ at
    three points, which is what this sampler exists to expose.
    """
    n, _, g, a, b, rho_g = _batch_start(n, params, dep, master_seed, gap)
    if kind not in (ProcessKind.THINNED, ProcessKind.RANDOM_MEASURE):
        raise UnsupportedKindError(
            f"triplet comparison is defined for the thinned/random-measure pair, not {kind!r}"
        )
    return np.array(_batch_rows(kind, g, a, b, rho_g, n, (0, 1, 2)))
