"""Shared types, parameter validation, time grids and reproducible random streams.

Conventions used throughout the package:

* ``Ga(alpha, beta)`` is the gamma law with *shape* ``alpha`` and *rate*
  ``beta`` (mean ``alpha/beta``, variance ``alpha/beta**2``).
* Temporal dependence is exponential: ``corr(X_s, X_t) = exp(-lam*|s-t|)``.
  The unit-lag autocorrelation is ``rho = exp(-lam)``; the correlation over a
  gap ``d`` is computed as ``rho**d`` everywhere (identical to
  ``exp(-lam*d)``, but exact under the CLI's rho/lambda equivalence).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ParameterError",
    "NumericalError",
    "UnsupportedKindError",
    "GammaParams",
    "Dependence",
    "TimeGrid",
    "make_uniform_grid",
    "SamplePath",
    "Ensemble",
    "ProcessKind",
    "RandomSource",
    "derive_stream",
]


class ParameterError(ValueError):
    """A parameter is outside its documented domain."""


class NumericalError(RuntimeError):
    """A numerical routine failed to reach its advertised accuracy."""


class UnsupportedKindError(ParameterError):
    """The requested operation has no implementation for this process kind."""

    @classmethod
    def of(cls, operation, kind):
        """The one refusal form: ``"<operation> does not support kind <kind!r>"``."""
        return cls(f"{operation} does not support kind {kind!r}")


def _require_finite_positive(name, value):
    """``value`` as a float that is finite and > 0; anything else is a ParameterError."""
    v = float(value)
    if not math.isfinite(v) or v <= 0.0:
        raise ParameterError(f"{name} must be finite and > 0, got {value!r}")
    return v


def _require_finite_nonnegative(name, value):
    """``value`` as a float that is finite and >= 0 (a state, a threshold);
    anything else, NaN included, is a ParameterError."""
    v = float(value)
    if not math.isfinite(v) or v < 0.0:
        raise ParameterError(f"{name} must be finite and >= 0, got {value!r}")
    return v


def _require_open_unit(name, value):
    """``value`` as a float strictly inside (0, 1) (a correlation); anything
    else, NaN included, is a ParameterError."""
    v = float(value)
    if not 0.0 < v < 1.0:
        raise ParameterError(f"{name} must lie strictly in (0, 1), got {value!r}")
    return v


def _require_integer(name, value):
    """``value`` as an int: an integral float (``1e5``) or a numpy integer passes,
    and a fractional or non-finite value is a ParameterError, not truncated."""
    if isinstance(value, (int, np.integer)):
        return int(value)
    v = float(value)
    if not v.is_integer():
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    return int(v)


def _require_positive_int(name, value):
    v = _require_integer(name, value)
    if v < 1:
        raise ParameterError(f"{name} must be a positive integer, got {value!r}")
    return v


def _require_seed(name, value):
    """``value`` as an int in [0, 2**64), the range of one Philox key word.

    A seed outside it would alias one inside (``-1`` and ``2**64 - 1`` give
    the same key) and echo a seed that was not used.
    """
    v = _require_integer(name, value)
    if not 0 <= v < 1 << 64:
        raise ParameterError(f"{name} must be an integer in [0, 2**64), got {value!r}")
    return v


@dataclass(frozen=True)
class GammaParams:
    """Marginal gamma parameters, shape/rate convention.

    Parameters
    ----------
    alpha : float
        Shape, > 0.
    beta : float
        Rate, > 0.  Mean is ``alpha/beta``, variance ``alpha/beta**2``.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", _require_finite_positive("alpha", self.alpha))
        object.__setattr__(self, "beta", _require_finite_positive("beta", self.beta))

    @property
    def mean(self):
        return self.alpha / self.beta

    @property
    def var(self):
        return self.alpha / self.beta**2


@dataclass(frozen=True)
class Dependence:
    """Exponential autocorrelation ``exp(-lam*|s-t|)``.

    ``rho = exp(-lam)`` is the autocorrelation at unit lag.  ``Dependence(L)``
    stores ``rho = exp(-L)``; :meth:`from_rho` stores the given ``rho``
    exactly.  Either way ``lam`` is then ``-log(rho)``, so
    ``from_rho(math.exp(-L))`` and ``Dependence(L)`` are equal and drive
    identical simulations, checks and echoes.  A ``lam`` whose ``exp(-lam)``
    rounds to 0 or 1 (which no ``rho`` in (0, 1) can spell) is kept as given.

    >>> Dependence(0.1) == Dependence.from_rho(math.exp(-0.1))
    True
    """

    lam: float
    rho: float = field(init=False)

    def __post_init__(self):
        lam = _require_finite_positive("lam", self.lam)
        self._set_rho(math.exp(-lam), lam)

    def _set_rho(self, rho, lam):
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "lam", -math.log(rho) if 0.0 < rho < 1.0 else lam)

    @classmethod
    def from_rho(cls, rho):
        r = _require_open_unit("rho", rho)
        dep = cls(-math.log(r))
        dep._set_rho(r, dep.lam)
        return dep

    def gap_corr(self, delta):
        """Correlation over a time gap ``delta`` (scalar or array), ``rho**delta``."""
        return self.rho ** np.asarray(delta, dtype=float) if np.ndim(delta) else self.rho ** float(delta)


@dataclass(frozen=True)
class TimeGrid:
    """A finite, strictly increasing set of observation times."""

    times: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size == 0:
            raise ParameterError("grid must be a non-empty 1-D array of times")
        if not np.all(np.isfinite(t)):
            raise ParameterError("grid times must all be finite")
        if t.size > 1 and not np.all(np.diff(t) > 0.0):
            raise ParameterError("grid times must be strictly increasing")
        t = t.copy()
        t.setflags(write=False)
        object.__setattr__(self, "times", t)

    @property
    def n(self):
        return int(self.times.size)

    @property
    def gaps(self):
        """Consecutive time differences, length ``n - 1``."""
        return np.diff(self.times)

    def __len__(self):
        return self.n


def make_uniform_grid(t0, dt, n):
    """Uniform grid ``t0 + k*dt`` for ``k = 0..n-1``.

    >>> make_uniform_grid(2.5, 0.5, 4).times.tolist()
    [2.5, 3.0, 3.5, 4.0]
    """
    if not math.isfinite(float(t0)):
        raise ParameterError(f"t0 must be finite, got {t0!r}")
    dt = _require_finite_positive("dt", dt)
    return TimeGrid(float(t0) + dt * np.arange(_require_positive_int("n", n)))


def _parse_enum(cls, name, what):
    """The member of enum ``cls`` whose value is ``name``; anything else is a ParameterError."""
    for member in cls:
        if member.value == name:
            return member
    raise ParameterError(
        f"unknown {what} {name!r}; expected one of " + ", ".join(m.value for m in cls)
    )


class ProcessKind(enum.Enum):
    """The six stationary gamma constructions distinguished by this package."""

    AR1 = "ar1"
    THINNED = "thinned"
    RANDOM_MEASURE = "rm"
    CHANGE_POINT = "changepoint"
    SQUARED_OU = "cir"
    CONTINUOUSLY_THINNED = "cthin"

    @property
    def cli_name(self):
        return self.value

    @classmethod
    def parse(cls, name):
        return _parse_enum(cls, name, "process")


def _read_only(values):
    """``values`` as a read-only float64 array: one already read-only is kept as
    it is, anything else is copied into a new frozen array."""
    v = np.asarray(values, dtype=float)
    if v.flags.writeable:
        v = v.copy()
        v.setflags(write=False)
    return v


@dataclass(frozen=True)
class SamplePath:
    """One realization observed on a grid; ``values`` is held read-only (``_read_only``)."""

    grid: TimeGrid
    values: np.ndarray
    kind: ProcessKind

    def __post_init__(self):
        v = _read_only(self.values)
        if v.shape != (self.grid.n,):
            raise ParameterError(
                f"values shape {v.shape} does not match grid length {self.grid.n}"
            )
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class Ensemble:
    """Independent paths on one grid.

    ``values[m, k]`` is path ``m`` at grid time ``k``.  Path ``m`` is a pure
    function of ``(master_seed, m)``, regardless of how many other paths
    exist; the ``processes`` module docstring gives the block-stream rule.
    Where a kind's blocks hold one path (squared-OU always, every
    other kind once a path takes more than 8192 draws, or for cthin
    expected series intervals), path ``m`` is
    ``sample_path(kind, derive_stream(master_seed, m), ...)``; in a block of
    more paths it is not, as a block draws each step for all of its paths.
    ``values`` is held read-only, as in ``SamplePath``.
    """

    grid: TimeGrid
    kind: ProcessKind
    values: np.ndarray
    master_seed: int

    def __post_init__(self):
        v = _read_only(self.values)
        if v.ndim != 2 or v.shape[1] != self.grid.n:
            raise ParameterError(
                f"values must have shape (n_paths, {self.grid.n}), got {v.shape}"
            )
        object.__setattr__(self, "values", v)

    @property
    def n_paths(self):
        return int(self.values.shape[0])

    def path(self, m):
        return SamplePath(self.grid, self.values[m], self.kind)


_U64 = (1 << 64) - 1


class RandomSource:
    """A deterministic random stream identified by ``(master_seed, stream_index)``.

    Backed by the counter-based Philox generator with the two identifiers as
    its 64-bit key words, so equal identifiers give the identical word
    sequence on every platform and under any thread schedule, and distinct
    identifiers give statistically independent streams.  A master seed
    outside [0, 2**64) raises ``ParameterError``.
    """

    __slots__ = ("master_seed", "stream_index", "gen", "_key", "_fresh_state")

    def __init__(self, master_seed, stream_index=0):
        self.master_seed = _require_seed("master_seed", master_seed)
        self.stream_index = int(stream_index)
        self._key = np.array(
            [self.master_seed, self.stream_index & _U64], dtype=np.uint64
        )
        self.gen = np.random.Generator(np.random.Philox(key=self._key))
        zeros = np.zeros(4, dtype=np.uint64)
        self._fresh_state = {
            "bit_generator": "Philox",
            "state": {"counter": zeros, "key": self._key},
            "buffer": zeros,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def rekey(self, stream_index):
        """Restart this source in place as stream ``stream_index`` of its master seed.

        Sets the Philox key to ``(master_seed, stream_index)`` and the counter
        and output buffer to zero through ``bit_generator.state``.  Philox is
        counter based, so the words that follow are exactly those of a newly
        built ``derive_stream(master_seed, stream_index)``, at a fraction of
        the cost of building one.
        """
        self.stream_index = int(stream_index)
        self._key[1] = self.stream_index & _U64
        self.gen.bit_generator.state = self._fresh_state

    def words(self, n):
        """The next ``n`` raw 64-bit words of the stream."""
        return self.gen.integers(0, 1 << 64, size=int(n), dtype=np.uint64)

    def __repr__(self):
        return f"RandomSource(master_seed={self.master_seed}, stream_index={self.stream_index})"


def derive_stream(master_seed, stream_index):
    """Stream ``stream_index`` of the family keyed by ``master_seed``."""
    return RandomSource(master_seed, stream_index)
