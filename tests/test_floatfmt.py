"""The vectorised shortest-repr writer against ``float.__repr__``, value by value."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gammaproc import _floatfmt
from gammaproc._floatfmt import repr_chunks


def _written(values, sep=",", end=";\n"):
    return "".join(repr_chunks(np.asarray(values, np.float64), sep, end))


def _reference(values, sep=",", end=";\n"):
    return "".join(sep.join(map(float.__repr__, row)) + end for row in values.tolist())


def _assert_repr(values):
    """Each value of the 1-D ``values`` is written as ``float.__repr__`` writes it."""
    got = _written(values[None]).removesuffix(";\n").split(",")
    want = list(map(float.__repr__, values.tolist()))
    assert len(got) == len(want)
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert not bad, f"{len(bad)} of {len(want)} differ, first (repr, written): {bad[:5]}"


def _finite(bits):
    x = bits.view(np.float64)
    return x[np.isfinite(x)]


def test_random_bit_patterns():
    # every finite double: negatives, zeros, subnormals and both notations
    rng = np.random.default_rng(20261020)
    x = _finite(rng.integers(0, 2**64, 450_000, dtype=np.uint64))
    _assert_repr(np.concatenate([x, [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                      1.7976931348623157e308]]))


def test_random_bit_patterns_in_fixed_notation():
    # the kernel's own range, [1e-4, 1e16), with its ends
    rng = np.random.default_rng(11)
    lo, hi = np.array([1e-4, 1e16]).view(np.uint64)
    x = rng.integers(lo, hi, 450_000, dtype=np.uint64).view(np.float64)
    _assert_repr(np.concatenate([x, np.nextafter([1e-4, 1e-4, 1e16, 1e16], [0, 1, 0, 2e16]),
                                 [1e-4, 1e16]]))


def test_dyadic_values_and_their_ties():
    # k 2^-j has few binary digits, so its rounding interval often ends on a decimal
    rng = np.random.default_rng(5)
    k = rng.integers(1, 2**24, 150_000)
    j = rng.integers(-30, 40, 150_000)
    _assert_repr(np.ldexp(k.astype(np.float64), -j))


def test_powers_of_ten_and_their_neighbours():
    x = []
    for k in range(-5, 18):
        p = float(f"1e{k}")
        for direction in (0.0, math.inf):
            y = p
            for _ in range(8):
                y = math.nextafter(y, direction)
                x.append(y)
        x.append(p)
    _assert_repr(np.array(x))


def test_powers_of_two_and_their_neighbours():
    # m = 2^52, whose rounding interval is narrower below
    p = np.ldexp(1.0, np.arange(-20, 61))
    _assert_repr(np.concatenate([np.nextafter(p, 0), p, np.nextafter(p, np.inf)]))


def test_short_and_long_decimals():
    _assert_repr(np.array([0.1, 0.2, 0.3, 0.7, 1.3, 1.0, 2.0, 10.0, 100.0, 123.456, 0.5,
                           9999999999999998.0, 4503599627370497.5, 1e15, 0.001, 0.000123,
                           1 / 3, 2 / 3, math.pi, math.e, 5e-5, 1e-4 * 0.999]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
@example([1e-4, 9.999999999999999e15, 0.30000000000000004, -0.0])
def test_any_finite_floats(values):
    _assert_repr(np.array(values))


@pytest.mark.parametrize("shape", [(0, 3), (1, 1), (2, 7), (5, 1601), (1, 6401)])
def test_rows_and_blocks_keep_every_separator(monkeypatch, shape):
    monkeypatch.setattr(_floatfmt, "BLOCK", 1000)  # blocks split rows
    rng = np.random.default_rng(sum(shape))
    values = rng.gamma(0.05, size=shape)  # many values below 1e-4
    values.flat[::97] = 0.0
    for sep, end in ((",", ";\n"), (",\n      ", "\n    ],\n    [\n      "), ("", "")):
        assert _written(values, sep, end) == _reference(values, sep, end)


def test_blocks_hold_a_fixed_number_of_values():
    chunks = list(repr_chunks(np.ones((1, 2 * _floatfmt.BLOCK + 1)), ",", "\n"))
    assert [c.count(",") + c.count("\n") for c in chunks] == [_floatfmt.BLOCK] * 2 + [1]
