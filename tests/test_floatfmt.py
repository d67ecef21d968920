"""The vectorised writers against the text they reproduce, value by value: the
shortest-repr writer against ``float.__repr__`` and the ``%.17g`` writer against
``'%.17g' %``."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gammaproc import _floatfmt
from gammaproc._floatfmt import G17_WORDS, g17_cells, g17_into, repr_chunks
from gammaproc.cli import _csv_chunks


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


# values for runs: zeros, both ends of repr's fixed notation, '%.17g''s exponent
# notation from 1e17 on, negatives and subnormals
_RUN_VALUES = [0.0, -0.0, 1.0, 0.1, 2.5, 1e-4, 9.999999999999999e-5, 2.5e-7, 1e16,
               9.999999999999998e15, 3.5e20, 1e17, 99999999999999999.0, -1.5, -0.1,
               5e-324, 1e-310, 2.2250738585072014e-308]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.one_of(st.sampled_from(_RUN_VALUES),
                                    st.floats(allow_nan=False, allow_infinity=False)),
                          st.one_of(st.integers(1, 4), st.integers(1, 2 * _floatfmt.BLOCK))),
                min_size=1, max_size=8),
       st.integers(1, 450))
# a run of zeros across the first block edge, which is also a row end, and a run
# that ends at a block edge
@example([(1.5, _floatfmt.BLOCK - 1), (0.0, 2), (0.25, _floatfmt.BLOCK + 5)], 40)
@example([(1e-5, _floatfmt.BLOCK), (-2.5, 3)], 7)
def test_runs_of_repeated_values(runs, width):
    # each run is formatted once; every position keeps its own separator or line
    flat = np.repeat([v for v, _ in runs], [count for _, count in runs])
    flat = np.concatenate([flat, np.full(-flat.size % width, flat[-1])])  # whole rows
    values = flat.reshape(-1, width)
    assert _written(values) == _reference(values)
    times = np.arange(width) * 0.37
    assert "".join(_csv_chunks(times, values)) == "path,t,value\n" + "".join(
        f"{m},{t:.17g},{v:.17g}\n" for m, row in enumerate(values.tolist())
        for t, v in zip(times.tolist(), row))


def test_blocks_hold_a_fixed_number_of_values():
    chunks = list(repr_chunks(np.ones((1, 2 * _floatfmt.BLOCK + 1)), ",", "\n"))
    assert [c.count(",") + c.count("\n") for c in chunks] == [_floatfmt.BLOCK] * 2 + [1]


# -- %.17g ----------------------------------------------------------------------


def _g17_strings(x):
    rows = np.empty((x.size, G17_WORDS), np.uint32)
    g17_into(x, rows)
    return rows.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]


def _assert_g17(values):
    """Each value of the 1-D ``values`` is written as ``'%.17g' %`` writes it."""
    values = np.asarray(values, np.float64)
    got = _g17_strings(values)
    want = ["%.17g" % v for v in values.tolist()]
    assert len(got) == len(want)
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert not bad, f"{len(bad)} of {len(want)} differ, first ('%.17g', written): {bad[:5]}"


def test_g17_random_bit_patterns():
    rng = np.random.default_rng(20261021)
    _assert_g17(_finite(rng.integers(0, 2**64, 400_000, dtype=np.uint64)))


def test_g17_every_binary_exponent():
    # each table row: 100 random mantissas, and the least and greatest, at every
    # biased exponent from 0 (subnormals) to 2046
    rng = np.random.default_rng(17)
    frac = rng.integers(0, 2**52, (2047, 102), dtype=np.uint64)
    frac[:, 0], frac[:, 1] = 0, 2**52 - 1
    bits = (np.arange(2047, dtype=np.uint64)[:, None] << np.uint64(52)) | frac
    _assert_g17(bits.view(np.float64).ravel())


def test_g17_subnormals_zeros_and_the_extremes():
    rng = np.random.default_rng(3)
    sub = rng.integers(1, 2**52, 5000, dtype=np.uint64).view(np.float64)
    _assert_g17(np.concatenate([sub, [0.0, -0.0, 5e-324, 2.225073858507201e-308,
                                      2.2250738585072014e-308, 1.7976931348623157e308,
                                      -1.5, -5e-324, math.nan, math.inf, -math.inf]]))


def _ties(j, count, rng):
    """Doubles ``K / 2^j`` whose exact decimal has 18 significant digits, the last a
    5: ``K 5^j`` is that 18-digit integer, so ``K`` is odd, and ``K < 2^53``."""
    lo, hi = -(-10**17 // 5**j), min(10**18 // 5**j, 2**53)
    k = rng.integers(lo, hi, count) | 1
    k = k[k < hi]
    assert all(len(str(int(v) * 5**j)) == 18 for v in k.tolist())
    return np.ldexp(k.astype(np.float64), -j)


def test_g17_exact_ties_at_the_17th_digit():
    # a tie goes to the even digit, as '%.17g' rounds it; each tie's neighbours,
    # one ulp to either side, are checked too
    rng = np.random.default_rng(5)
    ties = np.concatenate([_ties(j, 400, rng) for j in range(2, 26)])
    _assert_g17(np.concatenate([ties, np.nextafter(ties, 0), np.nextafter(ties, np.inf),
                                [562949953421312.125, 1234567890123456.25, 0.5]]))


def test_g17_neighbours_of_the_notation_switches_and_of_powers_of_ten():
    # '%.17g' writes exponent notation below 1e-4 and from 1e17 on
    x = []
    for p in (1e-5, 1e-4, 1e16, 1e17):
        for direction in (0.0, math.inf):
            y = p
            for _ in range(40):
                y = math.nextafter(y, direction)
                x.append(y)
        x.append(p)
    p = np.array([float(f"1e{k}") for k in range(-307, 309)])
    _assert_g17(np.concatenate([x, p, np.nextafter(p, 0), np.nextafter(p, np.inf)]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False), min_size=1,
                max_size=50))
@example([1e-5, 9.9999999999999995e-5, 1e17, 99999999999999999.0, 0.0, 5e-324])
def test_g17_any_finite_nonnegative_floats(values):
    _assert_g17(values)


def test_g17_rows_hold_each_text_and_a_newline():
    x = np.array([0.0, 1.0, 0.1, 1e-5, 1e17, 123.25, 5e-324, 1e308])
    rows = np.zeros((x.size, G17_WORDS), np.uint32)
    g17_into(x, rows)
    assert [r.tobytes().replace(b"\0", b"").decode() for r in rows] == \
        ["%.17g\n" % v for v in x.tolist()]


def test_the_writers_call_no_transcendental_function(monkeypatch):
    # their bytes must not depend on which SIMD routine numpy picked for these
    rng = np.random.default_rng(29)
    values = np.concatenate([rng.gamma(0.01, size=(2, 300)), rng.gamma(2.0, size=(2, 300))])
    values[0, :6] = [0.0, 5e-324, 1e-5, 1e17, 0.5, 1.7976931348623157e308]
    times = np.arange(300) * 0.37

    def refuse(*args, **kwargs):
        raise AssertionError("a writer called a transcendental function")

    # the tables are built again under the patch, so their construction is covered too
    _floatfmt._tables.cache_clear()
    _floatfmt._g17_tables.cache_clear()
    for name in ("exp", "log", "power", "sin", "cos"):
        monkeypatch.setattr(np, name, refuse)
    csv = "".join(_csv_chunks(times, values))
    rows = _written(values)
    monkeypatch.undo()
    assert csv == "path,t,value\n" + "".join(
        f"{m},{t:.17g},{v:.17g}\n" for m, row in enumerate(values.tolist())
        for t, v in zip(times.tolist(), row))
    assert rows == _reference(values)


def test_g17_cells_have_one_width_across_blocks(monkeypatch):
    monkeypatch.setattr(_floatfmt, "BLOCK", 3)  # the widest text is in the last block
    x = np.array([0.0, 1.0, 2.0, 0.5, 0.25, 3.0, 0.1])
    cells = g17_cells(x, ",")
    assert cells.shape == (7, 5)  # "0.10000000000000001," is 20 characters
    assert [c.tobytes().replace(b"\0", b"").decode() for c in cells] == \
        ["%.17g," % v for v in x.tolist()]
