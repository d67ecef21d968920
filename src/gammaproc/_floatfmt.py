"""Shortest round-trip text of float64 arrays: the bytes ``float.__repr__`` writes.

``repr_chunks(values, sep, end)`` writes a 2-D float64 array row by row, each
value followed by ``sep``, or by ``end`` after the last value of its row, and
yields one ``str`` per block of ``BLOCK`` values, so memory does not grow
with the array.  Python's ``repr`` writes the shortest decimal that reads back
as the same double (the nearest such decimal; a tie goes to the even digit),
in fixed notation from 1e-4 up to but not including 1e16.  A value in that
range is formatted here, in numpy, with exact 64-bit integer arithmetic:

* **Digits** (the idea behind Ryu, Adams, PLDI 2018).  ``x = m 2^(e2 - 52)``
  with ``2^52 <= m < 2^53``.  With ``s = 17 - floor(e2 log10 2)``,
  ``x 10^s`` lies in [1e17, 2e18).  ``8m 5^s`` is formed as two uint64 halves
  and shifted right by ``55 - e2 - s`` bits, which gives ``x 10^s`` and both
  ends of its rounding interval (``x -+ 2^(e2 - 53)``, or ``2^(e2 - 54)`` below
  when ``m = 2^52``) as integer parts and exact remainders.  The ends are
  inclusive when ``m`` is even, as in David Gay's ``dtoa``.  Over a shrinking
  active set, ``k`` then grows while the interval still holds a multiple of
  ``10^k``; the decimal is the nearer of the two multiples of ``10^k`` around
  ``x 10^s`` that lie in the interval.
* **Text.** The decimal's 24 zero-padded digits are six uint32 words from a
  table of 4-digit words.  A value's row of words is its digits masked to
  the integer part, a point word, its digits masked to the fraction, and
  the separator, each mask a table row that zeroes every other byte, the
  leading and trailing zeros among them.  Deleting the NUL bytes of a
  block's rows, in one ``bytes.translate``, leaves the block's text.

Every other value (zeros, negatives, exponent notation, NaN) is formatted by
``float.__repr__`` on its own and spliced in.  No transcendental function is
used, so the bytes do not depend on numpy's SIMD dispatch.  uint64 operands
are explicit ``np.uint64`` so that numpy 1.x does not promote them to float64.
"""

from __future__ import annotations

import functools

import numpy as np

BLOCK = 3200  # values per block

_U = np.uint64
_M28 = _U(2**28 - 1)
_M56 = _U(2**56 - 1)
_P5 = np.array([5**j for j in range(23)], np.uint64)
_P10 = np.array([10**j for j in range(20)], np.uint64)


@functools.cache
def _tables():
    """The word tables, built at first use rather than at import.

    ``digits[v]`` is the four ASCII digits of ``v`` in 0..9999; ``span[25 i + j]``
    is six words whose bytes are 0xff in columns ``i <= c < j`` and 0 elsewhere;
    ``dot`` and ``mark`` are the words of ``"."`` and ``"\\x01"``.  Each word is a
    view of four bytes in text order, so rows of words read as text on any host.
    """
    d, c = np.arange(48, 58, dtype=np.uint8), np.arange(25)
    digits = np.stack(np.meshgrid(d, d, d, d, indexing="ij"), -1).view(np.uint32).ravel()
    span = ((c[:-1] >= c[:, None, None]) & (c[:-1] < c[:, None])).view(np.uint8) * np.uint8(255)
    dot, mark = np.frombuffer(b".\0\0\0\x01\0\0\0", np.uint32)
    return digits, span.view(np.uint32).reshape(625, 6), dot, mark


def _shortest(x):
    """``(n, s, k)``: ``repr`` writes each ``x`` in [1e-4, 1e16) as the decimal
    ``n / 10**s``, and ``n`` ends in exactly ``k`` zeros."""
    bits = x.view(np.uint64)
    frac = bits & _U(2**52 - 1)
    e2 = (bits >> _U(52)).astype(np.int64) - 1023
    s = 17 - ((e2 * 78913) >> 18)  # 78913 / 2^18 is log10 2 to 1e-7
    sh = (55 - e2 - s).astype(np.uint64)
    mask = (_U(1) << sh) - _U(1)
    # 8m 5^s = hi 2^56 + lo, from 28-bit limbs
    a, b = (frac | _U(2**52)) << _U(3), _P5[s]
    a1, a0, b1, b0 = a >> _U(28), a & _M28, b >> _U(28), b & _M28
    mid = a1 * b0 + a0 * b1
    lo = a0 * b0 + ((mid & _M28) << _U(28))
    hi = a1 * b1 + (mid >> _U(28)) + (lo >> _U(56))
    vi, vr = (hi << (_U(56) - sh)) | ((lo & _M56) >> sh), lo & mask
    # the interval ends: x 10^s plus 4 5^s, minus 4 5^s (2 5^s when m = 2^52), over 2^sh
    up = b << _U(2)
    down = up >> (frac == _U(0)).astype(np.uint64)
    ur, lr = vr + (up & mask), vr - (down & mask)
    top = vi + (up >> sh) + (ur >> sh)
    bot = vi - (down >> sh) - (lr >> _U(63))
    odd = (bits & _U(1)) == _U(1)
    top -= ((ur & mask) == _U(0)) & odd  # the largest integer the interval admits
    bot += ((lr & mask) != _U(0)) | odd  # the smallest
    # 17 significant digits always read back, so the interval holds a multiple of 10
    k, act = np.ones(x.size, np.int64), np.arange(x.size)
    for j in range(2, 19):
        act = act[top[act] // _P10[j] * _P10[j] >= bot[act]]
        if not act.size:
            break
        k[act] = j
    p = _P10[k]
    q = vi // p
    # twice the remainder of x 10^s over p, as an integer c and a fraction f / 2^sh
    c, f = (vi - q * p) * _U(2) + ((vr << _U(1)) >> sh), (vr << _U(1)) & mask
    near = (c > p) | ((c == p) & ((f != _U(0)) | ((q & _U(1)) == _U(1))))
    # the nearer multiple if the interval holds it; q is not a multiple of 10, as
    # k + 1 would have been found
    q += (near & ((q + _U(1)) * p <= top)) | (q * p < bot)
    return q * p, s, k


def _text(x, seps, ends):
    """The text of the block ``x``, each value followed by the words ``seps[0]``, or by
    ``seps[1]`` where the slice ``ends`` selects it (NUL-padded)."""
    fb = ~((x >= 1e-4) & (x < 1e16))
    n, s, k = _shortest(np.where(fb, 1.0, x))
    n = n.view(np.int64)
    digits, span, dot, mark = _tables()
    words = np.empty((x.size, 6), np.uint32)  # n as 24 zero-padded digits
    words[:, 0], high = digits[0], 0
    for i, power in enumerate((16, 12, 8, 4, 0), 1):
        q = n // 10**power
        words[:, i], high = digits[q - high * 10000], q
    # the point goes before column 24 - s; n's first and last nonzero digits are in
    # column 5 (6 below 1e18) and 23 - k
    point = 24 - s
    first = np.minimum(6 - (n >= 10**18), point - 1)
    last = np.maximum(24 - k, point + 1)
    rows = np.empty((x.size, 13 + seps.shape[1]), np.uint32)
    np.bitwise_and(words, span.take(first * 25 + point, 0), out=rows[:, :6])
    rows[:, 6] = dot
    np.bitwise_and(words, span.take(point * 25 + last, 0), out=rows[:, 7:13])
    rows[:, 13:] = seps[0]
    rows[ends, 13:] = seps[1]
    rows[fb, :13] = 0
    rows[fb, 6] = mark  # where float.__repr__'s text goes
    pieces = rows.tobytes().translate(None, b"\0").decode("ascii").split("\x01")
    reprs = map(float.__repr__, x[fb].tolist())
    return "".join(map(str.__add__, pieces, reprs)) + pieces[-1]


def repr_chunks(values, sep, end):
    """The text of the 2-D float64 array ``values``: each value as ``float.__repr__``
    writes it, followed by ``sep``, or by ``end`` after the last value of its row;
    one ``str`` per block of ``BLOCK`` values.  ``sep`` is ASCII without control
    characters below ``"\\x03"``."""
    values = np.asarray(values, np.float64)
    width, flat = values.shape[1], values.ravel()
    # a row's end is written as "\x02" and replaced in the block's text
    width4 = -(-max(len(sep), 1) // 4) * 4
    seps = np.frombuffer(sep.encode("ascii").ljust(width4, b"\0")
                         + b"\x02".ljust(width4, b"\0"), np.uint32).reshape(2, -1)
    for start in range(0, flat.size, BLOCK):
        x = flat[start:start + BLOCK]
        ends = slice((width - 1 - start) % width, None, width)
        yield _text(x, seps, ends).replace("\x02", end)
