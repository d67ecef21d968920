"""Text of float64 arrays in numpy: the bytes of ``float.__repr__`` and of ``'%.17g' %``.

``repr_chunks(values, sep, end)`` writes a 2-D float64 array row by row, each
value followed by ``sep``, or by ``end`` after the last value of its row, and
yields one ``str`` per block of ``BLOCK`` values, so memory does not grow
with the array.  Python's ``repr`` writes the shortest decimal that reads back
as the same double (the nearest such decimal; a tie goes to the even digit),
in fixed notation from 1e-4 up to but not including 1e16, with at least one
fraction digit (``1.0``).  ``g17_into(x, out)`` writes ``'%.17g\\n' % v`` for
each value of a 1-D array as one row of ``G17_WORDS`` words (the CSV writer,
``cli._csv_chunks``, puts its ``"m,t,"`` words before them).  ``'%.17g'``
rounds to 17 significant digits, to the nearest with a tie to the even
digit, and writes fixed notation from 1e-4 up to but not including 1e17,
exponent notation (``e-05``, ``e+17``, ``e-308``) elsewhere, both without
trailing zeros or a bare point.  Each writer finds its digits in exact 64-bit
integer arithmetic, and both lay them out in one text stage.

* **Shortest digits** (``_shortest``, the idea behind Ryu, Adams, PLDI 2018),
  for each value in [1e-4, 1e16).  ``x = m 2^(e2 - 52)`` with
  ``2^52 <= m < 2^53``.  With ``s = 17 - floor(e2 log10 2)``, ``x 10^s`` lies
  in [1e17, 2e18).  ``8m 5^s`` is formed as two uint64 halves and shifted
  right by ``55 - e2 - s`` bits, which gives ``x 10^s`` and both ends of its
  rounding interval (``x -+ 2^(e2 - 53)``, or ``2^(e2 - 54)`` below when
  ``m = 2^52``) as integer parts and exact remainders.  The ends are
  inclusive when ``m`` is even, as in David Gay's ``dtoa``.  Over a shrinking
  active set, ``k`` then grows while the interval still holds a multiple of
  ``10^k``; the decimal is the nearer of the two multiples of ``10^k`` around
  ``x 10^s`` that lie in the interval.
* **17 digits** (``_g17_digits``, the method of Ryu printf, Adams, OOPSLA
  2019), for each positive normal double.  With ``s`` as above, a table row
  per binary exponent holds ``floor(10^s 2^(e2 + 32))`` as four 28-bit limbs,
  built at the first value with that exponent.  ``m`` times it, over
  ``2^84``, is ``x 10^s`` to within 2^-27 below; that is rounded to 17
  digits.  A value whose rounding that error could flip, one that falls
  within 2^-27 below half a unit of its 17th digit (every exact tie among
  them), is left to ``'%.17g' %``.
* **Text** (``_decimal_rows``).  A decimal's 17 digits, zero-padded to 20,
  are written twice from a table of 4-digit words, then an 8-byte tail: the
  line end, its exponent and ``"\\n"`` (for ``'%.17g'``), or the separator
  (for ``repr``).  One table row, chosen by the point's and the last
  digit's columns, masks the first copy to the integer part and the second
  to the fraction, and another puts the point (or ``"0."``) in the first.
  Each run of bit-identical adjacent values is formatted once, and its row
  copied to every position of the run (``_by_run``); ``repr``'s separators
  are written after the copy, as a run may cross a row's end.  Deleting the
  NUL bytes of a block's rows, in one ``bytes.translate``, leaves the
  block's text.

Every other value (zeros for ``repr``, negatives, subnormals for
``'%.17g'``, exponent notation for ``repr``, NaN, infinities, and the
values ``'%.17g'`` could not round) has its text written by ``float.__repr__``
or ``'%.17g' %`` into its row, NUL-padded; ``'%.17g'``'s zeros are written
as ``"0"`` in one store.  No transcendental function is used by either
writer, so the bytes do not depend on numpy's SIMD dispatch.  uint64
operands are explicit ``np.uint64`` so that numpy 1.x does not promote them
to float64.
"""

from __future__ import annotations

import functools

import numpy as np

BLOCK = 3200  # values per block
G17_WORDS = 12  # words of a value's row

_U = np.uint64
_M28 = _U(2**28 - 1)
_M56 = _U(2**56 - 1)
_P5 = np.array([5**j for j in range(23)], np.uint64)
_P10 = np.array([10**j for j in range(20)], np.uint64)


@functools.cache
def _tables():
    """The text stage's tables, built at first use rather than at import.

    ``digits[v]`` is the four ASCII digits of ``v`` in 0..9999.  A value's row
    holds its 17 digits in columns 3 to 19 of 20 zero-padded digits, as words
    0-4 and again as words 5-9, and its tail as words 10-11.  With the point
    before column ``p`` and the last digit written in column ``l - 1``,
    ``keep[21 p + l]`` masks the first copy to the integer part, columns 3 to
    ``p``, and the second to the fraction, columns ``p`` to ``l``, and keeps the
    tail; ``dots[21 p + l]`` puts ``"."`` in column ``p`` of the first copy where
    ``p >= 4`` and ``l > p``, and ``"0."`` in its columns 0 and 1 where ``p < 4``
    (an integer part of 0).  Each word is a view of four bytes in text order,
    so rows of words read as text on any host.
    """
    d, c = np.arange(48, 58, dtype=np.uint8), np.arange(20)
    digits = np.stack(np.meshgrid(d, d, d, d, indexing="ij"), -1).view(np.uint32).ravel()
    p, last = np.divmod(np.arange(441), 21)
    keep = np.concatenate([(c >= 3) & (c < p[:, None]), (c >= p[:, None]) & (c < last[:, None]),
                           np.ones((441, 8), bool)], 1).view(np.uint8) * np.uint8(255)
    dots = np.zeros((441, 4 * G17_WORDS), np.uint8)
    frac = np.flatnonzero((last > p) & (p > 3))
    dots[frac, p[frac]] = ord(".")
    dots[p < 4, :2] = np.frombuffer(b"0.", np.uint8)
    return digits, keep.view(np.uint32), dots.view(np.uint32)


def _decimal_rows(q, X, k, frac):
    """The rows of the decimals ``q 10^(X - 16)``, ``10^16 <= q < 10^17``: in fixed
    notation where ``-4 <= X < 17`` and with the point after the first digit
    elsewhere, and without trailing zeros past ``frac`` fraction digits.  ``k`` is
    each ``q``'s trailing zeros, or ``None`` to count them.  The tail, words 10-11,
    is left for the caller to write."""
    digits, keep, dots = _tables()
    rows, high = np.empty((q.size, G17_WORDS), np.uint32), 0
    for i, power in enumerate((16, 12, 8, 4, 0)):
        top = q.view(np.int64) // 10**power
        rows[:, i] = rows[:, i + 5] = digits[top - high * 10000]
        high = top
    # the point goes before column 4 + X in fixed notation, and before column 4
    # in exponent notation
    point = np.where((X >= -4) & (X < 17), 4 + X, 4)
    if k is None:  # count q's trailing zeros
        chars = rows.view(np.uint8)[:, :20]
        k = np.zeros(q.size, np.intp)
        act = np.flatnonzero(chars[:, 19] == ord("0"))
        k[act] = (chars[act, 19::-1] == ord("0")).argmin(1)
    cell = point * 21 + np.maximum(20 - k, point + frac)
    # rows is contiguous, so each operation runs as one loop rather than one a row
    np.bitwise_and(rows, keep.take(cell, 0), out=rows)
    np.bitwise_or(rows, dots.take(cell, 0), out=rows)
    return rows


def _by_run(x, text_rows):
    """``text_rows(x)``, the rows of the 1-D float64 array ``x``, with each run of
    bit-identical adjacent values formatted once: ``text_rows`` gets the first
    value of each run, and its row is copied to every position of the run.  An
    array without such a run is formatted as it is."""
    new = np.empty(x.size, bool)
    new[:1] = True
    bits = x.view(np.uint64)
    np.not_equal(bits[1:], bits[:-1], out=new[1:])
    if new.all():
        return text_rows(x)
    return text_rows(x[new]).take(np.cumsum(new) - 1, 0)


def _overwrite(rows, x, at, text):
    """Writes ``text(v)`` for each ``v`` of ``x`` where ``at`` into its row of ``rows``."""
    at = np.flatnonzero(at)
    if at.size:
        rows[at] = padded_words([text(v) for v in x[at].tolist()], 4 * rows.shape[1])


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


def _repr_text(x):
    """The rows of ``float.__repr__`` of each value of the 1-D ``x``, without a tail."""
    fb = ~((x >= 1e-4) & (x < 1e16))
    n, s, k = _shortest(np.where(fb, 1.0, x))
    big = n >= _U(10**18)  # n has 19 digits, not 18
    rows = _decimal_rows(n // _P10[1 + big], 17 + big - s, k - 1 - big, 1)
    _overwrite(rows[:, :10], x, fb, float.__repr__)  # words 0-9: the tail is written later
    return rows


def repr_chunks(values, sep, end):
    """The text of the 2-D float64 array ``values``: each value as ``float.__repr__``
    writes it, followed by ``sep``, or by ``end`` after the last value of its row;
    one ``str`` per block of ``BLOCK`` values.  ``sep`` is at most 8 ASCII bytes,
    without NUL or ``"\\x02"``."""
    values = np.asarray(values, np.float64)
    width, flat = values.shape[1], values.ravel()
    # a row's end is written as "\x02" and replaced in the block's text
    seps = np.frombuffer(sep.encode("ascii").ljust(8, b"\0") + b"\x02".ljust(8, b"\0"), np.uint64)
    for start in range(0, flat.size, BLOCK):
        rows = _by_run(flat[start:start + BLOCK], _repr_text)
        # a position's tail, after the copies: a run may cross a row's end
        tail = rows.view(np.uint64)[:, 5]
        tail[...] = seps[0]
        tail[(width - 1 - start) % width::width] = seps[1]
        yield rows.tobytes().translate(None, b"\0").decode("ascii").replace("\x02", end)


# -- %.17g ----------------------------------------------------------------------


@functools.cache
def _g17_tables():
    """The ``%.17g`` tables.

    ``limbs[:, b]`` and ``scale[b]`` are the row of biased exponent ``b``,
    filled by ``_g17_rows`` at the first value with that exponent
    (``built[b]``).  ``ends[X + 308]`` is the 8 bytes of a line end: ``"\\n"``
    where ``-4 <= X < 17`` (fixed notation) and ``"e%+03d\\n" % X`` elsewhere.
    """
    ends = "".join(("\n" if -4 <= e < 17 else f"e{e:+03d}\n").ljust(8, "\0")
                   for e in range(-308, 309))
    return (np.zeros((4, 2047), np.uint64), np.zeros(2047, np.int64), np.zeros(2047, bool),
            np.frombuffer(ends.encode("ascii"), np.uint64))


def _g17_rows(b):
    """``(t, s)`` for the biased exponents ``b`` of normal doubles: ``x 10^s`` lies in
    [1e17, 2e18), and ``t[:, i]`` is ``floor(10^s 2^(e2 + 32))`` in 28-bit limbs,
    least significant first, where ``e2 = b - 1023``."""
    limbs, scale, built = _g17_tables()[:3]
    for e in set(b[~built[b]].tolist()):
        e2 = e - 1023
        s = 17 - ((e2 * 78913) >> 18)  # floor(e2 log10 2) at every e2 from -1074 to 1023
        t = (10 ** max(s, 0) << max(e2 + 32, 0)) // (10 ** max(-s, 0) << max(-e2 - 32, 0))
        limbs[:, e] = [(t >> 28 * i) & (2**28 - 1) for i in range(4)]
        scale[e], built[e] = s, True
    return limbs.take(b, 1), scale.take(b)


def _g17_digits(bits):
    """``(q, X, sure)``: the positive normal doubles ``bits`` rounded to 17 significant
    digits are ``q 10^(X - 16)``, with ``10^16 <= q < 10^17``, wherever ``sure``."""
    t, s = _g17_rows((bits >> _U(52)).astype(np.intp))
    m = (bits & _U(2**52 - 1)) | _U(2**52)
    m1, m0 = m >> _U(28), m & _M28
    # m t = x 10^s 2^84, from 28-bit limbs; v is its integer part and f / 2^28 the
    # fraction's first 28 bits, so v + f / 2^28 falls short of x 10^s by under 2^-27
    c = m0 * t[0]
    c = m0 * t[1] + m1 * t[0] + (c >> _U(28))
    c = m0 * t[2] + m1 * t[1] + (c >> _U(28))
    f = c & _M28
    c = m0 * t[3] + m1 * t[2] + (c >> _U(28))
    v = c + ((m1 * t[3]) << _U(28))
    big = v >= _U(10**18)
    p = _P10[1 + big]  # the unit of the 17th digit
    q = v // p
    # the remainder over p and half of p, in units of 2^-28; the true remainder is
    # below rem + 2, so a remainder within 2 units under the half is left undecided
    rem, half = ((v - q * p) << _U(28)) | f, p << _U(27)
    sure = (rem > half) | (rem + _U(2) <= half)
    q += rem > half
    X = 17 - s + big
    carry = q == _U(10**17)  # 99999999999999999.5 and up rounds to 1e17
    return np.where(carry, _U(10**16), q), X + carry, sure


def _g17_text(x):
    """The rows of ``'%.17g\\n' % v`` for each ``v`` of the 1-D ``x``, NUL-padded."""
    bits = x.view(np.uint64)
    normal = (bits >> _U(52)) - _U(1) < _U(2046)  # positive, normal and finite
    # the other values are written as 1.0, then replaced
    q, X, sure = _g17_digits(np.where(normal, bits, _U(0x3FF0000000000000)))
    rows = _decimal_rows(q, X, None, 0)
    rows.view(np.uint64)[:, 5] = _g17_tables()[3].take(X + 308)
    zero = bits == _U(0)
    rows[zero] = np.frombuffer(b"0\n".ljust(4 * G17_WORDS, b"\0"), np.uint32)
    _overwrite(rows, x, ~(sure & normal | zero), "%.17g\n".__mod__)
    return rows


def g17_into(x, out):
    """Writes ``'%.17g\\n' % v`` for each ``v`` of the 1-D float64 array ``x`` into
    the ``(x.size, G17_WORDS)`` uint32 array ``out``, one row a value, NUL-padded."""
    out[...] = _by_run(x, _g17_text)


def padded_words(strings, width=0):
    """The ASCII ``strings`` as rows of uint32 words, NUL-padded to ``width`` bytes, or
    by default to one width: the longest string's, in whole words."""
    width = width or 4 * -(-max(map(len, strings)) // 4)
    text = "".join([s.ljust(width, "\0") for s in strings])
    return np.frombuffer(text.encode("ascii"), np.uint32).reshape(len(strings), -1)


def g17_cells(x, end):
    """``'%.17g' % v + end`` for each ``v`` of the 1-D float64 array ``x``, as rows of
    uint32 words of one width, NUL-padded.  ``end`` is ASCII without ``"\\n"``."""
    blocks = []
    for start in range(0, x.size, BLOCK):  # a block at a time: only the cells grow with x
        rows = np.empty((min(BLOCK, x.size - start), G17_WORDS), np.uint32)
        g17_into(x[start:start + BLOCK], rows)
        text = rows.tobytes().translate(None, b"\0").decode("ascii")
        blocks.append(padded_words([t + end for t in text.split("\n")[:-1]]))
    cells = np.zeros((x.size, max(b.shape[1] for b in blocks)), np.uint32)
    for start, b in zip(range(0, x.size, BLOCK), blocks):
        cells[start:start + len(b), :b.shape[1]] = b
    return cells
