"""Text of float64 arrays in numpy: the bytes of ``float.__repr__`` and of ``'%.17g' %``.

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
``float.__repr__`` on its own and spliced in.

``g17_into(x, out)`` writes ``'%.17g\\n' % v`` for each value of a 1-D array
as one row of ``G17_WORDS`` words (the CSV writer, ``cli._csv_chunks``, puts
its ``"m,t,"`` words before them).  ``'%.17g'`` rounds to 17 significant
digits, to the nearest with a tie to the even digit, and writes fixed
notation from 1e-4 up to but not including 1e17, exponent notation
(``e-05``, ``e+17``, ``e-308``) elsewhere, both without trailing zeros or a
bare point.  Every positive normal double is formatted here (the method of
Ryu printf, Adams, OOPSLA 2019):

* **Digits.**  With ``s`` as above, a table row per binary exponent holds
  ``floor(10^s 2^(e2 + 32))`` as four 28-bit limbs, built at the first value
  with that exponent.  ``m`` times it, over ``2^84``, is ``x 10^s`` to within
  2^-27 below; that is rounded to 17 digits.  A value whose rounding that
  error could flip, one that falls within 2^-27 below half a unit of its
  17th digit (every exact tie among them), is left to ``'%.17g' %``.
* **Text.**  The 17 digits, zero-padded to 20, are written twice, then the
  line end (its exponent and ``"\\n"``); one table row, chosen by the
  point's and the last digit's columns, masks the first copy to the integer
  part and the second to the fraction, and another puts the point (or
  ``"0."``) in the first.  Zero is written as ``"0"``; subnormals,
  negatives, NaN and infinities go to ``'%.17g' %`` on their own.

No transcendental function is used by either writer, so the bytes do not
depend on numpy's SIMD dispatch.  uint64 operands are explicit ``np.uint64``
so that numpy 1.x does not promote them to float64.
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


def _digit_columns(n):
    """Words 1 to 5 of ``n < 10**20`` in 24 zero-padded digits, as five arrays of
    uint32 words (word 0 is ``"0000"``)."""
    digits, high = _tables()[0], 0
    for power in (16, 12, 8, 4, 0):
        q = n // 10**power
        yield digits[q - high * 10000]
        high = q


def _text(x, seps, ends):
    """The text of the block ``x``, each value followed by the words ``seps[0]``, or by
    ``seps[1]`` where the slice ``ends`` selects it (NUL-padded)."""
    fb = ~((x >= 1e-4) & (x < 1e16))
    n, s, k = _shortest(np.where(fb, 1.0, x))
    n = n.view(np.int64)
    digits, span, dot, mark = _tables()
    words = np.empty((x.size, 6), np.uint32)  # n as 24 zero-padded digits
    words[:, 0] = digits[0]
    for i, column in enumerate(_digit_columns(n), 1):
        words[:, i] = column
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


# -- %.17g ----------------------------------------------------------------------

G17_WORDS = 12  # words of a value's row in g17_into


@functools.cache
def _g17_tables():
    """The ``%.17g`` tables.

    ``limbs[:, b]`` and ``scale[b]`` are the row of biased exponent ``b``,
    filled by ``_g17_rows`` at the first value with that exponent
    (``built[b]``).  A value's row holds its 17 digits in columns 3 to 19 of
    20 zero-padded digits, as words 0-4 and again as words 5-9, and its line
    end as words 10-11: ``ends[X + 308]`` is the 8 bytes of ``"e%+03d\\n" % X``
    and ``ends[617]`` those of ``"\\n"``.  With the point before column ``p``
    and the last digit written in column ``l - 1``, ``keep[21 p + l]`` masks
    the first copy to the integer part, columns 3 to ``p``, and the second to
    the fraction, columns ``p`` to ``l``; ``dots[21 p + l]`` puts ``"."`` in
    column ``p`` of the first copy where ``p >= 4`` and ``l > p``, and ``"0."``
    in its columns 0 and 1 where ``p < 4`` (an integer part of 0).
    """
    ends = "".join(f"e{e:+03d}\n".ljust(8, "\0") for e in range(-308, 309)) + "\n".ljust(8, "\0")
    span = _tables()[1]  # of 24 columns: column c here is column c + 4 there
    p, last = np.divmod(np.arange(441), 21)
    keep = np.full((441, G17_WORDS), 2**32 - 1, np.uint32)
    keep[:, :5] = span.take(7 * 25 + p + 4, 0)[:, 1:]
    keep[:, 5:10] = span.take((p + 4) * 25 + last + 4, 0)[:, 1:]
    dots = np.zeros((441, 4 * G17_WORDS), np.uint8)
    frac = np.flatnonzero((last > p) & (p > 3))
    dots[frac, p[frac]] = ord(".")
    dots[p < 4, :2] = np.frombuffer(b"0.", np.uint8)
    return (np.zeros((4, 2047), np.uint64), np.zeros(2047, np.int64), np.zeros(2047, bool),
            np.frombuffer(ends.encode("ascii"), np.uint64), keep, dots.view(np.uint32))


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


def _g17_text(bits, out):
    """Writes the rows of the positive normal doubles ``bits`` into ``out``; returns
    where they are sure (``_g17_digits``)."""
    q, X, sure = _g17_digits(bits)
    *_, ends, keep, dots = _g17_tables()
    rows = np.empty((q.size, G17_WORDS), np.uint32)
    for i, column in enumerate(_digit_columns(q.view(np.int64))):
        rows[:, i] = rows[:, i + 5] = column
    # the point goes before column 4 + X in fixed notation, and before column 4
    # in exponent notation
    fixed = (X >= -4) & (X < 17)
    point = np.where(fixed, 4 + X, 4)
    chars = rows.view(np.uint8)[:, :20]
    k = np.zeros(q.size, np.intp)  # q's trailing zeros
    act = np.flatnonzero(chars[:, 19] == ord("0"))
    k[act] = (chars[act, 19::-1] == ord("0")).argmin(1)
    rows.view(np.uint64)[:, 5] = ends.take(np.where(fixed, 617, X + 308))
    cell = point * 21 + np.maximum(20 - k, point)
    # rows is contiguous, so each operation runs as one loop rather than one a row
    np.bitwise_and(rows, keep.take(cell, 0), out=rows)
    np.bitwise_or(rows, dots.take(cell, 0), out=rows)
    out[...] = rows
    return sure


def g17_into(x, out):
    """Writes ``'%.17g\\n' % v`` for each ``v`` of the 1-D float64 array ``x`` into
    the ``(x.size, G17_WORDS)`` uint32 array ``out``, one row a value, NUL-padded."""
    bits = x.view(np.uint64)
    normal = (bits >> _U(52)) - _U(1) < _U(2046)  # positive, normal and finite
    # the other values are written as 1.0, then replaced
    undecided = ~_g17_text(np.where(normal, bits, _U(0x3FF0000000000000)), out) | ~normal
    zero = bits == _U(0)
    out[zero] = np.frombuffer(b"0\n".ljust(4 * G17_WORDS, b"\0"), np.uint32)
    rest = np.flatnonzero(undecided & ~zero)
    if rest.size:
        text = "".join([("%.17g\n" % v).ljust(4 * G17_WORDS, "\0") for v in x[rest].tolist()])
        out[rest] = np.frombuffer(text.encode("ascii"), np.uint32).reshape(-1, G17_WORDS)


def padded_words(strings):
    """The ASCII ``strings`` as rows of uint32 words, one width, NUL-padded."""
    width = 4 * -(-max(map(len, strings)) // 4)
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
