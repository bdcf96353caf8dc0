"""CSV text of float64 arrays in ``%.17g``, without per-value formatting.

:func:`g17_cells` formats an array into fixed-width byte cells in which zero
bytes are padding: with them dropped, cell i is ``('%.17g' % x[i]).encode()``
byte for byte, for every double.  :func:`csv_text` stacks the cells of a
block with its separators and the caller's row prefixes and drops every pad
byte in one pass over the block.

The 17 significant digits are the integer D nearest |x| 10^s with
s = 16 - floor(log10 |x|).  The product is formed as a double-double (Dekker,
Numer. Math. 18 (1971) 224-242): x times the pair (hi, lo) of 10^s, built
exactly from integers, with Veltkamp splitting since numpy has no fused
multiply-add.  For |s| > 250 a 2^+-600 prescale keeps both factors and the
split in range (subnormals, values near the overflow threshold).  For
0 <= s <= 22, 10^s is a double and the product is exact, so a fraction of
exactly 1/2 is a tie and rounds half-even, as Python's correctly rounded dtoa
(Gay, 1990) does.  For other s the product is off by less than 1e-14, so
only a fraction within 1e-6 of 1/2 can round either way.  Those values,
values whose log10 exponent is off by one near a power of ten, inf and nan
take Python's own ``%`` in their cell.
"""

from __future__ import annotations

import functools
import os
from contextlib import contextmanager

import numpy as np

# a cell is six 8-byte words: sign, '0.000' prefix and leading digit; the
# digits before the point and the point; the digits after it; 'e+ddd'
WORDS = 6
WIDTH = 8 * WORDS
_E_MIN, _E_MAX = -324, 308        # floor(log10 |x|) of the finite nonzero doubles
_S_MIN, _S_MAX = 16 - _E_MAX, 16 - _E_MIN
_SPLIT = 134217729.0              # 2^27 + 1
_HALF_BAND = 1e-6
# values per kernel pass, and about the most a writer formats per write: it
# bounds the transient memory to about 1 MiB
SLAB = 4096


def _words(chunks):
    """8-byte strings as uint64 words: every table is built from bytes and
    only moved or masked bytewise, so byte order does not matter."""
    return np.frombuffer(b"".join(chunks), np.uint64)


@functools.lru_cache(maxsize=None)
def _tables():
    """Power-of-ten, digit and layout tables, built on first use."""
    s = np.arange(_S_MIN, _S_MAX + 1)
    shift = np.where(s > 250, 600, np.where(s < -250, -600, 0))
    # 10^s 2^-shift = num / den, rounded to hi + lo by correctly rounded
    # integer division; x 2^shift is exact
    hi, lo = np.empty(s.size), np.empty(s.size)
    for k, (e, sh) in enumerate(zip(s.tolist(), shift.tolist())):
        num = 10 ** max(e, 0) * 2 ** max(-sh, 0)
        den = 10 ** max(-e, 0) * 2 ** max(sh, 0)
        hi[k] = num / den
        a, b = hi[k].as_integer_ratio()
        lo[k] = (num * b - a * den) / (den * b)
    c = _SPLIT * hi
    hi_h = c - (c - hi)
    # every 4-digit group on a 10^4 grid, digit j along axis j; small dtypes
    # keep the build from growing the heap
    digit = np.arange(10, dtype=np.int8)
    digits4 = np.empty((10, 10, 10, 10, 4), np.uint8)
    used = np.zeros((10, 10, 10, 10), np.int8)      # digits up to the last nonzero
    for j in range(4):
        dj = digit.reshape((10,) + (1,) * (3 - j))
        digits4[..., j] = 48 + dj
        used = np.maximum(used, (j + 1) * (dj != 0))
    used = used.ravel()
    prefixes = (b"", b"0.", b"0.0", b"0.00", b"0.000")
    cuts = range(17)
    return dict(
        scale=np.ldexp(1.0, shift), hi=hi, hi_h=hi_h, hi_l=hi - hi_h, lo=lo,
        exact=(s >= 0) & (s <= 22),
        digits4=digits4.reshape(-1).view(np.uint32),
        # significant digits up to the end of group k (of 4), 0 if it is zero
        significant=[np.where(used == 0, 0, 4 * k + used).astype(np.int8) for k in range(4)],
        # row (prefix + 5 sign) * 10 + leading digit
        leads=_words((sg + p).ljust(7, b"\0") + bytes([48 + d])
                     for sg in (b"", b"-") for p in prefixes for d in range(10)),
        # masks and the point over the 16 digits after the leading one: keep
        # [0, q); '.' at q, for row q + 17 point; keep [q, m), for row 17 q + m
        before=_words(b"\xff" * c + b"\0" * (16 - c) for c in cuts).reshape(17, 2).T.copy(),
        point=_words([b"\0" * 16] * 17 + [(b"\0" * c + b".").ljust(16, b"\0")[:16] for c in cuts]
                     ).reshape(34, 2).T.copy(),
        after=_words(bytes(255 * (c <= k < m) for k in range(16)) for c in cuts for m in cuts
                     ).reshape(289, 2).T.copy(),
        # one word per exponent of the 'e' form, then an empty one for the fixed form
        exponents=_words([(b"e%+03d" % x).ljust(8, b"\0") for x in range(_E_MIN, _E_MAX + 1)]
                         + [b"\0" * 8]))


def _digits(x):
    """(D, E, python): |x| rounded to the 17-digit integer D times 10^(E - 16),
    and the values left to Python's ``%``; D = 0 for those and for zeros."""
    t = _tables()
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        log = np.log10(a)
    special = ~np.isfinite(log)              # 0, inf, nan
    zero = a == 0.0
    a[special] = 1.0
    log[special] = 0.0
    E = np.floor(log).astype(np.intp)
    row = 16 - _S_MIN - E

    # |x| 10^s as the double-double p + y_lo; p >= 10^16 > 2^53 is an integer
    xs = a * t["scale"].take(row)
    p = xs * t["hi"].take(row)
    bh, bl = t["hi_h"].take(row), t["hi_l"].take(row)
    c = _SPLIT * xs
    ah = c - (c - xs)
    al = xs - ah
    y_lo = (((ah * bh - p) + ah * bl + al * bh) + al * bl) + xs * t["lo"].take(row)
    whole = np.floor(y_lo)
    frac = y_lo - whole
    D = p.astype(np.int64) + whole.astype(np.int64)
    exact = t["exact"].take(row)
    # E one too large or too small, or 99..9.5 rounding up to 10^17
    python = (D < 10 ** 16) | (special & ~zero) | (~exact & (np.abs(frac - 0.5) < _HALF_BAND))
    D += (frac > 0.5) | ((frac == 0.5) & exact & (D & 1 == 1))
    python |= D >= 10 ** 17
    D[zero | python] = 0
    return D, E, python


def g17_cells(x):
    """``(n, WIDTH)`` uint8 cells of the flattened float64 array ``x``: with
    its zero bytes dropped, row i is ``('%.17g' % x[i]).encode()``.  The
    kernel runs over at most ``SLAB`` values at a time."""
    x = np.asarray(x, dtype=np.float64).ravel()
    cells = np.empty((x.size, WORDS), np.uint64)
    for start in range(0, x.size, SLAB):
        _fill(cells[start:start + SLAB], x[start:start + SLAB])
    return cells.view(np.uint8)


def _fill(cells, x):
    """Write the cells of ``x`` into the ``(n, WORDS)`` words ``cells``."""
    t = _tables()
    D, E, python = _digits(x)

    # the leading digit and four groups of four
    first = D // 10 ** 16
    r = D - first * 10 ** 16
    h = r // 10 ** 8
    low = r - h * 10 ** 8
    groups = np.empty((x.size, 4), np.intp)
    groups[:, 0] = g0 = h // 10 ** 4
    groups[:, 1] = g1 = h - g0 * 10 ** 4
    groups[:, 2] = g2 = low // 10 ** 4
    groups[:, 3] = g3 = low - g2 * 10 ** 4
    tail = t["digits4"].take(groups).view(np.uint64)      # the 16 digits after the first
    sig = [table.take(g) for table, g in zip(t["significant"], (g0, g1, g2, g3))]
    nt = np.maximum(np.maximum(sig[0], sig[1]), np.maximum(sig[2], sig[3]))

    # %g layout: fixed for -4 <= E < 17, else d.ddde+EE; of the nt tail digits
    # left after stripping zeros, [0, q) go before the point, [q, nt) after
    fixed = (E >= -4) & (E < 17)
    small = fixed & (E < 0)
    q = np.where(fixed, np.where(small, nt, E), 0)
    point, after = q + 17 * (nt > q), 17 * q + nt
    cells[:, 0] = t["leads"].take((np.where(small, -E, 0) + 5 * np.signbit(x)) * 10 + first)
    for j in (0, 1):
        cells[:, 1 + j] = (tail[:, j] & t["before"][j].take(q)) | t["point"][j].take(point)
        cells[:, 3 + j] = tail[:, j] & t["after"][j].take(after)
    cells[:, 5] = t["exponents"].take(np.where(fixed, -1, E - _E_MIN))

    for i in np.flatnonzero(python):
        text = _python(x[i])
        cell = cells[i].view(np.uint8)
        cell[:] = 0
        cell[:len(text)] = np.frombuffer(text, np.uint8)


def _python(value):
    """The cell of one value from Python's correctly rounded ``%``."""
    return ("%.17g" % value).encode()


def _rows(cells, leads=(), end=","):
    """uint8 rows ``lead... c1,c2,...,ck<end>`` of ``cells`` (..., k, WIDTH),
    with pad bytes; each lead is a uint8 array broadcastable to (..., width)."""
    shape, k = cells.shape[:-2], cells.shape[-2]
    width = sum(ld.shape[-1] for ld in leads)
    buf = np.empty(shape + (width + k * (WIDTH + 1),), np.uint8)
    at = 0
    for ld in leads:
        buf[..., at:at + ld.shape[-1]] = ld
        at += ld.shape[-1]
    # a view: only the contiguous last axis is split
    body = buf[..., width:].reshape(shape + (k, WIDTH + 1))
    body[..., :WIDTH] = cells
    body[..., WIDTH] = ord(",")
    body[..., -1, WIDTH] = ord(end)
    return buf


def lead(values):
    """``(m, w)`` uint8 row prefixes ``v1,...,vk,`` of ``values`` (m, k),
    left-justified and zero-padded to the longest (numpy's ``S`` dtype pads
    with zero bytes); built in blocks of about ``SLAB`` values."""
    values = np.asarray(values, dtype=np.float64)
    step = max(1, SLAB // values.shape[1])
    bufs = (_rows(g17_cells(block).reshape(block.shape + (WIDTH,)))
            for block in np.split(values, range(step, len(values), step)))
    text = np.concatenate([np.array([row.tobytes().translate(None, b"\0") for row in buf])
                           for buf in bufs])
    return text.view(np.uint8).reshape(len(values), -1)


def csv_text(cells, *leads):
    """The text of rows ``lead... c1,...,ck`` plus a newline, row-major over
    the leading axes of ``cells`` (..., k, WIDTH) from :func:`g17_cells`;
    the leads are uint8 prefixes such as :func:`lead` makes, broadcastable
    to (..., width).  The pad bytes go in one pass over the block."""
    return _rows(cells, leads, "\n").tobytes().translate(None, b"\0").decode("ascii")


@contextmanager
def replace_on_success(path):
    """A text file open for writing beside ``path``: renamed to ``path``
    when the block ends, deleted if it raises, so no partial output."""
    head, tail = os.path.split(os.fspath(path))
    partial = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    fh = open(partial, "w")
    try:
        with fh:
            yield fh
        os.replace(partial, path)
    except BaseException:
        os.remove(partial)
        raise
