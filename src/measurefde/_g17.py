"""Exact ``%.17g`` CSV text for a block of float64, built in numpy.

``g17_rows(block)`` returns the bytes ``"%.17g,%.17g,...\n"`` per row that
Python's formatter gives.  For 1e-11 < |x| < 1e15, with X = floor(log10|x|),
the 17 digits N = round-half-even(|x| * 10**(16 - X)) are exact integer
arithmetic on the float's mantissa (see _digits17); where log10 is off by one
next to a power of ten, one pass redoes the value with X corrected.  Each
value becomes a fixed-width row (sign, 22-byte body, separator) whose body
layout depends only on X, and a table indexed by (X, last nonzero digit,
sign) picks the bytes %.17g keeps, so one boolean compress per block gives
the text.  Python formats every other value (zeros, subnormals, nan, inf,
other magnitudes), and its text goes where a marker byte holds its place.

The integer arithmetic runs in place and two row buffers take turns in the
layout, so a 512 x 11 block of the table-1 trace peaks at about 75 bytes
per value (tracemalloc), the returned text of about 20 bytes per value
included.
"""

import numpy as np

_U = np.uint64
_LO, _HI = 1e-11, 1e15
_X0, _NX = -11, 27                  # X on (_LO, _HI) is -11 .. 15
_M32 = _U(0xFFFFFFFF)
_E16, _E17 = _U(10 ** 16), _U(10 ** 17)
_Q0 = np.array([5 ** k & 0xFFFFFFFF for k in range(28)], dtype=_U)
_Q1 = np.array([5 ** k >> 32 for k in range(28)], dtype=_U)
# The tables are built from 100 two-digit pairs by slicing only: numpy
# arithmetic here would page in code that the kernel itself never runs.
_PAIR_TZ = bytes((v % 10 == 0) + (v == 0) for v in range(100))
_PAIR = np.frombuffer(b"".join(b"%02d" % v for v in range(100)), np.uint8)
_QUAD = np.empty((100, 100, 4), np.uint8)            # "0000" .. "9999"
_QUAD[..., :2] = _PAIR.reshape(100, 1, 2)
_QUAD[..., 2:] = _PAIR.reshape(100, 2)
_QUAD = _QUAD.reshape(10000, 4).view(np.uint32).ravel()
_QUAD_TZ = np.empty((100, 100), np.uint8)            # trailing zeros
_QUAD_TZ[:] = np.frombuffer(_PAIR_TZ, np.uint8)
_QUAD_TZ[:, 0] = np.frombuffer(bytes(t + 2 for t in _PAIR_TZ), np.uint8)
_QUAD_TZ = _QUAD_TZ.ravel()
_W = 24                             # sign, 22 body bytes, separator
_ROW = np.dtype((np.void, _W))


def _keep_rows(X: int, li: int) -> bytes:
    """The bytes %.17g keeps of a positive and of a negative row; li is the
    index of the last nonzero digit."""
    if -4 <= X < 0:
        body, exp = 2 - X + li, 0                   # "0.00" and the digits
    else:
        point = max(X, 0) + 1                       # digits before the '.'
        body, exp = (li + 2 if li >= point else point), 4 * (X < -4)
    row = b"\1" * body + bytes(22 - body - exp) + b"\1" * (exp + 1)
    return b"\0" + row + b"\1" + row


# row ((X - _X0) * 17 + li) * 2 + sign; the last, for a value that Python
# formats, keeps the byte that marks its place and the separator
_KEEP = np.frombuffer(b"".join(_keep_rows(X, li) for X in range(_X0, _X0 + _NX)
                               for li in range(17))
                      + b"\1" + bytes(_W - 2) + b"\1", bool).reshape(-1, _W)


def _digits17(bits: np.ndarray, X: np.ndarray) -> np.ndarray:
    """round-half-even(|x| * 10**(16 - X)) from the bits of |x|.

    |x| = m * 2**(e - 1075) with m of 53 bits, so the result is the 128-bit
    product m * 5**(16 - X) (32-bit partial products; 5**27 < 2**64) shifted
    right by 1 to 63 bits.  The arithmetic runs in place on six arrays.
    """
    X = X.astype(np.intp)
    lo, hi = _Q0.take(16 - X), _Q1.take(16 - X)    # 5**(16 - X) in halves
    m0 = bits & _U((1 << 52) - 1)
    m0 |= _U(1 << 52)
    m1 = m0 >> _U(32)
    m0 &= _M32
    mid = m1 * lo
    lo *= m0                                # m0 * q0
    m0 *= hi
    mid += m0
    np.right_shift(lo, _U(32), out=m0)
    mid += m0                               # < 2**64: m1 < 2**21
    hi *= m1
    np.right_shift(mid, _U(32), out=m1)
    hi += m1                                # the product's high word
    lo &= _M32
    mid <<= _U(32)
    lo |= mid                               # and its low word
    X += 1059
    shift = X.view(_U)
    shift -= bits >> _U(52)                 # X + 1059 - e
    # add half an output unit, less one unless the kept part is odd
    np.right_shift(lo, shift, out=m0)
    m0 &= _U(1)
    np.subtract(shift, _U(1), out=mid)
    np.left_shift(_U(1), mid, out=mid)
    mid += m0
    mid -= _U(1)
    mid += lo
    hi += mid < lo                          # the carry
    mid >>= shift
    np.subtract(_U(64), shift, out=shift)
    hi <<= shift
    hi |= mid
    return hi


def _digit_rows(x: np.ndarray):
    """What the layout needs of x: where Python formats, X (int8), the index
    li of the last nonzero digit, and rows of 24 bytes with the 17 digits in
    bytes 3..19."""
    a = np.abs(x)
    by_python = ~((a > _LO) & (a < _HI))
    a[by_python] = 1.0
    bits = a.view(_U)
    X = np.log10(a)
    np.floor(X, out=X)
    X = X.astype(np.int8)
    np.maximum(X, _X0, out=X)
    N = _digits17(bits, X)
    fix = np.flatnonzero((N >= _E17) | (N <= _E16))
    if fix.size:
        Xf = np.maximum(X[fix] + np.where(N[fix] >= _E17, 1, -1), _X0)
        Nf = _digits17(bits[fix], Xf)
        up = Nf >= _E17                 # rounded up to the next power of ten
        Nf[up] = _E16
        X[fix], N[fix] = Xf + up, Nf

    # N as five quads, 1 + 4 * 4 digits, in uint32 arithmetic below 10**9
    hi8 = N // 10 ** 8
    N -= hi8 * 10 ** 8
    hi8, lo8 = hi8.astype(np.uint32), N.astype(np.uint32)
    top = hi8 // 10 ** 8
    hi8 -= top * 10 ** 8
    q1, q3 = hi8 // 10 ** 4, lo8 // 10 ** 4
    hi8 -= q1 * 10 ** 4
    lo8 -= q3 * 10 ** 4
    quads = [top, q1, hi8, q3, lo8]
    text = np.empty((x.size, _W // 4), np.uint32)
    for j, quad in enumerate(quads):
        text[:, j] = _QUAD.take(quad)
    # li, the index of the last nonzero digit: past the last quad only
    # where it is 0000
    li = 16 - _QUAD_TZ[quads[4]]
    zero = np.flatnonzero(li == 12)
    run = np.ones(zero.size, bool)
    for quad in quads[3:0:-1]:
        quad = quad[zero]
        li[zero] -= run * _QUAD_TZ[quad]
        run &= quad == 0
    return by_python, X, li, text.view(np.uint8)


def _lay_out(text: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The rows of text with each body laid out as %.17g does at its X.

    The rows are gathered sorted by X into a second buffer, each run of one
    X is laid out by slicing back into text, and the laid-out rows are put
    back in their order in the second buffer, which is returned.
    """
    order = np.argsort(X, kind="stable")
    digits = text.view(_ROW).ravel().take(order).view(np.uint8).reshape(text.shape)
    laid = text
    Xs = X[order]
    cuts = [0, *(np.flatnonzero(Xs[1:] != Xs[:-1]) + 1).tolist(), X.size]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        e = int(Xs[lo])
        body, d = laid[lo:hi, 1:23], digits[lo:hi, 3:20]
        if -4 <= e < 0:                     # "0.", -e - 1 zeros, the digits
            body[:, :1 - e] = np.frombuffer(b"0.000"[:1 - e], np.uint8)
            body[:, 1 - e:18 - e] = d
        else:
            p = max(e, 0) + 1               # digits before the '.'
            body[:, :p] = d[:, :p]
            body[:, p] = ord(".")
            body[:, p + 1:18] = d[:, p:]
            if e < -4:
                body[:, 18:] = np.frombuffer(b"e-%02d" % -e, np.uint8)
    rows = digits
    rows.view(_ROW).ravel()[order] = laid.view(_ROW).ravel()
    return rows


def _text(x: np.ndarray, cols: int) -> tuple[bytes, list[bytes]]:
    """The CSV text of x with a byte 1 in place of each value that Python
    formats, and Python's text of those values."""
    by_python, X, li, rows = _digit_rows(x)
    rows = _lay_out(rows, X)
    rows[:, 0] = ord("-")
    rows[by_python, 0] = 1
    rows[:, -1] = ord(",")
    rows[cols - 1::cols, -1] = ord("\n")
    code = ((X.astype(np.int16) - _X0) * 17 + li) * 2 + (x < 0)
    code[by_python] = len(_KEEP) - 1
    out = rows[_KEEP.take(code, axis=0)].tobytes()
    return out, [b"%.17g" % v for v in x[by_python].tolist()]


def g17_rows(block: np.ndarray) -> bytes:
    """The %.17g CSV rows of a 2-D block, ',' between columns."""
    x = np.ascontiguousarray(block, dtype=np.float64).ravel()
    if not x.size:
        return b""
    out, python_text = _text(x, block.shape[1])
    if not python_text:
        return out
    parts = out.split(b"\1")
    joined = [b""] * (2 * len(parts) - 1)
    joined[::2] = parts
    joined[1::2] = python_text
    return b"".join(joined)
