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
other magnitudes), and its text is spliced in.
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


# row ((X - _X0) * 17 + li) * 2 + sign; the last keeps only the separator,
# after a value that Python formats
_KEEP = np.frombuffer(b"".join(_keep_rows(X, li) for X in range(_X0, _X0 + _NX)
                               for li in range(17))
                      + bytes(_W - 1) + b"\1", bool).reshape(-1, _W)


def _digits17(bits: np.ndarray, X: np.ndarray) -> np.ndarray:
    """round-half-even(|x| * 10**(16 - X)) from the bits of |x|.

    |x| = m * 2**(e - 1075) with m of 53 bits, so the result is the 128-bit
    product m * 5**(16 - X) (32-bit partial products; 5**27 < 2**64) shifted
    right by 1 to 63 bits.
    """
    k = 16 - X
    shift = (X + 1059).astype(_U) - (bits >> _U(52))
    m = (bits & _U((1 << 52) - 1)) | _U(1 << 52)
    m0, m1 = m & _M32, m >> _U(32)
    q0, q1 = _Q0[k], _Q1[k]
    p00 = m0 * q0
    mid = m0 * q1 + m1 * q0 + (p00 >> _U(32))      # < 2**64: m1 < 2**21
    lo = (p00 & _M32) | (mid << _U(32))
    hi = m1 * q1 + (mid >> _U(32))
    # add half an output unit, less one unless the kept part is odd
    lo_r = lo + (_U(1) << (shift - _U(1))) - _U(1) + ((lo >> shift) & _U(1))
    hi += lo_r < lo
    return (hi << (_U(64) - shift)) | (lo_r >> shift)


def g17_rows(block: np.ndarray) -> bytes:
    """The %.17g CSV rows of a 2-D block, ',' between columns."""
    cols = block.shape[1]
    x = np.ascontiguousarray(block, dtype=np.float64).ravel()
    if not x.size:
        return b""
    a = np.abs(x)
    by_python = ~((a > _LO) & (a < _HI))
    a[by_python] = 1.0
    bits = a.view(_U)
    X = np.maximum(np.floor(np.log10(a)).astype(np.intp), _X0)
    N = _digits17(bits, X)
    fix = np.flatnonzero((N >= _E17) | (N <= _E16))
    if fix.size:
        Xf = np.maximum(X[fix] + np.where(N[fix] >= _E17, 1, -1), _X0)
        Nf = _digits17(bits[fix], Xf)
        up = Nf >= _E17                 # rounded up to the next power of ten
        Nf[up] = _E16
        X[fix], N[fix] = Xf + up, Nf

    # N as five quads: 1 + 4 * 4 digits, the text in bytes 3..19 of a row
    N = N.view(np.intp)                     # N < 10**17 < 2**63
    hi8 = N // 10 ** 8
    lo8 = N - hi8 * 10 ** 8
    quads = [hi8 // 10 ** 8, hi8 // 10 ** 4 % 10 ** 4, hi8 % 10 ** 4,
             lo8 // 10 ** 4, lo8 % 10 ** 4]
    text = np.empty((x.size, 5), np.uint32)
    for j, quad in enumerate(quads):
        text[:, j] = _QUAD[quad]
    # li, the index of the last nonzero digit: past the last quad only
    # where it is 0000
    li = 16 - _QUAD_TZ[quads[4]]
    zero = np.flatnonzero(li == 12)
    run = np.ones(zero.size, bool)
    for quad in quads[3:0:-1]:
        quad = quad[zero]
        li[zero] -= run * _QUAD_TZ[quad]
        run &= quad == 0
    code = ((X - _X0) * 17 + li) * 2 + (x < 0)
    code[by_python] = len(_KEEP) - 1
    keep = _KEEP[code]

    # one body layout per X: lay the rows out sorted by X, then unsort them
    Xb = X.astype(np.int8)
    order = np.argsort(Xb, kind="stable")
    digits = text.view(np.uint8)[order, 3:]
    Xb = Xb[order]
    cuts = [0, *(np.flatnonzero(Xb[1:] != Xb[:-1]) + 1).tolist(), x.size]
    laid = np.empty((x.size, _W), np.uint8)
    laid[:, 0] = ord("-")
    laid[:, -1] = ord(",")
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        e = int(Xb[lo])
        body, d = laid[lo:hi, 1:23], digits[lo:hi]
        if -4 <= e < 0:
            body[:, :1 - e] = np.frombuffer(b"0.000"[:1 - e], np.uint8)
            body[:, 1 - e:18 - e] = d
        else:
            p = max(e, 0) + 1
            body[:, :p] = d[:, :p]
            body[:, p] = ord(".")
            body[:, p + 1:18] = d[:, p:]
            if e < -4:
                body[:, 18:] = np.frombuffer(b"e-%02d" % -e, np.uint8)
    rows = np.empty_like(laid)
    rows[order] = laid
    rows[cols - 1::cols, -1] = ord("\n")
    out = rows[keep].tobytes()

    bad = np.flatnonzero(by_python)
    if not bad.size:
        return out
    ends = np.cumsum(keep.sum(axis=1))
    pieces, start = [], 0
    for i, v in zip(bad.tolist(), x[bad].tolist()):
        cut = int(ends[i]) - 1              # before the value's separator
        pieces += [out[start:cut], b"%.17g" % v]
        start = cut
    pieces.append(out[start:])
    return b"".join(pieces)
