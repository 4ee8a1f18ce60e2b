"""The ``%.17g`` text of whole float64 arrays, formed with NumPy.

``format_doubles`` writes every element x of a 1-D or 2-D array as
``format(x, ".17g")`` does.  Those 17 digits are the integer
D = round-half-even(|x| 10^(16 - E)), E the decimal exponent of x, which is
what CPython's correctly rounded conversion prints (Steele & White, PLDI
1990; Gay, AT&T NAM 90-10, 1990).  For 1e-4 <= |x| < 1e15, where ``%.17g``
writes fixed notation, D is formed exactly: x = M 2^(e - 53) with a 53-bit
integer M, so D is M 5^p shifted right by s = 53 - e - p, p = 16 - E, and
rounded to even on the bits shifted out.  A D outside [1e16, 1e17), a
round-up to the next power of ten, and every value out of that range go
through ``format`` itself, one element at a time; zeros and non-finite
values are fixed words.

Each value's text is laid out in one row of a (values, 25) byte matrix: the
sign, the ``0.000`` that leads an exponent below 0, the 17 digits with the
point after digit E, and the separator.  A keep mask per (E, digits kept)
drops the slots a value does not use, trailing zeros of the fraction and a
point with no fraction after it among them: those slots are set to NUL, and
deleting every NUL from the matrix's bytes lays the values end to end.
"""

from __future__ import annotations

import functools

import numpy as np

_CHUNK = 2048  # values per pass; the largest temporary, 32 B per value, takes 64 KiB
_WIDTH = 25  # slots per value: sign, "0.000", 17 digits and a point, separator
_DIGITS = 6  # the first digit's slot
_LOW, _HIGH = -4, 14  # the decimal exponents E of the exact path
_U = np.uint64


@functools.cache
def _tables():
    """Lookup tables, made on first use, so that importing builds nothing."""
    g = np.arange(10000)
    # the four ASCII digits of 0000..9999, one uint32 each, and their trailing zeros
    quads = np.empty((10000, 4), np.uint8)
    zeros = np.zeros(10000, np.int64)
    for j, d in enumerate((1000, 100, 10, 1)):
        quads[:, j] = g // d % 10 + 48
        zeros += g % (10000 // d) == 0
    # the smallest double >= 10^k, k from _LOW to _HIGH + 1 (float("1e-4") to
    # float("1e-1") round up), and by E, 10^p and 5^p, p = 16 - E, both exact
    tens = np.array([float(f"1e{k}") for k in range(_LOW, _HIGH + 2)])
    scales = np.array([float(10 ** (16 - k)) for k in range(_LOW, _HIGH + 1)])
    fives = np.array([5 ** (16 - k) for k in range(_LOW, _HIGH + 1)], dtype=_U)
    # keep masks by (E, significant digits kept); the sign slot is set per value
    exp = np.arange(_LOW, _HIGH + 1)[:, None, None]
    col = np.arange(_WIDTH)
    kept = np.maximum(np.arange(18)[:, None], exp + 1)  # the integer part stays
    length = kept + ((exp >= 0) & (kept > exp + 1))  # a point, where a fraction follows
    keep = ((col >= 1) & (exp < 0) & (col < 2 - exp)) | (
        (col >= _DIGITS) & (col < _DIGITS + length)
    )
    keep[..., -1] = True
    # by E: 1 where a slot keeps its byte, 0 where it takes its left
    # neighbour's, which moves the fraction's digits one slot on for the point
    exp = exp[:, 0]
    in_place = (col < _DIGITS + 1 + exp) | (col == _WIDTH - 1) | (exp < 0)
    template = np.zeros(_WIDTH, np.uint8)
    template[:_DIGITS] = np.frombuffer(b"-0.000", np.uint8)
    template[-1] = ord(",")
    return (
        quads.view(np.uint32).ravel(), zeros, tens, scales, fives,
        keep.reshape(-1, _WIDTH), in_place.view(np.uint8), template,
    )


def format_doubles(values, null=None):
    """Text of a 1-D or 2-D float array: cells joined by commas, rows by line feeds.

    Every cell reads as ``format(x, ".17g")``, ``-0`` included.  Non-finite
    values print as ``nan``/``inf``/``-inf``, as ``format`` spells them,
    unless ``null`` gives another spelling (JSON has no non-finite numbers
    and writes ``null``; a CSV cell is left empty).
    """
    a = np.asarray(values, dtype=float)
    rows, cols = a.shape if a.ndim == 2 else (1, a.size)
    if a.size == 0:
        return "\n" * max(rows - 1, 0)
    a = a.ravel()
    chunks = (_chunk_text(a[lo : lo + _CHUNK], lo, cols, null) for lo in range(0, a.size, _CHUNK))
    return "".join(chunks)[:-1]


def _chunk_text(x, start, cols, null):
    """The text of x, cells start to start + x.size of the array, each
    value followed by its separator."""
    quads, zeros, tens, scales, fives, keep_by_code, in_place, template = _tables()
    k = x.size
    out = np.empty((k, _WIDTH), np.uint8)
    out[:] = template
    out[cols - 1 - start % cols :: cols, -1] = ord("\n")

    ax = np.abs(x)
    fast = (ax >= 1e-4) & (ax < 1e15)  # False for NaN too
    ax = np.where(fast, ax, 1.0)  # the others take no part, and raise no warning
    mant, e = np.frexp(ax)
    exp = ((e - 1) * 78913) >> 18  # floor((e - 1) log10 2), exact for |e| < 1600
    exp -= _LOW
    exp += ax >= tens[exp + 1]  # now E - _LOW
    # D = M 5^p >> s: a float estimate d of it within 12 units, corrected by
    # the remainder M 5^p - d 2^s, which the low 64 bits of both give exactly
    s = (37 + _LOW - e + exp).astype(np.int64)
    d = (ax * scales[exp]).astype(np.int64)
    m = (mant * 9007199254740992.0).astype(_U)
    rest = (m * fives[exp] - (d.view(_U) << s.view(_U))).view(np.int64)
    carry = rest >> s
    d += carry
    rest -= carry << s
    d += rest + (d & 1) > 1 << (s - 1)  # above half, or half and d odd
    ok = fast & (d >= 10**16) & (d < 10**17)

    # the first digit, then four groups of four through the table
    top = d // 100000000
    groups = np.empty((k, 4), np.int64)
    groups[:, 2] = d - top * 100000000
    lead = top // 100000000
    groups[:, 0] = top - lead * 100000000
    groups[:, 1] = groups[:, 0] % 10000
    groups[:, 0] //= 10000
    groups[:, 3] = groups[:, 2] % 10000
    groups[:, 2] //= 10000
    out[:, _DIGITS] = lead + 48
    out[:, _DIGITS + 1 : _DIGITS + 17] = quads[groups].view(np.uint8)
    tz = zeros[groups[:, 3]]
    for j in (2, 1, 0):  # rows whose later groups are all zero
        z = np.flatnonzero(tz == 4 * (3 - j))
        if not z.size:
            break
        tz[z] += zeros[groups[z, j]]

    # the fraction moves one slot on, and the point goes where it was
    flat = out.reshape(-1)
    body = np.empty_like(flat)
    np.subtract(flat[1:], flat[:-1], out=body[1:])
    body[1:] *= np.take(in_place, exp, axis=0).reshape(-1)[1:]
    body[1:] += flat[:-1]
    body[0] = flat[0]
    point = np.flatnonzero(exp >= -_LOW)
    body[point * _WIDTH + (_DIGITS + 1 + _LOW) + exp[point]] = ord(".")
    keep = np.take(keep_by_code, exp * 18 + 17 - tz, axis=0)
    np.less(x, 0.0, out=keep[:, 0])

    if not ok.all():
        _literals(x, np.flatnonzero(~ok), body.reshape(k, _WIDTH), keep, null)
    body *= keep.reshape(-1)  # a NUL in every slot left out
    return body.tobytes().translate(None, b"\0").decode("ascii")


def _literals(x, rows, out, keep, null):
    """Write the values of rows, those the exact path does not take, from
    slot 0, NUL-padded: zeros and non-finite values as fixed words, the
    others as ``format`` writes them."""
    v = x[rows]
    words = ["0", "-0", "nan", "inf", "-inf"] if null is None else ["0", "-0"] + [null] * 3
    # 0 and 1 the zeros, 2 to 4 NaN, inf and -inf, 5 any other value
    kind = np.where(np.isfinite(v), np.where(v == 0, np.signbit(v), 5), 2 + np.isinf(v) + (v < 0))
    text = np.array(words, dtype="S24")[np.minimum(kind, 4)]
    other = np.flatnonzero(kind == 5)
    text[other] = [format(value, ".17g") for value in v[other].tolist()]
    out[rows, :24] = text.view(np.uint8).reshape(-1, 24)
    keep[rows] = True
