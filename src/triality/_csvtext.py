"""CSV text of numpy columns, byte for byte that of Python's "%.17g" (floats),
"%d" (non-negative ints) and "%s" (ASCII str), made a column at a time; any
other column raises ValueError.

Every value fills NUL-padded byte slots of one row of a matrix per line, and
bytes.translate(None, b"\0") squeezes the padding out of the matrix's bytes.
A float's digits come from a double-double scaling by 10^(16-e)
(_significands, with Dekker's error-free TwoProduct, Numer. Math. 18, 1971)
and its text from the %g rule as operations on little-endian words
(_float_words).  The scaling proves its own rounding; every float it does
not prove goes through Python's own "%.17g" (the scheme of Loitsch, PLDI
2010), once per distinct bit pattern: nan, +-inf, +-0, magnitudes outside
[1e-280, 1e280], values just below a power of ten and inexact near-ties.
Ints get their decimal digits and ASCII str arrays their code points.  A
(table, index) column of a small float table takes its text words from the
table's, made once (table_column).  fields.write_csv, the one CSV writer,
imports this module on its first call.
"""
from __future__ import annotations

import functools

import numpy as np

#: rows of a piece squeezed and written at once
_SQUEEZE_ROWS = 1024

#: |x| outside [_FAST_MIN, _FAST_MAX] goes to "%.17g": there 10^(16-e) and its
#: error terms are normal doubles
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
#: a scaled value this close to a half-integer goes to "%.17g" unless its
#: scaling was exact: the computed value is off by less than about 1e-14
_TIE_BAND = 1e-9
#: Dekker's splitter 2^27 + 1
_SPLIT = 134217729.0
#: bytes per float, five words: sign and "0.000" prefix; 24 bytes of digits
#: and point; "e+308" and, in the last byte, the separator
_FLOAT_WIDTH = 40
#: the scale factors 10^k held as hi + lo, for k = 16 - e in [_K_MIN, _K_MAX]
_K_MIN, _K_MAX = -270, 300
#: the per-exponent tables cover decimal exponents e in [_E_MIN, -_E_MIN]
_E_MIN = -300
#: little-endian words: byte b of a row of words is bits 8*(b % 8) and up of word b // 8
_WORD = np.dtype("<u8")


def _words(chars: np.ndarray) -> np.ndarray:
    """Rows of bytes (a multiple of 8 wide) as rows of little-endian words."""
    return np.ascontiguousarray(chars, dtype=np.uint8).view(_WORD)


@functools.cache
def _digit_groups() -> tuple[np.ndarray, np.ndarray]:
    """For every integer below 10^4: its 4 digit characters as the low half
    of a word, and its count of trailing zero digits (4 for 0)."""
    k = np.arange(10_000, dtype=np.int32)
    chars = np.zeros((k.size, 8), np.uint8)
    zeros = np.zeros(k.size, np.int8)
    for i in range(4):
        chars[:, 3 - i] = k // 10 ** i % 10 + ord("0")
        zeros += k % 10 ** (i + 1) == 0
    return _words(chars).ravel(), zeros


@functools.cache
def _exponent_words() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per decimal exponent e (index e - _E_MIN) of a 17-digit value: the
    number of digits before the point, the word before the digits ("0.000"
    after a free sign byte, for fixed e < 0) and the word after them
    ("e+XX" for e < -4 or e >= 17)."""
    e = np.arange(_E_MIN, -_E_MIN + 1)
    fixed = (e >= -4) & (e < 17)
    whole = np.where(fixed, np.maximum(e + 1, 0), 1)
    before = np.zeros((e.size, 8), np.uint8)
    before[:, 1:6] = np.where((fixed & (e < 0))[:, None] & (np.arange(5) < 1 - e[:, None]),
                              np.frombuffer(b"0.000", np.uint8), 0)
    m = np.abs(e)
    after = np.zeros((e.size, 8), np.uint8)
    after[:, 0] = ord("e")
    after[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    after[:, 2] = np.where(m < 100, 0, m // 100 + ord("0"))
    after[:, 3] = m // 10 % 10 + ord("0")
    after[:, 4] = m % 10 + ord("0")
    after[fixed] = 0
    return whole, _words(before).ravel(), _words(after).ravel()


@functools.cache
def _body_masks() -> np.ndarray:
    """Column whole*18 + keep: three 3-word masks over the 24 digit bytes, for
    a value with `whole` digits before the point and `keep` digits in all.
    Digit i (1-based) sits in byte i + 2.  The first mask keeps the digits
    before the point, the second the kept digits after it once shifted up
    one byte, and the third holds the point itself, if there is a fraction
    and a digit before it."""
    whole, keep = np.divmod(np.arange(18 * 18), 18)
    b = np.arange(24)
    low = (b >= 3) & (b < whole[:, None] + 3)
    high = (b > whole[:, None] + 3) & (b <= keep[:, None] + 3)
    point = (b == whole[:, None] + 3) & ((keep > whole) & (whole > 0))[:, None]
    byte = np.uint8
    masks = np.concatenate([low * byte(0xFF), high * byte(0xFF), point * byte(ord("."))], axis=1)
    return _words(masks).T.copy()


@functools.cache
def _powers_of_ten() -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) at index k - _K_MIN: hi = fl(10^k) and lo = fl(10^k - hi),
    from exact integer arithmetic (Python's int division rounds correctly)."""
    pairs = []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        hi = num / den
        hn, hd = hi.as_integer_ratio()
        pairs.append((hi, (num * hd - hn * den) / (den * hd)))
    hi, lo = np.array(pairs).T.copy()
    return hi, lo


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10^(16-e) as p + t: p = fl(a*hi) and t the rest, Dekker's
    TwoProduct error of a*hi plus a*lo.  t is off by less than about 1e-14,
    and is exact where 10^(16-e) is a double (lo = 0)."""
    k = 16 - e - _K_MIN
    hi, lo = (table[k] for table in _powers_of_ten())
    p = a * hi
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    c = _SPLIT * hi
    hh = c - (c - hi)
    hl = hi - hh
    return p, (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo


def _significands(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(N, e, unproved) of finite a in [_FAST_MIN, _FAST_MAX]: N is a rounded
    to 17 significant digits as an integer in [1e16, 1e17), e its decimal
    exponent (a ~ N * 10^(e-16)), unproved the indices whose rounding this
    cannot prove.  N and e have no meaning at unproved indices."""
    e = np.floor(np.log10(a)).astype(np.int64)
    p, t = _scaled(a, e)
    f = np.floor(t)
    off = t - (f + 0.5)          # exact near a half-integer (Sterbenz)
    n = p.astype(np.int64) + f.astype(np.int64) + (off > 0)
    near = np.flatnonzero(np.abs(off) < _TIE_BAND)
    exact = (e[near] >= -6) & (e[near] <= 16)      # 10^(16-e) is a double
    tie = near[exact & (off[near] == 0)]
    n[tie] += n[tie] & 1                           # half to even, as "%.17g"
    # e is one too high where log10 rounds up to a power of ten: y = p + t
    # then lies below 1e16, where n may still round up to 1e16, so y is
    # tested (near 1e16, p - 1e16 is exact).  e is one too low where log10
    # rounds down past one: n then reaches 1e17, as where y rounds up to 1e17.
    low = (p < 1.001e16) & ((p - 1e16) + t < 0)
    return n, e, np.concatenate([near[~exact], np.flatnonzero(low | (n >= 10 ** 17))])


def _float_words(x: np.ndarray, out: np.ndarray) -> None:
    """Write the "%.17g" text of every float64 of x into the (x.size, 5)
    words of out, NUL-padded; the last byte stays free for a separator.

    The %g rule at 17 digits: a decimal exponent e in [-4, 17) prints fixed,
    else as d.ddd and e+XX (at least two exponent digits); either way the
    trailing zeros of the fraction, and a bare point, are dropped.  The
    words hold the sign and "0.000" prefix, three words of digits and point,
    and the exponent.  Only the values in the fast range get digits made;
    nan, +-inf, +-0, values outside that range and those whose rounding
    _significands cannot prove are formatted by Python, each distinct bit
    pattern once (so -0.0 stays apart from 0.0).
    """
    a = np.abs(x)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    at = np.flatnonzero(fast)
    rows = slice(None) if at.size == x.size else at     # a view when every value is fast
    n, e, unproved = _significands(a[rows])

    # 4-digit groups of n, least significant first, and its trailing zeros
    chars, zeros = _digit_groups()
    group = [None] * 5
    trailing = np.zeros(n.size, np.int64)
    running = np.ones(n.size, bool)             # every group so far is 0000
    for j in range(4, 0, -1):
        q = n // 10_000
        r = n - q * 10_000
        group[j] = chars[r]
        trailing += running * zeros[r]
        running &= r == 0
        n = q
    group[0] = chars[n]                         # "000d": n >= 1e16
    digits = (group[0] | group[1] << 32, group[2] | group[3] << 32, group[4])
    whole_of, before, after = _exponent_words()
    ei = e - _E_MIN
    whole = whole_of[ei]
    layout = whole * 18 + np.maximum(17 - trailing, whole)
    masks = _body_masks()

    out[rows, 0] = before[ei] | np.where(x[rows] < 0, _WORD.type(ord("-")), 0)
    carry = 0
    for k, w in enumerate(digits):
        shifted = w << 8 | carry                # digit bytes one place up
        carry = w >> 56
        out[rows, 1 + k] = ((w & masks[k].take(layout)) | (shifted & masks[3 + k].take(layout))
                            | masks[6 + k].take(layout))
    out[rows, 4] = after[ei]

    fast[at[unproved]] = False
    slow = np.flatnonzero(~fast)
    if slow.size:
        bits, inverse = np.unique(x[slow].view(np.int64), return_inverse=True)
        text = np.array([b"%.17g" % v for v in bits.view(np.float64).tolist()], f"S{_FLOAT_WIDTH}")
        out.view(f"S{_FLOAT_WIDTH}")[slow, 0] = text[inverse]


def _int_slots(col: np.ndarray) -> np.ndarray:
    """"%d" text of a non-negative int column: as many digit slots as the
    largest value needs, leading zeros as NUL.  A negative int raises
    ValueError."""
    if np.any(col < 0):
        raise ValueError("write_csv: an int column holds a negative value")
    r = col.astype(np.uint64)
    width = len(str(int(r.max()))) if r.size else 1
    out = np.empty((r.size, width), np.uint8)
    for j in range(width - 1, -1, -1):
        q = r // 10
        out[:, j] = np.where((r > 0) | (j == width - 1), r - q * 10 + ord("0"), 0)
        r = q
    return out


def _text_slots(col: np.ndarray) -> np.ndarray:
    """"%s" text of an ASCII str column: its code points as bytes.  Any other
    column (object, bool, non-ASCII text, or a NUL inside the text, which
    would be squeezed out with the padding) raises ValueError."""
    points = col.view(np.uint32).reshape(col.size, -1) if col.dtype.kind == "U" else None
    if points is None or points.max(initial=0) >= 128:
        raise ValueError(f"write_csv: not a column of ASCII str: {col.dtype}")
    pad = points == 0                           # numpy drops trailing NULs
    if np.any(pad[:, :-1] & ~pad[:, 1:]):
        raise ValueError("write_csv: a text value contains a NUL character")
    return points.astype(np.uint8)


def table_column(table, index, words: dict, key, small: int):
    """A (table, index) column of write_csv as write_piece takes it: the
    table's text words and the index, for a float table of at most `small`
    values, else the table and the index, gathered a piece at a time.  The
    words dict holds the text of the last small table seen under key, so a
    table passed again (the same object) is not formatted again.  An index
    that is not a 1-D integer array inside the table raises ValueError."""
    values, index = np.asarray(table), np.asarray(index)
    if (values.ndim != 1 or index.ndim != 1 or index.dtype.kind not in "iu"
            or index.size and (index.min() < 0 or index.max() >= values.size)):
        raise ValueError("write_csv: a table index must be a 1-D integer array inside its 1-D table")
    if values.dtype.kind != "f" or values.size > small:
        return values, index
    if words.get(key, (None,))[0] is not table:
        text = np.empty((values.size, _FLOAT_WIDTH // 8), _WORD)
        _float_words(values.astype(np.float64, copy=False), text)
        words[key] = table, text
    return words[key][1], index


def piece(col, rows: slice):
    """The rows of a write_csv column (an array, or a pair from table_column)
    that one piece writes: an array, or a pair (text words, index)."""
    if not isinstance(col, tuple):
        return col[rows]
    source, index = col
    return (source, index[rows]) if source.ndim == 2 else source[index[rows]]


def length(col) -> int:
    """Row count of a write_csv column, an array or a pair."""
    return len(col[1] if isinstance(col, tuple) else col)


def write_piece(fh, cols: list) -> None:
    """Write the CSV lines of equal-length columns, each an array or a pair
    (text words, index) from piece().  Each column fills a run of words of
    one matrix row per line, its separator in the run's last byte; the
    matrix's bytes with the NULs squeezed out are the lines."""
    slots = [None if isinstance(c, tuple) or c.dtype.kind == "f" else _int_slots(c)
             if c.dtype.kind in "iu" else _text_slots(c) for c in cols]
    words = [_FLOAT_WIDTH // 8 if sl is None else sl.shape[1] // 8 + 1 for sl in slots]
    rows = np.zeros((length(cols[0]), sum(words)), _WORD)
    text = rows.view(np.uint8)
    at = 0
    for c, sl, k in zip(cols, slots, words):
        if isinstance(c, tuple):    # unbuffered: table_column checked the index
            np.take(c[0], c[1], axis=0, out=rows[:, at:at + k], mode="clip")
        elif sl is None:
            _float_words(c.astype(np.float64, copy=False), rows[:, at:at + k])
        else:
            text[:, 8 * at:8 * at + sl.shape[1]] = sl
        at += k
        text[:, 8 * at - 1] = ord(",")
    text[:, -1] = ord("\n")
    for start in range(0, len(text), _SQUEEZE_ROWS):
        fh.write(text[start:start + _SQUEEZE_ROWS].tobytes().translate(None, b"\0"))
