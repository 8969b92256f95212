"""Deterministic text serialization helpers.

JSON and CSV output from this package must be byte-reproducible across
runs and across worker counts, so floats are always rendered as "%.17g"
renders them (fmt_float): 17 significant digits, correctly rounded, so
every IEEE double round-trips, with trailing zeros dropped; not the
shortest round-tripping text (0.1 is 0.10000000000000001).  JSON objects
are emitted with sorted keys and LF line endings.  Every result record
derives its JSON from its dataclass fields (Record).

fmt_rows renders a float table in that format with numpy, a block of
rows at a time, for the trajectory CSVs; it gives fmt_float's bytes.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from enum import Enum
from types import SimpleNamespace

import numpy as np


# field(metadata=SKIP) keeps a field out of Record.to_dict()
SKIP = {"json": False}


def plain(obj):
    """obj with Enums as their value, arrays and tuples as lists, and
    records and dicts converted recursively; other values unchanged."""
    if isinstance(obj, Record):
        return obj.to_dict()
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [plain(x) for x in obj]
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    return obj


class Record:
    """Base of the result dataclasses.

    to_dict() holds every dataclass field except those declared
    field(metadata=SKIP), plus the attributes named in JSON_EXTRA, each
    passed through plain().
    """

    JSON_EXTRA = ()

    def to_dict(self) -> dict:
        names = [f.name for f in dataclasses.fields(self)
                 if f.metadata.get("json", True)]
        return {name: plain(getattr(self, name))
                for name in [*names, *self.JSON_EXTRA]}


def fmt_float(x: float) -> str:
    """Decimal text that round-trips the double exactly."""
    if isinstance(x, bool):
        raise TypeError("bool is not a float")
    return format(float(x), ".17g")


# fmt_rows renders |x| in [_FAST_MIN, _FAST_MAX] from its 17-digit
# integer N = round(|x| 10^s) in [1e16, 1e17), s = 16 - k for the decimal
# exponent k of its first digit; 10^s is a table entry, since k lies in
# [-292, 292] once log10 has been corrected by one decade.  Every other
# value keeps fmt_float, as does a value within _TIE of a rounding tie
# when 10^s is inexact (with an exact 10^s a tie is exact and rounds half
# to even).  _WIDTH holds the longest text, "-1.2345678901234567e-308,".
_FAST_MIN, _FAST_MAX = 1e-290, 1e290
_S_MIN, _S_MAX = -275, 308
_K_MIN = 16 - _S_MAX
_TIE = 1e-9
_SPLIT = 134217729.0  # Veltkamp's split of a double into 26-bit halves
ROWS_PER_BLOCK = 512
# bytes of the 32-byte source of one value's text: N as five 4-digit
# groups (digit j of the 17 at _DIGIT + j), "0" and the 3 digits of |k|,
# then _CONST
_DIGIT, _EXP, _MINUS, _ZERO, _DOT, _E, _PLUS, _COMMA, _PAD = 3, 21, 24, \
    25, 26, 27, 28, 29, 30
_CONST = b"-0.e+,\0\0"
_WIDTH = 25


def _template(neg: bool, notation: int, nsig: int) -> list:
    """Source bytes of the text of one value and its comma, padded to
    _WIDTH: notation 0..20 is fixed with decimal exponent notation - 4,
    21..24 scientific with exponent sign and width (+2, +3, -2, -3)."""
    digits = list(range(_DIGIT, _DIGIT + 17))
    out = [_MINUS] if neg else []
    if notation <= 20:
        k = notation - 4
        if k >= 0:
            out += digits[:k + 1]
            if nsig > k + 1:
                out += [_DOT, *digits[k + 1:nsig]]
        else:
            out += [_ZERO, _DOT] + [_ZERO] * (-k - 1) + digits[:nsig]
    else:
        out += digits[:1] + ([_DOT, *digits[1:nsig]] if nsig > 1 else [])
        out += [_E, _MINUS if notation >= 23 else _PLUS]
        out += list(range(_EXP + (notation % 2 == 1), _EXP + 3))
    out.append(_COMMA)
    return out + [_PAD] * (_WIDTH - len(out))


@functools.cache
def _tables() -> SimpleNamespace:
    """The tables of fmt_rows, built on first use from Python ints: by
    s - _S_MIN for s in [_S_MIN, _S_MAX], hi, the double nearest 10^s,
    split into 26-bit halves hi_h + hi_l, and lo, the double nearest
    10^s - hi; groups, the 4 ASCII digits of each n < 10^4 as a uint32;
    templates, the _template of each (sign, notation, nsig); and by
    k - _K_MIN, layouts, the row of (+, k, nsig) less nsig."""
    hi, lo = [], []
    for s in range(_S_MIN, _S_MAX + 1):
        num, den = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
        h = num / den  # int true division rounds correctly
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))
    hi = np.array(hi)
    mant, exp = np.frexp(hi)
    c = mant * _SPLIT
    head = c - (c - mant)
    layouts = [17 * (k + 4 if -4 <= k <= 16 else
                     21 + (abs(k) >= 100) + 2 * (k < 0)) - 1
               for k in range(_K_MIN, 18 - _S_MIN)]
    templates = [_template(neg, notation, nsig) for neg in (False, True)
                 for notation in range(25) for nsig in range(1, 18)]
    return SimpleNamespace(
        hi=hi, hi_h=np.ldexp(head, exp), hi_l=np.ldexp(mant - head, exp),
        lo=np.array(lo),
        groups=(np.arange(10 ** 4, dtype=np.uint16)[:, None]
                // np.array([1000, 100, 10, 1], np.uint16) % 10
                + ord("0")).astype(np.uint8).view(np.uint32).ravel(),
        layouts=np.array(layouts),
        templates=np.array(templates, dtype=np.uint8))


def _scaled(ax, i):
    """|x| 10^s, s = _S_MIN + i, as p + r: p = fl(|x| hi) and r the
    product's rounding error (Dekker's exact product) plus |x| lo,
    within about 1e-14 of the exact value, exact where lo = 0."""
    t = _tables()
    hi, hi_h, hi_l, lo = (a.take(i) for a in (t.hi, t.hi_h, t.hi_l, t.lo))
    p = ax * hi
    c = ax * _SPLIT
    ah = c - (c - ax)
    al = ax - ah
    err = al * hi_l - (((p - ah * hi_h) - al * hi_h) - ah * hi_l)
    return p, err + ax * lo


def _digits17(x):
    """(N, k, slow) for a float array x: N the 17-digit integer of |x|
    and k its decimal exponent, |x| ~ N 10^(k - 16); slow marks the
    values fmt_float renders instead (zeros, subnormals, non-finite and
    values outside [_FAST_MIN, _FAST_MAX], and those within _TIE of a
    rounding tie of an inexact scale)."""
    ax = np.abs(x)
    slow = ~((ax >= _FAST_MIN) & (ax <= _FAST_MAX))
    ax[slow] = 1.0
    i = 16 - _S_MIN - np.floor(np.log10(ax)).astype(np.intp)
    p, r = _scaled(ax, i)
    # log10 may name the neighbouring decade; an X = p + r a hair below
    # 1e16 rounds to 1e16 at this k exactly as 10 X rounds to 1e17
    low, high = (p - 1e16) + r < -1e-6, (p - 1e17) + r >= 0.0
    off = np.flatnonzero(low | high)
    if off.size:
        i[off] += low[off].astype(np.intp) - high[off]
        p[off], r[off] = _scaled(ax[off], i[off])
        bad = ((p[off] - 1e16) + r[off] < -1e-6) \
            | ((p[off] - 1e17) + r[off] >= 0.0)
        slow[off[bad]] = True
    # r is exact where 10^s is (lo = 0), so there a tie rounds half to
    # even: p, an integer above 2^53, is even; elsewhere r is within
    # about 1e-14 of its value and a near-tie keeps fmt_float
    whole = np.rint(r)
    slow |= (np.abs(np.abs(r - whole) - 0.5) < _TIE) \
        & (_tables().lo.take(i) != 0.0)
    n = p.astype(np.int64) + whole.astype(np.int64)
    k = 16 - _S_MIN - i
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    k += carry
    return n, k, slow


def _render(x):
    """(x.size, _WIDTH) bytes: fmt_float(v) + "," of each value of the
    flat float array x, zero-padded."""
    tables = _tables()
    n, k, slow = _digits17(x)
    # N = g0 10^16 + g1 10^12 + g2 10^8 + g3 10^4 + g4; below 10^9 each
    # floor of a quotient by 10^4 is exact in doubles
    g = np.empty((5, x.size))
    top = n // 10 ** 8
    g[4] = n - top * 10 ** 8
    g[2] = top
    np.floor(g[2] / 1e4, out=g[1])
    np.floor(g[1] / 1e4, out=g[0])
    np.floor(g[4] / 1e4, out=g[3])
    g[4] -= g[3] * 1e4
    g[2] -= g[1] * 1e4
    g[1] -= g[0] * 1e4
    src = np.empty((x.size, 8), np.uint32)
    src[:, :5] = tables.groups.take(g.astype(np.intp)).T
    src[:, 5] = tables.groups.take(np.abs(k))
    src[:, 6], src[:, 7] = np.frombuffer(_CONST, np.uint32)
    src = src.view(np.uint8)
    # most values keep all 17 digits; count the others' trailing zeros
    nsig = np.full(x.size, 17)
    zeros = np.flatnonzero(src[:, _DIGIT + 16] == ord("0"))
    nsig[zeros] -= np.argmax(src[zeros, _DIGIT + 16:_DIGIT - 1:-1]
                             != ord("0"), axis=1)
    # the templates of negative values follow those of positive ones
    row = tables.layouts.take(k - _K_MIN) + (x < 0) * (25 * 17) + nsig
    text = src.ravel().take(np.add(
        tables.templates.take(row, axis=0),
        np.arange(0, src.size, 32)[:, None], dtype=np.intp))
    for j in np.flatnonzero(slow):
        value = (fmt_float(x[j]) + ",").encode()
        text[j] = 0
        text[j, :len(value)] = np.frombuffer(value, np.uint8)
    return text


def fmt_rows(table, end: str):
    """The text of a 2-D float table, yielded as bytes ROWS_PER_BLOCK
    rows at a time: row i is fmt_float(x) + "," for each x of table[i],
    then end (which holds no NUL)."""
    table = np.asarray(table, dtype=float)
    tail = np.frombuffer(end.encode(), np.uint8)
    for start in range(0, table.shape[0], ROWS_PER_BLOCK):
        block = table[start:start + ROWS_PER_BLOCK]
        text = _render(block.ravel()).reshape(block.shape[0], -1)
        rows = np.concatenate(
            (text, np.broadcast_to(tail, (block.shape[0], tail.size))),
            axis=1)
        yield rows[rows != 0].tobytes()


def _emit(obj, out: list, indent: int) -> None:
    pad = "  " * indent
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite float {obj} not representable in JSON")
        out.append(fmt_float(obj))
    elif isinstance(obj, str):
        out.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"')
                   .replace("\n", "\\n").replace("\t", "\\t") + '"')
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(obj.keys())
        for i, k in enumerate(keys):
            if not isinstance(k, str):
                raise TypeError(f"JSON keys must be strings, got {k!r}")
            out.append("  " * (indent + 1) + '"' + k + '": ')
            _emit(obj[k], out, indent + 1)
            out.append(",\n" if i + 1 < len(keys) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(obj):
            out.append("  " * (indent + 1))
            _emit(item, out, indent + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj) -> str:
    """Canonical JSON text: sorted keys, %.17g floats, LF, no trailing space."""
    out: list = []
    _emit(obj, out, 0)
    out.append("\n")
    return "".join(out)
