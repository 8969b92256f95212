"""Deterministic text serialization helpers.

JSON and CSV output from this package must be byte-reproducible across
runs and across worker counts, so floats are always rendered with the
shortest-17 significant-digit form (%.17g round-trips every IEEE double)
and JSON objects are emitted with sorted keys and LF line endings.
Every result record derives its JSON from its dataclass fields (Record).
"""

from __future__ import annotations

import dataclasses
import math
from enum import Enum

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
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(float(x), ".17g")


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
