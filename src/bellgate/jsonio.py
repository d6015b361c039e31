"""Deterministic JSON emission.

The standard encoder prints floats with repr, whose width varies by
value.  CLI output must be byte-identical across runs and carry full
precision, so floats are always rendered with 17 significant digits
and containers keep insertion order.  Parsing stays with the stdlib.
"""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = ["format_float", "dumps", "complex_to_doc"]


def format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    s = format(x, ".17g")
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


def complex_to_doc(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _emit(obj, parts: list[str], indent: int | None, level: int) -> None:
    pad = "" if indent is None else "\n" + " " * (indent * (level + 1))
    end = "" if indent is None else "\n" + " " * (indent * level)
    if obj is None:
        parts.append("null")
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(format_float(float(obj)))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, (complex, np.complexfloating)):
        _emit(complex_to_doc(complex(obj)), parts, indent, level)
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be strings, got {k!r}")
            if i:
                parts.append(",")
            parts.append(pad)
            parts.append(json.dumps(k))
            parts.append(": " if indent is not None else ":")
            _emit(v, parts, indent, level + 1)
        parts.append(end)
        parts.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            parts.append("[]")
            return
        parts.append("[")
        for i, v in enumerate(seq):
            if i:
                parts.append(",")
            parts.append(pad)
            _emit(v, parts, indent, level + 1)
        parts.append(end)
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} deterministically")


def dumps(obj, indent: int | None = None) -> str:
    """Serialize with 17-significant-digit floats and stable ordering."""
    parts: list[str] = []
    _emit(obj, parts, indent, 0)
    return "".join(parts)
