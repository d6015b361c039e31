"""The document layer: the one place that turns documents into text.

A document is a plain dict with a fixed set of keys.  It holds JSON
values only: None, bool, int, float (np.float64 is one), str, and
dicts with text keys, lists and tuples of them; anything else, such as
a numpy integer, a complex number or an ndarray, is refused with
TypeError.  complex_matrix writes a complex matrix as rows of {"re",
"im"} entries and read_complex_matrix reads them back; no other module
knows that format.  CLI output must be byte-identical across runs and
carry full precision, so floats are always rendered with 17
significant digits (not the standard encoder's repr), in JSON and in
CSV alike, and containers keep insertion order, laid out by one rule.
Parsing stays with the stdlib; fields reads a parsed document's keys
exactly.
"""

from __future__ import annotations

import json
import math

from .checks import strict_float

__all__ = ["format_float", "complex_matrix", "read_complex_matrix", "dumps", "dumps_csv", "fields"]


def format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    s = format(x, ".17g")
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


def complex_matrix(m) -> list:
    """The rows of a complex ndarray m, each entry {"re": real part, "im": imaginary part}."""
    return [[{"re": z.real, "im": z.imag} for z in row] for row in m.tolist()]


def read_complex_matrix(rows, kind: str) -> list:
    """complex_matrix's rows read back as complex lists; ValueError ("malformed <kind> document: ...") otherwise."""
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
        raise ValueError(f"malformed {kind} document: matrix must be a list of rows, got {rows!r}")
    name = f"malformed {kind} document: matrix entry"
    return [[complex(*(strict_float(name, v) for v in fields(z, kind, ("re", "im")))) for z in row] for row in rows]


def _emit(obj, parts: list[str], line: str, step: str) -> None:
    """Append obj's text to parts; line is the break and indent of obj's line, step one level's indent."""
    if obj is None:
        parts.append("null")
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif isinstance(obj, int):
        parts.append(str(int(obj)))
    elif isinstance(obj, float):
        parts.append(format_float(obj))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, (dict, list, tuple)):
        is_dict = isinstance(obj, dict)
        items = obj.items() if is_dict else obj
        if not items:
            parts.append("{}" if is_dict else "[]")
            return
        inner = line + step
        sep, colon = "," + inner, ": " if line else ":"
        parts.append("{" if is_dict else "[")
        for i, item in enumerate(items):
            parts.append(sep if i else inner)
            if is_dict:
                key, item = item
                if not isinstance(key, str):
                    raise TypeError(f"JSON object keys must be strings, got {key!r}")
                parts.append(json.dumps(key) + colon)
            _emit(item, parts, inner, step)
        parts.append(line + ("}" if is_dict else "]"))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} deterministically")


def dumps(obj, indent: int | None = None) -> str:
    """Serialize with 17-significant-digit floats and stable ordering."""
    parts: list[str] = []
    _emit(obj, parts, "" if indent is None else "\n", "" if indent is None else " " * indent)
    return "".join(parts)


def _csv_field(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, int) and not isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return format_float(v)
    raise TypeError(f"cannot write {type(v).__name__} to a CSV field")


def dumps_csv(header, rows) -> str:
    """CSV text: the header line, one line per row, a trailing newline.

    A float is written through format_float, an int through str, None as
    an empty field and a string as is.
    """
    lines = [",".join(header)]
    lines += [",".join(_csv_field(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def fields(doc, kind: str, keys, optional=()) -> tuple:
    """The values of a document's keys, in the order given.

    Every key in keys must be present and no key outside keys and
    optional may be; an absent optional key reads as None.  ValueError
    ("malformed <kind> document: ...") otherwise, and for a doc that is
    not a JSON object.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"malformed {kind} document: expected an object, got {doc!r}")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise ValueError(f"malformed {kind} document: missing key {missing[0]!r}")
    unknown = [k for k in doc if k not in keys and k not in optional]
    if unknown:
        raise ValueError(f"malformed {kind} document: unknown key {unknown[0]!r}")
    return tuple(doc[k] for k in keys) + tuple(doc.get(k) for k in optional)
