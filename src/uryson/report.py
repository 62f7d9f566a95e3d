"""Deterministic report serialization.

Reports are rendered to JSON text by a small custom emitter rather than
``json.dumps`` so the output is byte-stable across platforms and Python
versions: keys are sorted, floats are printed with 12 significant digits,
``-0.0`` is normalized to ``0.0``, and non-finite numbers are rejected
outright (a report containing NaN is a bug upstream, not a formatting
problem).  The emitter walks a report once, rendering the domain objects
(``Vector``, ``Mask``), tuples and non-string keys itself, and quotes
strings with its own ASCII escaper, which gives the bytes of
``json.dumps(s, ensure_ascii=True)``.
"""

from __future__ import annotations

import math
import re
from typing import Any

from .lattice import Mask, Vector

__all__ = ["format_float", "dumps", "csv_table"]

_INDENT = 2

# what a JSON string escapes in ASCII output: quote, backslash, and every
# code point outside the printable ASCII range 0x20..0x7e
_ESCAPED = re.compile(r'[\\"]|[^ -~]')
_SHORT_ESCAPES = {
    "\\": "\\\\", '"': '\\"', "\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r", "\t": "\\t",
}


def _escape(m: re.Match) -> str:
    ch = m.group()
    short = _SHORT_ESCAPES.get(ch)
    if short is not None:
        return short
    n = ord(ch)
    if n < 0x10000:
        return f"\\u{n:04x}"
    n -= 0x10000  # an astral character as a surrogate pair
    return f"\\u{0xD800 | (n >> 10):04x}\\u{0xDC00 | (n & 0x3FF):04x}"


def _quote(s: str) -> str:
    """s as a JSON string literal in ASCII."""
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return '"' + s + '"'  # nothing to escape: the common case, without a scan
    return '"' + _ESCAPED.sub(_escape, s) + '"'


def format_float(x: float) -> str:
    """Render a float with 12 significant digits, ``-0.0`` as ``0``."""
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite value in report")
    if x == 0.0:
        return "0"
    s = format(float(x), ".12g")
    # ".12g" may emit bare exponents like "1e-09"; that is fine for JSON.
    return s


def _emit(obj: Any, out: list[str], level: int) -> None:
    """Append the JSON text of obj: a Vector as its coordinates, a Mask as
    its sorted indices, a tuple as a list, and a dict under ``str`` keys."""
    pad = " " * (_INDENT * level)
    pad_in = " " * (_INDENT * (level + 1))
    if isinstance(obj, Vector):
        obj = obj.coords
    elif isinstance(obj, Mask):
        obj = sorted(obj.indices())
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(pad_in)
            _emit(v, out, level + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        # keys as strings; a later key equal as a string replaces the value
        obj = {str(k): v for k, v in obj.items()}
        keys = sorted(obj)
        out.append("{\n")
        for i, k in enumerate(keys):
            out.append(pad_in + _quote(k) + ": ")
            _emit(obj[k], out, level + 1)
            out.append(",\n" if i + 1 < len(keys) else "\n")
        out.append(pad + "}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj: Any) -> str:
    """Canonical JSON text: sorted keys, ``.12g`` floats, two-space indent,
    trailing newline."""
    out: list[str] = []
    _emit(obj, out, 0)
    out.append("\n")
    return "".join(out)


def csv_table(header: list[str], rows: list[list[Any]]) -> str:
    """Render a table as CSV text with ``\\n`` line endings.

    Floats go through the same 12-significant-digit formatting as the JSON
    path so the two outputs never disagree on a value.
    """
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [format_float(v) if isinstance(v, float) else v for v in row]
        )
    return buf.getvalue()
