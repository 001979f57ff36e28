"""Deterministic report serialization.

All floating-point output is rendered with up to 17 significant digits
(round-trip exact for IEEE doubles) and dict keys are emitted sorted, so
repeated runs of the same scenario produce byte-identical payloads.
Complex numbers are serialized as two-element [re, im] arrays.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

__all__ = ["format_float", "format_floats", "dumps_json", "write_json",
           "write_csv"]


def format_float(value: float) -> str:
    value = float(value)
    if value != value or value in (float("inf"), float("-inf")):
        raise ValueError("cannot serialize non-finite float")
    text = format(value, ".17g")
    # Normalize "-0" so payload bytes do not depend on rounding direction.
    return "0" if text == "-0" else text


def format_floats(values) -> List[str]:
    """:func:`format_float` of every entry of a float array, flattened.

    Finiteness is checked once for the whole array, and adding ``+0.0``
    turns ``-0.0`` (the only value rendered ``-0``) into ``0.0``, so each
    entry costs one formatting step and renders the same text.
    """
    import numpy as np

    values = np.asarray(values, dtype=float) + 0.0
    if not np.isfinite(values).all():
        raise ValueError("cannot serialize non-finite float")
    return [f"{v:.17g}" for v in values.ravel().tolist()]


def _escape(text: str) -> str:
    out = ['"']
    for ch in text:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def _emit(obj, pieces, indent):
    pad = "  " * indent
    if obj is None:
        pieces.append("null")
    elif obj is True:
        pieces.append("true")
    elif obj is False:
        pieces.append("false")
    elif isinstance(obj, str):
        pieces.append(_escape(obj))
    elif isinstance(obj, int):
        pieces.append(str(obj))
    elif isinstance(obj, float):
        pieces.append(format_float(obj))
    elif isinstance(obj, complex):
        pieces.append(f"[{format_float(obj.real)}, {format_float(obj.imag)}]")
    elif isinstance(obj, dict):
        keys = list(obj)
        if any(not isinstance(k, str) for k in keys):
            raise TypeError("JSON object keys must be strings")
        if not keys:
            pieces.append("{}")
            return
        pieces.append("{\n")
        for i, key in enumerate(sorted(keys)):
            pieces.append("  " * (indent + 1))
            pieces.append(_escape(key))
            pieces.append(": ")
            _emit(obj[key], pieces, indent + 1)
            pieces.append(",\n" if i + 1 < len(keys) else "\n")
        pieces.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            pieces.append("[]")
            return
        pieces.append("[")
        for i, item in enumerate(obj):
            _emit(item, pieces, indent)
            if i + 1 < len(obj):
                pieces.append(", ")
        pieces.append("]")
    else:
        # numpy scalars and similar duck types
        if hasattr(obj, "item"):
            _emit(obj.item(), pieces, indent)
        else:
            raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def dumps_json(payload) -> str:
    pieces = []
    _emit(payload, pieces, 0)
    pieces.append("\n")
    return "".join(pieces)


def write_json(path, payload) -> None:
    data = dumps_json(payload)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(data)


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    if hasattr(value, "item"):
        return _cell(value.item())
    text = str(value)
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    write_csv_lines(path, header, [",".join(_cell(v) for v in row)
                                   for row in rows])


def write_csv_lines(path, header: Sequence[str], lines: Iterable[str]) -> None:
    """Write a CSV whose data lines are already rendered."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join([",".join(header), *lines]) + "\n")
