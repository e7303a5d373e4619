"""Deterministic text serialization: 17-significant-digit numbers, atomic writes.

17 significant digits round-trip any float64 exactly, so written artifacts
reload bit-identically and identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import os


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    return format(float(x), ".17g")


def json_dumps(obj) -> str:
    """JSON text indented by two spaces, floats at 17 significant digits."""
    return _encode(obj, 0) + "\n"


def _encode(obj, depth):
    pad = "  " * (depth + 1)
    close_pad = "  " * depth
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{pad}{json.dumps(str(k))}: {_encode(v, depth + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + close_pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        items = [f"{pad}{_encode(v, depth + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + close_pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def csv_text(header, rows) -> str:
    """CSV text; floats at 17 significant digits, ints verbatim, and a text cell
    quoted as RFC 4180 asks when it holds a comma, a quote or a line break."""
    lines = [",".join(_text_cell(h) for h in header)]
    for row in rows:
        cells = []
        for v in row:
            if hasattr(v, "item"):
                v = v.item()
            if isinstance(v, int):
                cells.append(str(v))
            elif isinstance(v, float):
                cells.append(format_float(v))
            else:
                cells.append(_text_cell(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _text_cell(v) -> str:
    cell = str(v)
    if any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def atomic_write_text(path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see partial output.

    The temp file is created with mode 0666 less the umask, the mode open()
    would give the file (mkstemp would give 0600).
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}.part")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
