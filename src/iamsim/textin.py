"""UTF-8 input files, and input values in text output.

Every input file (scenario, requests, audit log, verb table) is UTF-8 text.
A reader opens one with :func:`open_text`, which turns a byte that is not
UTF-8 into a lone surrogate rather than raising wherever the decoder's
buffer happens to end, and checks what it read with :func:`utf8_problem`,
so that its own error names the line of the first such byte. A text report
prints an input value through :func:`shown`, so that it cannot forge a line.
"""

from __future__ import annotations

import json
import re

_QUOTED_RE = re.compile(r'[\x00-\x1f"\\]')


def open_text(path):
    """``open(path)`` for reading UTF-8 text that may hold stray bytes."""
    return open(path, "r", encoding="utf-8", errors="surrogateescape")


def utf8_problem(text: str, path, first_line: int = 1) -> str | None:
    """None when ``text``, read through :func:`open_text`, was all UTF-8;
    otherwise ``path:line: not UTF-8: byte 0xNN`` for its first bad byte,
    with ``text`` starting at line ``first_line`` of the file."""
    if text.isascii():
        return None
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:  # only a stray byte decodes to a lone surrogate
        line = first_line + text.count("\n", 0, exc.start)
        return f"{path}:{line}: not UTF-8: byte 0x{ord(text[exc.start]) - 0xDC00:02x}"
    return None


def shown(value: str) -> str:
    """An input value in a text report, JSON-quoted when it holds a control
    character, ``"`` or ``\\``, so that one row stays one line."""
    return json.dumps(value, ensure_ascii=False) if _QUOTED_RE.search(value) else value
