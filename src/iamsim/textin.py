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

_QUOTED_RE = re.compile('[\x00-\x1f"\\\\\x85\u2028\u2029\ud800-\udfff]')
# line breaks to str.splitlines() beyond the controls, and lone surrogates,
# which cannot be written as UTF-8: JSON-quoted with ASCII escapes
_ESCAPED_RE = re.compile('[\x85\u2028\u2029\ud800-\udfff]')


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
    character, ``"``, ``\\``, U+0085, U+2028, U+2029 or a lone surrogate, so
    that one row stays one line and can be written as UTF-8. Only a value
    holding one of the last four has its non-ASCII characters escaped."""
    if not _QUOTED_RE.search(value):
        return value
    return json.dumps(value, ensure_ascii=_ESCAPED_RE.search(value) is not None)
