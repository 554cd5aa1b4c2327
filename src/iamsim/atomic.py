"""Atomic output files: write beside the target, then rename into place.

A reader of a staged target sees either its old content or the complete new
content, never a partial write.

Only a target that does not exist yet or is a regular file is staged. Any
other target (a symbolic link, a device such as ``/dev/null`` or
``/dev/stdout``, a FIFO) is written in place, as ``open(target, "w")``
would, so that a link is written through and a device keeps its node.
"""

from __future__ import annotations

import contextlib
import errno
import os
import stat
from pathlib import Path
from typing import Iterator

_ATTEMPTS = 100
# a temporary's name adds 14 bytes to the target's, so it keeps at most the
# first 241 bytes of it, to fit the 255 bytes most file systems allow a name
_KEPT = 241


def _stage_beside(target: Path) -> Path | None:
    """Create a new empty file in ``target``'s directory and return its
    path, or return ``None`` when ``target`` must be written in place.

    ``os.open`` applies the umask to mode 0o666, so the file ends up with
    the same mode as one made by ``open(target, "w")``.
    """
    try:
        mode = os.lstat(target).st_mode
    except FileNotFoundError:
        pass
    else:
        if stat.S_ISDIR(mode):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
        if not stat.S_ISREG(mode):
            return None
    name = os.fsdecode(os.fsencode(target.name)[:_KEPT])
    for _ in range(_ATTEMPTS):
        temp = target.with_name(f".{name}.{os.urandom(4).hex()}.tmp")
        try:
            os.close(os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
        except FileExistsError:
            continue
        return temp
    raise FileExistsError(errno.EEXIST, "no free temporary name", str(target))


@contextlib.contextmanager
def replacing(target: str | os.PathLike | None) -> Iterator[Path | None]:
    """Yield the path to write for ``target``: a fresh temporary when it is
    staged, the target itself when it is written in place, ``None`` for a
    ``None`` target. When the block completes, the temporary is renamed over
    the target; when it raises, the temporary is removed and the target is
    not touched."""
    if target is None:
        yield None
        return
    temp = _stage_beside(Path(target))
    if temp is None:
        yield Path(target)
        return
    try:
        yield temp
        os.replace(temp, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temp)
        raise
