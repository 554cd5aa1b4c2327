"""Atomic output files: write beside the target, then rename into place.

A reader of a staged target sees either its old content or the complete new
content, never a partial write. Several targets can be staged together so
that none of them is replaced unless every one was written.

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
    for _ in range(_ATTEMPTS):
        temp = target.with_name(f".{target.name}.{os.urandom(4).hex()}.tmp")
        try:
            os.close(os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
        except FileExistsError:
            continue
        return temp
    raise FileExistsError(errno.EEXIST, "no free temporary name", str(target))


@contextlib.contextmanager
def replacing(*targets: str | os.PathLike | None) -> Iterator[list[Path | None]]:
    """Yield one path to write per target: a fresh temporary for a staged
    target, the target itself for one written in place, ``None`` for a
    ``None`` target. When the block completes, each temporary is renamed
    over its target; when it raises, every temporary is removed and no
    staged target is touched."""
    paths: list[Path | None] = []
    staged: list[tuple[Path, Path]] = []
    try:
        for target in targets:
            if target is None:
                paths.append(None)
                continue
            temp = _stage_beside(Path(target))
            if temp is None:
                paths.append(Path(target))
            else:
                paths.append(temp)
                staged.append((temp, Path(target)))
        yield paths
        for temp, target in staged:
            os.replace(temp, target)
        staged.clear()
    finally:
        for temp, _ in staged:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(temp)
