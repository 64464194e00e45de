"""Output files that a crash mid-write cannot truncate."""

from __future__ import annotations

import contextlib
import os
import shutil


@contextlib.contextmanager
def atomic_write(path):
    """Text handle on a temp file beside ``path``; the file replaces ``path``
    (``os.replace``) only when the block completes, after its data is synced
    to disk and the replaced file's permission bits are copied onto it.  If
    the block raises, the temp file is removed and ``path`` keeps its
    previous contents.

    A symlink is followed, so its target is replaced and the link kept.  A
    target that is not a regular file, such as ``/dev/null`` or a pipe, is
    written in place, since replacing it would destroy it.
    """
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, "w") as fh:
            yield fh
        return
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        if os.path.exists(target):
            shutil.copymode(target, tmp)
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
