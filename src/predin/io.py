"""Atomic artifact writes: a reader sees the old file or the new one, never
a truncated one."""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", newline: str | None = None):
    """Write to a temporary file next to path, then move it over path.

    If the body raises, the temporary file is removed and path is left as
    it was.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, newline=newline) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    with atomic_open(path) as f:
        f.write(text)
