"""How convsum reads a text file and how it replaces a file: one rule each."""

from __future__ import annotations

import os
from collections.abc import Callable


def read_text(path: str, what: str, error: Callable[[str], Exception]) -> str:
    """The file's UTF-8 text, a CRLF read as "\\n"; if unreadable, raises
    `error("cannot read {what} {path}: ...")`. Callers split on "\\n" alone:
    `str.splitlines` also splits at a raw U+2028, which JSON strings may hold."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise error(f"cannot read {what} {path}: {e}") from e


def write_atomically(path: str, write: Callable, mode: str = "w") -> None:
    """Replace `path` by what `write(f)` puts in `path + ".tmp"` (UTF-8 text,
    or bytes for mode "wb"), synced, then renamed over `path`, and the
    directory synced so the rename outlives a crash too: a crash leaves the
    old file or the new one, and a failure removes the temporary file."""
    tmp = path + ".tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as f:
            write(f)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
        fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
