"""Atomic file replacement.

Every file kgforge persists is written to a temporary file in the same
directory and renamed over its target, so a reader, or a run after a
crash, sees either the old bytes or the new bytes of a file, never a
truncated mix.  Temporary files are named ``<target>.<pid>.tmp``.

The rename makes a file atomic against a crash of the process, not
against a power loss: nothing is fsynced.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable


def replace_files(files: Iterable[tuple[Path, bytes | str]]) -> None:
    """Replace each ``(path, data)`` file, in the given order; text is
    written as UTF-8.

    Every temporary file is written before the first rename, so a failed
    write leaves every target as it was; the last file is the commit
    point of a multi-file update.  Temporary files never outlive a
    failure.
    """
    pending: list[tuple[Path, Path]] = []
    try:
        for path, data in files:
            temp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
            pending.append((temp, path))
            if isinstance(data, str):
                # Text mode writes an ASCII string without an encoded copy.
                temp.write_text(data, encoding="utf-8")
            else:
                temp.write_bytes(data)
        for temp, path in pending:
            os.replace(temp, path)
    except BaseException:
        for temp, _ in pending:
            temp.unlink(missing_ok=True)
        raise


def write_atomic(path: Path, data: bytes | str) -> None:
    """Replace one file; text is written as UTF-8."""
    replace_files([(path, data)])
