"""The package's one atomic file writer.

Checkpoints, frontiers, run records and mapping cache files are read
back by later runs (a resumed DSE, ``repro runs``, a warm sweep), so a
write must never leave one torn: the text goes to a scratch file next
to the target, which then replaces the target in one ``os.replace``.
"""

from __future__ import annotations

import os
from pathlib import Path


def write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` atomically; returns the path.

    The scratch file sits in the target's directory (created if
    missing), so the replace never crosses file systems, and is named
    after the target and this process, so two processes writing one
    file never share it.  When the write or the replace fails, the
    scratch file is removed and the previous file stays as it was."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    scratch = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    try:
        scratch.write_text(text)
        os.replace(scratch, target)
    except BaseException:
        scratch.unlink(missing_ok=True)
        raise
    return target
