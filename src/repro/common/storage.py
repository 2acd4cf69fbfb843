"""The storage-device protocol every durable component programs against.

This module is the *bottom* of the storage stack: it defines the
:class:`Disk` / :class:`DiskFile` protocols plus :class:`LocalDisk`,
the pass-through implementation backed by the real filesystem.  The
fault-injecting simulated implementation (:class:`~repro.simnet.disk.
SimDisk`) lives in :mod:`repro.simnet.disk` and *implements* these
protocols — the dependency points upward (simnet → common), never
downward (the layering contract in :mod:`repro.analysis.architecture`
keeps it that way).  Every durable component takes its :class:`Disk`
as a required argument and is handed a :class:`SimDisk` scope;
:class:`LocalDisk` is for a caller that names it, and nothing defaults
to it.

The one semantic addition over builtin files is the explicit
:meth:`DiskFile.fsync`: writes land in the (real or simulated) page
cache immediately, and only an fsync moves the durability line — the
contract DESIGN.md §9 states as *acked ⇒ fsynced ⇒ recoverable*.  The
one addition to ``write`` is the *gather write*: a tuple of buffers is
one write of their bytes laid end to end, so a caller can hand a frame
header and a payload it does not own to the device without joining
them first.
"""

from __future__ import annotations

import os


class DiskFile:
    """The file-handle protocol durable components program against."""

    def read(self, size: int = -1) -> bytes:
        raise NotImplementedError

    def write(self, data: bytes | tuple[bytes, ...]) -> int:
        """Write ``data``, or the parts of a tuple laid end to end, as
        one write; returns the number of bytes written."""
        raise NotImplementedError

    def seek(self, offset: int, whence: int = os.SEEK_SET) -> int:
        raise NotImplementedError

    def tell(self) -> int:
        raise NotImplementedError

    def truncate(self, size: int) -> int:
        raise NotImplementedError

    def flush(self) -> None:
        raise NotImplementedError

    def fsync(self) -> None:
        """Force written bytes to survive a crash (the durability line)."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    @property
    def closed(self) -> bool:
        raise NotImplementedError

    def __enter__(self) -> "DiskFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Disk:
    """The directory-level protocol (open/list/remove/rename)."""

    def open(self, path: str, mode: str = "rb") -> DiskFile:
        raise NotImplementedError

    def exists(self, path: str) -> bool:
        raise NotImplementedError

    def listdir(self, path: str) -> list[str]:
        raise NotImplementedError

    def getsize(self, path: str) -> int:
        raise NotImplementedError

    def remove(self, path: str) -> None:
        raise NotImplementedError

    def replace(self, src: str, dst: str) -> None:
        raise NotImplementedError

    def makedirs(self, path: str) -> None:
        raise NotImplementedError


# -- real filesystem ---------------------------------------------------------


class _LocalFile(DiskFile):
    """Wraps a real file object, adding the explicit ``fsync``."""

    def __init__(self, raw):
        self._raw = raw

    def read(self, size: int = -1) -> bytes:
        return self._raw.read(size)

    def write(self, data: bytes | tuple[bytes, ...]) -> int:
        if type(data) is tuple:
            data = b"".join(data)
        return self._raw.write(data)

    def seek(self, offset: int, whence: int = os.SEEK_SET) -> int:
        return self._raw.seek(offset, whence)

    def tell(self) -> int:
        return self._raw.tell()

    def truncate(self, size: int) -> int:
        return self._raw.truncate(size)

    def flush(self) -> None:
        self._raw.flush()

    def fsync(self) -> None:
        self._raw.flush()
        os.fsync(self._raw.fileno())

    def close(self) -> None:
        self._raw.close()

    @property
    def closed(self) -> bool:
        return self._raw.closed


class LocalDisk(Disk):
    """Pass-through to the host filesystem (no fault injection)."""

    def open(self, path: str, mode: str = "rb") -> DiskFile:
        return _LocalFile(open(path, mode))

    def exists(self, path: str) -> bool:
        return os.path.exists(path)

    def listdir(self, path: str) -> list[str]:
        return sorted(os.listdir(path))

    def getsize(self, path: str) -> int:
        return os.path.getsize(path)

    def remove(self, path: str) -> None:
        os.remove(path)

    def replace(self, src: str, dst: str) -> None:
        os.replace(src, dst)

    def makedirs(self, path: str) -> None:
        os.makedirs(path, exist_ok=True)
