"""Pluggable registry transport: the I/O contract under the run registry.

The registry and the distributed lease protocol historically assumed a
shared POSIX directory — ``O_EXCL``-style claims via ``os.link``,
rename-to-tombstone steals, temp-file + ``os.replace`` atomic writes.
That caps ``repro suite --distributed`` at NFS-bound fleets. This
module carves those semantics into a :class:`RegistryTransport`
protocol — a flat, slash-separated key space with *conditional* writes
— so the same registry/lease/budget stack runs unchanged over a local
directory (:class:`FsTransport`) or an S3-compatible object store
(:class:`repro.distrib.objectstore.ObjectStoreTransport`).

The contract every transport must honor:

* **create_if_absent** — single-winner creation that is *content*-
  atomic: no reader ever observes a created-but-empty key.
* **put_if_match / delete_if_match** — compare-and-swap on an opaque
  version token (a content digest on the filesystem, an ETag on object
  stores). A mutation with a stale token fails and leaves the current
  value untouched; this is what lease renewals and steals are built on.
* **write_atomic** — last-writer-wins replacement where readers see the
  old value or the new, never a torn one: a temp file plus
  ``os.replace`` on the filesystem, one ``PUT`` on object stores (which
  store a body only when it arrives whole). Concurrent writers to one
  key are legal exactly because cell execution is deterministic: both
  bodies are identical.
* **append_line** — the streaming idiom behind ``history.jsonl`` and
  ``telemetry.jsonl``. Readers are torn-tail-tolerant, so transports
  may implement it as a plain POSIX append or an optimistic
  read-modify-write.
* **sorted listing** — every enumeration is sorted, so registry
  iteration order (and therefore every report) is bit-identical across
  transports and platforms.

Versions are opaque strings; callers only ever compare them for
equality and pass them back. ``FsTransport`` uses content digests,
which makes a version check equivalent to the historical nonce check
(two distinct leases can never share a digest — the nonce is embedded
in the body).
"""

from __future__ import annotations

import hashlib
import os
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol, runtime_checkable

from ..errors import ConfigError

#: Substrings that mark transport write-litter: temp files of atomic
#: writes (and the staged objects older object-store registries hold)
#: and tombstones of conditional deletes. ``gc()`` sweeps keys carrying
#: either marker once their run has a durable result.
LITTER_MARKERS = (".tmp-", ".expired-")


def content_version(data: bytes) -> str:
    """Deterministic version token of a value (its content digest)."""
    return hashlib.sha256(data).hexdigest()


def is_litter_key(key: str) -> bool:
    """Whether a key is write-litter (temp file or tombstone)."""
    leaf = key.rsplit("/", 1)[-1]
    return any(marker in leaf for marker in LITTER_MARKERS)


@runtime_checkable
class RegistryTransport(Protocol):
    """Key-value I/O contract under :class:`repro.runs.RunRegistry`.

    Keys are slash-separated relative strings (``"<run>/result.json"``,
    ``"warm/vgg16-bpe1.json"``, ``"campaign.json"``). All reads return
    ``None`` for missing keys rather than raising.
    """

    scheme: str

    def describe(self) -> str: ...

    def ensure_container(self, prefix: str) -> None: ...

    def exists(self, key: str) -> bool: ...

    def size(self, key: str) -> int | None: ...

    def read_text(self, key: str) -> str | None: ...

    def read_with_version(self, key: str) -> tuple[str, str] | None: ...

    def read_tail(self, key: str, max_bytes: int) -> str | None: ...

    def write_atomic(self, key: str, text: str) -> None: ...

    def create_if_absent(self, key: str, text: str) -> str | None: ...

    def put_if_match(self, key: str, text: str, version: str) -> str | None: ...

    def delete(self, key: str) -> bool: ...

    def delete_if_match(self, key: str, version: str) -> bool: ...

    def append_line(self, key: str, line: str) -> None: ...

    def list_keys(self, prefix: str = "") -> list[str]: ...

    def list_runs(self) -> list[str]: ...

    def litter(self, prefix: str) -> list[str]: ...


@dataclass(frozen=True)
class FsTransport:
    """The historical shared-directory semantics, byte-for-byte.

    Atomic writes stage a unique same-directory temp file
    (``<name>.tmp-<pid>-<uuid8>``) and ``os.replace`` it into place;
    exclusive creation stages the same temp and claims via ``os.link``
    (content-atomic single-winner); conditional deletes rename to a
    unique ``<name>.expired-<uuid>`` tombstone, verify the observed
    version, and restore on mismatch. Registries written through this
    transport are byte-identical to pre-transport ones, and the litter
    it can leave under SIGKILL is exactly what ``registry.gc()`` and
    :meth:`litter` sweep.
    """

    root: Path
    scheme: str = field(default="fs", init=False)

    def describe(self) -> str:
        return str(self.root)

    def _path(self, key: str) -> Path:
        return self.root / key if key else self.root

    def ensure_container(self, prefix: str) -> None:
        self._path(prefix).mkdir(parents=True, exist_ok=True)

    # -- reads ----------------------------------------------------------
    def exists(self, key: str) -> bool:
        return self._path(key).is_file()

    def size(self, key: str) -> int | None:
        try:
            return self._path(key).stat().st_size
        except OSError:
            return None

    def read_text(self, key: str) -> str | None:
        try:
            return self._path(key).read_text()
        except (OSError, ValueError):
            return None

    def read_with_version(self, key: str) -> tuple[str, str] | None:
        try:
            data = self._path(key).read_bytes()
        except (OSError, ValueError):
            return None
        return data.decode("utf-8", errors="replace"), content_version(data)

    def read_tail(self, key: str, max_bytes: int) -> str | None:
        try:
            with self._path(key).open("rb") as fh:
                fh.seek(0, os.SEEK_END)
                total = fh.tell()
                fh.seek(max(0, total - max_bytes))
                return fh.read().decode("utf-8", errors="replace")
        except (OSError, ValueError):
            return None

    # -- writes ---------------------------------------------------------
    def _temp_for(self, path: Path) -> Path:
        # The ".tmp-" naming matches the litter sweep, so a writer
        # killed between write and rename leaves nothing gc can't find.
        return path.with_name(
            f"{path.name}.tmp-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        )

    def write_atomic(self, key: str, text: str) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self._temp_for(path)
        tmp.write_text(text)
        os.replace(tmp, path)

    def create_if_absent(self, key: str, text: str) -> str | None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self._temp_for(path)
        tmp.write_text(text)
        try:
            os.link(tmp, path)
        except FileExistsError:
            return None
        finally:
            tmp.unlink(missing_ok=True)
        return content_version(text.encode())

    def put_if_match(self, key: str, text: str, version: str) -> str | None:
        current = self.read_with_version(key)
        if current is None or current[1] != version:
            return None
        path = self._path(key)
        tmp = self._temp_for(path)
        tmp.write_text(text)
        os.replace(tmp, path)
        return content_version(text.encode())

    def delete(self, key: str) -> bool:
        try:
            self._path(key).unlink()
        except OSError:
            return False
        return True

    def delete_if_match(self, key: str, version: str) -> bool:
        path = self._path(key)
        tomb = path.with_name(f"{path.name}.expired-{uuid.uuid4().hex}")
        try:
            os.rename(path, tomb)
        except OSError:
            return False
        try:
            observed = content_version(tomb.read_bytes())
        except OSError:
            observed = None
        if observed != version:
            # We tore down a value someone replaced between our read
            # and rename; put it back (best effort) and walk away.
            try:
                os.rename(tomb, path)
            except OSError:
                pass
            return False
        tomb.unlink(missing_ok=True)
        return True

    def append_line(self, key: str, line: str) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a") as fh:
            fh.write(line + "\n")
            fh.flush()

    # -- listing --------------------------------------------------------
    def list_keys(self, prefix: str = "") -> list[str]:
        base = self._path(prefix)
        if base.is_file():
            return [prefix]
        if not base.is_dir():
            return []
        keys = []
        for path in sorted(base.rglob("*")):
            if path.is_file():
                keys.append(path.relative_to(self.root).as_posix())
        return sorted(keys)

    def list_runs(self) -> list[str]:
        if not self.root.is_dir():
            return []
        return [p.name for p in sorted(self.root.iterdir()) if p.is_dir()]

    def litter(self, prefix: str) -> list[str]:
        base = self._path(prefix)
        if not base.is_dir():
            return []
        keys = set()
        for pattern in ("*.tmp-*", "*.expired-*"):
            for path in sorted(base.glob(pattern)):
                if path.is_file():
                    keys.add(path.relative_to(self.root).as_posix())
        return sorted(keys)


@dataclass(frozen=True)
class RunNode:
    """One run's keyspace slice: a transport plus its key prefix.

    The only address of a registry file: ``RunNode(transport, "")``
    addresses the registry root (campaign manifest, fleet telemetry),
    ``RunNode(transport, run_name)`` one run's files. Filename arguments
    are the same public names the registry exports (``lease.json``,
    ``checkpoint.json``, …).
    """

    transport: RegistryTransport
    name: str = ""

    def key(self, filename: str) -> str:
        return f"{self.name}/{filename}" if self.name else filename

    def describe(self) -> str:
        base = self.transport.describe()
        return f"{base}/{self.name}" if self.name else base

    # Thin delegation — every helper takes a *filename*, not a key.
    def ensure(self) -> None:
        self.transport.ensure_container(self.name)

    def exists(self, filename: str) -> bool:
        return self.transport.exists(self.key(filename))

    def size(self, filename: str) -> int | None:
        return self.transport.size(self.key(filename))

    def read_text(self, filename: str) -> str | None:
        return self.transport.read_text(self.key(filename))

    def read_with_version(self, filename: str) -> tuple[str, str] | None:
        return self.transport.read_with_version(self.key(filename))

    def read_tail(self, filename: str, max_bytes: int) -> str | None:
        return self.transport.read_tail(self.key(filename), max_bytes)

    def write_atomic(self, filename: str, text: str) -> None:
        self.transport.write_atomic(self.key(filename), text)

    def create_if_absent(self, filename: str, text: str) -> str | None:
        return self.transport.create_if_absent(self.key(filename), text)

    def put_if_match(
        self, filename: str, text: str, version: str
    ) -> str | None:
        return self.transport.put_if_match(self.key(filename), text, version)

    def delete(self, filename: str) -> bool:
        return self.transport.delete(self.key(filename))

    def delete_if_match(self, filename: str, version: str) -> bool:
        return self.transport.delete_if_match(self.key(filename), version)

    def append_line(self, filename: str, line: str) -> None:
        self.transport.append_line(self.key(filename), line)


def resolve_transport(root: str | Path) -> RegistryTransport:
    """Transport for a registry root: a directory path or an URI.

    ``s3://host:port/bucket`` resolves to the object-store transport
    (served by :mod:`repro.distrib.objectstore` — the in-repo fake or
    anything speaking its conditional-PUT subset); everything else is a
    local directory.
    """
    text = str(root)
    if "://" in text:
        if text.startswith("s3://"):
            from ..distrib.objectstore import ObjectStoreTransport

            return ObjectStoreTransport.from_url(text)
        raise ConfigError(
            f"unsupported registry transport URI {text!r} "
            "(expected a directory path or s3://host:port/bucket)"
        )
    return FsTransport(Path(root))
