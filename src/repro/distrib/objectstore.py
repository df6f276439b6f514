"""S3-compatible object-store transport and its in-repo fake server.

Cloud campaigns need the registry on shared object storage, but tests
and CI must run without credentials or network egress. This module
provides all three pieces:

* :class:`ObjectStore` — a deterministic, thread-safe in-memory bucket
  with the conditional-write subset the lease protocol needs: ETag'd
  ``GET``, ``PUT`` with ``If-None-Match: *`` (single-winner create) and
  ``If-Match`` (compare-and-swap), ``DELETE`` with ``If-Match``, and
  sorted prefix listing. ETags are content digests, so identical bodies
  always carry identical tags — exactly the property the
  deterministic-duplicate-execution story relies on.
* :class:`ObjectStoreServer` / :func:`serve_in_thread` — a stdlib
  ``ThreadingHTTPServer`` speaking that subset over localhost, so
  *separate worker processes* share one store the way a real fleet
  shares a bucket. ``python -m repro.distrib.objectstore`` runs it
  standalone.
* :class:`ObjectStoreTransport` — the
  :class:`repro.runs.transport.RegistryTransport` implementation over
  either backend: an in-process store (conformance tests) or an
  ``s3://host:port/bucket`` URL (multi-process campaigns). A URL's
  client keeps one persistent HTTP/1.1 connection, and the server
  sends with Nagle's algorithm off: on a reused connection a reply
  written in two pieces would otherwise wait ~40 ms for the client's
  delayed ACK.

Atomicity mapping versus the filesystem transport:

* ``write_atomic`` is one ``PUT``. An object store replaces an object
  whole or not at all: the fake server, like S3, answers a ``PUT``
  whose body is shorter than its ``Content-Length`` (the writer died
  mid-upload) with HTTP 400 and stores nothing, so readers see the old
  value or the new one and a killed writer leaves no litter.
* ``append_line`` is an optimistic ``If-Match`` read-modify-write.
  Object PUTs are atomic, so this transport cannot produce the torn
  tail lines the filesystem readers tolerate, and a writer killed
  mid-append loses only its own line; contention is bounded by the
  lease protocol (one writer per run at a time).

Nothing here reads a clock or an RNG; replies are a pure function of
the request stream, which is what makes the transport-matrix smoke's
bit-identical-report assertion meaningful.
"""

from __future__ import annotations

import argparse
import http.client
import json
import threading
import weakref
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, quote, unquote, urlsplit

from ..errors import ConfigError
from ..runs.transport import content_version, is_litter_key

#: Attempts an optimistic append makes before surfacing contention.
_APPEND_RETRIES = 64


class PreconditionFailed(Exception):
    """A conditional PUT/DELETE lost its compare-and-swap (HTTP 412)."""


class ObjectStore:
    """Deterministic in-memory bucket with conditional writes."""

    def __init__(self) -> None:
        self._objects: dict[str, bytes] = {}
        self._lock = threading.Lock()

    def get(self, key: str) -> tuple[bytes, str] | None:
        with self._lock:
            data = self._objects.get(key)
        if data is None:
            return None
        return data, content_version(data)

    def head(self, key: str) -> tuple[int, str] | None:
        with self._lock:
            data = self._objects.get(key)
        if data is None:
            return None
        return len(data), content_version(data)

    def put(
        self,
        key: str,
        data: bytes,
        if_match: str | None = None,
        if_none_match: bool = False,
    ) -> str:
        """Store ``data``; the new ETag. Conditions are checked atomically.

        ``if_none_match`` is the single-winner create (``If-None-Match:
        *``): it fails when the key exists. ``if_match`` is the
        compare-and-swap: it fails when the key is missing or its ETag
        moved. Both raise :class:`PreconditionFailed`.
        """
        with self._lock:
            current = self._objects.get(key)
            if if_none_match and current is not None:
                raise PreconditionFailed(key)
            if if_match is not None and (
                current is None or content_version(current) != if_match
            ):
                raise PreconditionFailed(key)
            self._objects[key] = data
        return content_version(data)

    def delete(self, key: str, if_match: str | None = None) -> bool:
        """Remove ``key``; False when absent, 412 on a failed condition."""
        with self._lock:
            current = self._objects.get(key)
            if current is None:
                return False
            if if_match is not None and content_version(current) != if_match:
                raise PreconditionFailed(key)
            del self._objects[key]
        return True

    def list(self, prefix: str = "") -> list[tuple[str, int, str]]:
        """Sorted ``(key, size, etag)`` triples under a key prefix.

        Prefix matching is boundary-aware: ``"run"`` matches ``"run"``
        and ``"run/..."`` but never ``"runs-other/..."``.
        """
        with self._lock:
            items = sorted(self._objects.items())
        out = []
        for key, data in items:
            if prefix and key != prefix and not key.startswith(prefix + "/"):
                continue
            out.append((key, len(data), content_version(data)))
        return out


# ---------------------------------------------------------------------------
# The localhost fake server: the conditional-PUT subset over HTTP.
# ---------------------------------------------------------------------------

class _Handler(BaseHTTPRequestHandler):
    """One bucket's worth of the S3 conditional subset.

    Paths are ``/<bucket>/<key...>``; every bucket name addresses the
    server's single store (the fake serves one campaign). Listing is
    ``GET /<bucket>?prefix=...`` returning a JSON object — enough for
    the transport, no XML ceremony.
    """

    protocol_version = "HTTP/1.1"
    server_version = "repro-objectstore/1"
    # ``_reply`` writes headers and body separately; with Nagle on, the
    # body of a reply on a kept-alive connection waits for the client's
    # delayed ACK of the headers (~40 ms on Linux).
    disable_nagle_algorithm = True

    @property
    def store(self) -> ObjectStore:
        return self.server.store  # type: ignore[attr-defined]

    def log_message(self, *args: object) -> None:  # quiet by design
        pass

    def _split(self) -> tuple[str, str, dict[str, list[str]]]:
        parts = urlsplit(self.path)
        segments = unquote(parts.path).lstrip("/").split("/", 1)
        bucket = segments[0]
        key = segments[1] if len(segments) > 1 else ""
        return bucket, key, parse_qs(parts.query)

    def _reply(
        self,
        status: int,
        body: bytes = b"",
        etag: str | None = None,
    ) -> None:
        self.send_response(status)
        if etag is not None:
            self.send_header("ETag", f'"{etag}"')
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Content-Type", "application/octet-stream")
        self.end_headers()
        if body:
            self.wfile.write(body)

    def _condition_headers(self) -> tuple[str | None, bool]:
        if_match = self.headers.get("If-Match")
        if if_match is not None:
            if_match = if_match.strip().strip('"')
        if_none = self.headers.get("If-None-Match", "").strip() == "*"
        return if_match, if_none

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        _bucket, key, query = self._split()
        if not key:
            prefix = (query.get("prefix") or [""])[0]
            listing = {
                "objects": [
                    {"key": k, "size": size, "etag": etag}
                    for k, size, etag in self.store.list(prefix)
                ]
            }
            self._reply(200, json.dumps(listing).encode())
            return
        found = self.store.get(key)
        if found is None:
            self._reply(404)
            return
        data, etag = found
        self._reply(200, data, etag=etag)

    def do_HEAD(self) -> None:  # noqa: N802
        _bucket, key, _query = self._split()
        stat = self.store.head(key)
        if stat is None:
            self._reply(404)
            return
        size, etag = stat
        self.send_response(200)
        self.send_header("ETag", f'"{etag}"')
        self.send_header("Content-Length", str(size))
        self.end_headers()

    def do_PUT(self) -> None:  # noqa: N802
        _bucket, key, _query = self._split()
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length) if length else b""
        if len(body) < length:
            # The writer hung up mid-body: store nothing, as S3 does.
            self.close_connection = True
            self._reply(400)
            return
        if_match, if_none = self._condition_headers()
        try:
            etag = self.store.put(
                key, body, if_match=if_match, if_none_match=if_none
            )
        except PreconditionFailed:
            self._reply(412)
            return
        self._reply(200, etag=etag)

    def do_DELETE(self) -> None:  # noqa: N802
        _bucket, key, _query = self._split()
        if_match, _if_none = self._condition_headers()
        try:
            removed = self.store.delete(key, if_match=if_match)
        except PreconditionFailed:
            self._reply(412)
            return
        self._reply(204 if removed else 404)


class ObjectStoreServer(ThreadingHTTPServer):
    """Localhost object-store fake sharing one :class:`ObjectStore`."""

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int] = ("127.0.0.1", 0),
        store: ObjectStore | None = None,
    ):
        super().__init__(address, _Handler)
        self.store = store if store is not None else ObjectStore()

    def url(self, bucket: str = "registry") -> str:
        host, port = self.server_address[:2]
        return f"s3://{host}:{port}/{bucket}"


def serve_in_thread(
    address: tuple[str, int] = ("127.0.0.1", 0),
    store: ObjectStore | None = None,
) -> tuple[ObjectStoreServer, threading.Thread]:
    """Start the fake server on a daemon thread; (server, thread)."""
    server = ObjectStoreServer(address, store=store)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def _failed(method: str, key: str, status: int) -> OSError:
    """The error for a reply status the request does not expect."""
    return OSError(f"object-store {method} {key!r} failed: HTTP {status}")


class _HttpStore:
    """The :class:`ObjectStore` method surface over HTTP.

    Every request goes over one persistent HTTP/1.1 connection, opened
    on first use and closed when the store is collected. A lock
    serializes the store's users (a worker loop and its lease heartbeat
    thread), so a store never holds more than one connection. Pool
    children build their own stores; none uses its parent's.

    Only a 404 reads as a missing key. Any other unexpected status
    raises :class:`OSError`, so an unavailable store is never mistaken
    for an empty one.
    """

    def __init__(self, host: str, port: int, bucket: str):
        self.host = host
        self.port = port
        self.bucket = bucket
        self._conn = http.client.HTTPConnection(host, port, timeout=30)
        self._lock = threading.Lock()
        weakref.finalize(self, self._conn.close)

    def _request(
        self,
        method: str,
        key: str,
        body: bytes | None = None,
        headers: dict[str, str] | None = None,
        query: str = "",
    ) -> tuple[int, bytes, str | None, int]:
        """One HTTP request: ``(status, body, etag, Content-Length)``.

        The length is the one the server declared, which on a ``HEAD``
        is the object's size although no body follows.
        """
        path = f"/{quote(self.bucket)}/{quote(key)}"
        if query:
            path = f"/{quote(self.bucket)}?{query}"
        headers = headers or {}
        with self._lock:
            conn = self._conn
            try:
                reused = conn.sock is not None
                try:
                    conn.request(method, path, body=body, headers=headers)
                    response = conn.getresponse()
                except (ConnectionResetError, BrokenPipeError):
                    # No status line came back (``RemoteDisconnected``
                    # is a reset too). On a reused connection that means
                    # the server closed it idle and never saw the
                    # request: send it once more, on a fresh connection.
                    if not reused:
                        raise
                    conn.close()
                    conn.request(method, path, body=body, headers=headers)
                    response = conn.getresponse()
                payload = response.read()
            except BaseException:
                conn.close()  # no half-read reply reaches the next request
                raise
        etag = response.getheader("ETag")
        if etag is not None:
            etag = etag.strip().strip('"')
        length = int(response.getheader("Content-Length") or 0)
        return response.status, payload, etag, length

    def get(self, key: str) -> tuple[bytes, str] | None:
        status, payload, etag, _length = self._request("GET", key)
        if status == 404:
            return None
        if status != 200 or etag is None:
            raise _failed("GET", key, status)
        return payload, etag

    def head(self, key: str) -> tuple[int, str] | None:
        status, _payload, etag, size = self._request("HEAD", key)
        if status == 404:
            return None
        if status != 200 or etag is None:
            raise _failed("HEAD", key, status)
        return size, etag

    def put(
        self,
        key: str,
        data: bytes,
        if_match: str | None = None,
        if_none_match: bool = False,
    ) -> str:
        headers: dict[str, str] = {}
        if if_match is not None:
            headers["If-Match"] = f'"{if_match}"'
        if if_none_match:
            headers["If-None-Match"] = "*"
        status, _payload, etag, _length = self._request(
            "PUT", key, body=data, headers=headers
        )
        if status == 412:
            raise PreconditionFailed(key)
        if status != 200 or etag is None:
            raise _failed("PUT", key, status)
        return etag

    def delete(self, key: str, if_match: str | None = None) -> bool:
        headers: dict[str, str] = {}
        if if_match is not None:
            headers["If-Match"] = f'"{if_match}"'
        status, _payload, _etag, _length = self._request(
            "DELETE", key, headers=headers
        )
        if status == 412:
            raise PreconditionFailed(key)
        if status == 404:
            return False
        if status != 204:
            raise _failed("DELETE", key, status)
        return True

    def list(self, prefix: str = "") -> list[tuple[str, int, str]]:
        query = f"prefix={quote(prefix)}" if prefix else "list=1"
        status, payload, _etag, _length = self._request("GET", "", query=query)
        if status != 200:
            raise _failed("LIST", prefix, status)
        try:
            objects = json.loads(payload.decode()).get("objects", [])
        except (ValueError, UnicodeDecodeError) as exc:
            raise OSError(
                f"object-store LIST {prefix!r}: undecodable listing"
            ) from exc
        return [
            (obj["key"], int(obj["size"]), obj["etag"])
            for obj in objects
            if isinstance(obj, dict)
        ]


@dataclass
class ObjectStoreTransport:
    """:class:`RegistryTransport` over an object store's conditional subset."""

    store: ObjectStore | _HttpStore
    url: str | None = None
    scheme: str = field(default="s3", init=False)

    @classmethod
    def from_url(cls, url: str) -> "ObjectStoreTransport":
        parts = urlsplit(url)
        if parts.scheme != "s3" or not parts.hostname or not parts.port:
            raise ConfigError(
                f"object-store URI must look like s3://host:port/bucket, "
                f"got {url!r}"
            )
        bucket = parts.path.strip("/") or "registry"
        store = _HttpStore(parts.hostname, parts.port, bucket)
        return cls(store=store, url=url)

    def describe(self) -> str:
        return self.url if self.url is not None else "s3://<in-process>"

    def ensure_container(self, prefix: str) -> None:
        pass  # object stores have no directories to create

    # -- reads ----------------------------------------------------------
    def exists(self, key: str) -> bool:
        return self.store.head(key) is not None

    def size(self, key: str) -> int | None:
        stat = self.store.head(key)
        return None if stat is None else stat[0]

    def read_text(self, key: str) -> str | None:
        found = self.store.get(key)
        if found is None:
            return None
        return found[0].decode("utf-8", errors="replace")

    def read_with_version(self, key: str) -> tuple[str, str] | None:
        found = self.store.get(key)
        if found is None:
            return None
        data, etag = found
        return data.decode("utf-8", errors="replace"), etag

    def read_tail(self, key: str, max_bytes: int) -> str | None:
        found = self.store.get(key)
        if found is None:
            return None
        return found[0][-max_bytes:].decode("utf-8", errors="replace")

    # -- writes ---------------------------------------------------------
    def write_atomic(self, key: str, text: str) -> None:
        # One PUT: the store keeps the old object unless the body arrives
        # whole.
        self.store.put(key, text.encode())

    def create_if_absent(self, key: str, text: str) -> str | None:
        try:
            return self.store.put(key, text.encode(), if_none_match=True)
        except PreconditionFailed:
            return None

    def put_if_match(self, key: str, text: str, version: str) -> str | None:
        try:
            return self.store.put(key, text.encode(), if_match=version)
        except PreconditionFailed:
            return None

    def delete(self, key: str) -> bool:
        try:
            return self.store.delete(key)
        except PreconditionFailed:  # pragma: no cover - unconditional
            return False

    def delete_if_match(self, key: str, version: str) -> bool:
        try:
            return self.store.delete(key, if_match=version)
        except PreconditionFailed:
            return False

    def append_line(self, key: str, line: str) -> None:
        payload = (line + "\n").encode()
        for _attempt in range(_APPEND_RETRIES):
            current = self.store.get(key)
            try:
                if current is None:
                    self.store.put(key, payload, if_none_match=True)
                else:
                    data, etag = current
                    self.store.put(key, data + payload, if_match=etag)
            except PreconditionFailed:
                continue  # lost the CAS race; re-read and retry
            return
        raise OSError(f"append to {key!r} kept losing CAS races")

    # -- listing --------------------------------------------------------
    def list_keys(self, prefix: str = "") -> list[str]:
        return [key for key, _size, _etag in self.store.list(prefix)]

    def list_runs(self) -> list[str]:
        names = {
            key.split("/", 1)[0]
            for key, _size, _etag in self.store.list("")
            if "/" in key
        }
        return sorted(names)

    def litter(self, prefix: str) -> list[str]:
        return [key for key in self.list_keys(prefix) if is_litter_key(key)]


def main(argv: list[str] | None = None) -> int:
    """Run the fake server standalone: ``python -m repro.distrib.objectstore``."""
    parser = argparse.ArgumentParser(
        description="localhost S3-subset object store for repro campaigns"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--bucket", default="registry")
    args = parser.parse_args(argv)
    server = ObjectStoreServer((args.host, args.port))
    print(server.url(args.bucket), flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
