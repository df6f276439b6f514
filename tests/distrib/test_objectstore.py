"""The fake S3-subset server and its HTTP client, at the wire level.

The conformance suite (:mod:`tests.distrib.test_transport_conformance`)
proves the transport contract; this module pins the pieces *under* it:
the in-memory store's conditional semantics, the HTTP protocol surface
(status codes, ETag quoting, 412 on failed preconditions, 400 on a
truncated body), URL parsing, and the one-PUT atomic write. These are
the behaviors a real S3 endpoint would have to match for cloud
campaigns. The client side is pinned too: one persistent connection
per store, one resend after the server closed it idle, and no read
that mistakes an unavailable store for a missing key.
"""

from __future__ import annotations

import json
import socket
import struct
import sys
import threading
import time
from contextlib import contextmanager

import pytest

from repro.distrib.objectstore import (
    ObjectStore,
    ObjectStoreTransport,
    PreconditionFailed,
    _Handler,
    serve_in_thread,
)
from repro.errors import ConfigError
from repro.runs.registry import RunRegistry
from repro.runs.transport import content_version, resolve_transport


@contextmanager
def serving(handler: type[_Handler] = _Handler):
    """The fake server answering through ``handler``; closed on exit."""
    server, _thread = serve_in_thread(("127.0.0.1", 0), ObjectStore())
    server.RequestHandlerClass = handler  # before any client connects
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


def counting_handler(**attrs) -> tuple[type[_Handler], list]:
    """A ``_Handler`` subclass and the list of connections it accepted.

    The server builds one handler per accepted connection, so the list
    grows by one per TCP connection, however many requests it carries.
    """
    accepted: list = []

    def setup(self) -> None:
        accepted.append(self.client_address)
        _Handler.setup(self)

    return type("Counting", (_Handler,), {"setup": setup, **attrs}), accepted


def record_requests(transport: ObjectStoreTransport) -> list[tuple[str, str]]:
    """Log ``(method, key)`` of every HTTP request ``transport`` sends."""
    requests: list[tuple[str, str]] = []
    send = transport.store._request

    def recording(method, key, *args, **kwargs):
        requests.append((method, key))
        return send(method, key, *args, **kwargs)

    transport.store._request = recording
    return requests


class _Unavailable(_Handler):
    """Answers every request with HTTP 503, as an overloaded store may."""

    def _unavailable(self) -> None:
        self.rfile.read(int(self.headers.get("Content-Length") or 0))
        self._reply(503)

    do_GET = do_HEAD = do_PUT = do_DELETE = _unavailable


class _CheckpointUnavailable(_Handler):
    """Answers HEAD of any ``checkpoint.json`` with 503, the rest as usual."""

    def do_HEAD(self) -> None:  # noqa: N802
        if self.path.endswith("/checkpoint.json"):
            self._reply(503)
        else:
            super().do_HEAD()


class _GarbledListing(_Handler):
    """Answers listings with a body that is not JSON."""

    def do_GET(self) -> None:  # noqa: N802
        self._reply(200, b"<ListBucketResult")


class TestObjectStore:
    def test_put_get_roundtrip(self):
        store = ObjectStore()
        etag = store.put("a/b.json", b"{}")
        assert store.get("a/b.json") == (b"{}", etag)
        assert store.head("a/b.json") == (2, etag)

    def test_if_none_match_rejects_existing(self):
        store = ObjectStore()
        store.put("k", b"one")
        with pytest.raises(PreconditionFailed):
            store.put("k", b"two", if_none_match=True)
        assert store.get("k")[0] == b"one"

    def test_if_match_rejects_stale_etag(self):
        store = ObjectStore()
        old = store.put("k", b"one")
        store.put("k", b"two")
        with pytest.raises(PreconditionFailed):
            store.put("k", b"three", if_match=old)
        with pytest.raises(PreconditionFailed):
            store.delete("k", if_match=old)

    def test_if_match_on_missing_key_fails(self):
        store = ObjectStore()
        with pytest.raises(PreconditionFailed):
            store.put("ghost", b"x", if_match="whatever")

    def test_list_is_sorted_and_prefix_bounded(self):
        store = ObjectStore()
        for key in ("b/x", "a/y", "a/z", "ab"):
            store.put(key, b"1")
        # boundary-aware: "a" covers "a" and "a/...", never "ab"
        keys = [key for key, _size, _etag in store.list("a")]
        assert keys == ["a/y", "a/z"]
        all_keys = [key for key, _size, _etag in store.list("")]
        assert all_keys == sorted(all_keys)


class TestHttpServer:
    @pytest.fixture()
    def served(self):
        with serving() as server:
            yield server

    def _client(self, served):
        return ObjectStoreTransport.from_url(served.url("bucket")).store

    def test_get_head_delete_missing_key(self, served):
        client = self._client(served)
        assert client.get("nope") is None
        assert client.head("nope") is None
        assert not client.delete("nope")

    def test_conditional_put_over_the_wire(self, served):
        client = self._client(served)
        etag = client.put("k", b"one", if_none_match=True)
        with pytest.raises(PreconditionFailed):
            client.put("k", b"two", if_none_match=True)
        fresh = client.put("k", b"two", if_match=etag)
        assert fresh != etag
        with pytest.raises(PreconditionFailed):
            client.put("k", b"three", if_match=etag)

    def test_conditional_delete_over_the_wire(self, served):
        client = self._client(served)
        etag = client.put("k", b"body")
        with pytest.raises(PreconditionFailed):
            client.delete("k", if_match="stale")
        assert client.delete("k", if_match=etag)
        assert client.get("k") is None

    def test_truncated_put_keeps_the_previous_value(self, served):
        # A writer that dies mid-upload sends fewer bytes than its
        # Content-Length and hangs up; S3 stores nothing in that case.
        client = self._client(served)
        before = b'{"generation": 0}\n{"generation": 1}\n'
        etag = client.put("run/history.jsonl", before)
        host, port = served.server_address[:2]
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(
                b"PUT /bucket/run/history.jsonl HTTP/1.1\r\n"
                b"Host: localhost\r\nContent-Length: 100\r\n\r\n"
                b'{"generati'
            )
            sock.shutdown(socket.SHUT_WR)
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 400")
        assert client.get("run/history.jsonl") == (before, etag)

    def test_killed_client_prints_nothing(self, served, capfd):
        # A writer killed mid-upload resets its connection (SO_LINGER 0
        # makes close() send an RST); the server drops it silently and
        # goes on serving.
        closed = threading.Event()
        shutdown_request = served.shutdown_request

        def signalling(request):  # runs after the handler's error report
            shutdown_request(request)
            closed.set()

        served.shutdown_request = signalling
        host, port = served.server_address[:2]
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(
                b"PUT /bucket/run/history.jsonl HTTP/1.1\r\n"
                b"Host: localhost\r\nContent-Length: 100\r\n\r\n"
                b'{"generati'
            )
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
        assert closed.wait(10)
        client = self._client(served)
        client.put("k", b"after")
        assert client.get("k")[0] == b"after"
        assert capfd.readouterr().err == ""

    def test_write_atomic_is_one_request(self, served):
        transport = ObjectStoreTransport.from_url(served.url("bucket"))
        requests = record_requests(transport)
        transport.write_atomic("run/result.json", "{}")
        assert requests == [("PUT", "run/result.json")]
        keys = [key for key, _size, _etag in served.store.list("")]
        assert keys == ["run/result.json"]
        assert transport.read_text("run/result.json") == "{}"

    def test_listing_over_the_wire(self, served):
        client = self._client(served)
        client.put("run-a/config.json", b"{}")
        client.put("run-b/config.json", b"{}")
        listed = client.list("run-a")
        assert [key for key, _s, _e in listed] == ["run-a/config.json"]

    def test_store_is_shared_across_clients(self, served):
        one = self._client(served)
        two = self._client(served)
        one.put("k", b"shared")
        assert two.get("k")[0] == b"shared"

    def test_size_is_one_head(self, served):
        transport = ObjectStoreTransport.from_url(served.url("bucket"))
        transport.write_atomic("run/history.jsonl", "x" * 37)
        assert transport.store.head("run/history.jsonl")[0] == 37
        requests = record_requests(transport)
        assert transport.size("run/history.jsonl") == 37
        assert transport.size("run/none") is None
        assert requests == [("HEAD", "run/history.jsonl"), ("HEAD", "run/none")]


class TestPersistentConnection:
    """One store, one TCP connection, whatever the request mix."""

    def test_every_request_kind_shares_one_connection(self):
        handler, accepted = counting_handler()
        with serving(handler) as server:
            client = ObjectStoreTransport.from_url(server.url("bucket")).store
            body = b"0123456789" * 100
            etag = client.put("k", body)
            assert client.get("k") == (body, etag)
            assert client.head("k") == (len(body), etag)
            fresh = client.put("k", b"new", if_match=etag)
            with pytest.raises(PreconditionFailed):  # 412
                client.put("k", b"again", if_none_match=True)
            assert [key for key, _s, _e in client.list("")] == ["k"]
            assert client.delete("k", if_match=fresh)
            assert client.get("k") is None  # 404
            assert not client.delete("k")
        assert len(accepted) == 1

    def test_request_after_an_idle_close_is_sent_once(self):
        # A handler with a timeout closes a connection that sat idle
        # longer than it, as S3 does; the next request finds it closed.
        handler, accepted = counting_handler(timeout=0.2)
        with serving(handler) as server:
            transport = ObjectStoreTransport.from_url(server.url("bucket"))
            etag = transport.store.put("k", b"v")
            time.sleep(1.0)
            assert transport.store.get("k") == (b"v", etag)
            time.sleep(1.0)
            # Applied twice, the create would lose to itself (None).
            created = transport.create_if_absent("new", "x")
            assert created == content_version(b"x")
            assert server.store.get("new") == (b"x", created)
        assert len(accepted) == 3

    def test_threads_share_the_connection_without_crossed_replies(self):
        # The lease heartbeat thread shares its worker's store; the lock
        # keeps one request at a time on the connection.
        handler, accepted = counting_handler()
        with serving(handler) as server:
            client = ObjectStoreTransport.from_url(server.url("bucket")).store
            bodies = {f"k{t}": f"value-{t};".encode() * (t + 1) for t in range(6)}
            for key, body in bodies.items():
                client.put(key, body)
            barrier = threading.Barrier(len(bodies))
            errors: list[BaseException] = []

            def reader(key: str) -> None:
                try:
                    barrier.wait(timeout=10)
                    for _ in range(40):
                        assert client.get(key)[0] == bodies[key]
                        assert client.head(key)[0] == len(bodies[key])
                except BaseException as exc:  # reported below
                    errors.append(exc)

            threads = [threading.Thread(target=reader, args=(k,)) for k in bodies]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
        assert len(accepted) == 1

    def test_replies_with_a_body_do_not_wait_for_delayed_acks(self):
        # With Nagle on at the server, each reply's body waits for the
        # client's delayed ACK of its headers: ~40 ms per GET.
        with serving() as server:
            client = ObjectStoreTransport.from_url(server.url("bucket")).store
            blob = bytes(range(256)) * 80
            client.put("blob", blob)
            client.get("blob")
            start = time.perf_counter()
            for _ in range(20):
                assert client.get("blob")[0] == blob
            assert time.perf_counter() - start < 0.4


class TestFailedReads:
    """Only a 404 means missing; any other failure raises."""

    @pytest.fixture(scope="class")
    def unavailable(self):
        with serving(_Unavailable) as server:
            yield server

    @pytest.mark.parametrize("read", ["get", "head", "list", "delete"])
    def test_store_reads_raise_on_503(self, unavailable, read):
        client = ObjectStoreTransport.from_url(unavailable.url("bucket")).store
        with pytest.raises(OSError, match="HTTP 503"):
            getattr(client, read)("run/result.json")

    @pytest.mark.parametrize(
        "read", ["exists", "size", "read_text", "list_keys", "list_runs"]
    )
    def test_transport_reads_raise_on_503(self, unavailable, read):
        transport = ObjectStoreTransport.from_url(unavailable.url("bucket"))
        args = ("run/result.json",) if read != "list_runs" else ()
        with pytest.raises(OSError, match="HTTP 503"):
            getattr(transport, read)(*args)

    def test_undecodable_listing_raises(self):
        with serving(_GarbledListing) as server:
            client = ObjectStoreTransport.from_url(server.url("bucket")).store
            with pytest.raises(OSError, match="undecodable"):
                client.list("run")

    def test_unavailable_checkpoint_keeps_the_history(self):
        # Read as "no checkpoint", a 503 here made ``open_run`` delete a
        # resumable run's history stream.
        with serving(_CheckpointUnavailable) as server:
            registry = RunRegistry(server.url("bucket"))
            config = {"scheme": "sa", "network": "vgg16"}
            run = registry.open_run(config, seed=3)
            run.log_history({"step": 1, "evaluations": 4})
            run.save_checkpoint({"evaluations": 4})
            with pytest.raises(OSError, match="HTTP 503"):
                registry.open_run(config, seed=3)
            history = run.node.key("history.jsonl")
            assert server.store.get(history) is not None


class TestTransportSpecifics:
    def test_from_url_validation(self):
        with pytest.raises(ConfigError):
            ObjectStoreTransport.from_url("s3://no-port/bucket")
        with pytest.raises(ConfigError):
            ObjectStoreTransport.from_url("http://127.0.0.1:9000/bucket")

    def test_resolve_transport_dispatches_uris(self, tmp_path):
        fs = resolve_transport(tmp_path / "reg")
        assert fs.scheme == "fs"
        with pytest.raises(ConfigError):
            resolve_transport("ftp://127.0.0.1:9000/bucket")

    def test_interrupted_staged_write_is_litter(self):
        store = ObjectStore()
        transport = ObjectStoreTransport(store)
        # registries written by older versions, which staged atomic
        # writes under ".tmp-" keys, may hold a staging object a killed
        # writer left behind; it is recognized litter, not an artifact
        store.put("run/result.json.tmp-deadbeef", b"torn")
        assert transport.litter("run") == ["run/result.json.tmp-deadbeef"]
        # the torn staging object never masquerades as the artifact
        assert not transport.exists("run/result.json")
        assert transport.read_text("run/result.json") is None

    def test_append_line_conflict_retries(self):
        store = ObjectStore()
        transport = ObjectStoreTransport(store)
        transport.append_line("log", "first")

        # Make every first CAS attempt lose: another writer sneaks a
        # line in between the read and the put.
        original_put = store.put
        interference = {"remaining": 3}

        def contested_put(key, data, if_match=None, if_none_match=False):
            if interference["remaining"] > 0 and if_match is not None:
                interference["remaining"] -= 1
                original_put(key, b"interloper\n" + store.get(key)[0])
            return original_put(
                key, data, if_match=if_match, if_none_match=if_none_match
            )

        store.put = contested_put
        transport.append_line("log", "second")
        lines = transport.read_text("log").splitlines()
        assert "first" in lines and "second" in lines

    def test_registry_run_lifecycle_over_objectstore(self):
        from repro.runs.registry import RunRegistry

        registry = RunRegistry("mem", transport=ObjectStoreTransport(ObjectStore()))
        config = {"scheme": "sa", "network": "vgg16"}
        run = registry.open_run(config, seed=3)
        run.log_history({"step": 1, "evaluations": 4})
        run.save_checkpoint({"evaluations": 4})
        assert run.has_checkpoint
        run.finish({"num_evaluations": 8, "best_cost": 1.5})
        assert registry.is_complete(config, 3)
        loaded = registry.load(config, 3)
        assert loaded.load_result()["num_evaluations"] == 8
        names = registry.transport.list_runs()
        assert names == [registry.run_name(config, 3)]
        history = registry.run_node(config, 3).read_text("history.jsonl")
        assert json.loads(history.splitlines()[0])["step"] == 1
