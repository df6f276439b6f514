"""The fake S3-subset server and its HTTP client, at the wire level.

The conformance suite (:mod:`tests.distrib.test_transport_conformance`)
proves the transport contract; this module pins the pieces *under* it:
the in-memory store's conditional semantics, the HTTP protocol surface
(status codes, ETag quoting, 412 on failed preconditions, 400 on a
truncated body), URL parsing, and the one-PUT atomic write. These are
the behaviors a real S3 endpoint would have to match for cloud
campaigns.
"""

from __future__ import annotations

import json
import socket

import pytest

from repro.distrib.objectstore import (
    ObjectStore,
    ObjectStoreTransport,
    PreconditionFailed,
    serve_in_thread,
)
from repro.errors import ConfigError
from repro.runs.transport import resolve_transport


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
        server, _thread = serve_in_thread(("127.0.0.1", 0), ObjectStore())
        try:
            yield server
        finally:
            server.shutdown()

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

    def test_write_atomic_is_one_request(self, served):
        transport = ObjectStoreTransport.from_url(served.url("bucket"))
        requests: list[tuple[str, str]] = []
        send = transport.store._request

        def counting(method, key, *args, **kwargs):
            requests.append((method, key))
            return send(method, key, *args, **kwargs)

        transport.store._request = counting
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
