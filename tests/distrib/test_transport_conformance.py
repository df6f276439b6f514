"""Transport conformance: every backend honors the same I/O contract.

One parametrized suite runs the full :class:`RegistryTransport`
contract — conditional writes, claim races, steal-once, torn-tail
appends, sorted listings, litter sweeps — against each backend:

* ``fs`` — the historical shared-directory semantics;
* ``memory`` — :class:`ObjectStoreTransport` over an in-process store;
* ``http`` — the same transport speaking real HTTP to the fake
  S3-subset server, the wire path workers use in cloud campaigns.

The lease protocol tests go through :mod:`repro.distrib.lease` on a
:class:`RunNode`, so what is locked here is exactly what claim/renew/
steal/release execute in production.
"""

from __future__ import annotations

import threading

import pytest

from repro.distrib.clock import FakeClock
from repro.distrib.lease import (
    break_expired_lease,
    read_lease,
    release_lease,
    renew_lease,
    try_acquire_lease,
)
from repro.runs.registry import LEASE_FILENAME, RunRegistry
from repro.runs.transport import RunNode, is_litter_key

# ``transport`` (tests/conftest.py) runs every test below once per
# backend in TRANSPORT_KINDS.


class TestReadsAndWrites:
    def test_missing_reads_are_none(self, transport):
        assert transport.read_text("absent.json") is None
        assert transport.read_with_version("absent.json") is None
        assert transport.read_tail("absent.json", 100) is None
        assert transport.size("absent.json") is None
        assert not transport.exists("absent.json")

    def test_write_atomic_roundtrip(self, transport):
        transport.write_atomic("run/result.json", '{"ok": 1}')
        assert transport.exists("run/result.json")
        assert transport.read_text("run/result.json") == '{"ok": 1}'
        assert transport.size("run/result.json") == len('{"ok": 1}')

    def test_write_atomic_replaces_whole_value(self, transport):
        transport.write_atomic("k", "first")
        transport.write_atomic("k", "second-longer")
        assert transport.read_text("k") == "second-longer"

    def test_version_changes_with_content(self, transport):
        transport.write_atomic("k", "one")
        _, v1 = transport.read_with_version("k")
        transport.write_atomic("k", "two")
        text, v2 = transport.read_with_version("k")
        assert text == "two"
        assert v1 != v2
        # stable across reads of unchanged content
        assert transport.read_with_version("k")[1] == v2

    def test_read_tail_returns_suffix(self, transport):
        body = "".join(f"line-{i}\n" for i in range(50))
        transport.write_atomic("stream", body)
        tail = transport.read_tail("stream", 64)
        assert tail is not None
        assert len(tail.encode()) <= 64
        assert body.endswith(tail)


class TestConditionalWrites:
    def test_create_if_absent_wins_once(self, transport):
        assert transport.create_if_absent("claim", "alpha") is not None
        assert transport.create_if_absent("claim", "beta") is None
        assert transport.read_text("claim") == "alpha"

    def test_create_race_has_single_winner(self, transport):
        barrier = threading.Barrier(4)
        wins: list[str] = []
        lock = threading.Lock()

        def contender(name: str) -> None:
            barrier.wait()
            if transport.create_if_absent("raced", name) is not None:
                with lock:
                    wins.append(name)

        threads = [
            threading.Thread(target=contender, args=(f"w{i}",))
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(wins) == 1
        assert transport.read_text("raced") == wins[0]

    def test_put_if_match_rejects_stale_version(self, transport):
        transport.write_atomic("cas", "v1")
        _, current = transport.read_with_version("cas")
        fresh = transport.put_if_match("cas", "v2", current)
        assert fresh is not None and fresh != current
        # the old token is now stale
        assert transport.put_if_match("cas", "v3", current) is None
        assert transport.read_text("cas") == "v2"

    def test_delete_if_match_semantics(self, transport):
        transport.write_atomic("victim", "body")
        _, version = transport.read_with_version("victim")
        assert not transport.delete_if_match("victim", "bogus-version")
        assert transport.read_text("victim") == "body"
        assert transport.delete_if_match("victim", version)
        assert transport.read_text("victim") is None
        # deleting again (any version) reports False, not an error
        assert not transport.delete_if_match("victim", version)

    def test_plain_delete(self, transport):
        transport.write_atomic("gone", "x")
        assert transport.delete("gone")
        assert not transport.delete("gone")


class TestAppendStream:
    def test_append_accumulates_lines(self, transport):
        for i in range(5):
            transport.append_line("run/history.jsonl", f'{{"tick": {i}}}')
        text = transport.read_text("run/history.jsonl")
        assert text.count("\n") == 5
        assert '{"tick": 4}' in text

    def test_concurrent_appends_lose_nothing(self, transport):
        barrier = threading.Barrier(4)

        def appender(tag: int) -> None:
            barrier.wait()
            for i in range(10):
                transport.append_line("stream.jsonl", f"{tag}-{i}")

        threads = [
            threading.Thread(target=appender, args=(t,)) for t in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        lines = transport.read_text("stream.jsonl").splitlines()
        assert sorted(lines) == sorted(
            f"{t}-{i}" for t in range(4) for i in range(10)
        )


class TestListings:
    def test_list_keys_is_sorted(self, transport):
        for key in ("b/result.json", "a/config.json", "a/result.json"):
            transport.write_atomic(key, "{}")
        keys = transport.list_keys("")
        assert keys == sorted(keys)
        assert "a/config.json" in keys

    def test_list_runs_names_prefixes_sorted(self, transport):
        for key in ("zz-run/config.json", "aa-run/config.json"):
            transport.write_atomic(key, "{}")
        runs = transport.list_runs()
        assert runs == sorted(runs)
        assert {"aa-run", "zz-run"} <= set(runs)

    def test_litter_is_recognized(self, transport):
        node = RunNode(transport, "cell")
        node.ensure()
        node.write_atomic("result.json", "{}")
        assert transport.litter("cell") == []
        assert is_litter_key("cell/result.json.tmp-123-abc")
        assert is_litter_key("cell/lease.json.expired-deadbeef")
        assert not is_litter_key("cell/result.json")


class TestLeaseProtocol:
    def _node(self, transport) -> RunNode:
        node = RunNode(transport, "cell")
        node.ensure()
        return node

    def test_claim_race_single_winner(self, transport):
        node = self._node(transport)
        barrier = threading.Barrier(4)
        wins: list[str] = []
        lock = threading.Lock()

        def claimant(owner: str) -> None:
            barrier.wait()
            lease = try_acquire_lease(node, owner, ttl=30.0)
            if lease is not None:
                with lock:
                    wins.append(owner)

        threads = [
            threading.Thread(target=claimant, args=(f"w{i}",))
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(wins) == 1
        assert read_lease(node).owner == wins[0]

    def test_expired_lease_stolen_exactly_once(self, transport):
        node = self._node(transport)
        clock = FakeClock(now=100.0)
        dead = try_acquire_lease(node, "dead", ttl=5.0, clock=clock)
        assert dead is not None
        clock.advance(60.0)
        barrier = threading.Barrier(2)
        steals: list[str] = []
        lock = threading.Lock()

        def thief(owner: str) -> None:
            barrier.wait()
            lease = try_acquire_lease(node, owner, ttl=30.0, clock=clock)
            if lease is not None:
                with lock:
                    steals.append((owner, lease.via))

        threads = [
            threading.Thread(target=thief, args=(f"thief-{i}",))
            for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Exactly one thief may win. Its claim is usually via="stolen";
        # in the tightest interleaving the delete_if_match loser can
        # legitimately re-create into the just-freed slot ("fresh") —
        # either way the slot changed hands exactly once.
        assert len(steals) == 1
        owner, via = steals[0]
        assert via in ("stolen", "fresh")
        assert read_lease(node).owner == owner

    def test_renew_then_release(self, transport):
        node = self._node(transport)
        clock = FakeClock(now=0.0)
        lease = try_acquire_lease(node, "w0", ttl=10.0, clock=clock)
        clock.advance(5.0)
        assert renew_lease(lease, clock=clock)
        info = read_lease(node)
        assert info.heartbeat == pytest.approx(5.0)
        assert release_lease(lease)
        assert read_lease(node) is None

    def test_renewal_fails_after_steal(self, transport):
        node = self._node(transport)
        clock = FakeClock(now=0.0)
        original = try_acquire_lease(node, "w0", ttl=5.0, clock=clock)
        clock.advance(60.0)
        thief = try_acquire_lease(node, "thief", ttl=30.0, clock=clock)
        assert thief is not None and thief.via == "stolen"
        # the dead owner wakes up: its CAS token is stale now
        assert not renew_lease(original, clock=clock)
        assert read_lease(node).owner == "thief"

    def test_break_expired_lease(self, transport):
        node = self._node(transport)
        clock = FakeClock(now=0.0)
        assert not break_expired_lease(node, clock=clock)  # no lease
        assert try_acquire_lease(node, "w0", ttl=5.0, clock=clock)
        assert not break_expired_lease(node, clock=clock)  # still live
        clock.advance(60.0)
        assert break_expired_lease(node, clock=clock)
        assert read_lease(node) is None
        # An unparsable lease would block its cell forever: it is torn
        # down like an expired one.
        node.write_atomic(LEASE_FILENAME, "not json{{{")
        assert break_expired_lease(node, clock=clock)
        assert not node.exists(LEASE_FILENAME)


class TestRegistryGc:
    def test_gc_sweeps_stale_state_and_litter(self, transport):
        registry = RunRegistry("unused-root", transport=transport)
        config = {"scheme": "sa", "network": "vgg16"}
        run = registry.open_run(config, seed=0)
        run.save_checkpoint({"evaluations": 3})
        node = registry.run_node(config, 0)
        # transport-specific write litter, as left by a SIGKILL mid-write
        litter_key = node.key("result.json.tmp-999-deadbeef")
        transport.write_atomic(litter_key, "torn")
        run.finish({"num_evaluations": 3})
        removed, reclaimed = registry.gc()
        assert removed >= 2  # checkpoint + litter at minimum
        assert reclaimed > 0
        assert not node.exists("checkpoint.json")
        assert not transport.exists(litter_key)
        assert node.exists("result.json")
