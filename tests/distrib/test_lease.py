"""The filesystem lease protocol: atomic claim, heartbeat, expiry steal.

Expiry is tested against an injected logical clock (advanced past the
TTL) rather than real ``time.sleep`` waits, so the tests are
deterministic and immune to scheduler hiccups on loaded CI runners.
Only the heartbeat-thread tests still touch the wall clock — the thread
itself is the subject there.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.distrib.clock import FakeClock
from repro.distrib.lease import (
    Heartbeat,
    break_expired_lease,
    read_lease,
    release_lease,
    renew_lease,
    try_acquire_lease,
)
from repro.runs.transport import FsTransport, RunNode


@pytest.fixture
def run_dir(tmp_path):
    return tmp_path / "cell-dir"


@pytest.fixture
def node(run_dir):
    """The cell, addressed as the lease primitives take it."""
    return RunNode(FsTransport(run_dir), "")


@pytest.fixture
def clock():
    return FakeClock()


class TestAcquire:
    def test_free_cell_is_claimed(self, node, clock):
        lease = try_acquire_lease(node, "w1", ttl=30, clock=clock)
        assert lease is not None
        assert lease.via == "fresh"
        info = read_lease(node)
        assert info.owner == "w1"
        assert info.nonce == lease.nonce
        assert not info.is_expired(clock())

    def test_creates_run_dir(self, run_dir, node):
        assert not run_dir.exists()
        try_acquire_lease(node, "w1", ttl=30)
        assert run_dir.is_dir()

    def test_held_cell_is_refused(self, node, clock):
        assert try_acquire_lease(node, "w1", ttl=30, clock=clock) is not None
        assert try_acquire_lease(node, "w2", ttl=30, clock=clock) is None

    def test_expired_cell_is_stolen(self, run_dir, node, clock):
        stale = try_acquire_lease(node, "w1", ttl=5, clock=clock)
        assert stale is not None
        clock.advance(6)  # > ttl: no heartbeat arrived in time
        lease = try_acquire_lease(node, "w2", ttl=30, clock=clock)
        assert lease is not None
        assert lease.via == "stolen"
        assert read_lease(node).owner == "w2"
        # no tombstones left behind
        assert list(run_dir.glob("lease.json.expired-*")) == []

    def test_unexpired_cell_is_not_stolen(self, node, clock):
        try_acquire_lease(node, "w1", ttl=5, clock=clock)
        clock.advance(4.9)  # just inside the TTL
        assert try_acquire_lease(node, "w2", ttl=30, clock=clock) is None
        assert read_lease(node).owner == "w1"

    def test_heartbeat_defers_expiry(self, node, clock):
        lease = try_acquire_lease(node, "w1", ttl=5, clock=clock)
        clock.advance(4)
        assert renew_lease(lease, clock=clock)
        clock.advance(4)  # 8s after acquire, 4s after the renewal
        assert try_acquire_lease(node, "w2", ttl=30, clock=clock) is None
        assert read_lease(node).owner == "w1"

    def test_garbage_lease_file_is_reclaimed(self, node):
        """A torn lease file must not block its cell forever."""
        node.write_atomic("lease.json", "not json{{{")
        assert read_lease(node) is None
        lease = try_acquire_lease(node, "w1", ttl=30)
        assert lease is not None
        assert read_lease(node).owner == "w1"


class TestRenewRelease:
    def test_renew_updates_heartbeat(self, node, clock):
        lease = try_acquire_lease(node, "w1", ttl=30, clock=clock)
        before = read_lease(node).heartbeat
        clock.advance(5)
        assert renew_lease(lease, clock=clock)
        assert read_lease(node).heartbeat == before + 5

    def test_renew_fails_after_steal(self, node, clock):
        stale = try_acquire_lease(node, "w1", ttl=5, clock=clock)
        clock.advance(6)
        thief = try_acquire_lease(node, "w2", ttl=30, clock=clock)
        assert thief is not None
        assert not renew_lease(stale, clock=clock)
        # and the thief's lease is untouched by the failed renewal
        assert read_lease(node).nonce == thief.nonce

    def test_release_frees_the_cell(self, node):
        lease = try_acquire_lease(node, "w1", ttl=30)
        assert release_lease(lease)
        assert read_lease(node) is None
        assert try_acquire_lease(node, "w2", ttl=30) is not None

    def test_release_of_stolen_lease_is_noop(self, node, clock):
        stale = try_acquire_lease(node, "w1", ttl=5, clock=clock)
        clock.advance(6)
        thief = try_acquire_lease(node, "w2", ttl=30, clock=clock)
        assert not release_lease(stale)
        assert read_lease(node).nonce == thief.nonce


class TestBreakExpired:
    def test_breaks_only_expired(self, node, clock):
        lease = try_acquire_lease(node, "w1", ttl=30, clock=clock)
        assert not break_expired_lease(node, clock=clock)
        assert read_lease(node).nonce == lease.nonce

    def test_break_frees_cell(self, node, clock):
        try_acquire_lease(node, "w1", ttl=5, clock=clock)
        clock.advance(6)
        assert break_expired_lease(node, clock=clock)
        assert read_lease(node) is None

    def test_break_without_lease_is_noop(self, node):
        node.ensure()
        assert not break_expired_lease(node)


class _CountingTransport:
    """Delegates to a transport, logging the conditional lease operations."""

    def __init__(self, inner, held_once: bool = False):
        self.inner = inner
        self.ops: list[str] = []
        #: Fail the first create as if a peer held the lease, and released
        #: it before the claimant's read.
        self.held_once = held_once

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def create_if_absent(self, key, text):
        self.ops.append("create")
        if self.held_once:
            self.held_once = False
            return None
        return self.inner.create_if_absent(key, text)

    def read_with_version(self, key):
        self.ops.append("read")
        return self.inner.read_with_version(key)

    def delete_if_match(self, key, version):
        self.ops.append("delete")
        return self.inner.delete_if_match(key, version)


class TestContestedClaimOps:
    """What a claim of a held cell costs, lease state by lease state."""

    @pytest.mark.parametrize(
        "state, via, ops",
        [
            ("live", None, ["create", "read"]),
            ("expired", "stolen", ["create", "read", "delete", "create"]),
            ("garbage", "stolen", ["create", "read", "delete", "create"]),
            # Released between the create and the read: the claimant
            # walks away and claims the cell on its next pass.
            ("released", None, ["create", "read"]),
        ],
    )
    def test_claim(self, run_dir, clock, state, via, ops):
        transport = _CountingTransport(
            FsTransport(run_dir), held_once=state == "released"
        )
        node = RunNode(transport, "")
        if state == "garbage":
            node.write_atomic("lease.json", "not json{{{")
        elif state != "released":
            try_acquire_lease(node, "w1", ttl=5, clock=clock)
            transport.ops.clear()
            if state == "expired":
                clock.advance(6)
        lease = try_acquire_lease(node, "w2", ttl=30, clock=clock)
        assert (None if lease is None else lease.via) == via
        assert transport.ops == ops


class TestHeartbeat:
    def test_thread_keeps_lease_fresh(self, node):
        lease = try_acquire_lease(node, "w1", ttl=0.4)
        with Heartbeat(lease, interval=0.05):
            time.sleep(0.6)  # > ttl: would expire without the thread
            assert not read_lease(node).is_expired(time.time())
        assert not read_lease(node).is_expired(time.time())

    def test_thread_stamps_with_injected_clock(self, node):
        clock = FakeClock(now=5_000.0)
        lease = try_acquire_lease(node, "w1", ttl=30, clock=clock)
        assert read_lease(node).heartbeat == 5_000.0
        clock.advance(7)  # the next renewal must stamp the new value
        with Heartbeat(lease, interval=0.02, clock=clock):
            deadline = time.time() + 5.0
            while (
                read_lease(node).heartbeat != 5_007.0
                and time.time() < deadline
            ):
                time.sleep(0.01)
        assert read_lease(node).heartbeat == 5_007.0

    def test_thread_detects_lost_lease(self, node):
        lease = try_acquire_lease(node, "w1", ttl=30)
        with Heartbeat(lease, interval=0.05) as beat:
            # simulate a steal: replace the lease under the thread
            payload = json.loads(node.read_text("lease.json"))
            payload["nonce"] = "someone-else"
            node.write_atomic("lease.json", json.dumps(payload))
            time.sleep(0.2)
        assert beat.lost


class TestEnrichment:
    """Heartbeat progress enrichment: observational, never protocol."""

    def test_renew_extra_surfaces_in_read(self, node):
        lease = try_acquire_lease(node, "w1", ttl=30)
        assert renew_lease(
            lease, extra={"evals_done": 42, "started_at": 100.0}
        )
        info = read_lease(node)
        assert info.evals_done == 42
        assert info.started_at == 100.0

    def test_fresh_lease_has_no_enrichment(self, node):
        try_acquire_lease(node, "w1", ttl=30)
        info = read_lease(node)
        assert info.evals_done is None
        assert info.started_at is None

    def test_plain_renew_drops_stale_enrichment(self, node):
        # Enrichment reflects the *latest* renewal only: a renewal
        # without extras must not resurrect older counters.
        lease = try_acquire_lease(node, "w1", ttl=30)
        assert renew_lease(lease, extra={"evals_done": 42})
        assert renew_lease(lease)
        assert read_lease(node).evals_done is None

    def test_extra_cannot_mask_protocol_fields(self, node):
        lease = try_acquire_lease(node, "w1", ttl=30)
        assert renew_lease(
            lease, extra={"owner": "forged", "ttl": 0.0, "evals_done": 7}
        )
        info = read_lease(node)
        assert info.owner == "w1"
        assert info.ttl == 30.0
        assert info.evals_done == 7

    def test_malformed_enrichment_reads_as_absent(self, node):
        lease = try_acquire_lease(node, "w1", ttl=30)
        assert renew_lease(
            lease, extra={"evals_done": "lots", "started_at": None}
        )
        info = read_lease(node)
        assert info.owner == "w1"
        assert info.evals_done is None
        assert info.started_at is None

    def test_heartbeat_thread_carries_progress(self, node):
        lease = try_acquire_lease(node, "w1", ttl=30)
        with Heartbeat(
            lease,
            interval=0.02,
            progress=lambda: {"evals_done": 9, "started_at": 1.5},
        ):
            deadline = time.time() + 5.0
            while (
                read_lease(node).evals_done != 9
                and time.time() < deadline
            ):
                time.sleep(0.01)
        info = read_lease(node)
        assert info.evals_done == 9
        assert info.started_at == 1.5

    def test_raising_progress_degrades_to_plain_heartbeat(self, node):
        clock = FakeClock(now=1_000.0)
        lease = try_acquire_lease(node, "w1", ttl=30, clock=clock)

        def bad_progress() -> dict:
            raise RuntimeError("telemetry must never kill the beat")

        clock.advance(3)
        with Heartbeat(
            lease, interval=0.02, clock=clock, progress=bad_progress
        ) as beat:
            deadline = time.time() + 5.0
            while (
                read_lease(node).heartbeat != 1_003.0
                and time.time() < deadline
            ):
                time.sleep(0.01)
        assert not beat.lost
        assert read_lease(node).heartbeat == 1_003.0
