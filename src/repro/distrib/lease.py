"""Lease protocol for run-registry cells, over conditional writes.

One lease object per run (``lease.json``, name shared with
:mod:`repro.runs.registry`), holding the owner's id, a random nonce,
the acquisition and last-heartbeat timestamps, and the lease TTL. The
protocol is built entirely on the transport's conditional primitives
(:mod:`repro.runs.transport`), so the same code claims cells on a
shared POSIX directory and on an S3-compatible object store:

* **acquire** — ``create_if_absent``: single-winner and
  *content*-atomic (on the filesystem this is the private-temp +
  ``os.link`` idiom — no reader ever sees an empty claimed lease; on
  object stores it is ``PUT`` with ``If-None-Match: *``).
* **renew** — ``put_if_match`` against the version token of *our own
  last write* (a content digest locally, an ETag remotely). A renewal
  after a steal fails the compare-and-swap and reports the lease lost.
* **release** — ``delete_if_match`` with the same token; never touches
  a lease someone else re-acquired.
* **steal** — reclaim an *expired* (or unparsable) lease: the
  claimant tears it down with :func:`break_expired_lease` — a
  ``delete_if_match`` of the observed version (on the filesystem a
  rename-to-tombstone with restore-on-mismatch; remotely a conditional
  ``DELETE``) — then ``create_if_absent`` a fresh lease. Only one
  stealer's delete can win. A peer's ``create_if_absent`` can land
  between that delete and the stealer's create: the peer then holds a
  ``"fresh"`` lease on the cell and the stealer walks away empty-handed.
  Either way the dead owner's cell is claimed exactly once; a claim
  counts as ``"stolen"`` only when its claimant also tore the expired
  lease down. Workers are the only reclaimers, so every reclaim shows
  up as a ``lease.claim`` event in the cell's telemetry.

Clocks: heartbeat ages compare a reader's clock against a writer's, so
workers sharing a registry should have roughly synchronized clocks (NTP
is plenty — TTLs are tens of seconds). The protocol's correctness story
does not rest on this: cells are deterministic and their results are
written atomically, so the worst a bad clock causes is duplicate
execution of identical work (see :mod:`repro.distrib`).

Every time-dependent primitive takes an injectable ``clock`` (a
zero-argument callable returning seconds, default ``time.time``), so
expiry behavior is testable with a logical clock instead of real
sleeps — the lease tests advance a fake clock past the TTL rather than
waiting it out. :meth:`LeaseInfo.age` and :meth:`LeaseInfo.is_expired`
take the instant itself, so a status view judges every lease of one
snapshot at the same time.

Cell addresses: every primitive takes a
:class:`repro.runs.transport.RunNode` (``registry.run_node(...)``), the
one address of a registry file — so one worker binary serves every
transport, and a wrapper around the transport sees every lease write.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from dataclasses import dataclass
from typing import Callable

from ..runs.registry import LEASE_FILENAME
from ..runs.transport import RunNode
from .clock import Clock


@dataclass(frozen=True)
class LeaseInfo:
    """A lease's contents, as read from the registry."""

    owner: str
    nonce: str
    acquired_at: float
    heartbeat: float
    ttl: float
    #: Optional heartbeat enrichment: the owner's cumulative evaluation
    #: counter at its last renewal — status views and the dashboard
    #: derive per-worker throughput from it, not just liveness. Absent
    #: (``None``) on freshly acquired leases and on files written by
    #: older workers.
    evals_done: int | None = None
    #: When the owning worker started (its clock), for throughput rates.
    started_at: float | None = None

    def age(self, now: float) -> float:
        """Seconds since the last heartbeat, at time ``now``."""
        return now - self.heartbeat

    def is_expired(self, now: float) -> bool:
        """Whether the owner has missed its heartbeat by more than TTL."""
        return self.age(now) > self.ttl


@dataclass
class Lease:
    """A lease *we* hold: the handle renew/release operate on."""

    node: RunNode
    owner: str
    nonce: str
    ttl: float
    acquired_at: float
    #: How this lease was obtained: ``"fresh"`` (free cell) or
    #: ``"stolen"`` (we tore down an expired owner's lease).
    via: str = "fresh"
    #: Version token of our latest write (content digest / ETag);
    #: renewals compare-and-swap against it, so a steal between two of
    #: our writes surfaces as a failed renewal, never a silent clobber.
    version: str | None = None


def _encode(
    lease: Lease, heartbeat: float, extra: dict | None = None
) -> str:
    body = {
        "owner": lease.owner,
        "nonce": lease.nonce,
        "acquired_at": lease.acquired_at,
        "heartbeat": heartbeat,
        "ttl": lease.ttl,
    }
    if extra:
        # Enrichment keys (progress counters) must never mask the
        # protocol fields a peer's expiry/steal logic reads.
        body.update({k: v for k, v in extra.items() if k not in body})
    return json.dumps(body)


def _decode(text: str) -> LeaseInfo | None:
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        return None
    try:
        return LeaseInfo(
            owner=data["owner"],
            nonce=data["nonce"],
            acquired_at=data["acquired_at"],
            heartbeat=data["heartbeat"],
            ttl=data["ttl"],
            evals_done=(
                int(data["evals_done"])
                if isinstance(data.get("evals_done"), (int, float))
                else None
            ),
            started_at=(
                float(data["started_at"])
                if isinstance(data.get("started_at"), (int, float))
                else None
            ),
        )
    except (KeyError, TypeError):
        return None


def read_lease(node: RunNode) -> LeaseInfo | None:
    """The current lease on a cell, or ``None`` when free.

    A half-disappeared or unparsable lease (lost a race with a release,
    or a writer died mid-crash long ago) reads as free — claimants will
    then race through single-winner creation, which stays atomic.
    """
    text = node.read_text(LEASE_FILENAME)
    if text is None:
        return None
    return _decode(text)


def try_acquire_lease(
    node: RunNode,
    owner: str,
    ttl: float,
    clock: Clock = time.time,
) -> Lease | None:
    """Claim a cell; ``None`` if a peer holds it or wins the race.

    Ensures the cell's container exists (claiming often precedes the
    first write to a cell). A free cell is claimed atomically; a held
    one only after :func:`break_expired_lease` tore its expired (or
    unparsably torn) lease down, and the claim then counts as
    ``"stolen"``. A lease released between our create and the teardown's
    read also yields ``None``; the caller's next pass claims the cell.
    ``clock`` supplies the acquisition/expiry timestamps (tests inject a
    logical clock so TTL expiry needs no real sleeping).
    """
    node.ensure()
    lease = Lease(
        node=node,
        owner=owner,
        nonce=uuid.uuid4().hex,
        ttl=float(ttl),
        acquired_at=clock(),
    )
    body = _encode(lease, heartbeat=lease.acquired_at)
    version = node.create_if_absent(LEASE_FILENAME, body)
    if version is None:
        if not break_expired_lease(node, clock=clock):
            return None
        version = node.create_if_absent(LEASE_FILENAME, body)
        if version is None:
            return None
        lease.via = "stolen"
    lease.version = version
    return lease


def renew_lease(
    lease: Lease,
    clock: Clock = time.time,
    extra: dict | None = None,
) -> bool:
    """Refresh the heartbeat; False when the lease is no longer ours.

    Losing a lease (someone stole it after we stalled past the TTL) is
    *not* an abort signal — the cell's execution stays valid, it has
    merely become a duplicate of the thief's. Callers just stop renewing
    and skip the release.

    The renewal is a compare-and-swap against our previous write's
    version token, so it can never overwrite a thief's lease — the
    conditional put *is* the nonce check.

    ``extra`` enriches the lease body with observational progress keys
    (``evals_done``, ``started_at``) that status views and the
    dashboard read; the protocol itself never consults them.
    """
    if lease.version is None:
        return False
    body = _encode(lease, heartbeat=clock(), extra=extra)
    version = lease.node.put_if_match(LEASE_FILENAME, body, lease.version)
    if version is None:
        return False
    lease.version = version
    return True


def release_lease(lease: Lease) -> bool:
    """Drop the lease; False when it was no longer ours to drop."""
    if lease.version is None:
        return False
    return lease.node.delete_if_match(LEASE_FILENAME, lease.version)


def break_expired_lease(node: RunNode, clock: Clock = time.time) -> bool:
    """Tear down an expired lease; True when this call removed it.

    The steal half of :func:`try_acquire_lease`. An unparsable lease
    (garbage that would block its cell forever) counts as expired. The
    delete is conditional on the exact version read, so a lease renewed
    or re-acquired in the window survives untouched. False when the
    cell has no lease, a live one, or a peer's write won the race.
    """
    current = node.read_with_version(LEASE_FILENAME)
    if current is None:
        return False
    text, observed = current
    info = _decode(text)
    if info is not None and not info.is_expired(clock()):
        return False
    return node.delete_if_match(LEASE_FILENAME, observed)


class Heartbeat:
    """Daemon thread renewing a lease every ``interval`` seconds.

    Runs alongside the cell's search (which may not surface a hook for
    tens of seconds in evaluation-heavy generations) so the lease stays
    fresh however long a generation takes. A SIGKILL takes the thread
    down with the worker — exactly what lets the lease expire and the
    cell be reclaimed.
    """

    def __init__(
        self,
        lease: Lease,
        interval: float | None = None,
        clock: Clock = time.time,
        progress: "Callable[[], dict] | None" = None,
    ):
        self.lease = lease
        self.interval = (
            interval if interval is not None else max(0.05, lease.ttl / 4.0)
        )
        self.clock = clock
        #: Optional zero-argument callable sampled at every renewal; its
        #: dict enriches the lease body (``evals_done`` and friends).
        #: Purely observational — a raising callable degrades to a plain
        #: heartbeat, never to a lost lease.
        self.progress = progress
        self.lost = False
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _extra(self) -> dict | None:
        if self.progress is None:
            return None
        try:
            return self.progress()
        except Exception:
            return None

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            if not renew_lease(
                self.lease, clock=self.clock, extra=self._extra()
            ):
                self.lost = True
                return

    def __enter__(self) -> "Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
