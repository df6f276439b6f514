"""Durable run registry: one keyspace slice per exploration run.

The paper's result matrices come from hundreds of independent search
runs; this registry makes each of them a durable, restartable unit. A
run is keyed by the SHA-256 of its canonical configuration plus its
seed, and owns a key prefix holding

* ``config.json`` — the serialized cell/run configuration (written at
  open, before any work),
* ``history.jsonl`` — a line-per-event log streamed while the search
  progresses (one line per checkpoint tick),
* ``checkpoint.json`` — the latest generation-level engine checkpoint
  (optional; enables mid-run resume),
* ``result.json`` — the final result, written atomically *last*, so its
  presence is the completion marker.

A killed process therefore leaves either a completed run (result.json
present) or a resumable one (config + history + maybe a checkpoint);
it can never leave a half-written result that masquerades as complete.

All I/O goes through a :class:`repro.runs.transport.RegistryTransport`
— a local directory by default (`FsTransport`, byte-identical to the
historical layout), or an S3-compatible object store when the registry
root is an ``s3://`` URI. A registry file has exactly one address, its
transport key: :meth:`RunRegistry.run_node` addresses one run's files,
:meth:`RunRegistry.root_node` the registry-root keys, and every reader
and writer — history, checkpoints, leases, telemetry — goes through
them.

Append-only streams (``history.jsonl``, ``telemetry.jsonl``) are read
through :func:`iter_jsonl_text` alone: a writer killed mid-append can
tear the final line, and that reader drops it, so a torn history tail
resumes instead of aborting the cell.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator

from ..errors import ConfigError
from .seeds import stable_digest
from .transport import RegistryTransport, RunNode, resolve_transport

_CONFIG = "config.json"
_HISTORY = "history.jsonl"
_CHECKPOINT = "checkpoint.json"
_RESULT = "result.json"
_ERROR = "error.json"
_LEASE = "lease.json"

#: Public names of the per-run lease and checkpoint files —
#: :mod:`repro.distrib` builds its keys from these so the registry and
#: the distributed layer can never disagree about where they live.
LEASE_FILENAME = _LEASE
CHECKPOINT_FILENAME = _CHECKPOINT

#: Hex digits of the config hash used in directory names — enough to
#: make collisions vanishingly unlikely within one registry.
_HASH_CHARS = 12


def config_hash(config: dict[str, Any]) -> str:
    """Stable short hash of a JSON-able configuration dict."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return stable_digest(canonical)[:_HASH_CHARS]


def iter_jsonl_text(text: str | None) -> Iterator[dict]:
    """Yield every complete JSON object line of a ``.jsonl`` stream body.

    The one reader of the append-only streams, hardened against their
    writers' one designed failure mode (a writer killed mid-append): a
    final line without a trailing newline is torn and skipped — even
    when its visible prefix happens to parse — and non-object lines are
    ignored. ``None`` (a missing key) yields nothing.
    """
    if not text:
        return
    lines = text.splitlines()
    if lines and not text.endswith("\n"):
        lines = lines[:-1]
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict):
            yield record


def _decode_warm(
    text: str,
) -> tuple[list[tuple[tuple, tuple]], dict[tuple, tuple]] | None:
    """``(entries in file order, key -> summary)`` of a warm-file payload.

    ``None`` when the text does not parse into ``[members, memory key,
    summary]`` entries — undecodable text and valid JSON of any other
    shape alike.
    """
    try:
        entries = [
            (
                # sorted() rejects members a save could not write back.
                (frozenset(sorted(members)), tuple(mem_key)),
                (bool(summary[0]), int(summary[1]), summary[2], summary[3]),
            )
            for members, mem_key, summary in json.loads(text).get("entries", [])
        ]
        return entries, dict(entries)
    except (
        AttributeError, ArithmeticError, LookupError, RecursionError,
        TypeError, ValueError,
    ):
        return None


def _rows(entries: Iterable[tuple[tuple, tuple]]) -> list[list]:
    """``entries`` as the ``[members, memory key, summary]`` rows a warm
    file stores."""
    return [[sorted(key[0]), list(key[1]), list(summary)] for key, summary in entries]


@dataclass
class _WarmView:
    """One warm file as this process last read or wrote it.

    ``entries`` (file order) and ``summaries`` (by key) are what
    ``text`` holds: parsed from it, or, for text this process wrote,
    the entries it encoded (summary scalars round-trip through JSON
    exactly). ``canonical`` additionally promises that ``text`` is what
    :meth:`RunRegistry.save_warm_summaries` writes for ``entries``
    (distinct keys, ``"entries"`` array last), so the ``]}`` that ends
    it closes the entries array and entries may be added just before it.
    """

    text: str
    entries: list[tuple[tuple, tuple]]
    summaries: dict[tuple, tuple]
    canonical: bool

    def _add(self, text: str, added: list, summaries: dict) -> None:
        self.text = text
        self.entries.extend(added)
        self.summaries.update(summaries)
        self.canonical = len(self.summaries) == len(self.entries)

    def extend(self, text: str) -> bool:
        """Catch up with ``text`` if it is this text plus appended entries.

        That is the only change another writer's merge makes below the
        cap. The appended part is parsed alone, and accepted only when
        it re-encodes to exactly itself — which keeps the view canonical.
        """
        head = self.text[:-2]
        if not (
            self.canonical
            and len(text) > len(self.text)
            and text.endswith("]}")
            and text.startswith(head)
        ):
            return False
        added = text[len(head):-2]
        if self.entries:
            if not added.startswith(", "):
                return False
            added = added[2:]
        decoded = _decode_warm(f'{{"entries": [{added}]}}')
        if decoded is None or not decoded[0]:
            return False
        if json.dumps(_rows(decoded[0]))[1:-1] != added:
            return False
        self._add(text, *decoded)
        return True

    def splice(self, entries: list[tuple[tuple, tuple]], cap: int) -> bool:
        """Merge ``entries`` by appending just the keys this file lacks.

        ``False`` (view untouched) when that would not equal a full
        re-encode: the text is not canonical, a known key carries a
        different summary, or the cap would drop old entries.
        """
        if not self.canonical:
            return False
        fresh: dict[tuple, tuple] = {}
        for key, summary in entries:
            known = self.summaries.get(key)
            if known is None:
                fresh[key] = summary
            elif known != summary:
                return False
        if len(self.summaries) + len(fresh) > cap:
            return False
        if fresh:
            added = json.dumps(_rows(fresh.items()))[1:-1]
            sep = ", " if self.entries else ""
            self._add(f"{self.text[:-2]}{sep}{added}]}}", list(fresh.items()), fresh)
        return True


@dataclass
class RunHandle:
    """One run's keyspace slice, with streaming and completion primitives.

    Every method reads and writes through :attr:`node`.
    """

    node: RunNode
    config: dict[str, Any]

    @property
    def name(self) -> str:
        """The run's registry key (config hash + seed)."""
        return self.node.name

    # -- lifecycle ------------------------------------------------------
    @property
    def is_complete(self) -> bool:
        """Whether the final result has been durably written."""
        return self.node.exists(_RESULT)

    @property
    def has_checkpoint(self) -> bool:
        return self.node.exists(_CHECKPOINT)

    @property
    def has_error(self) -> bool:
        """Whether a deterministic failure has been durably recorded."""
        return self.node.exists(_ERROR)

    # -- streaming ------------------------------------------------------
    def log_history(self, entry: dict[str, Any]) -> None:
        """Append one JSON line to the streamed history log."""
        self.node.append_line(_HISTORY, json.dumps(entry))

    def read_history(self) -> list[dict[str, Any]]:
        """All streamed history entries, in append order.

        A final line torn by a killed writer is dropped, like every
        other stream reader does (:func:`iter_jsonl_text`).
        """
        return list(iter_jsonl_text(self.node.read_text(_HISTORY)))

    def truncate_history(self, max_generation: int, key: str = "generation") -> None:
        """Drop history entries whose ``key`` exceeds ``max_generation``.

        A kill can land between a generation's history line and its
        checkpoint write; resuming from the checkpoint replays that
        generation, so the orphaned line must go or it would appear
        twice. GA/NSGA cells key their lines by ``generation``; SA cells
        by ``step``.
        """
        entries = [
            e for e in self.read_history()
            if e.get(key, -1) <= max_generation
        ]
        self.node.write_atomic(
            _HISTORY,
            "".join(json.dumps(e) + "\n" for e in entries),
        )

    # -- checkpointing --------------------------------------------------
    def save_checkpoint(self, state: dict[str, Any]) -> None:
        """Atomically persist a generation-level checkpoint."""
        self.node.write_atomic(_CHECKPOINT, json.dumps(state))

    def load_checkpoint(self) -> dict[str, Any] | None:
        """The stored checkpoint's JSON; ``None`` when there is none.

        Undecodable text raises :class:`ConfigError`, which fails the
        cell like any other malformed checkpoint.
        """
        text = self.node.read_text(_CHECKPOINT)
        if text is None:
            return None
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"malformed checkpoint: JSONDecodeError: {exc}"
            ) from exc

    # -- completion -----------------------------------------------------
    def finish(self, result: dict[str, Any]) -> None:
        """Write the final result atomically, marking the run complete.

        A stale failure marker from an earlier attempt is dropped — the
        durable result supersedes it.
        """
        self.node.write_atomic(_RESULT, json.dumps(result, indent=2))
        self.node.delete(_ERROR)

    def load_result(self) -> dict[str, Any]:
        text = self.node.read_text(_RESULT)
        if text is None:
            raise ConfigError(f"run {self.name} has no result yet")
        return json.loads(text)

    # -- failure --------------------------------------------------------
    def record_error(self, message: str) -> None:
        """Durably record a deterministic in-run failure.

        Unlike ``result.json`` this does *not* mark the run complete —
        a later invocation may retry it (and will simply overwrite the
        marker if it fails again). Budgeted and distributed campaigns
        need the marker so every participant agrees, from registry state
        alone, that the cell terminated rather than stalled.
        """
        self.node.write_atomic(
            _ERROR,
            json.dumps({"status": "failed", "error": message}, indent=2),
        )

    def load_error(self) -> dict[str, Any] | None:
        text = self.node.read_text(_ERROR)
        if text is None:
            return None
        return json.loads(text)


class RunRegistry:
    """Registry of runs, keyed by config hash + seed.

    ``root`` may be a local directory (the default transport) or an
    ``s3://host:port/bucket`` URI; an explicit ``transport`` overrides
    resolution (in-process object stores in tests).
    """

    def __init__(
        self,
        root: str | Path,
        transport: RegistryTransport | None = None,
    ):
        self.transport = transport if transport is not None else resolve_transport(root)
        #: Human-readable registry location (path or URI) for messages.
        self.location = self.transport.describe()
        self._warm_views: dict[str, _WarmView] = {}

    def run_name(self, config: dict[str, Any], seed: int) -> str:
        """Registry key prefix for one (config, seed) run."""
        return f"{config_hash(config)}-s{seed}"

    def run_node(self, config: dict[str, Any], seed: int) -> RunNode:
        """Transport node addressing one run's keyspace slice."""
        return RunNode(self.transport, self.run_name(config, seed))

    def root_node(self) -> RunNode:
        """Node addressing registry-root keys (manifest, fleet telemetry)."""
        return RunNode(self.transport, "")

    def is_complete(self, config: dict[str, Any], seed: int) -> bool:
        return self.run_node(config, seed).exists(_RESULT)

    def has_error(self, config: dict[str, Any], seed: int) -> bool:
        """Whether the run has a durable failure marker (and no result)."""
        node = self.run_node(config, seed)
        return node.exists(_ERROR) and not node.exists(_RESULT)

    def open_run(self, config: dict[str, Any], seed: int) -> RunHandle:
        """Create (or re-open) the run slice and persist its config.

        Re-opening an *incomplete* run truncates its history stream —
        the run restarts (or resumes from its checkpoint), and stale
        partial history from the killed attempt must not double-count.
        Re-opening a complete run leaves everything untouched.
        """
        node = self.run_node(config, seed)
        node.ensure()
        handle = RunHandle(node, dict(config))
        if not handle.is_complete:
            node.write_atomic(
                _CONFIG,
                json.dumps({"config": config, "seed": seed}, indent=2),
            )
            if node.exists(_HISTORY) and not handle.has_checkpoint:
                node.delete(_HISTORY)
        return handle

    def load(self, config: dict[str, Any], seed: int) -> RunHandle:
        """Handle for an existing run — one whose config is written.

        No writes; the check goes through the run's node on every
        transport.
        """
        node = self.run_node(config, seed)
        if not node.exists(_CONFIG):
            raise ConfigError(f"no run {node.describe()}")
        return RunHandle(node, dict(config))

    def runs(self) -> Iterator[RunHandle]:
        """Iterate every registered run (complete or not), sorted by name."""
        for name in self.transport.list_runs():
            text = self.transport.read_text(f"{name}/{_CONFIG}")
            if text is None:
                continue
            payload = json.loads(text)
            yield RunHandle(RunNode(self.transport, name), payload.get("config", {}))

    def completed(self) -> list[RunHandle]:
        """Every run whose final result has been written."""
        return [run for run in self.runs() if run.is_complete]

    # -- warm-summary persistence ---------------------------------------
    #: Entries kept per (network, bytes-per-element) warm file; matches
    #: the evaluator's summary-cache order of magnitude.
    WARM_SUMMARY_CAP = 50_000

    def _warm_key(self, network: str, bytes_per_element: int) -> str:
        return f"warm/{network}-bpe{bytes_per_element}.json"

    def _warm_view(self, key_name: str) -> _WarmView | None:
        """Read one warm file; ``None`` when it is missing or corrupt.

        The file is read through the transport every time. Its text is
        only parsed when it is neither the text this process last saw
        nor that text with entries appended (see :class:`_WarmView`).
        """
        text = self.transport.read_text(key_name)
        view = self._warm_views.pop(key_name, None)
        if text is None:
            return None
        if view is None or not (text == view.text or view.extend(text)):
            decoded = _decode_warm(text)
            if decoded is None:
                return None
            view = _WarmView(text, *decoded, canonical=False)
        self._warm_views[key_name] = view
        return view

    def load_warm_summaries(
        self, network: str, bytes_per_element: int
    ) -> list[tuple[tuple, tuple]]:
        """Persisted subgraph summaries, ready for ``absorb_summaries``.

        Summaries are pure values keyed by ``(subgraph members, memory
        key)``, so any evaluator over the same network and element width
        can absorb them verbatim — a restarted or freshly sharded worker
        warm-starts instead of re-pricing the population's subgraphs.
        Returns ``[]`` when nothing was persisted yet or the file is
        unreadable (corruption just costs a cold start, never an error).
        """
        view = self._warm_view(self._warm_key(network, bytes_per_element))
        return list(view.entries) if view is not None else []

    def save_warm_summaries(
        self,
        network: str,
        bytes_per_element: int,
        entries: list[tuple[tuple, tuple]],
        cap: int | None = None,
    ) -> str:
        """Merge summary entries into the network's warm file (atomic).

        Existing entries come first and new keys append after, so under
        the ``cap`` the *newest* entries survive (mirroring the
        evaluator's LRU). Concurrent writers last-write-wins — safe
        because every writer's values for a shared key are bit-identical
        (evaluation is pure). Below the cap only the keys the file lacks
        are encoded; the file is re-encoded whole when the cap drops old
        entries or its text is not known to be canonical.
        """
        if cap is None:
            cap = self.WARM_SUMMARY_CAP
        key_name = self._warm_key(network, bytes_per_element)
        view = self._warm_view(key_name)
        if view is None or not view.splice(entries, cap):
            merged = dict(view.summaries) if view is not None else {}
            merged.update(entries)
            kept = list(merged.items())[-cap:]
            payload = {
                "version": 1,
                "network": network,
                "bytes_per_element": bytes_per_element,
                "entries": _rows(kept),
            }
            view = _WarmView(json.dumps(payload), kept, dict(kept), canonical=True)
            self._warm_views[key_name] = view
        self.transport.write_atomic(key_name, view.text)
        return key_name

    def gc(self) -> tuple[int, int]:
        """Drop stale per-run scratch of *completed* runs.

        A completed run's ``checkpoint.json`` (which can dwarf the
        result for GA/NSGA cells), any leftover ``lease.json``, and the
        transport's write-litter from killed writers (filesystem
        ``*.tmp-*`` temps and ``lease.json.expired-*`` tombstones —
        SIGKILL mid-write is this subsystem's designed failure mode;
        object-store writes are single PUTs and leave none, but
        registries written by older versions may still hold ``.tmp-``
        staging objects) are dead weight: the atomically-written
        ``result.json`` is the only key future invocations read.
        Incomplete runs keep everything — their checkpoint is exactly
        what a resume needs, and their temp files may belong to a live
        writer.

        Returns ``(files_removed, bytes_reclaimed)``.
        """
        removed = 0
        reclaimed = 0
        for run in self.completed():
            stale = [run.node.key(_CHECKPOINT), run.node.key(_LEASE)]
            stale.extend(self.transport.litter(run.name))
            for key in stale:
                size = self.transport.size(key)
                if size is None:
                    continue
                if not self.transport.delete(key):
                    continue  # lost a race with another gc
                removed += 1
                reclaimed += size
        return removed, reclaimed
