#!/usr/bin/env python
"""Distrib smoke: workers SIGKILLed mid-cell, identical merged reports.

The CI acceptance check for the distributed campaign layer, in two
phases, runnable against either registry transport (``--transport``):

* ``fs`` — the classic shared-directory registry;
* ``objectstore`` — an S3-compatible conditional-PUT object store: the
  smoke process hosts the deterministic in-process fake server
  (:mod:`repro.distrib.objectstore`) and every worker/coordinator
  subprocess reaches it over a real ``s3://host:port/bucket`` URI,
  passed as ``--registry``.

Phase 1 (unbudgeted, cocco+sa matrix):

1. run a small matrix to completion single-process in a *clean* local
   registry (`repro suite`) — the reference is always FsTransport;
2. start a `repro worker` against a second (selected-transport)
   registry with fault injection targeting the first cell: the worker
   claims the cell's lease, then hard-exits mid-cell exactly like an
   OOM kill — leaving an unreleased lease and no durable result;
3. start two concurrent survivor `repro worker` processes on the same
   registry: once the dead worker's lease expires, exactly one of them
   must claim its cell before it completes (one survivor tears the
   expired lease down, and either may win the re-create), re-run it,
   and between them finish the whole campaign;
4. merge the registry (`repro suite --report-only`) and assert the
   merged rows are bit-identical to the clean single-process run's.

Phase 2 (budgeted, islands+two-step matrix): the matrix holds an
island-model cell and a two-step (rs) cell under a sample budget sized
so the budget binds. A lone worker is SIGKILLed *mid-islands-cell*
(after its composite checkpoint is durably streaming, before the cell
can finish). The resume is then driven by the **coordinator**
(`repro suite --distributed --workers 2`): it spawns workers against
the queue of claimable cells, and a spawned worker steals the orphaned
lease, resumes the checkpoint mid-search and runs the campaign to its
budget. Asserts the resume happened (a ``resumed`` ``lease.claim`` by an
``elastic-w*`` worker, ``via: "stolen"``, plus ``fleet.scale`` spawn
events and no ``died`` one), that the registry charged exactly the
budget, and that the merged report is bit-identical to a clean budgeted
single-process FsTransport run.

Exit code 0 on success; non-zero with a diagnostic otherwise. The
killed-and-reclaimed registries are left in place (object-store
contents are dumped to ``<workdir>/objectstore-dump`` on exit) so CI
can upload them as artifacts.

Usage::

    PYTHONPATH=src python scripts/distrib_smoke.py --workdir distrib-smoke
    PYTHONPATH=src python scripts/distrib_smoke.py --transport objectstore
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.runs.transport import RunNode, resolve_transport  # noqa: E402

MATRIX_ARGS = [
    "--networks", "vgg16,googlenet",
    "--schemes", "cocco,sa",
    "--scale", "tiny",
    "--seed", "0",
]

#: The first cell in matrix order — the one the victim worker claims.
FAULT_CELL = "vgg16/separate/energy/b1/cocco"

#: Phase 2: an island-model cell plus a two-step (rs) cell.
BUDGET_MATRIX_ARGS = [
    "--networks", "vgg16",
    "--schemes", "islands,rs",
    "--scale", "tiny",
    "--seed", "0",
]

#: Phase 2 sample budget. At tiny scale the islands cell needs ~96
#: evaluations and the rs cell 64 (160 total), so 130 forces the
#: initial 65/65 split to bind: rs finishes under its cap and refunds,
#: islands exhausts at the grown cap — exercising stop-at-cap, resume,
#: and refund re-granting across worker processes.
BUDGET = 130


class RegistryProbe:
    """Transport-aware read access to a registry (path or s3 URI)."""

    def __init__(self, root: str):
        self.root = str(root)
        self.transport = resolve_transport(self.root)

    def node(self, name: str = "") -> RunNode:
        return RunNode(self.transport, name)

    def read_json(self, name: str, filename: str) -> dict | None:
        text = self.node(name).read_text(filename)
        return None if text is None else json.loads(text)

    def lease_keys(self) -> list[str]:
        return [
            key
            for key in self.transport.list_keys("")
            if key.endswith("/lease.json")
        ]

    def charged_evaluations(self) -> int:
        """Total durably-charged samples: results first, else checkpoints."""
        total = 0
        for name in self.transport.list_runs():
            if self.read_json(name, "config.json") is None:
                continue
            result = self.read_json(name, "result.json")
            if result is not None:
                total += result.get("num_evaluations", 0)
                continue
            checkpoint = self.read_json(name, "checkpoint.json")
            if checkpoint is not None:
                total += checkpoint.get("evaluations", 0)
        return total

    def find_run(self, scheme: str) -> str | None:
        for name in self.transport.list_runs():
            config = self.read_json(name, "config.json")
            if config and config.get("config", {}).get("scheme") == scheme:
                return name
        return None

    def claims_before_finish(self, cell: str) -> list[dict]:
        """``lease.claim`` events on the cell whose id has ``cell``, up to
        its ``cell.finish``.

        A later claim found the cell complete and ran nothing: its
        claimant probed progress just before a peer finished the cell.
        """
        claims = []
        for name in self.transport.list_runs():
            for record in self.telemetry_records(name):
                if cell not in str(record.get("cell", "")):
                    continue
                if record.get("kind") == "cell.finish":
                    return claims
                if record.get("kind") == "lease.claim":
                    claims.append(record)
        return claims

    def telemetry_records(self, name: str = "") -> list[dict]:
        text = self.node(name).read_text("telemetry.jsonl")
        if text is None:
            return []
        lines = text.splitlines()
        if lines and not text.endswith("\n"):
            lines = lines[:-1]  # a torn final line is the designed loss
        records = []
        for line in lines:
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                records.append(record)
        return records


#: The smoke's work directory, where object-store dumps land; set by
#: main().
_WORKDIR = Path("distrib-smoke")


def suite_command(root: str, *extra: str, matrix=None) -> list[str]:
    return [
        sys.executable, "-m", "repro", "suite",
        *(matrix or MATRIX_ARGS), "--registry", root, *extra,
    ]


def worker_command(
    root: str, worker_id: str, *extra: str, matrix=None
) -> list[str]:
    return [
        sys.executable, "-m", "repro", "worker",
        *(matrix or MATRIX_ARGS), "--registry", root,
        "--worker-id", worker_id, "--ttl", "3", "--poll", "0.1", *extra,
    ]


def read_rows(path: Path) -> list:
    if not path.exists():
        raise SystemExit(f"FAIL: no merged report at {path}")
    return json.loads(path.read_text())["rows"]


#: Live fake servers, so failures can dump their contents as artifacts.
_SERVERS: list = []


def make_registry_root(workdir: Path, transport: str, name: str) -> str:
    """A fresh registry root on the selected transport."""
    if transport == "fs":
        return str(workdir / name)
    from repro.distrib.objectstore import ObjectStore, serve_in_thread

    server, _thread = serve_in_thread(("127.0.0.1", 0), ObjectStore())
    _SERVERS.append((name, server))
    return server.url(name)


def dump_servers(workdir: Path) -> None:
    """Persist every fake server's objects for CI artifact upload."""
    for name, server in _SERVERS:
        dest = workdir / "objectstore-dump" / name
        for key, _size, _etag in server.store.list(""):
            blob = server.store.get(key)
            if blob is None:
                continue
            target = dest / key
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(blob[0])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="distrib-smoke",
                        help="directory holding registries and reports")
    parser.add_argument("--transport", choices=("fs", "objectstore"),
                        default="fs",
                        help="registry transport for the kill/reclaim/"
                             "resume registries (the clean reference "
                             "is always a local fs registry)")
    args = parser.parse_args()

    global _WORKDIR
    workdir = _WORKDIR = Path(args.workdir)
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    clean = workdir / "clean-registry"
    shared_root = make_registry_root(workdir, args.transport, "shared")
    shared = RegistryProbe(shared_root)
    env = dict(os.environ)
    print(f"transport axis: {args.transport} (shared registry at "
          f"{shared_root})")

    # 1. clean single-process reference run (always fs)
    subprocess.run(
        suite_command(str(clean), "--workers", "1"), env=env, check=True,
        stdout=subprocess.DEVNULL,
    )
    clean_rows = read_rows(clean / "report.json")
    print(f"clean single-process run: {len(clean_rows)} rows")

    # 2. victim worker: dies mid-cell on the first cell it claims,
    # leaving an unreleased lease behind
    victim_env = dict(env, REPRO_SUITE_FAULT_CELL=FAULT_CELL)
    victim = subprocess.run(
        worker_command(shared_root, "victim"), env=victim_env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    if victim.returncode != 23:
        print(f"FAIL: victim exited {victim.returncode}, expected the "
              "injected hard-kill code 23")
        return 1
    leases = shared.lease_keys()
    if len(leases) != 1:
        print(f"FAIL: expected exactly one orphaned lease, found {leases}")
        return 1
    print("victim killed mid-cell; orphaned lease in place")

    # 3. two concurrent survivors: a real shared-registry fleet. Exactly
    # one of them must claim the victim's cell; both must exit clean.
    survivors = [
        subprocess.Popen(
            worker_command(shared_root, f"survivor-{i}"), env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        for i in range(2)
    ]
    for process in survivors:
        stdout, _ = process.communicate(timeout=600)
        if process.returncode != 0:
            print(f"FAIL: a survivor exited {process.returncode}:\n{stdout}")
            return 1
        print(stdout.strip().splitlines()[-1])
    # The survivor whose conditional delete tears down the expired lease
    # usually wins the re-create too (a "stolen" claim); the other
    # survivor's create can land in between (a "fresh" claim). Either
    # way the victim's cell is claimed once before it completes.
    claims = [
        record
        for record in shared.claims_before_finish(FAULT_CELL)
        if record.get("owner") != "victim"
    ]
    if len(claims) != 1:
        print(f"FAIL: expected exactly one survivor claim of the victim's "
              f"cell, saw {len(claims)}: {claims}")
        return 1
    print(f"victim's cell claimed once, by {claims[0].get('owner')} "
          f"(via {claims[0].get('via')})")

    # 4. merged report must be bit-identical to the clean run
    shared_report = workdir / "shared-report.json"
    subprocess.run(
        suite_command(shared_root, "--report-only", "--export",
                      str(shared_report)),
        env=env, check=True, stdout=subprocess.DEVNULL,
    )
    shared_rows = read_rows(shared_report)
    if shared_rows != clean_rows:
        print("FAIL: two-worker kill/reclaim campaign differs from clean run")
        for a, b in zip(clean_rows, shared_rows):
            marker = "  " if a == b else "!="
            print(f"{marker} clean={a}\n{marker} workers={b}")
        return 1
    print(f"OK: kill/reclaim report bit-identical to clean run "
          f"({len(clean_rows)} rows)")

    return budgeted_phase(workdir, env, args.transport)


def budgeted_phase(workdir: Path, env: dict, transport: str) -> int:
    """Phase 2: budgeted islands+rs campaign, SIGKILL + fleet resume."""
    clean = workdir / "budget-clean-registry"
    shared_root = make_registry_root(workdir, transport, "budget-shared")
    shared = RegistryProbe(shared_root)
    budget = ["--budget", str(BUDGET)]

    # 1. clean budgeted single-process reference (always fs). Exhausted
    # (out of budget, checkpoint retained) cells exit non-zero by design.
    reference = subprocess.run(
        suite_command(str(clean), "--workers", "1", *budget,
                      matrix=BUDGET_MATRIX_ARGS),
        env=env, stdout=subprocess.DEVNULL,
    )
    if reference.returncode not in (0, 1):
        print(f"FAIL: clean budgeted suite exited {reference.returncode}")
        return 1
    clean_rows = read_rows(clean / "report.json")
    clean_charge = RegistryProbe(str(clean)).charged_evaluations()
    print(f"clean budgeted run: {len(clean_rows)} rows, "
          f"{clean_charge} samples charged")
    if clean_charge != BUDGET:
        print(f"FAIL: clean run charged {clean_charge}, budget is {BUDGET}")
        return 1

    # 2. victim worker, SIGKILLed mid-islands-cell: wait until the
    # cell's composite checkpoint is durably streaming (search is in
    # progress), then kill -9. The lease stays orphaned.
    victim = subprocess.Popen(
        worker_command(shared_root, "victim", *budget,
                       matrix=BUDGET_MATRIX_ARGS),
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = time.time() + 120
    islands_run = None
    while time.time() < deadline:
        islands_run = shared.find_run("islands")
        if islands_run is not None and shared.node(islands_run).exists(
            "checkpoint.json"
        ):
            break
        time.sleep(0.01)
    else:
        victim.kill()
        print("FAIL: islands cell never started streaming checkpoints")
        return 1
    os.kill(victim.pid, signal.SIGKILL)
    victim.wait(timeout=60)
    if shared.node(islands_run).exists("result.json"):
        print("FAIL: kill landed after the islands cell completed — "
              "the mid-cell window was missed")
        return 1
    checkpointed = shared.read_json(islands_run, "checkpoint.json")[
        "evaluations"
    ]
    orphaned = shared.node(islands_run).exists("lease.json")
    print(f"victim SIGKILLed mid-islands-cell at {checkpointed} evaluations; "
          f"orphaned lease: {orphaned}")

    # 2b. observability post-mortem: the dead worker's telemetry stream
    # must have survived the SIGKILL (modulo a torn final line), and the
    # dashboard + metrics exporter must render from the corpse registry.
    code = observability_postmortem(workdir, shared, islands_run, env)
    if code != 0:
        return code

    # 3. fleet resume: the coordinator spawns workers against the queue
    # of claimable cells; a spawned worker steals the orphaned lease,
    # resumes the composite checkpoint mid-search and finishes the
    # campaign at budget.
    coordinator = subprocess.run(
        suite_command(
            shared_root, "--distributed", "--workers", "2",
            "--ttl", "3", "--poll", "0.2",
            "--timeout", "300", "--status-interval", "9999",
            *budget, matrix=BUDGET_MATRIX_ARGS,
        ),
        env=env, capture_output=True, text=True,
    )
    # Exhausted-at-budget campaigns exit 1 by design.
    if coordinator.returncode not in (0, 1):
        print(f"FAIL: coordinator exited {coordinator.returncode}:\n"
              f"{coordinator.stdout}\n{coordinator.stderr}")
        return 1
    print(coordinator.stdout.strip().splitlines()[-1]
          if coordinator.stdout.strip() else "(coordinator: no output)")

    claims = [
        record
        for record in shared.telemetry_records(islands_run)
        if record.get("kind") == "lease.claim"
    ]
    resumes = [
        record for record in claims
        if record.get("resumed")
        and str(record.get("owner", "")).startswith("elastic-w")
    ]
    if not resumes:
        print(f"FAIL: no spawned worker resumed the victim's islands "
              f"checkpoint; claims seen: {claims}")
        return 1
    # The coordinator reclaims nothing itself: the spawned worker's
    # claim must be the steal of the victim's expired lease.
    if resumes[0].get("via") != "stolen":
        print(f"FAIL: the resuming claim did not steal the victim's "
              f"lease: {resumes[0]}")
        return 1
    scale_events = [
        record
        for record in shared.telemetry_records("")
        if record.get("kind") == "fleet.scale"
    ]
    spawned = sum(
        record.get("count", 0)
        for record in scale_events
        if record.get("action") == "spawn"
    )
    if spawned < 1:
        print(f"FAIL: coordinator emitted no fleet.scale spawn events: "
              f"{scale_events}")
        return 1
    died = [r for r in scale_events if r.get("action") == "died"]
    if died:
        print(f"FAIL: spawned workers died: {died}")
        return 1
    print(f"fleet resume confirmed: {resumes[0]['owner']} stole the "
          f"victim's lease and resumed the islands checkpoint; "
          f"fleet.scale spawned {spawned} worker(s), none died")

    # 4. exact charge + bit-identical merged report
    shared_charge = shared.charged_evaluations()
    if shared_charge != BUDGET:
        print(f"FAIL: fleet charged {shared_charge}, budget is {BUDGET}")
        return 1
    shared_report = workdir / "budget-shared-report.json"
    subprocess.run(
        suite_command(shared_root, "--report-only", "--export",
                      str(shared_report), matrix=BUDGET_MATRIX_ARGS),
        env=env, check=True, stdout=subprocess.DEVNULL,
    )
    shared_rows = read_rows(shared_report)
    if shared_rows != clean_rows:
        print("FAIL: budgeted kill/resume campaign differs from clean run")
        for a, b in zip(clean_rows, shared_rows):
            marker = "  " if a == b else "!="
            print(f"{marker} clean={a}\n{marker} workers={b}")
        return 1
    print(f"OK: budgeted islands+two-step kill/resume report bit-identical "
          f"to clean run ({len(clean_rows)} rows, exactly {BUDGET} samples)")

    # 5. transport-aware gc: sweep stale checkpoint/lease files and any
    # transport-specific litter of completed runs; must report bytes.
    gc = subprocess.run(
        suite_command(shared_root, "--gc"),
        env=env, capture_output=True, text=True,
    )
    if gc.returncode != 0 or "reclaimed" not in gc.stdout:
        print(f"FAIL: suite --gc failed on {transport}:\n"
              f"{gc.stdout}\n{gc.stderr}")
        return 1
    print(gc.stdout.strip())
    return 0


def observability_postmortem(
    workdir: Path, shared: RegistryProbe, victim_run: str, env: dict
) -> int:
    """Telemetry survives a SIGKILL; dash/metrics render post-mortem."""
    records = shared.telemetry_records(victim_run)
    if not records:
        print("FAIL: telemetry stream has no complete records")
        return 1
    kinds = [r.get("kind") for r in records]
    if "lease.claim" not in kinds:
        print(f"FAIL: no lease.claim event in telemetry: {kinds}")
        return 1
    print(f"telemetry survived the SIGKILL: {len(records)} complete "
          f"record(s), kinds {sorted(set(kinds))}")

    # The worker registry has no coordinator manifest, so dash and
    # export-metrics take the matrix by explicit flags — the same way
    # the workers themselves were launched.
    dash = subprocess.run(
        [sys.executable, "-m", "repro", "dash", "--once",
         *BUDGET_MATRIX_ARGS, "--budget", str(BUDGET),
         "--registry", shared.root],
        env=env, capture_output=True, text=True,
    )
    if dash.returncode != 0:
        print(f"FAIL: dash --once exited {dash.returncode}:\n{dash.stderr}")
        return 1
    if "campaign:" not in dash.stdout or "vgg16/" not in dash.stdout:
        print(f"FAIL: dash --once frame looks wrong:\n{dash.stdout}")
        return 1
    print("dash --once rendered the post-mortem registry")

    prefix = workdir / "postmortem"
    export = subprocess.run(
        [sys.executable, "-m", "repro", "export-metrics",
         *BUDGET_MATRIX_ARGS, "--budget", str(BUDGET),
         "--registry", shared.root, "--out", str(prefix)],
        env=env, capture_output=True, text=True,
    )
    if export.returncode != 0:
        print(f"FAIL: export-metrics exited {export.returncode}:\n"
              f"{export.stderr}")
        return 1
    prom = prefix.with_suffix(".prom")
    snapshot = prefix.with_suffix(".json")
    if not prom.exists() or not snapshot.exists():
        print("FAIL: export-metrics wrote no snapshot files")
        return 1
    if "repro_campaign_cells" not in prom.read_text():
        print("FAIL: Prometheus snapshot is missing campaign metrics")
        return 1
    if json.loads(snapshot.read_text()).get("telemetry", {}).get(
        "events", 0
    ) < len(records):
        print("FAIL: metrics snapshot undercounts telemetry events")
        return 1
    print("export-metrics rendered the post-mortem registry "
          f"({prom.name}, {snapshot.name})")
    return 0


if __name__ == "__main__":
    try:
        _code = main()
    finally:
        dump_servers(_WORKDIR)
        for _name, _server in _SERVERS:
            _server.shutdown()
            _server.server_close()
    sys.exit(_code)
