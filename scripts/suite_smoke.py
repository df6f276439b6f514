#!/usr/bin/env python
"""Suite smoke: kill a campaign mid-flight, resume it, compare reports.

The CI acceptance check for the ``repro suite`` orchestration layer:

1. run a small matrix to completion in a *clean* registry;
2. run it again with ``--workers 1`` and assert every run's durable
   files (config, history, checkpoint, result) are byte-identical to the
   clean registry's — ``warm/`` and telemetry legitimately depend on
   which worker ran which cell, so they are left out;
3. run the matrix under a ``--budget`` that takes at least two grant
   rounds, once with ``--workers N`` and once with ``--workers 1``, and
   assert the same durable files are byte-identical between the two —
   cells of the second round warm-start from what the first round's
   cells saved, whichever process ran them;
4. start the same matrix in another registry, SIGKILL the whole process
   as soon as the first cell's durable result lands (or after a grace
   period, whichever comes first);
5. re-run the same command — the campaign must resume, re-running only
   incomplete cells;
6. assert the resumed registry's merged report is bit-identical to the
   clean run's;
7. run the matrix under a ``--budget`` too small for any cell to
   finish, into two more registries (every cell stops at its cap with a
   checkpoint, so the campaign exits 1); tear the final line of every
   incomplete cell's ``history.jsonl`` in the second one, as a writer
   killed mid-append would; resume both unbudgeted and assert every
   durable file is byte-identical between the two.

Exit code 0 on success; non-zero with a diagnostic otherwise. The
killed-and-resumed registry directory is left in place so CI can upload
it as an artifact.

Usage::

    PYTHONPATH=src python scripts/suite_smoke.py --workdir suite-smoke \
        --workers 2
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

MATRIX_ARGS = [
    "--networks", "vgg16,googlenet",
    "--schemes", "cocco,sa,islands",
    "--scale", "tiny",
    "--seed", "0",
]
#: Cells in the matrix: two networks x three schemes.
NUM_CELLS = 6

#: Campaign budget for step 3. The matrix needs 402 samples in all, but
#: the first round's even split (70 per cell) is short of an island
#: cell's 96: those finish only on the refunds of a second grant round.
BUDGET = 420

#: Campaign budget for step 7: 25 samples per cell, short of every
#: cell's need, so all six stop at their cap with a checkpoint.
TORN_BUDGET = 150

#: What a writer killed mid-append leaves at the end of a stream.
TORN_FRAGMENT = '{"generation": 99, "evaluations": 12'

#: Per-run files that must not depend on how cells were scheduled.
DURABLE_FILES = ("config.json", "history.jsonl", "checkpoint.json", "result.json")


def suite_command(
    registry: Path, workers: int, budget: int | None = None
) -> list[str]:
    budget_args = [] if budget is None else ["--budget", str(budget)]
    return [
        sys.executable, "-m", "repro", "suite",
        *MATRIX_ARGS,
        "--registry", str(registry),
        "--workers", str(workers),
        *budget_args,
    ]


def grant_rounds(stdout: str) -> int:
    """Rounds a campaign ran, from its summary line."""
    match = re.search(r"\((\d+) round\(s\)\)", stdout)
    if match is None:
        raise SystemExit("FAIL: no campaign summary line in suite output")
    return int(match.group(1))


def read_rows(registry: Path) -> list:
    report = registry / "report.json"
    if not report.exists():
        raise SystemExit(f"FAIL: no merged report at {report}")
    return json.loads(report.read_text())["rows"]


def durable_mismatches(first: Path, second: Path) -> list[str]:
    """Run files in :data:`DURABLE_FILES` that differ between registries."""
    runs = sorted(
        {p.parent.name for p in first.glob("*/config.json")}
        | {p.parent.name for p in second.glob("*/config.json")}
    )
    mismatched = []
    for run in runs:
        for name in DURABLE_FILES:
            a, b = first / run / name, second / run / name
            if (a.read_bytes() if a.exists() else None) != (
                b.read_bytes() if b.exists() else None
            ):
                mismatched.append(f"{run}/{name}")
    return mismatched


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="suite-smoke",
                        help="directory holding both registries")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--kill-grace", type=float, default=60.0,
                        help="max seconds to wait for the first durable "
                             "result before killing anyway")
    args = parser.parse_args()

    workdir = Path(args.workdir)
    if workdir.exists():
        shutil.rmtree(workdir)
    clean = workdir / "clean-registry"
    serial = workdir / "serial-registry"
    budgeted = workdir / "budgeted-registry"
    budgeted_serial = workdir / "budgeted-serial-registry"
    killed = workdir / "killed-registry"
    untorn = workdir / "untorn-registry"
    torn = workdir / "torn-registry"
    env = dict(os.environ)

    # 1. clean, uninterrupted campaign
    started = time.time()
    subprocess.run(
        suite_command(clean, args.workers), env=env, check=True,
        stdout=subprocess.DEVNULL,
    )
    print(f"clean campaign finished in {time.time() - started:.1f}s")

    # 2. the same campaign serially writes the same durable run files
    subprocess.run(
        suite_command(serial, 1), env=env, check=True,
        stdout=subprocess.DEVNULL,
    )
    mismatched = durable_mismatches(clean, serial)
    if mismatched:
        print(f"FAIL: --workers 1 and --workers {args.workers} registries "
              f"differ in {', '.join(mismatched)}")
        return 1
    print(f"OK: --workers 1 run files byte-identical to "
          f"--workers {args.workers}")

    # 3. a budgeted campaign re-grants refunds in later rounds; its run
    # files must not depend on the worker count either
    for registry, workers in ((budgeted, args.workers), (budgeted_serial, 1)):
        result = subprocess.run(
            suite_command(registry, workers, BUDGET), env=env, check=True,
            capture_output=True, text=True,
        )
        rounds = grant_rounds(result.stdout)
        if rounds < 2:
            print(f"FAIL: --budget {BUDGET} at --workers {workers} ran "
                  f"{rounds} round(s); step 3 needs at least two")
            return 1
    mismatched = durable_mismatches(budgeted, budgeted_serial)
    if mismatched:
        print(f"FAIL: budgeted --workers 1 and --workers {args.workers} "
              f"registries differ in {', '.join(mismatched)}")
        return 1
    print(f"OK: --budget {BUDGET} ({rounds} rounds) run files "
          f"byte-identical at --workers 1 and --workers {args.workers}")

    # 4. start the same campaign elsewhere and SIGKILL it mid-flight.
    # The victim gets its own session so the kill takes down the pool
    # workers too — otherwise the orphaned workers would finish their
    # cells and the "kill" would leave nothing incomplete.
    victim = subprocess.Popen(
        suite_command(killed, args.workers), env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    deadline = time.time() + args.kill_grace
    while time.time() < deadline and victim.poll() is None:
        if list(killed.glob("*/result.json")):
            break
        time.sleep(0.02)
    if victim.poll() is None:
        os.killpg(os.getpgid(victim.pid), signal.SIGKILL)
        victim.wait()
        print(
            f"killed campaign with "
            f"{len(list(killed.glob('*/result.json')))} of {NUM_CELLS} "
            "cells durable"
        )
    else:
        # machine too fast: the campaign completed before the kill —
        # the resume below then exercises the all-complete path
        print("campaign finished before the kill landed (fast machine)")

    complete_after_kill = {p.parent.name for p in killed.glob("*/result.json")}

    # 5. resume
    result = subprocess.run(
        suite_command(killed, args.workers), env=env, check=True,
        capture_output=True, text=True,
    )
    print(result.stdout.splitlines()[-2])

    # completed cells were not re-run: their result files are untouched
    for line in result.stdout.splitlines():
        if "already complete" in line:
            already = int(line.split("cells:")[1].split("already")[0])
            if already < len(complete_after_kill):
                print(
                    f"FAIL: {len(complete_after_kill)} cells were durable "
                    f"but only {already} were skipped on resume"
                )
                return 1

    # 6. merged reports must be bit-identical
    clean_rows = read_rows(clean)
    killed_rows = read_rows(killed)
    if clean_rows != killed_rows:
        print("FAIL: resumed campaign's merged report differs from clean run")
        for a, b in zip(clean_rows, killed_rows):
            marker = "  " if a == b else "!="
            print(f"{marker} clean={a}\n{marker} resumed={b}")
        return 1
    print(f"OK: resumed report bit-identical to clean run "
          f"({len(clean_rows)} rows)")

    # 7. a torn final history line resumes like an untorn one
    for registry in (untorn, torn):
        result = subprocess.run(
            suite_command(registry, args.workers, TORN_BUDGET), env=env,
            stdout=subprocess.DEVNULL,
        )
        if result.returncode != 1:
            print(f"FAIL: --budget {TORN_BUDGET} campaign exited "
                  f"{result.returncode}; expected 1 (cells at their cap)")
            return 1
    histories = [
        config.parent / "history.jsonl"
        for config in sorted(torn.glob("*/config.json"))
        if not (config.parent / "result.json").exists()
    ]
    if len(histories) != NUM_CELLS:
        print(f"FAIL: expected {NUM_CELLS} incomplete cells at --budget "
              f"{TORN_BUDGET}, found {len(histories)}")
        return 1
    for history in histories:
        with history.open("a") as fh:
            fh.write(TORN_FRAGMENT)
    for registry in (untorn, torn):
        subprocess.run(
            suite_command(registry, args.workers), env=env, check=True,
            stdout=subprocess.DEVNULL,
        )
    mismatched = durable_mismatches(untorn, torn)
    if mismatched:
        print(f"FAIL: torn-tail registry resumed to different run files: "
              f"{', '.join(mismatched)}")
        return 1
    print(f"OK: {len(histories)} cells resumed from a torn history tail, "
          f"run files byte-identical to the untorn registry")
    return 0


if __name__ == "__main__":
    sys.exit(main())
