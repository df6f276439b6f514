"""Campaign benchmark: whole ``repro`` campaigns, timed end to end.

Usage, from the repository root::

    python3 perfbench/run.py --workload suite-serial --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

Each campaign runs in a fresh interpreter (``campaign.py``) against a
fresh, empty registry, one at a time (a closed loop). A run starts
another campaign while at least half of it fits in ``--seconds``.
``--trace 0`` cycles through the workload's campaign seeds
(``Workload.campaign_seeds``, each at least once) and reports the
end-to-end metrics: medians per seed, averaged over the seeds.
``--trace 1`` keeps to the first campaign seed, alternates untraced and
traced campaigns and reports the per-layer metrics of the traced ones.
Every campaign passes the correctness gate in
``workloads.py`` or the run fails: a mismatch is never a number.

A run keeps to as many CPUs as its campaign has busy processes, and a
:class:`SpeedProbe` on those CPUs rescales every reported time to the
reference host speed (see there).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import PER_LAYER  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    WORKLOADS,
    Workload,
    check_campaign,
    committed_digests,
    completed_cell_ratio,
)

#: (name, unit) of the end-to-end metrics, in report order.
END_TO_END = (
    ("campaign_s", "s"),
    ("evals_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("completed_cell_ratio", "ratio"),
)
#: Set-up-only interpreters per timed run, beside every campaign's own.
SETUP_PROBES = 5
#: A run gives up (and fails) rather than outlive this many seconds.
RUN_LIMIT_S = 170.0
#: Seconds between two host-speed samples.
PROBE_PERIOD_S = 0.05
#: The reference host speed: one host-speed sample takes this much CPU
#: time. A 2-vCPU Intel Xeon host under Python 3.11 ranged from about
#: 0.4 to 0.65 ms beside a running campaign.
PROBE_REFERENCE_S = 0.5e-3

_SECONDS = {name for name, unit, _better in PER_LAYER if unit == "s"}


class CampaignFailed(Exception):
    pass


def _probe_block() -> int:
    """Fixed pure-Python work: dict, set and list building, a sort, calls."""
    total = 0
    for _ in range(4):
        table = {i: (i * 7919) % 401 for i in range(400)}
        total += sum(table[v] for v in table.values() if v in table)
        total += len(set(sorted(table.values(), reverse=True)))
    return total


class SpeedProbe:
    """Samples the host's speed on a thread while a run's campaigns run.

    A shared host's CPU speed drifts: the same campaign has taken from
    2.0 to 5.1 s within minutes, and its CPU time drifted with its wall
    clock, so the time is not lost to other tasks but to slower
    execution. Every ``PROBE_PERIOD_S`` the probe times a fixed block of
    pure-Python work by its thread's CPU time (waiting for a CPU does not
    count). :meth:`scale` turns the samples taken while one campaign ran
    into the factor that brings its times to the reference speed, so a
    change to the program moves the reported times and host drift does
    not. The probe costs its CPUs about 1 %.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while not self._stop.wait(PROBE_PERIOD_S):
            started = time.thread_time()
            _probe_block()
            self.samples.append(
                (time.monotonic(), time.thread_time() - started)
            )

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, t0: float, t1: float) -> float:
        """Reference over measured speed for ``time.monotonic()`` in [t0, t1]."""
        window = [d for t, d in list(self.samples) if t0 <= t <= t1]
        if not window:
            raise CampaignFailed("no host-speed sample while the campaign ran")
        return PROBE_REFERENCE_S / statistics.mean(window)


@contextmanager
def pinned(cpus: int):
    """Keep the calling thread, and the threads and processes it starts,
    to the last ``cpus`` of its CPUs: a serial campaign, the object store
    serving it and the speed probe then share one CPU, so the probe
    samples the CPU that does the work and no request waits for another
    CPU to wake."""
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, allowed[-cpus:])
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def rescale(result: dict, scale: float) -> None:
    """Bring every time in one campaign's result to the reference speed."""
    result["scale"] = scale
    for key in ("setup_s", "graph_build_s", "campaign_s"):
        if key in result:
            result[key] *= scale
    layers = result.get("layers", {})
    for name in _SECONDS.intersection(layers):
        layers[name] *= scale


class Runner:
    """Starts campaign interpreters for one workload."""

    def __init__(
        self, workload: Workload, work: Path, limit: float, probe: SpeedProbe
    ):
        self.workload = workload
        self.work = work
        self.probe = probe
        self.deadline = time.monotonic() + limit
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, str(HERE), self.env.get("PYTHONPATH")) if p
        )
        self._count = 0

    def campaign(
        self,
        seed: int,
        trace: bool = False,
        setup_only: bool = False,
        reference: bool = False,
    ) -> dict:
        """Run one campaign of campaign seed ``seed``; its result, with
        every time at the reference speed."""
        self._count += 1
        work = self.work / f"c{self._count}"
        out = work / "result.json"
        command = [
            sys.executable, str(HERE / "campaign.py"),
            "--workload", self.workload.name, "--seed", str(seed),
            "--work", str(work), "--out", str(out),
        ]
        if trace:
            command.append("--trace")
        if setup_only:
            command.append("--setup-only")
        if reference:
            command.append("--reference")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise CampaignFailed("run time limit reached")
        started = time.monotonic()
        # Its own process group, so a timeout also stops the object store
        # and pool workers the campaign started.
        proc = subprocess.Popen(
            command, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            _stdout, stderr = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise CampaignFailed("campaign exceeded the run time limit")
        if proc.returncode != 0:
            raise CampaignFailed(
                f"campaign exited {proc.returncode}: {stderr[-2000:]}"
            )
        result = json.loads(out.read_text())
        shutil.rmtree(work, ignore_errors=True)
        rescale(result, self.probe.scale(started, time.monotonic()))
        result["seed"] = seed
        return result


def measure(
    workload: Workload, seed: int, seconds: float, trace: bool, work: Path
) -> dict:
    """One benchmark run; returns the result object to print."""
    with pinned(workload.workers), SpeedProbe() as probe:
        runner = Runner(workload, work, RUN_LIMIT_S, probe)
        return _measure(runner, seed, seconds, trace)


def _measure(runner: Runner, seed: int, seconds: float, trace: bool) -> dict:
    workload = runner.workload
    # A timed run cycles through the workload's campaign seeds; a traced
    # run keeps to the first, so its counts repeat exactly.
    seeds = workload.campaign_seeds(seed)[: 1 if trace else None]
    expected = committed_digests(workload)
    campaigns: list[dict] = []
    problems: list[str] = []
    attempted = failed = 0

    def run_one(campaign_seed: int, traced: bool) -> None:
        nonlocal attempted, failed
        attempted += 1
        try:
            result = runner.campaign(campaign_seed, trace=traced)
        except CampaignFailed as exc:
            failed += 1
            problems.append(str(exc))
            return
        wrong = check_campaign(workload, result, expected.get(campaign_seed))
        if result.get("error"):
            wrong.insert(0, f"campaign raised {result['error']}")
        if traced and result["unseen"]:
            wrong.append(f"wrappers recorded no calls: {result['unseen']}")
        expected.setdefault(campaign_seed, result["digest"])
        if wrong:
            failed += 1
            problems.extend(wrong)
        result["traced"] = traced
        campaigns.append(result)
        kind = "traced" if traced else "timed"
        print(
            f"{workload.name} seed={seed} {kind} campaign "
            f"{len(campaigns)} (campaign seed {campaign_seed}): "
            f"{result['campaign_s']:.3f} s at reference speed "
            f"({result['campaign_s'] / result['scale']:.3f} s wall), "
            f"{result['evaluations']} evaluations, setup "
            f"{result['setup_s']:.3f} s, "
            f"{'ok' if not wrong else 'WRONG: ' + '; '.join(wrong)}",
            flush=True,
        )

    setups: list[float] = []
    try:
        if not trace:
            runner.campaign(seeds[0], setup_only=True)  # warm bytecode cache
            for _ in range(SETUP_PROBES):
                setups.append(
                    runner.campaign(seeds[0], setup_only=True)["setup_s"]
                )
    except CampaignFailed as exc:
        attempted, failed = 1, 1
        problems.append(f"set-up failed: {exc}")
    # Start another campaign while at least half of it (at the mean time
    # so far) fits in ``seconds``. Every campaign seed runs once at least;
    # a traced run needs one untraced and one traced campaign at least.
    started = time.monotonic()
    while not failed:
        elapsed = time.monotonic() - started
        if attempted >= max(len(seeds), 2 if trace else 1) and (
            elapsed + elapsed / attempted / 2 > seconds
        ):
            break
        run_one(
            seeds[attempted % len(seeds)],
            traced=trace and attempted % 2 == 1,
        )

    for problem in problems:
        print(f"{workload.name}: {problem}", file=sys.stderr)
    timed = [c for c in campaigns if not c["traced"]]
    traced = [c for c in campaigns if c["traced"]]
    metrics: dict[str, dict] = {}
    if not failed and not trace:
        setups.extend(c["setup_s"] for c in campaigns)
        values = {
            "campaign_s": seed_mean(timed, lambda c: c["campaign_s"]),
            "evals_per_s": seed_mean(
                timed, lambda c: c["evaluations"] / c["campaign_s"]
            ),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median([c["peak_rss_mb"] for c in timed]),
            "completed_cell_ratio": min(completed_cell_ratio(c) for c in timed),
        }
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END
        }
    elif not failed:
        units = {name: unit for name, unit, _better in PER_LAYER}
        # median_low keeps counts whole and every value a measured one.
        values = {
            name: statistics.median_low([c["layers"][name] for c in traced])
            for name in traced[0]["layers"]
        }
        values["trace.overhead"] = (
            statistics.median([c["campaign_s"] for c in traced])
            / statistics.median([c["campaign_s"] for c in timed])
            - 1.0
        )
        metrics = {
            name: {"value": values[name], "unit": units[name]}
            for name, _unit, _better in PER_LAYER
        }
    return {
        "correct": not failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def seed_mean(campaigns: list[dict], value: Callable[[dict], float]) -> float:
    """Mean over campaign seeds of the median ``value`` of each seed's
    campaigns: the median absorbs a slow campaign, the mean weighs every
    seed alike however many campaigns it got."""
    by_seed: dict[int, list[float]] = defaultdict(list)
    for campaign in campaigns:
        by_seed[campaign["seed"]].append(value(campaign))
    return statistics.mean(statistics.median(v) for v in by_seed.values())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[*sorted(WORKLOADS), "all"]
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro sources under {ROOT / 'src'}; run from a "
            "full checkout of the repository",
            file=sys.stderr,
        )
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    work = HERE / ".work" / str(os.getpid())
    results = {}
    try:
        for name in names:
            results[name] = measure(
                WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                work / name,
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, result in results.items():
        for metric, value in result["metrics"].items():
            print(f"{name:20s} {metric:38s} {value['value']:.6g} {value['unit']}")
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {name: r["metrics"] for name, r in results.items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
