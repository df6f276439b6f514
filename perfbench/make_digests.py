"""Regenerate ``digests.json``: the default seed's merged-report digests.

For every campaign seed of the default benchmark seed, each workload's
digest comes from a serial filesystem ``run_suite`` of its matrix and
budget, and the script refuses to write it unless the workload's own
entry point (the process pool, the object-store worker) reproduces it
bit for bit. Run from the repository root after a change that is meant
to alter campaign results::

    python3 perfbench/make_digests.py
"""

from __future__ import annotations

import json
import shutil
import sys

from run import HERE, Runner, SpeedProbe
from workloads import DEFAULT_SEED, DIGESTS_PATH, WORKLOADS


def main() -> int:
    digests: dict[str, dict[str, str]] = {}
    work = HERE / ".work" / "digests"
    try:
        with SpeedProbe() as probe:
            for name, workload in WORKLOADS.items():
                runner = Runner(workload, work / name, 1800.0, probe)
                digests[name] = {}
                for seed in workload.campaign_seeds(DEFAULT_SEED):
                    reference = runner.campaign(seed, reference=True)["digest"]
                    own = runner.campaign(seed)["digest"]
                    print(
                        f"{name} campaign seed {seed}: serial fs "
                        f"{reference[:16]}, own entry {own[:16]}"
                    )
                    if own != reference:
                        print(f"{name}: entry point disagrees with the serial reference")
                        return 1
                    digests[name][str(seed)] = reference
    finally:
        shutil.rmtree(work, ignore_errors=True)
    DIGESTS_PATH.write_text(json.dumps(digests, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
