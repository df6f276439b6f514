"""``repro.lint`` — AST static analysis for the reproduction's invariants.

Everything the registry/distrib/budget stack promises (bit-identical
parallel and resumed runs, crash-safe durable artifacts, path-independent
budget allocation) rests on code-level invariants: seeded RNG only, no
wall-clock reads on deterministic paths, sorted directory scans and
atomic durable writes. This package machine-checks them:

=======  ========================  =======================================
rule id  name                      invariant
=======  ========================  =======================================
RL001    unseeded-rng              all randomness from seeded generators
RL002    wall-clock                injectable clocks, never time.time()
RL003    unsorted-fs-scan          directory scans wrapped in sorted()
RL004    non-atomic-durable-write  write_atomic or append-only streams
=======  ========================  =======================================

(Checkpoint classes need no rule: :mod:`repro.runs.checkpoint` walks
their fields itself.)

Deep mode (``repro lint --deep``) layers whole-program analysis on
top: a project call graph (:mod:`repro.lint.callgraph`), an
interprocedural taint engine (:mod:`repro.lint.taint`), and the flow
rules RL101–RL105 (:mod:`repro.lint.flows`) — nondeterminism
source→durable sink tracking with full call-chain traces, all-paths
atomic-write verification, pool-shared-state and lease-region checks,
and sorted-set-iteration enforcement.

Scoping is by *zone* (:mod:`repro.lint.zones`); per-line escapes use
``# repro-lint: allow[RLxxx] -- justification`` pragmas
(:mod:`repro.lint.pragmas`). The ``repro lint`` CLI subcommand exposes
text/JSON/SARIF output with CI-friendly exit codes (0 clean, 1
findings).
"""

from .callgraph import CallResolver, FunctionInfo, ProjectIndex
from .engine import (
    Linter,
    LintReport,
    ModuleSource,
    ProjectRule,
    Rule,
    module_name_for,
)
from .findings import Finding, finding_at
from .flows import DEEP_PROJECT_RULES, DEEP_RULES
from .pragmas import Pragma, collect_pragmas
from .rules import DEFAULT_RULES
from .taint import TaintEngine
from .zones import DEFAULT_POLICY, DEFAULT_ZONES, Zone, ZonePolicy

__all__ = [
    "CallResolver",
    "DEEP_PROJECT_RULES",
    "DEEP_RULES",
    "FunctionInfo",
    "ProjectIndex",
    "TaintEngine",
    "DEFAULT_POLICY",
    "DEFAULT_RULES",
    "DEFAULT_ZONES",
    "Finding",
    "LintReport",
    "Linter",
    "ModuleSource",
    "Pragma",
    "ProjectRule",
    "Rule",
    "Zone",
    "ZonePolicy",
    "collect_pragmas",
    "finding_at",
    "module_name_for",
]
