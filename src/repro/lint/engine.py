"""The lint engine: load modules, run rules, apply pragma suppression.

The engine is deliberately small: rules do the understanding, zones do
the scoping, pragmas do the escaping, and the engine only walks files
(in sorted order — the linter holds itself to the invariants it
checks), dispatches, and folds the results into a :class:`LintReport`.

Two rule shapes exist:

* a **file rule** (:class:`Rule`) sees one :class:`ModuleSource` at a
  time and runs only where the zone policy activates its id;
* a **project rule** (:class:`ProjectRule`) sees the whole scanned
  module set once — the deep pass's whole-program flow rules live
  here.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Protocol, runtime_checkable

from .findings import META_RULE_ID, Finding
from .pragmas import Pragma, collect_pragmas
from .zones import DEFAULT_POLICY, ZonePolicy


def module_name_for(path: Path) -> str:
    """Dotted module name of a file, by walking up the package tree.

    The package root is the nearest ancestor directory *without* an
    ``__init__.py`` — the standard src-layout convention, which maps
    ``src/repro/ga/engine.py`` to ``repro.ga.engine`` and works equally
    for fixture trees tests assemble under a temp directory.
    """
    path = path.resolve()
    parts = [path.stem] if path.name != "__init__.py" else []
    parent = path.parent
    while (parent / "__init__.py").is_file():
        parts.append(parent.name)
        if parent.parent == parent:
            break
        parent = parent.parent
    return ".".join(reversed(parts)) if parts else path.stem


@dataclass
class ModuleSource:
    """One parsed module: everything a rule needs to inspect it."""

    path: Path
    module: str
    source: str
    tree: ast.Module
    pragmas: list[Pragma] = field(default_factory=list)

    @classmethod
    def load(cls, path: Path, module: str | None = None) -> "ModuleSource":
        source = path.read_text()
        return cls.from_source(
            source, module=module or module_name_for(path), path=path
        )

    @classmethod
    def from_source(
        cls, source: str, module: str, path: str | Path = "<fixture>"
    ) -> "ModuleSource":
        return cls(
            path=Path(path),
            module=module,
            source=source,
            tree=ast.parse(source),
            pragmas=collect_pragmas(source),
        )


@runtime_checkable
class Rule(Protocol):
    """A per-file AST rule."""

    rule_id: str
    name: str
    summary: str

    def check(self, module: ModuleSource) -> Iterator[Finding]: ...


@runtime_checkable
class ProjectRule(Protocol):
    """A whole-project rule, run once over every scanned module."""

    rule_id: str
    name: str
    summary: str

    def check_project(
        self, modules: list[ModuleSource]
    ) -> Iterator[Finding]: ...


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: list[Finding]
    files: int
    pragmas: int
    suppressed: int

    @property
    def clean(self) -> bool:
        return not self.findings

    def render(self, with_trace: bool = False) -> str:
        if self.clean:
            return (
                f"repro lint: clean — {self.files} file(s) scanned, "
                f"{self.suppressed} finding(s) suppressed by "
                f"{self.pragmas} documented pragma(s)"
            )
        lines = [f.render(with_trace=with_trace) for f in self.findings]
        lines.append(
            f"repro lint: {len(self.findings)} finding(s) in "
            f"{self.files} file(s)"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "clean": self.clean,
            "files": self.files,
            "pragmas": self.pragmas,
            "suppressed": self.suppressed,
            "findings": [f.to_dict() for f in self.findings],
        }


def _known_rule_ids() -> frozenset[str]:
    """Every rule id the linter ships, shallow and deep."""
    from .flows import DEEP_PROJECT_RULES, DEEP_RULES
    from .rules import DEFAULT_RULES

    return frozenset(
        rule.rule_id
        for rule in (*DEFAULT_RULES, *DEEP_RULES, *DEEP_PROJECT_RULES)
    )


def _decorator_spans(tree: ast.Module) -> dict[int, int]:
    """``def``-line → first-decorator-line for decorated definitions."""
    spans: dict[int, int] = {}
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ) and node.decorator_list:
            spans[node.lineno] = min(
                d.lineno for d in node.decorator_list
            )
    return spans


def _expand(paths: Iterable[Path]) -> list[Path]:
    """Python files under the given paths, sorted and de-duplicated."""
    seen: dict[Path, None] = {}
    for path in paths:
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            if "__pycache__" in candidate.parts:
                continue
            seen.setdefault(candidate.resolve(), None)
    return sorted(seen)


class Linter:
    """Run a rule set over a file tree under a zone policy."""

    def __init__(
        self,
        rules: Iterable[Rule] | None = None,
        project_rules: Iterable[ProjectRule] = (),
        policy: ZonePolicy = DEFAULT_POLICY,
        deep: bool = False,
    ):
        if rules is None:
            from .rules import DEFAULT_RULES

            rules = DEFAULT_RULES
        self.rules = list(rules)
        self.project_rules = list(project_rules)
        self.policy = policy
        self.deep = deep
        if deep:
            from .flows import DEEP_PROJECT_RULES, DEEP_RULES

            self.rules.extend(DEEP_RULES)
            self.project_rules.extend(DEEP_PROJECT_RULES)

    def lint(self, paths: Iterable[Path | str]) -> LintReport:
        modules: list[ModuleSource] = []
        findings: list[Finding] = []
        files = 0
        for path in _expand(Path(p) for p in paths):
            files += 1
            try:
                modules.append(ModuleSource.load(path))
            except SyntaxError as exc:
                findings.append(
                    Finding(
                        path=str(path),
                        line=exc.lineno or 1,
                        col=(exc.offset or 0) + 1,
                        rule_id=META_RULE_ID,
                        message=f"file does not parse: {exc.msg}",
                    )
                )
        for module in modules:
            active = self.policy.rules_for(module.module)
            for rule in self.rules:
                if rule.rule_id in active:
                    findings.extend(rule.check(module))
        for project_rule in self.project_rules:
            findings.extend(project_rule.check_project(modules))

        pragma_index = {str(m.path.resolve()): m.pragmas for m in modules}
        spans_index = {
            str(m.path.resolve()): _decorator_spans(m.tree) for m in modules
        }
        kept, suppressed = [], 0
        for finding in findings:
            if self._suppressed(finding, pragma_index, spans_index):
                suppressed += 1
            else:
                kept.append(finding)
        registered = frozenset(
            rule.rule_id for rule in (*self.rules, *self.project_rules)
        )
        total_pragmas = 0
        for module in modules:
            for pragma in module.pragmas:
                total_pragmas += 1
                kept.extend(
                    self._pragma_hygiene(module, pragma, registered)
                )
        kept.sort(key=lambda f: f.sort_key)
        return LintReport(
            findings=kept,
            files=files,
            pragmas=total_pragmas,
            suppressed=suppressed,
        )

    def _suppressed(
        self,
        finding: Finding,
        pragma_index: dict[str, list[Pragma]],
        spans_index: dict[str, dict[int, int]],
    ) -> bool:
        if finding.rule_id == META_RULE_ID:
            return False
        try:
            key = str(Path(finding.path).resolve())
        except OSError:
            key = finding.path
        spans = spans_index.get(key, {})
        for pragma in pragma_index.get(key, []):
            if finding.rule_id not in pragma.rules:
                continue
            if finding.line <= pragma.target <= finding.end_line:
                pragma.used.add(finding.rule_id)
                return True
            # A pragma on a decorated definition's `def` line also
            # covers findings the rules attribute to its decorator
            # lines (a decorator call is part of the definition it
            # decorates, and the `def` line is where reviewers look).
            first_decorator = spans.get(pragma.target)
            if (
                first_decorator is not None
                and first_decorator <= finding.line <= pragma.target
            ):
                pragma.used.add(finding.rule_id)
                return True
        return False

    def _pragma_hygiene(
        self, module: ModuleSource, pragma: Pragma, registered: frozenset[str]
    ) -> list[Finding]:
        rules = ",".join(sorted(pragma.rules))
        if not pragma.documented:
            return [
                Finding(
                    path=str(module.path),
                    line=pragma.line,
                    col=1,
                    rule_id=META_RULE_ID,
                    message=(
                        f"undocumented pragma allow[{rules}]: append "
                        "'-- <why this violation is safe>'"
                    ),
                )
            ]
        if not pragma.rules & registered:
            # Every id the pragma names belongs to a rule this run did
            # not register — e.g. a deep-only RL1xx pragma under the
            # shallow pass. Only the deep pass can judge it unused; an
            # id outside the full catalog is still a reportable typo.
            unknown = pragma.rules - _known_rule_ids()
            if unknown:
                return [
                    Finding(
                        path=str(module.path),
                        line=pragma.line,
                        col=1,
                        rule_id=META_RULE_ID,
                        message=(
                            "pragma names unknown rule id(s) "
                            f"{','.join(sorted(unknown))}: fix the id "
                            "or remove the pragma"
                        ),
                    )
                ]
            return []
        if not pragma.used:
            return [
                Finding(
                    path=str(module.path),
                    line=pragma.line,
                    col=1,
                    rule_id=META_RULE_ID,
                    message=(
                        f"unused pragma allow[{rules}]: it suppresses "
                        "nothing — remove it or fix the rule id"
                    ),
                )
            ]
        return []
