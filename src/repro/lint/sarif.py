"""SARIF 2.1.0 output for ``repro lint --format sarif``.

SARIF (Static Analysis Results Interchange Format) is what code hosts
ingest to render findings as inline annotations on pull requests. The
emitter maps each :class:`Finding` to one ``result`` with a physical
location, registers every rule (shipped per-file, project, and deep
rules) as a ``reportingDescriptor`` so rule metadata travels with the
log, and carries flow traces as ``codeFlows`` — the standard encoding
viewers use to render a source→sink walk step by step.

URIs are emitted relative to the repository root when findings live
under the current working directory, which is what the GitHub
annotation pipeline expects.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .engine import LintReport

_SARIF_VERSION = "2.1.0"
_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemas/sarif-schema-2.1.0.json"
)

_LEVELS = {"error": "error", "warning": "warning", "note": "note"}


def _all_rules() -> list:
    from .flows import DEEP_PROJECT_RULES, DEEP_RULES
    from .rules import DEFAULT_RULES

    return [*DEFAULT_RULES, *DEEP_RULES, *DEEP_PROJECT_RULES]


def _relative_uri(path: str, root: Path) -> str:
    candidate = Path(path)
    try:
        return candidate.resolve().relative_to(root).as_posix()
    except (ValueError, OSError):
        return candidate.as_posix()


def _location(uri: str, line: int, col: int, end_line: int) -> dict[str, Any]:
    region: dict[str, Any] = {"startLine": line, "startColumn": col}
    if end_line > line:
        region["endLine"] = end_line
    return {
        "physicalLocation": {
            "artifactLocation": {"uri": uri, "uriBaseId": "SRCROOT"},
            "region": region,
        }
    }


def _code_flow(trace: tuple[str, ...], location: dict[str, Any]) -> dict:
    # Each hop string is "qualname (file:line): what happened"; viewers
    # only need the message — the anchoring location carries the sink.
    return {
        "threadFlows": [
            {
                "locations": [
                    {
                        "location": {
                            **location,
                            "message": {"text": step},
                        }
                    }
                    for step in trace
                ]
            }
        ]
    }


def report_to_sarif(
    report: LintReport, root: Path | None = None
) -> dict[str, Any]:
    """The SARIF 2.1.0 document for one lint run, as a plain dict."""
    root = (root or Path.cwd()).resolve()
    rules = [
        {
            "id": rule.rule_id,
            "name": rule.name,
            "shortDescription": {"text": rule.summary},
            "defaultConfiguration": {"level": "error"},
        }
        for rule in _all_rules()
    ]
    results = []
    for finding in report.findings:
        uri = _relative_uri(finding.path, root)
        location = _location(
            uri, finding.line, finding.col, finding.end_line
        )
        result: dict[str, Any] = {
            "ruleId": finding.rule_id,
            "level": _LEVELS.get(finding.severity, "error"),
            "message": {"text": finding.message},
            "locations": [location],
        }
        if finding.trace:
            result["codeFlows"] = [_code_flow(finding.trace, location)]
        results.append(result)
    return {
        "$schema": _SARIF_SCHEMA,
        "version": _SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "rules": rules,
                    }
                },
                "originalUriBaseIds": {
                    "SRCROOT": {"uri": root.as_uri() + "/"}
                },
                "results": results,
            }
        ],
    }


def render_sarif(report: LintReport, root: Path | None = None) -> str:
    return json.dumps(report_to_sarif(report, root=root), indent=2)
