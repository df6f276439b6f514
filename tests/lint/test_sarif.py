"""SARIF 2.1.0 emission: document shape, rule metadata, code flows."""

from __future__ import annotations

import json

from repro.lint.engine import Linter
from repro.lint.sarif import render_sarif, report_to_sarif


def lint_tree(fixture_tree, files, deep=False):
    root = fixture_tree(files)
    return root, Linter(deep=deep).lint([root])


class TestDocumentShape:
    def test_clean_run_is_valid_sarif_with_rule_catalog(self, fixture_tree):
        root, report = lint_tree(
            fixture_tree, {"repro/ga/mod.py": "x = 1\n"}
        )
        doc = report_to_sarif(report, root=root)
        assert doc["version"] == "2.1.0"
        (run,) = doc["runs"]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        # shallow and deep rules both travel with every log
        assert {"RL001", "RL004", "RL101", "RL105"} <= rule_ids
        assert run["results"] == []

    def test_finding_maps_to_result_with_location(self, fixture_tree):
        root, report = lint_tree(
            fixture_tree,
            {"repro/ga/mod.py": "import time\nt = time.time()\n"},
        )
        doc = report_to_sarif(report, root=root)
        (result,) = doc["runs"][0]["results"]
        assert result["ruleId"] == "RL002"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "repro/ga/mod.py"
        assert location["region"]["startLine"] == 2

    def test_uris_are_relative_to_root(self, fixture_tree):
        root, report = lint_tree(
            fixture_tree,
            {"repro/ga/mod.py": "import time\nt = time.time()\n"},
        )
        doc = report_to_sarif(report, root=root)
        (run,) = doc["runs"]
        assert run["originalUriBaseIds"]["SRCROOT"]["uri"].endswith("/")
        uri = run["results"][0]["locations"][0]["physicalLocation"][
            "artifactLocation"
        ]["uri"]
        assert not uri.startswith("/")

    def test_render_is_parseable_json(self, fixture_tree):
        root, report = lint_tree(
            fixture_tree, {"repro/ga/mod.py": "x = 1\n"}
        )
        assert json.loads(render_sarif(report, root=root))["version"] == "2.1.0"


class TestCodeFlows:
    def test_taint_trace_becomes_a_code_flow(self, fixture_tree):
        root, report = lint_tree(
            fixture_tree,
            {
                "repro/util/ids.py": """
                    import random

                    def token():
                        return random.random()
                """,
                "repro/runs/checkpoint.py": """
                    def ga_checkpoint_to_dict(state):
                        return {"state": state}
                """,
                "repro/runs/save.py": """
                    from repro.runs.checkpoint import ga_checkpoint_to_dict
                    from repro.util.ids import token

                    def persist():
                        return ga_checkpoint_to_dict({"id": token()})
                """,
            },
            deep=True,
        )
        doc = report_to_sarif(report, root=root)
        results = [
            r for r in doc["runs"][0]["results"] if r["ruleId"] == "RL101"
        ]
        (result,) = results
        (flow,) = result["codeFlows"]
        steps = [
            loc["location"]["message"]["text"]
            for loc in flow["threadFlows"][0]["locations"]
        ]
        assert len(steps) >= 2
        assert any("random.random" in step for step in steps)
        assert any("ga_checkpoint_to_dict" in step for step in steps)

    def test_non_flow_findings_have_no_code_flow(self, fixture_tree):
        root, report = lint_tree(
            fixture_tree,
            {"repro/ga/mod.py": "import time\nt = time.time()\n"},
        )
        doc = report_to_sarif(report, root=root)
        (result,) = doc["runs"][0]["results"]
        assert "codeFlows" not in result
