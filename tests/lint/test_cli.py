"""``repro lint`` end-to-end: exit codes, JSON output, the clean baseline.

The seeded-violation test is the acceptance check for the whole
subcommand: one deliberate violation of each rule, each of which must
fail the run with the right rule id at the right file:line.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import repro
from repro.cli.main import main


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out + captured.err


def seed_tree(root: Path, files: dict[str, str]) -> None:
    for relative, source in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        parent = path.parent
        while parent != root:
            (parent / "__init__.py").touch()
            parent = parent.parent


VIOLATIONS = {
    "repro/ga/bad_rng.py": ("RL001", 2, "import random\nx = random.random()\n"),
    "repro/ga/bad_clock.py": ("RL002", 2, "import time\nt = time.time()\n"),
    "repro/ga/bad_scan.py": ("RL003", 2, "import os\nn = os.listdir(root)\n"),
    "repro/runs/bad_write.py": (
        "RL004",
        1,
        "open('x.json', 'w').write(payload)\n",
    ),
}


class TestRealTree:
    def test_shipped_source_is_clean(self, capsys):
        package_root = Path(repro.__file__).parent
        code, out = run_cli(capsys, "lint", str(package_root))
        assert code == 0, out
        assert "clean" in out

    def test_json_output_on_clean_tree(self, capsys):
        package_root = Path(repro.__file__).parent
        code, out = run_cli(capsys, "lint", "--format", "json", str(package_root))
        assert code == 0
        payload = json.loads(out)
        assert payload["clean"] is True
        assert payload["findings"] == []
        assert payload["files"] > 100

    def test_list_rules(self, capsys):
        code, out = run_cli(capsys, "lint", "--list-rules")
        assert code == 0
        for rule_id in ("RL001", "RL002", "RL003", "RL004"):
            assert rule_id in out
        assert "deterministic" in out and "durable" in out

    def test_missing_path_is_clean_error(self, capsys):
        code, out = run_cli(capsys, "lint", "no/such/tree")
        assert code == 1
        assert "error:" in out


class TestDeepMode:
    def test_shipped_source_is_deep_clean(self, capsys):
        # The acceptance gate for the whole PR: the interprocedural
        # pass (call-graph taint, all-paths atomic writes, pool/lease
        # rules) reports nothing on the tree we ship.
        package_root = Path(repro.__file__).parent
        code, out = run_cli(capsys, "lint", "--deep", str(package_root))
        assert code == 0, out
        assert "clean" in out

    def test_deep_finding_with_trace_prints_the_chain(self, capsys, tmp_path):
        root = tmp_path / "tree"
        seed_tree(
            root,
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
        )
        code, out = run_cli(capsys, "lint", "--deep", "--trace", str(root))
        assert code == 1
        assert "RL101" in out
        # numbered hop list under the finding, source first
        assert "1." in out and "random.random" in out
        assert "ga_checkpoint_to_dict" in out

    def test_shallow_pass_misses_what_deep_catches(self, capsys, tmp_path):
        root = tmp_path / "tree"
        seed_tree(
            root,
            {
                "repro/runs/store.py": """
                    import os

                    def save(path, payload):
                        tmp = path.with_name(path.name + ".tmp")
                        tmp.write_text(payload)
                        if payload:
                            os.replace(tmp, path)
                """,
            },
        )
        shallow_code, _ = run_cli(capsys, "lint", str(root))
        deep_code, out = run_cli(capsys, "lint", "--deep", str(root))
        assert shallow_code == 0
        assert deep_code == 1
        assert "RL102" in out

    def test_sarif_output_is_valid(self, capsys):
        package_root = Path(repro.__file__).parent
        code, out = run_cli(
            capsys, "lint", "--format", "sarif", str(package_root)
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["tool"]["driver"]["name"] == "repro-lint"

    def test_list_rules_includes_deep_rules(self, capsys):
        code, out = run_cli(capsys, "lint", "--list-rules")
        assert code == 0
        for rule_id in ("RL101", "RL102", "RL103", "RL104", "RL105"):
            assert rule_id in out
        assert "deep" in out


class TestSeededViolations:
    def test_each_rule_fires_with_position(self, capsys, tmp_path):
        root = tmp_path / "tree"
        seed_tree(root, {rel: src for rel, (_, _, src) in VIOLATIONS.items()})
        code, out = run_cli(capsys, "lint", "--format", "json", str(root))
        assert code == 1
        payload = json.loads(out)
        by_rule = {f["rule_id"]: f for f in payload["findings"]}
        for relative, (rule_id, line, _) in VIOLATIONS.items():
            finding = by_rule[rule_id]
            assert finding["path"].endswith(relative.rsplit("/", 1)[-1])
            assert finding["line"] == line
        assert len(payload["findings"]) == 4

    def test_text_output_names_rule_and_position(self, capsys, tmp_path):
        root = tmp_path / "tree"
        seed_tree(root, {"repro/ga/bad_clock.py": "import time\nt = time.time()\n"})
        code, out = run_cli(capsys, "lint", str(root))
        assert code == 1
        assert "bad_clock.py:2:" in out
        assert "RL002" in out
