"""Interprocedural taint: sources, sanitizers, sinks, and full traces.

The multi-hop tests are the acceptance check for deep mode: each seeds
a flow that is *invisible* to the per-file rules (the source lives
outside every zone, the sink call is syntactically innocent) and
asserts both that the shallow pass stays clean and that the deep pass
reports the flow with its complete source→sink call chain.
"""

from __future__ import annotations

import textwrap

from repro.lint.callgraph import ProjectIndex
from repro.lint.engine import Linter, ModuleSource
from repro.lint.taint import TaintEngine


def run_taint(files: dict[str, str]):
    modules = [
        ModuleSource.from_source(
            textwrap.dedent(source), module=name, path=f"{name}.py"
        )
        for name, source in files.items()
    ]
    return TaintEngine(ProjectIndex.build(modules)).run()


#: An unseeded draw born in a zone-free utility module, laundered
#: through two pure helpers, then serialized into a checkpoint — the
#: class of bug RL001 cannot see (no deterministic-zone module ever
#: calls random.*) and RL101 exists for.
MULTI_HOP_RNG = {
    "repro.util.ids": """
        import random

        def fresh_token():
            return random.random()
    """,
    "repro.util.labels": """
        from repro.util.ids import fresh_token

        def run_label():
            token = fresh_token()
            return f"run-{token}"
    """,
    "repro.runs.checkpoint": """
        def ga_checkpoint_to_dict(state):
            return {"state": state}
    """,
    "repro.runs.snapshot": """
        from repro.runs.checkpoint import ga_checkpoint_to_dict
        from repro.util.labels import run_label

        def persist(best):
            payload = {"best": best, "label": run_label()}
            return ga_checkpoint_to_dict(payload)
    """,
}


class TestMultiHopFlows:
    def test_rng_reaches_serializer_through_two_hops(self):
        flows = run_taint(MULTI_HOP_RNG)
        assert len(flows) == 1
        (flow,) = flows
        assert flow.source.kind == "rng"
        assert "ga_checkpoint_to_dict" in flow.sink
        # the chain tells the whole story: draw, two forwarding hops,
        # sink — at least two call hops between source and sink
        assert len(flow.trace) - 1 >= 2
        chain = " -> ".join(flow.trace)
        assert "random.random" in chain
        assert "fresh_token" in chain
        assert "run_label" in chain
        assert "persist" in chain

    def test_shallow_rules_cannot_see_the_flow(self, fixture_tree):
        root = fixture_tree(
            {
                name.replace(".", "/") + ".py": source
                for name, source in MULTI_HOP_RNG.items()
            }
        )
        assert Linter().lint([root]).clean

    def test_deep_linter_reports_it_with_the_chain(self, fixture_tree):
        root = fixture_tree(
            {
                name.replace(".", "/") + ".py": source
                for name, source in MULTI_HOP_RNG.items()
            }
        )
        report = Linter(deep=True).lint([root])
        assert not report.clean
        (finding,) = report.findings
        assert finding.rule_id == "RL101"
        assert finding.path.endswith("snapshot.py")
        assert "2 call hop(s)" in finding.message or "call hop" in finding.message
        assert "random.random" in finding.message
        assert finding.trace  # machine-readable chain for --trace/SARIF
        rendered = finding.render(with_trace=True)
        assert "1." in rendered and "fresh_token" in rendered


class TestSourcesAndSinks:
    def test_wall_clock_reaches_registry_write(self):
        flows = run_taint(
            {
                "repro.runs.run": """
                    import time

                    def stamp():
                        return time.time()

                    def record(registry, row):
                        registry.log_history({"row": row, "at": stamp()})
                """
            }
        )
        (flow,) = flows
        assert flow.source.kind == "clock"
        assert ".log_history()" in flow.sink

    def test_environment_lookup_reaches_seed_derivation(self):
        flows = run_taint(
            {
                "repro.runs.seeds": """
                    def derive_seed(campaign_seed, key):
                        return hash((campaign_seed, key))
                """,
                "repro.runs.setup": """
                    import os
                    from repro.runs.seeds import derive_seed

                    def cell_seed(campaign_seed):
                        worker = os.environ.get("WORKER_ID", "0")
                        return derive_seed(campaign_seed, worker)
                """,
            }
        )
        (flow,) = flows
        assert flow.source.kind == "env"
        assert "derive_seed" in flow.sink

    def test_set_iteration_order_reaches_serializer(self):
        flows = run_taint(
            {
                "repro.runs.checkpoint": """
                    def sa_checkpoint_to_dict(state):
                        return dict(state)
                """,
                "repro.runs.fold": """
                    from repro.runs.checkpoint import sa_checkpoint_to_dict

                    def fold(names: set[str]):
                        rows = [n for n in names]
                        return sa_checkpoint_to_dict({"rows": rows})
                """,
            }
        )
        (flow,) = flows
        assert flow.source.kind == "set-order"

    def test_pool_completion_order_is_a_source(self):
        flows = run_taint(
            {
                "repro.runs.drain": """
                    def drain(pool, tasks, registry):
                        for result in pool.imap_unordered(run, tasks):
                            registry.log_history(result)
                """
            }
        )
        (flow,) = flows
        assert flow.source.kind == "pool-order"

    def test_entropy_reaches_atomic_write_helper(self):
        flows = run_taint(
            {
                "repro.runs.result": """
                    import os

                    def finish(node):
                        node.write_atomic("result.json", f"pid={os.getpid()}")
                """,
            }
        )
        assert any(
            flow.source.kind == "entropy"
            and "durable transport write .write_atomic()" in flow.sink
            for flow in flows
        )


class TestSanitizers:
    def test_sorted_clears_set_order_taint(self):
        flows = run_taint(
            {
                "repro.runs.checkpoint": """
                    def sa_checkpoint_to_dict(state):
                        return dict(state)
                """,
                "repro.runs.fold": """
                    from repro.runs.checkpoint import sa_checkpoint_to_dict

                    def fold(names: set[str]):
                        rows = sorted(names)
                        return sa_checkpoint_to_dict({"rows": rows})
                """
            }
        )
        assert flows == []

    def test_order_neutral_aggregations_pass(self):
        flows = run_taint(
            {
                "repro.runs.checkpoint": """
                    def sa_checkpoint_to_dict(state):
                        return dict(state)
                """,
                "repro.runs.fold": """
                    from repro.runs.checkpoint import sa_checkpoint_to_dict

                    def fold(names: set[str]):
                        return sa_checkpoint_to_dict(
                            {"n": len(names), "hit": "x" in names}
                        )
                """
            }
        )
        assert flows == []

    def test_sorted_does_not_clear_value_entropy(self):
        # sorted() pins an order; it cannot make random values
        # deterministic
        flows = run_taint(
            {
                "repro.runs.checkpoint": """
                    def sa_checkpoint_to_dict(state):
                        return dict(state)
                """,
                "repro.runs.fold": """
                    import random

                    from repro.runs.checkpoint import sa_checkpoint_to_dict

                    def fold(n):
                        noise = sorted(random.random() for _ in range(n))
                        return sa_checkpoint_to_dict({"noise": noise})
                """
            }
        )
        (flow,) = flows
        assert flow.source.kind == "rng"

    def test_reassignment_kills_taint(self):
        flows = run_taint(
            {
                "repro.runs.checkpoint": """
                    def sa_checkpoint_to_dict(state):
                        return dict(state)
                """,
                "repro.runs.fold": """
                    import random

                    from repro.runs.checkpoint import sa_checkpoint_to_dict

                    def fold():
                        x = random.random()
                        x = 0.0
                        return sa_checkpoint_to_dict({"x": x})
                """
            }
        )
        assert flows == []

    def test_clean_values_flow_silently(self):
        flows = run_taint(
            {
                "repro.runs.checkpoint": """
                    def sa_checkpoint_to_dict(state):
                        return dict(state)
                """,
                "repro.runs.fold": """
                    from repro.runs.checkpoint import sa_checkpoint_to_dict

                    def fold(rows: list):
                        return sa_checkpoint_to_dict({"rows": rows})
                """
            }
        )
        assert flows == []
