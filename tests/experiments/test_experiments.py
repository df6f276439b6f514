"""Experiment modules produce shape-correct results (tiny budgets).

Full-budget shape checks live in the benchmark harness; these tests only
verify that each experiment runs end to end and emits the right columns.
"""

import pytest

from repro.experiments import (
    fig3_fusion,
    fig11_partition,
    fig12_convergence,
    fig13_distribution,
    fig14_alpha,
    table1_separate,
    table2_shared,
    table3_multicore,
)
from repro.experiments.common import QUICK_SCALE, Scale
from repro.experiments.fig3_fusion import chain_fusion_partition
from repro.experiments.runner import EXPERIMENTS, experiment_result
from repro.graphs.zoo import get_model
from repro.partition.validity import check_partition

TINY_SCALE = Scale(
    name="tiny",
    ga_population=8,
    ga_generations=2,
    sa_steps=60,
    rs_candidates=2,
    gs_stride=16,
    gs_max_candidates=2,
    enum_max_states=3_000,
    enum_max_subgraph=6,
)


class TestChainFusion:
    def test_partition_valid_on_branchy_model(self):
        graph = get_model("googlenet")
        for level in (1, 3, 5):
            partition = chain_fusion_partition(graph, level)
            check_partition(graph, partition.assignment)

    def test_target_size_reached_on_plain_model(self):
        graph = get_model("vgg16")
        partition = chain_fusion_partition(graph, 3)
        sizes = [len(s) for s in partition.subgraph_sets]
        assert max(sizes) <= 3
        assert sum(sizes) / len(sizes) > 2


class TestFig3:
    def test_ema_drops_with_fusion(self):
        result = fig3_fusion.run(models=("googlenet",), levels=(1, 3))
        assert result.rows[0][3] > result.rows[1][3]

    def test_columns(self):
        result = fig3_fusion.run(models=("googlenet",), levels=(1,))
        assert result.headers[0] == "model"
        assert len(result.rows) == 1


class TestFig11:
    def test_single_model_rows(self):
        result = fig11_partition.run(models=("vgg16",), scale=TINY_SCALE)
        methods = [row[1] for row in result.rows]
        assert methods == [
            "Halide(Greedy)",
            "Irregular-NN(DP)",
            "Cocco",
            "Enumeration",
        ]

    def test_cocco_not_worse_than_baselines(self):
        result = fig11_partition.run(models=("vgg16",), scale=TINY_SCALE)
        by_method = {row[1]: row for row in result.rows}
        assert by_method["Cocco"][2] <= by_method["Halide(Greedy)"][2]
        assert by_method["Cocco"][2] <= by_method["Irregular-NN(DP)"][2]


class TestTables:
    def test_table1_rows(self):
        result = table1_separate.run(models=("googlenet",), scale=TINY_SCALE)
        methods = [row[1] for row in result.rows]
        assert methods == ["Buf(S)", "Buf(M)", "Buf(L)", "RS+GA", "GS+GA", "SA", "Cocco"]

    def test_table2_rows(self):
        result = table2_shared.run(models=("googlenet",), scale=TINY_SCALE)
        assert len(result.rows) == 7
        # Shared rows carry one size column; the weight column is "-".
        assert all(row[3] == "-" for row in result.rows)

    def test_table3_grid(self):
        result = table3_multicore.run(
            models=("googlenet",),
            core_counts=(1, 2),
            batch_sizes=(1, 2),
            scale=TINY_SCALE,
        )
        assert len(result.rows) == 4
        assert result.headers[-1] == "size_KB"


class TestFigures:
    def test_fig12_threshold_table(self):
        result = fig12_convergence.run(models=("googlenet",), scale=TINY_SCALE)
        methods = {row[1] for row in result.rows}
        assert "Cocco" in methods and "SA" in methods
        assert "googlenet" in result.extra

    def test_fig13_groups(self):
        result = fig13_distribution.run(models=("googlenet",), scale=TINY_SCALE)
        assert result.rows
        assert all(row[0] == "googlenet" for row in result.rows)

    def test_fig14_alpha_sweep(self):
        result = fig14_alpha.run(
            models=("googlenet",), alphas=(5e-4, 5e-3), scale=TINY_SCALE
        )
        assert len(result.rows) == 2
        assert result.rows[0][4] == 1.0  # normalized to first alpha

    def test_stability_rows(self):
        from repro.experiments import stability

        result = stability.run(
            models=("googlenet",), scale=TINY_SCALE, num_seeds=2
        )
        methods = [row[1] for row in result.rows]
        assert methods == ["Cocco", "SA"]
        # Raw per-seed costs are preserved for downstream analysis.
        assert len(result.extra["googlenet"]["Cocco"]) == 2

    def test_fig1_bounds_and_rows(self):
        from repro.experiments import fig1_extremes

        result = fig1_extremes.run(
            models=("mobilenet_v2",), capacities_kb=(256, 4096),
            scale=TINY_SCALE,
        )
        assert len(result.rows) == 2
        bounds = result.extra["mobilenet_v2"]
        assert bounds["compulsory_mb"] < bounds["streaming_mb"]
        for row in result.rows:
            # Rows carry 2-decimal MB for display; allow rounding slack.
            assert bounds["compulsory_mb"] - 0.01 <= row[2]


class TestRunner:
    def test_registry_covers_evaluation_section(self):
        assert set(EXPERIMENTS) == {
            "fig1",
            "fig2",
            "fig3",
            "fig11",
            "table1",
            "table2",
            "fig12",
            "fig13",
            "fig14",
            "table3",
            "stability",
        }

    def test_run_experiment_returns_table(self):
        text = experiment_result("fig3", QUICK_SCALE).to_text()
        assert "Figure 3" in text
