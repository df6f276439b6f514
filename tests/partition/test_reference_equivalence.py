"""Differential tests: the integer-id partition layer vs the string oracle.

:mod:`repro.partition.validity` and :mod:`repro.partition.subgraph`
normalize and validate partitions over the graph's integer topology;
:mod:`repro.partition.reference` keeps the name-keyed implementation
they replaced. On random groupings, assignments and member sets of
random DAGs and of every zoo network, both must agree exactly: the same
normalized partition (key and member sets), the same accept/reject
verdict, the same component list.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError, PartitionError
from repro.graphs.zoo import available_models, get_model
from repro.partition import reference
from repro.partition.subgraph import weakly_connected_components
from repro.partition.validity import check_partition, normalize_groups

from ..conftest import random_dags

STYLES = ("shuffled", "perturbed", "overlapping")

zoo_graphs = st.sampled_from(available_models()).map(get_model)
seeds = st.integers(0, 2**32 - 1)


def _chunks(names: list[str], rng: random.Random, largest: int) -> list[set[str]]:
    groups = []
    cursor = 0
    while cursor < len(names):
        size = rng.randint(1, largest)
        groups.append(set(names[cursor : cursor + size]))
        cursor += size
    return groups


def random_grouping(graph, rng: random.Random, style: str) -> list:
    """A raw grouping in one of three styles.

    ``shuffled``: random-size chunks of a shuffled layer list (mostly
    disconnected groups). ``perturbed``: chunks along the topological
    order with some layers moved to other groups (mostly connected groups
    that form quotient cycles). ``overlapping``: random subsets that share
    layers, with empty groups, model inputs and unknown names mixed in.
    """
    names = list(graph.compute_names)
    if style == "shuffled":
        rng.shuffle(names)
        return _chunks(names, rng, rng.choice((2, 4, 8)))
    if style == "perturbed":
        groups = _chunks(names, rng, rng.choice((3, 6, 12)))
        for _ in range(rng.randint(1, 6)):
            source = rng.choice(groups)
            if source:
                name = rng.choice(sorted(source))
                source.discard(name)
                rng.choice(groups).add(name)
        return groups
    everything = list(graph.layer_names)
    groups: list = []
    for _ in range(rng.randint(1, 12)):
        size = rng.randint(0, min(len(everything), 16))
        group = rng.sample(everything, size)
        if rng.random() < 0.3:
            group.append(f"ghost{rng.randrange(100)}")
        groups.append(group if rng.random() < 0.5 else set(group))
    return groups


def random_assignment(graph, rng: random.Random) -> dict:
    """A mostly invalid assignment derived from a valid partition.

    Each move breaks at most one rule: the domain (a model input added,
    a layer dropped or replaced by an input), density (a gap at 0, an
    index past the end), precedence (a layer moved or two subgraphs
    swapped) or connectivity (two consecutive subgraphs fused, which
    keeps the indices dense and every edge in order).
    """
    base = reference.normalize_groups(
        graph, random_grouping(graph, rng, rng.choice(STYLES))
    )
    assignment = base.assignment
    names = list(assignment)
    for _ in range(rng.randint(0, 3)):
        count = max(assignment.values()) + 1
        move = rng.randrange(7)
        if move == 0:  # reassign a layer anywhere, sparse indices included
            assignment[rng.choice(names)] = rng.randrange(count + 2)
        elif move == 1:  # add a model input
            assignment[rng.choice(graph.input_names)] = rng.randrange(count)
        elif move == 2 and len(assignment) > 1:  # drop a layer
            del assignment[rng.choice(sorted(assignment))]
        elif move == 3:  # swap two subgraph indices
            a, b = rng.randrange(count), rng.randrange(count)
            assignment = {
                n: b if i == a else a if i == b else i for n, i in assignment.items()
            }
        elif move == 4:  # shift every index (a gap at 0)
            assignment = {n: i + 1 for n, i in assignment.items()}
        elif move == 5 and count > 1:  # fuse subgraphs k and k + 1
            k = rng.randrange(count - 1)
            assignment = {n: i - (i > k) for n, i in assignment.items()}
        elif move == 6 and len(assignment) > 1:  # a layer replaced by an input
            index = assignment.pop(rng.choice(sorted(assignment)))
            assignment[rng.choice(graph.input_names)] = index
    return assignment


def _rejects(check, graph, assignment) -> bool:
    try:
        check(graph, assignment)
    except PartitionError:
        return True
    return False


def assert_normalize_matches(graph, groups) -> None:
    fast = normalize_groups(graph, groups)
    oracle = reference.normalize_groups(graph, groups)
    assert fast._key == oracle._key
    assert fast.subgraph_sets == oracle.subgraph_sets


# ---------------------------------------------------------------------------
# normalize_groups
# ---------------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(random_dags(), seeds, st.sampled_from(STYLES))
def test_normalize_matches_reference_on_random_dags(graph, seed, style):
    groups = random_grouping(graph, random.Random(seed), style)
    assert_normalize_matches(graph, groups)


@settings(max_examples=80, deadline=None)
@given(zoo_graphs, seeds, st.sampled_from(STYLES))
def test_normalize_matches_reference_on_zoo(graph, seed, style):
    groups = random_grouping(graph, random.Random(seed), style)
    assert_normalize_matches(graph, groups)


@pytest.mark.parametrize("model", available_models())
def test_normalize_matches_reference_on_every_zoo_network(model):
    graph = get_model(model)
    rng = random.Random(model)
    for style in STYLES:
        assert_normalize_matches(graph, random_grouping(graph, rng, style))


# ---------------------------------------------------------------------------
# check_partition
# ---------------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(random_dags(), seeds)
def test_check_rejects_exactly_like_reference_on_random_dags(graph, seed):
    assignment = random_assignment(graph, random.Random(seed))
    verdict = _rejects(check_partition, graph, assignment)
    assert verdict == _rejects(reference.check_partition, graph, assignment)


@settings(max_examples=80, deadline=None)
@given(zoo_graphs, seeds)
def test_check_rejects_exactly_like_reference_on_zoo(graph, seed):
    assignment = random_assignment(graph, random.Random(seed))
    verdict = _rejects(check_partition, graph, assignment)
    assert verdict == _rejects(reference.check_partition, graph, assignment)


# ---------------------------------------------------------------------------
# weakly_connected_components
# ---------------------------------------------------------------------------
def _random_members(graph, rng: random.Random) -> set[str]:
    everything = list(graph.layer_names)
    return set(rng.sample(everything, rng.randint(0, len(everything))))


@settings(max_examples=200, deadline=None)
@given(random_dags(), seeds)
def test_components_match_reference_on_random_dags(graph, seed):
    members = _random_members(graph, random.Random(seed))
    components = weakly_connected_components(graph, members)
    assert components == reference.weakly_connected_components(graph, members)


@settings(max_examples=80, deadline=None)
@given(zoo_graphs, seeds)
def test_components_match_reference_on_zoo(graph, seed):
    members = _random_members(graph, random.Random(seed))
    components = weakly_connected_components(graph, members)
    assert components == reference.weakly_connected_components(graph, members)


@pytest.mark.parametrize(
    "components", [weakly_connected_components, reference.weakly_connected_components]
)
def test_components_reject_unknown_layers(diamond_graph, components):
    with pytest.raises(GraphError):
        components(diamond_graph, {"stem", "ghost"})
