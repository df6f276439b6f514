"""Differential tests: the integer-id partition layer vs the string oracle.

:mod:`repro.partition.validity` and :mod:`repro.partition.subgraph`
normalize and validate partitions over the graph's integer topology;
:mod:`repro.partition.reference` keeps the name-keyed implementation
they replaced. On random groupings, assignments and member sets of
random DAGs and of every zoo network, both must agree exactly: the same
normalized partition (labels and member sets), the same accept/reject
verdict, the same component list.

Normalization with ``parents`` carries the groups that equal a parent's
member set without splitting them; the oracle always splits every
group. Groupings bred from parents, and random sequences of the five
operators that pass their parents (the three mutations, crossover and
the capacity repair), must still normalize exactly like the oracle.
"""

from __future__ import annotations

import importlib
import random
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MemoryConfig
from repro.errors import GraphError, PartitionError
from repro.ga import mutation
from repro.ga.crossover import crossover
from repro.ga.genome import Genome
from repro.graphs.zoo import available_models, get_model
from repro.partition import reference, validity
from repro.partition.partition import Partition
from repro.partition.random_init import random_partition
from repro.partition.subgraph import weakly_connected_components
from repro.partition.validity import check_partition, normalize_groups, split_infeasible
from repro.units import kb

from ..conftest import random_dags

# ``repro.ga`` re-exports the ``crossover`` function under the module's name.
crossover_module = importlib.import_module("repro.ga.crossover")

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


def bred_grouping(graph, rng: random.Random) -> tuple[list, tuple[Partition, ...]]:
    """A grouping bred from one or two valid parents, and those parents.

    Most groups are a parent's own member sets, carried whole; the others
    are a mutable copy of one, a set with a layer dropped or added (so it
    may overlap a kept set), or a list with a model input and a ghost
    layer mixed in. With two parents every layer is named twice, so the
    second parent's sets often lose the claim to the first's. Some groups
    are left out (their layers become singletons) and some groupings are
    shuffled.
    """
    parents = tuple(
        reference.normalize_groups(
            graph, random_grouping(graph, rng, rng.choice(STYLES))
        )
        for _ in range(rng.randint(1, 2))
    )
    names = list(graph.compute_names)
    groups: list = []
    for parent in parents:
        for members in parent.subgraph_sets:
            roll = rng.random()
            if roll < 0.55:
                groups.append(members)
            elif roll < 0.65:
                groups.append(set(members))
            elif roll < 0.75:
                groups.append(members - {rng.choice(sorted(members))})
            elif roll < 0.85:
                groups.append(members | {rng.choice(names)})
            elif roll < 0.95:
                extra = [rng.choice(graph.input_names), f"ghost{rng.randrange(9)}"]
                groups.append(sorted(members) + extra)
    if rng.random() < 0.3:
        rng.shuffle(groups)
    return groups, parents


def _rejects(check, graph, assignment) -> bool:
    try:
        check(graph, assignment)
    except PartitionError:
        return True
    return False


def assert_normalize_matches(graph, groups, parents=()) -> None:
    fast = normalize_groups(graph, groups, parents)
    oracle = reference.normalize_groups(graph, groups)
    assert fast.labels == oracle.labels
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


@settings(max_examples=200, deadline=None)
@given(random_dags(), seeds)
def test_normalize_with_parents_matches_reference_on_random_dags(graph, seed):
    groups, parents = bred_grouping(graph, random.Random(seed))
    assert_normalize_matches(graph, groups, parents)


@settings(max_examples=80, deadline=None)
@given(zoo_graphs, seeds)
def test_normalize_with_parents_matches_reference_on_zoo(graph, seed):
    groups, parents = bred_grouping(graph, random.Random(seed))
    assert_normalize_matches(graph, groups, parents)


@pytest.mark.parametrize("model", available_models())
def test_normalize_with_parents_matches_reference_on_every_zoo_network(model):
    graph = get_model(model)
    rng = random.Random(model)
    for _ in range(4):
        groups, parents = bred_grouping(graph, rng)
        assert_normalize_matches(graph, groups, parents)


def test_parent_sets_are_carried_as_the_same_objects(chain_graph):
    parent = Partition.from_groups(
        chain_graph, [{"conv1", "conv2"}, {"conv3"}, {"conv4"}]
    )
    first, second, third = parent.subgraph_sets
    child = normalize_groups(chain_graph, [first, {"conv3", "conv4"}], (parent,))
    assert child.subgraph_sets[0] is first
    # An equal set is carried too, as a frozenset of its own.
    child = normalize_groups(chain_graph, [set(first), second, third], (parent,))
    assert child == parent
    assert child.subgraph_sets[1] is second and child.subgraph_sets[2] is third


# ---------------------------------------------------------------------------
# The operators that pass their parents
# ---------------------------------------------------------------------------
@contextmanager
def checked_normalization():
    """Check every ``normalize_groups`` call against the oracle.

    Patches the name each operator calls; yields the per-call parent
    counts, so a test can see that its operators passed parents at all.
    """
    original = validity.normalize_groups
    parent_counts: list[int] = []

    def checked(graph, groups, parents=()):
        groups = list(groups)
        parent_counts.append(len(parents))
        fast = original(graph, groups, parents)
        oracle = reference.normalize_groups(graph, groups)
        assert fast.labels == oracle.labels
        assert fast.subgraph_sets == oracle.subgraph_sets
        return fast

    with mock.patch.object(mutation, "normalize_groups", checked), \
            mock.patch.object(crossover_module, "normalize_groups", checked), \
            mock.patch.object(validity, "normalize_groups", checked):
        yield parent_counts


def run_operator_sequence(graph, rng: random.Random, steps: int) -> None:
    """Breed a small population with random operator choices."""
    memory = MemoryConfig.separate(kb(512), kb(576))
    population = [
        Genome(random_partition(graph, rng, rng.random()), memory)
        for _ in range(3)
    ]
    with checked_normalization() as parent_counts:
        for _ in range(steps):
            move = rng.randrange(5)
            genome = rng.choice(population)
            if move == 0:
                child = mutation.modify_node(genome, rng)
            elif move == 1:
                child = mutation.split_subgraph(genome, rng)
            elif move == 2:
                child = mutation.merge_subgraph(genome, rng)
            elif move == 3:
                child = crossover(genome, rng.choice(population), rng)
            else:
                limit = rng.randint(1, 6)
                child = genome.with_partition(
                    split_infeasible(genome.partition, lambda m: len(m) <= limit)
                )
            reference.check_partition(graph, child.partition.assignment)
            population[rng.randrange(len(population))] = child
    assert all(parent_counts)


@settings(max_examples=60, deadline=None)
@given(random_dags(), seeds)
def test_operator_sequences_match_reference_on_random_dags(graph, seed):
    run_operator_sequence(graph, random.Random(seed), steps=12)


@settings(max_examples=15, deadline=None)
@given(zoo_graphs, seeds)
def test_operator_sequences_match_reference_on_zoo(graph, seed):
    run_operator_sequence(graph, random.Random(seed), steps=8)


def test_modify_node_splits_at_most_two_groups():
    """Only the layer's old and new subgraph are split into components."""
    graph = get_model("resnet50")
    rng = random.Random(0)
    genome = Genome(random_partition(graph, rng, 0.3), MemoryConfig.shared(kb(512)))
    assert sum(len(s) > 1 for s in genome.partition.subgraph_sets) >= 10
    calls = []

    def counting(graph, members):
        calls.append(1)
        return weakly_connected_components(graph, members)

    with mock.patch.object(validity, "weakly_connected_components", counting):
        for _ in range(40):
            calls.clear()
            mutation.modify_node(genome, rng)
            assert len(calls) <= 2


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


def _construct(graph, assignment) -> Partition:
    """``assignment`` as raw labels and member sets, with no name checks."""
    topo = graph.topology()
    labels = [-1] * len(topo.names)
    for name, index in assignment.items():
        labels[topo.index[name]] = index
    count = max(assignment.values(), default=-1) + 1
    sets = [
        frozenset(n for n, index in assignment.items() if index == k)
        for k in range(count)
    ]
    return Partition(graph, labels, sets)


@settings(max_examples=200, deadline=None)
@given(random_dags(), seeds)
def test_constructor_rejects_exactly_like_reference_on_random_dags(graph, seed):
    assignment = random_assignment(graph, random.Random(seed))
    verdict = _rejects(_construct, graph, assignment)
    assert verdict == _rejects(reference.check_partition, graph, assignment)


@settings(max_examples=80, deadline=None)
@given(zoo_graphs, seeds)
def test_constructor_rejects_exactly_like_reference_on_zoo(graph, seed):
    assignment = random_assignment(graph, random.Random(seed))
    verdict = _rejects(_construct, graph, assignment)
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
