"""Tensorized cross-genome population pricing (bit-identical fast path).

:meth:`~repro.cost.evaluator.Evaluator.prime_summaries` collects every
*unseen* ``(subgraph, memory)`` key across a whole population and hands
the cold ones (no cached profile) to :func:`price_population` here. The
keys are deduped, grouped by
:attr:`~repro.execution.tiling.TilingStructure.signature` shape class,
and priced as stacked NumPy tensor ops over
:class:`~repro.graphs.arrays.GraphArrays`:

* per-subgraph byte/MAC totals (and the direct solve's footprint
  constants) become segmented prefix-sum reductions over one
  concatenated index vector spanning the whole population,
* each shape class solves stages 1-3 once (one representative; the
  others adopt its base solution) and prices all its subgraphs' tile
  candidates with a single row-bytes x tile-rows matrix product,
* classes passing the :class:`~repro.execution.tiling_batch.
  LinearTileModel` preconditions skip the candidate scan entirely — the
  best tile under a separate activation buffer is a closed-form pick, on
  any core count and batch (a tile fits when each core's ``⌈act/C⌉``
  share fits its buffer, i.e. when ``act`` fits ``C`` buffers).

Everything the batch layer cannot handle — structure derivation or
balance validation failing (error messages are per-subgraph), empty
candidate lists — is simply left out of the result
dict; the caller reprices those keys serially in first-seen order, so
exceptions surface exactly where the serial path would raise them. For
keys that *are* priced, only the tile pick differs from the serial
path (scan classes run the real :func:`~repro.cost.ema._select_options`
/ ``Evaluator._price`` over precomputed tables; the direct solve prices
its closed-form pick through the same fit rule and pricing kernel),
keeping summaries bit-identical to :mod:`repro.cost.reference`.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as _np

from ..config import BufferMode, MemoryConfig
from ..errors import TilingError
from ..execution.tiling import TilingStructure
from ..execution.tiling_batch import LinearTileModel, member_max_height, scan_table
from .ema import SubgraphProfile, _select_options
from .evaluator import Evaluator, _lru_get, _lru_put, weight_budget

#: Summary scalars of a subgraph no tile option fits (mirrors the
#: infeasible ``SubgraphCost`` through ``ema_bytes``/``energy_pj``/
#: ``latency_cycles``).
_INFEASIBLE = (False, int(1e18), float("inf"), float("inf"))

#: Process-wide scan-path state per (shape signature, tile candidates):
#: ``(table_ops, column, x_matrix, max_height)``. Like the direct-solve
#: models, everything here is fully determined by the signature, so one
#: candidate-table walk serves every evaluator in the process.
_SCAN_STATES: OrderedDict[tuple, tuple] = OrderedDict()
_SCAN_CACHE_SIZE = 8192


def _prefix_diffs(values, bounds: list[int]) -> list[int]:
    """Per-segment sums of a 1-D array via one cumsum (exact in int64).

    The prefix-sum difference handles empty segments naturally, and
    ``int64`` is exact here: the largest population-wide running total
    (bytes or MACs across every subgraph of every genome) stays far
    below 2**63.
    """
    prefix = _np.zeros(len(values) + 1, dtype=_np.int64)
    _np.cumsum(values, dtype=_np.int64, out=prefix[1:])
    return [int(prefix[b] - prefix[a]) for a, b in zip(bounds, bounds[1:])]


def _segment_sums(values, index_lists: list[list[int]]) -> list[int]:
    """Exact per-list integer sums (one gather + cumsum over the concat)."""
    flat: list[int] = []
    bounds = [0]
    for lst in index_lists:
        flat.extend(lst)
        bounds.append(len(flat))
    if not flat:
        return [0] * len(index_lists)
    return _prefix_diffs(values[_np.asarray(flat, dtype=_np.intp)], bounds)


def _greedy_cached_bytes(weights_desc: list[int], budget: int) -> int:
    """Cached byte total of the greedy weight selection.

    Mirrors :func:`~repro.cost.ema.cached_weight_selection` byte-for-byte
    without materializing node names: the greedy total depends only on
    the descending weight multiset (equal weights are interchangeable).
    """
    cached = 0
    for weight in weights_desc:
        if weight == 0:
            break  # sorted descending: everything after is zero too
        if cached + weight <= budget:
            cached += weight
    return cached


def price_population(
    evaluator: Evaluator,
    cold_keys: list[tuple[frozenset[str], tuple]],
    memories: dict[tuple, MemoryConfig],
) -> dict[tuple, tuple]:
    """Price cold ``(members, mem_key)`` keys as stacked shape classes.

    Returns ``{key: (feasible, ema_bytes, energy_pj, latency_cycles)}``
    for every key the batch machinery handled; absent keys fall back to
    the caller's serial path. Side effects mirror serial pricing:
    derived structures and (for scan classes) full profiles land in the
    evaluator's LRU caches — the direct-solve path's speedup is exactly
    that it never builds a per-subgraph option table.
    """
    if not cold_keys or not evaluator.tile_candidates:
        # No candidates means the serial profiler raises — let it.
        return {}
    graph = evaluator.graph
    accel = evaluator.accel
    arrays = graph.arrays(accel.bytes_per_element)
    index = arrays.index
    succ_map = graph.successor_map()
    tile_candidates = evaluator.tile_candidates
    cores = accel.num_cores

    # Requested memory keys per member set (dedup preserves first-seen).
    wanted: dict[frozenset[str], list[tuple]] = {}
    for members, mem_key in cold_keys:
        wanted.setdefault(members, []).append(mem_key)

    # One structure per member set, grouped into shape classes. A set
    # whose derivation fails is skipped here so the serial fallback
    # raises the identical error at the identical (first-seen) key.
    structures: dict[frozenset[str], TilingStructure] = {}
    classes: dict[tuple, list[frozenset[str]]] = {}
    for members in wanted:
        structure = _lru_get(evaluator._structures, members)
        if structure is None:
            try:
                structure = TilingStructure(graph, members, solve_base=False)
            except TilingError:
                continue
        structures[members] = structure
        classes.setdefault(structure.signature, []).append(members)

    # One base solve + balance validation per class; a class whose
    # representative fails is skipped wholesale (the serial fallback
    # re-raises the identical per-subgraph error).
    valid: list[
        tuple[TilingStructure, list[frozenset[str]], LinearTileModel | None]
    ] = []
    for group in classes.values():
        rep = structures[group[0]]
        try:
            rep.base
        except TilingError:
            continue
        for members in group[1:]:
            structures[members].adopt_base(rep)
        for members in group:
            _lru_put(
                evaluator._structures,
                members,
                structures[members],
                evaluator._profile_cache_size,
            )
        valid.append((rep, group, evaluator._linear_model(rep)))

    # Global per-subgraph index lists -> one batched exact reduction per
    # quantity across the *whole population* (not per class: shape
    # classes are often singletons, and tiny per-class numpy calls cost
    # more than they save).
    slot: dict[frozenset[str], int] = {}
    names_rows: dict[frozenset[str], list[int]] = {}
    member_lists: list[list[int]] = []
    input_lists: list[list[int]] = []
    output_lists: list[list[int]] = []
    # Footprint constants A = rows . slope and B = rows . intercept for
    # every subgraph of a linear class ride the same batching: one row-
    # byte gather, two elementwise products against the concatenated
    # per-class slope/intercept vectors, one cumsum each.
    foot_slot: dict[frozenset[str], int] = {}
    foot_idx: list[int] = []
    foot_bounds = [0]
    slope_flat: list[int] = []
    icept_flat: list[int] = []
    for _, group, model in valid:
        for members in group:
            structure = structures[members]
            all_idx: list[int] = []
            mem_idx: list[int] = []
            inp_idx: list[int] = []
            for name, is_member in zip(structure.names, structure.is_member):
                i = index[name]
                all_idx.append(i)
                (mem_idx if is_member else inp_idx).append(i)
            names_rows[members] = all_idx
            slot[members] = len(member_lists)
            member_lists.append(mem_idx)
            input_lists.append(inp_idx)
            output_lists.append(
                [
                    index[n]
                    for n in sorted(members)
                    if not succ_map[n] or any(s not in members for s in succ_map[n])
                ]
            )
            if model is not None:
                foot_slot[members] = len(foot_bounds) - 1
                foot_idx.extend(all_idx)
                foot_bounds.append(len(foot_idx))
                slope_flat.extend(model.slope)
                icept_flat.extend(model.intercept)
    weight_totals = _segment_sums(arrays.weight_bytes, member_lists)
    mac_totals = _segment_sums(arrays.macs, member_lists)
    act_totals = _segment_sums(arrays.output_bytes, member_lists)
    input_totals = _segment_sums(arrays.output_bytes, input_lists)
    output_totals = _segment_sums(arrays.output_bytes, output_lists)
    if foot_idx:
        foot_rows = arrays.row_bytes[
            _np.asarray(foot_idx, dtype=_np.intp)
        ].astype(_np.int64)
        foot_slopes = _prefix_diffs(
            foot_rows * _np.asarray(slope_flat, dtype=_np.int64), foot_bounds
        )
        foot_icepts = _prefix_diffs(
            foot_rows * _np.asarray(icept_flat, dtype=_np.int64), foot_bounds
        )

    results: dict[tuple, tuple] = {}
    for rep, group, model in valid:
        # Scan-path state, built lazily: only classes with at least one
        # key the direct solve cannot take (no model, or a shared
        # buffer) pay for the candidate table and the footprint matmul.
        act_matrix = None
        table_ops: dict[int, int] = {}
        column: dict[int, int] = {}
        max_height = 0
        profiles: dict[frozenset[str], SubgraphProfile] = {}

        for g, members in enumerate(group):
            s = slot[members]
            weights_desc: list[int] | None = None
            for mem_key in wanted[members]:
                memory = memories[mem_key]
                separate = memory.mode is BufferMode.SEPARATE
                if model is not None and separate:
                    # GOMA-style direct solve. The closed form keeps footprints
                    # ``act <= buffer·C``: exactly those the fit rule accepts.
                    evaluator.num_batch_direct += 1
                    f = foot_slot[members]
                    choice = model.choose(
                        foot_slopes[f],
                        foot_icepts[f],
                        memory.global_buffer_bytes * cores,
                    )
                    if choice < 0:
                        results[(members, mem_key)] = _INFEASIBLE
                        continue
                    if weights_desc is None:
                        weights_desc = sorted(
                            (int(w) for w in arrays.weight_bytes[member_lists[s]]),
                            reverse=True,
                        )
                    budget = weight_budget(
                        memory,
                        cores,
                        foot_slopes[f] * model.kept[choice] + foot_icepts[f],
                    )
                    _, ema, energy, _, latency = evaluator._tile_cost(
                        memory,
                        weight_totals[s],
                        mac_totals[s],
                        input_totals[s] + output_totals[s],
                        input_totals[s] + act_totals[s],
                        model.kept_ops[choice],
                        _greedy_cached_bytes(weights_desc, budget),
                    )
                    results[(members, mem_key)] = (True, ema, energy.total_pj, latency)
                    continue

                # Class-batched scan: shared solves + one matmul, then
                # the *real* selection and pricing code over the table.
                profile = profiles.get(members)
                if profile is None:
                    if act_matrix is None:
                        # Candidates are non-empty, so the table (and the
                        # option list below) always hold the first one.
                        state_key = (rep.signature, tile_candidates)
                        state = _lru_get(_SCAN_STATES, state_key)
                        if state is None:
                            table = scan_table(rep, tile_candidates)
                            table_ops = {row[0]: row[2] for row in table}
                            column = {row[0]: j for j, row in enumerate(table)}
                            x_matrix = _np.asarray(
                                [row[1] for row in table], dtype=_np.int64
                            )
                            max_height = member_max_height(rep)
                            _lru_put(
                                _SCAN_STATES,
                                state_key,
                                (table_ops, column, x_matrix, max_height),
                                _SCAN_CACHE_SIZE,
                            )
                        else:
                            table_ops, column, x_matrix, max_height = state
                        rows = arrays.row_bytes[
                            _np.asarray(
                                [names_rows[m] for m in group], dtype=_np.intp
                            )
                        ]
                        act_matrix = rows @ x_matrix.T
                    acts = act_matrix[g]

                    def class_option(tile_rows: int, _acts=acts) -> tuple[int, int]:
                        return int(_acts[column[tile_rows]]), table_ops[tile_rows]

                    options = _select_options(
                        class_option,
                        tile_candidates,
                        max_height,
                        stable_after=rep.saturation,
                    )
                    profile = SubgraphProfile(
                        members=members,
                        input_bytes=input_totals[s],
                        output_bytes=output_totals[s],
                        weight_bytes=weight_totals[s],
                        macs=mac_totals[s],
                        member_activation_bytes=act_totals[s],
                        layer_weights=tuple(
                            sorted(
                                (
                                    (n, int(arrays.weight_bytes[index[n]]))
                                    for n in members
                                ),
                                key=lambda item: (-item[1], item[0]),
                            )
                        ),
                        tile_options=tuple(options),
                    )
                    profiles[members] = profile
                    _lru_put(
                        evaluator._profiles,
                        members,
                        profile,
                        evaluator._profile_cache_size,
                    )
                results[(members, mem_key)] = evaluator._price(profile, memory).summary
    return results
