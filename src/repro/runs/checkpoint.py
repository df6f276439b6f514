"""JSON serialization of search checkpoints for the run registry.

The checkpoint classes of :data:`CHECKPOINT_KINDS` (the GA engine,
island model, two-step, simulated-annealing and NSGA-II snapshots) are
in-memory objects; one codec round-trips them through plain JSON-able
dicts so a run directory can hold a durable ``checkpoint.json``. It
encodes by walking a class's dataclass fields in declaration order and
decodes by following their type annotations, so a field added to a
checkpoint class is written and read without touching this module.
Genomes are serialized *structurally* (layer -> subgraph assignment plus
the memory configuration) and rebuilt against the resuming process's
graph object, so a checkpoint written by one process resumes in another
even though :class:`~repro.partition.partition.Partition` equality is
tied to graph identity. Every float survives the round trip exactly
(Python's JSON encoder emits shortest round-trip reprs), which is what
keeps resumed runs bit-identical to uninterrupted ones.

Beyond the field walk, format 1 has four rules:

* every checkpoint class, nested or not, carries a ``{"format",
  "kind"}`` header, which the decoder checks;
* ``best_genome`` and ``current_genome`` are stored as ``best`` and
  ``current``;
* a class whose ``evaluations`` is a derived property (islands,
  two-step) writes it after its fields, so the budget scheduler can
  probe it without decoding; the decoder ignores it;
* NSGA-II survivors (``points``) are stored as indices into
  ``archive`` and decode to the very archive objects, so a resumed run
  finds them in its archive by identity when it saves again.

A document that is not a well-formed checkpoint of the expected kind
raises :class:`~repro.errors.ConfigError`. An annotation the codec has
no rule for raises ``TypeError``: a programming error, never a reason
to pass raw JSON through.
"""

from __future__ import annotations

import dataclasses
import functools
import types
import typing
from typing import Any, Callable

from ..config import BufferMode, MemoryConfig
from ..dse.nsga import NSGACheckpoint
from ..dse.two_step import TwoStepCheckpoint
from ..errors import ConfigError, PartitionError
from ..ga.annealing import SACheckpoint
from ..ga.engine import EngineCheckpoint
from ..ga.genome import Genome
from ..ga.islands import IslandsCheckpoint
from ..graphs.graph import ComputationGraph
from ..partition.partition import Partition

_FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------
def memory_to_dict(memory: MemoryConfig) -> dict[str, Any]:
    if memory.mode is BufferMode.SHARED:
        return {"mode": "shared", "shared": memory.shared_buffer_bytes}
    return {
        "mode": "separate",
        "global": memory.global_buffer_bytes,
        "weight": memory.weight_buffer_bytes,
    }


def memory_from_dict(data: dict[str, Any]) -> MemoryConfig:
    if data["mode"] == "shared":
        return MemoryConfig.shared(data["shared"])
    if data["mode"] != "separate":
        raise ValueError(f"unknown buffer mode {data['mode']!r}")
    return MemoryConfig.separate(data["global"], data["weight"])


def genome_to_dict(genome: Genome) -> dict[str, Any]:
    return {
        "assignment": genome.partition.assignment,
        "memory": memory_to_dict(genome.memory),
    }


def genome_from_dict(data: dict[str, Any], graph: ComputationGraph) -> Genome:
    return Genome(
        partition=Partition.from_assignment(graph, data["assignment"]),
        memory=memory_from_dict(data["memory"]),
    )


# ---------------------------------------------------------------------------
# The codec
# ---------------------------------------------------------------------------
#: The kinds a two-step snapshot may carry: the generic tag plus the
#: suite scheme names (the suite stamps ``rs``/``gs`` so a registry
#: directory is self-describing about which scheme wrote it).
TWO_STEP_KINDS = ("two_step", "rs", "gs")

#: Every checkpoint class and the ``kind`` tags its documents may carry,
#: the default first. A new scheme's checkpoint class is one entry here
#: plus its two named wrappers below.
CHECKPOINT_KINDS: dict[type, tuple[str, ...]] = {
    EngineCheckpoint: ("ga",),
    IslandsCheckpoint: ("islands",),
    TwoStepCheckpoint: TWO_STEP_KINDS,
    SACheckpoint: ("sa",),
    NSGACheckpoint: ("nsga",),
}
#: Fields stored under a shorter key.
_KEYS = {"best_genome": "best", "current_genome": "current"}
#: List fields stored as indices into an earlier list field.
_INDEXED = {(NSGACheckpoint, "points"): "archive"}
#: The JSON values a scalar annotation accepts (a ``bool`` is no ``int``).
_SCALARS = {int: (int,), float: (float, int), str: (str,)}

#: Value -> JSON.
Encoder = Callable[[Any], Any]
#: (JSON, graph) -> value; raises on JSON of the wrong shape.
Decoder = Callable[[Any, ComputationGraph], Any]


def encode(checkpoint: Any, kind: str | None = None) -> dict[str, Any]:
    """Serialize a checkpoint; ``kind`` overrides its class's default tag."""
    cls = type(checkpoint)
    if kind is not None and kind not in CHECKPOINT_KINDS[cls]:
        raise ConfigError(f"unknown {cls.__name__} kind {kind!r}")
    return _codec(cls)[0](checkpoint, kind)


def decode(
    cls: type, data: Any, graph: ComputationGraph, kind: str | None = None
) -> Any:
    """Rebuild a ``cls`` checkpoint against ``graph``.

    ``kind`` (when given) must match the stored tag exactly; otherwise
    any tag of ``cls`` is accepted.
    """
    kinds = CHECKPOINT_KINDS[cls] if kind is None else (kind,)
    decoder = _codec(cls)[1]
    try:
        return decoder(data, graph, kinds)
    except (
        KeyError, IndexError, TypeError, ValueError, AttributeError, PartitionError
    ) as exc:
        raise ConfigError(
            f"malformed {kinds[0]} checkpoint: {type(exc).__name__}: {exc}"
        ) from exc


def _same(value: Any) -> Any:
    return value


def _expect(data: Any, accepted: tuple[type, ...], what: str) -> Any:
    if type(data) not in accepted:
        raise TypeError(f"expected {what}, got {type(data).__name__}")
    return data


@functools.cache
def _codec(annotation: Any) -> tuple[Encoder, Decoder]:
    """The encoder and decoder of one field annotation."""
    if annotation in _SCALARS:
        accepted, name = _SCALARS[annotation], annotation.__name__
        return _same, lambda data, graph: _expect(data, accepted, name)
    if annotation is Genome:
        return genome_to_dict, genome_from_dict
    if annotation is MemoryConfig:
        return memory_to_dict, lambda data, graph: memory_from_dict(data)
    if dataclasses.is_dataclass(annotation):
        return _dataclass(annotation)
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    optional = len(args) == 2 and type(None) in args
    if origin in (typing.Union, types.UnionType) and optional:
        (inner,) = [arg for arg in args if arg is not type(None)]
        enc, dec = _codec(inner)
        return (
            lambda value: None if value is None else enc(value),
            lambda data, graph: None if data is None else dec(data, graph),
        )
    variadic = origin is tuple and args[1:] == (...,)
    if (origin is list and len(args) == 1) or variadic:
        enc, dec = _codec(args[0])
        if enc is not _same:
            return (
                lambda value: [enc(v) for v in value],
                lambda data, graph: origin(
                    [dec(item, graph) for item in _expect(data, (list,), "an array")]
                ),
            )
        # Scalar items (an RNG state holds 625): one type check per array.
        accepted = frozenset(_SCALARS[args[0]])

        def decode_scalars(data, graph):
            if not set(map(type, _expect(data, (list,), "an array"))) <= accepted:
                raise TypeError(f"expected an array of {args[0].__name__}")
            return origin(data)

        return list, decode_scalars
    if origin is tuple and args and ... not in args:
        encoders, decoders = zip(*map(_codec, args))

        def decode_tuple(data, graph):
            if len(_expect(data, (list,), "an array")) != len(args):
                raise ValueError(f"expected {len(args)} items, got {len(data)}")
            return tuple(dec(item, graph) for dec, item in zip(decoders, data))

        if all(enc is _same for enc in encoders):
            return list, decode_tuple
        return (
            lambda value: [enc(v) for enc, v in zip(encoders, value)],
            decode_tuple,
        )
    raise TypeError(f"no checkpoint codec rule for annotation {annotation!r}")


def _dataclass(cls: type) -> tuple[Encoder, Decoder]:
    """Field walk over ``cls``, with the header and index rules."""
    hints = typing.get_type_hints(cls)
    kinds = CHECKPOINT_KINDS.get(cls)
    plan: list[tuple[str, str, Encoder, Decoder, str | None]] = []
    for field in dataclasses.fields(cls):
        annotation = hints[field.name]
        ref = _INDEXED.get((cls, field.name))
        if ref is not None:
            if ref not in [name for name, *_ in plan]:
                raise TypeError(f"{cls.__name__}.{field.name} indexes a later field")
            (annotation,) = typing.get_args(annotation)
        key = _KEYS.get(field.name, field.name)
        plan.append((field.name, key, *_codec(annotation), ref))
    derived = kinds is not None and "evaluations" not in [p[0] for p in plan]

    def encode_fields(obj, kind=None):
        doc: dict[str, Any] = {}
        if kinds is not None:
            doc["format"] = _FORMAT_VERSION
            doc["kind"] = kind or kinds[0]
        for name, key, enc, _, ref in plan:
            value = getattr(obj, name)
            if ref is None:
                doc[key] = enc(value)
                continue
            # An item that is not one of the indexed objects is inlined.
            slot = {id(item): i for i, item in enumerate(getattr(obj, ref))}
            doc[key] = [slot[id(v)] if id(v) in slot else enc(v) for v in value]
        if derived:
            doc["evaluations"] = obj.evaluations
        return doc

    def decode_fields(data, graph, accepted=kinds):
        _expect(data, (dict,), "an object")
        if kinds is not None:
            _check_header(data, accepted)
        values: dict[str, Any] = {}
        for name, key, _, dec, ref in plan:
            if ref is None:
                values[name] = dec(data[key], graph)
                continue
            pool = values[ref]
            values[name] = [
                _pick(pool, item) if type(item) is int else dec(item, graph)
                for item in _expect(data[key], (list,), "an array")
            ]
        return cls(**values)

    return encode_fields, decode_fields


def _pick(pool: list, index: int) -> Any:
    if not 0 <= index < len(pool):
        raise IndexError(f"index {index} outside a {len(pool)}-entry list")
    return pool[index]


def _check_header(data: dict[str, Any], kinds: tuple[str, ...]) -> None:
    version = data.get("format")
    if type(version) is not int or version != _FORMAT_VERSION:
        raise ConfigError(f"unsupported checkpoint format {version!r}")
    if data.get("kind") not in kinds:
        raise ConfigError(
            f"checkpoint is a {data.get('kind')!r} snapshot, expected one "
            f"of {kinds}"
        )


# ---------------------------------------------------------------------------
# Named entry points, one pair per checkpoint class (the suite's scheme
# table and the deep lint's serializer sinks address them by name)
# ---------------------------------------------------------------------------
def ga_checkpoint_to_dict(checkpoint: EngineCheckpoint) -> dict[str, Any]:
    return encode(checkpoint)


def ga_checkpoint_from_dict(data: Any, graph: ComputationGraph) -> EngineCheckpoint:
    return decode(EngineCheckpoint, data, graph)


def islands_checkpoint_to_dict(checkpoint: IslandsCheckpoint) -> dict[str, Any]:
    return encode(checkpoint)


def islands_checkpoint_from_dict(
    data: Any, graph: ComputationGraph
) -> IslandsCheckpoint:
    return decode(IslandsCheckpoint, data, graph)


def two_step_checkpoint_to_dict(
    checkpoint: TwoStepCheckpoint, kind: str = "two_step"
) -> dict[str, Any]:
    return encode(checkpoint, kind)


def two_step_checkpoint_from_dict(
    data: Any, graph: ComputationGraph, kind: str | None = None
) -> TwoStepCheckpoint:
    return decode(TwoStepCheckpoint, data, graph, kind)


def sa_checkpoint_to_dict(checkpoint: SACheckpoint) -> dict[str, Any]:
    return encode(checkpoint)


def sa_checkpoint_from_dict(data: Any, graph: ComputationGraph) -> SACheckpoint:
    return decode(SACheckpoint, data, graph)


def nsga_checkpoint_to_dict(checkpoint: NSGACheckpoint) -> dict[str, Any]:
    return encode(checkpoint)


def nsga_checkpoint_from_dict(data: Any, graph: ComputationGraph) -> NSGACheckpoint:
    return decode(NSGACheckpoint, data, graph)
