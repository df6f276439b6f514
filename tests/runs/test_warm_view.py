"""Differential tests: the registry's warm-file view against a full-parse oracle.

``RunRegistry`` keeps, per warm file, a view of the text it last read or
wrote, so a load or save parses and encodes only the entries that are
new to the file. The oracle below is the plain implementation the view
replaces, kept as two functions over a transport: every call parses the
whole file, and every save re-encodes all of it. Random interleavings of
loads and saves by several registries sharing one store — with foreign
rewrites, torn or corrupt text and deletions between the steps — must
write exactly the bytes the oracle writes and load exactly what it
loads, over the filesystem and over the object store.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distrib.objectstore import ObjectStore, ObjectStoreTransport
from repro.runs import registry as registry_mod
from repro.runs.registry import RunRegistry
from repro.runs.transport import FsTransport

NET = "net"
KEY = f"warm/{NET}-bpe1.json"


# ---------------------------------------------------------------------------
# The oracle: full parse on every load, full merge and re-encode per save.
# ---------------------------------------------------------------------------
def oracle_load(transport, network, bytes_per_element):
    text = transport.read_text(f"warm/{network}-bpe{bytes_per_element}.json")
    if text is None:
        return []
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return []
    entries = []
    for members, mem_key, summary in payload.get("entries", []):
        entries.append(
            (
                (frozenset(members), tuple(mem_key)),
                (bool(summary[0]), int(summary[1]), summary[2], summary[3]),
            )
        )
    return entries


def oracle_save(transport, network, bytes_per_element, entries, cap=50_000):
    merged = {
        key: summary
        for key, summary in oracle_load(transport, network, bytes_per_element)
    }
    for key, summary in entries:
        merged[key] = summary
    kept = list(merged.items())[-cap:]
    payload = {
        "version": 1,
        "network": network,
        "bytes_per_element": bytes_per_element,
        "entries": [
            [sorted(key[0]), list(key[1]), list(summary)] for key, summary in kept
        ],
    }
    transport.write_atomic(
        f"warm/{network}-bpe{bytes_per_element}.json", json.dumps(payload)
    )


class _Scratch:
    """A one-file transport the oracle writes into."""

    def __init__(self, text):
        self.text = text

    def read_text(self, key):
        return self.text

    def write_atomic(self, key, text):
        self.text = text


# ---------------------------------------------------------------------------
# Keys and (pure) summaries
# ---------------------------------------------------------------------------
_MEMBER_SETS = (["a"], ["b"], ["a", "b"], ["c", "a"], ["ü"], ["b", "c", "ü"])
KEYS = [
    (frozenset(members), mem_key)
    for members in _MEMBER_SETS
    for mem_key in (("shared", 64), ("separate", 1024, 2048))
]


#: Keys only the foreign writer appends, so its part is always new.
FOREIGN_KEYS = [(frozenset(["x", f"y{i}"]), ("shared", 32)) for i in range(4)]


def summary(index):
    """A key's summary: evaluation is pure, so every writer agrees."""
    return (
        index % 3 != 0,
        1000 * index + 7,
        index * 1.25 + 0.1,
        float("inf") if index % 4 == 0 else index / 3,
    )


def entry(index):
    return (KEYS + FOREIGN_KEYS)[index], summary(index)


key_index = st.integers(0, len(KEYS) - 1)
registry_index = st.integers(0, 2)
#: Step kinds, repeated to weight them: mostly registry loads and saves,
#: with foreign appends between them and the rarer whole-file upsets.
KINDS = (
    ("load",) * 3 + ("save",) * 4 + ("append",) * 2
    + ("indent", "torn", "corrupt", "delete")
)


@st.composite
def steps(draw):
    kind = draw(st.sampled_from(KINDS))
    if kind == "load":
        return kind, draw(registry_index)
    if kind == "save":
        return (
            kind,
            draw(registry_index),
            draw(st.lists(key_index, max_size=6)),
            # ``None`` is the default cap; the small ones truncate.
            draw(st.sampled_from([None, None, None, 1, 2, 3, 5, 8])),
        )
    if kind == "append":
        return kind, draw(st.integers(0, len(KEYS) + len(FOREIGN_KEYS) - 1))
    if kind == "indent":
        return kind, draw(st.lists(key_index, max_size=5))
    return (kind,)


STEPS = st.lists(steps(), min_size=4, max_size=30)


def _foreign_write(transport, step):
    """What a writer outside these registries does to the file."""
    kind = step[0]
    text = transport.read_text(KEY)
    if kind == "indent":
        payload = {
            "version": 1,
            "network": NET,
            "bytes_per_element": 1,
            "entries": [
                [sorted(KEYS[i][0]), list(KEYS[i][1]), list(summary(i))]
                for i in step[1]
            ],
        }
        transport.write_atomic(KEY, json.dumps(payload, indent=2))
    elif kind == "append" and text is not None and text.endswith("]}"):
        # Valid JSON, but not the encoding a registry writes: compact
        # separators and members in reverse order.
        key, value = entry(step[1])
        raw = [sorted(key[0], reverse=True), list(key[1]), list(value)]
        sep = "" if text.endswith("[]}") else ", "
        added = json.dumps(raw, separators=(",", ":"))
        transport.write_atomic(KEY, f"{text[:-2]}{sep}{added}]}}")
    elif kind == "torn" and text:
        transport.write_atomic(KEY, text[: len(text) // 2])
    elif kind == "corrupt":
        transport.write_atomic(KEY, "{not json")
    elif kind == "delete":
        transport.delete(KEY)


def _check_views(registries):
    """Each view holds what its text parses to; a canonical one's text is
    exactly the oracle's encoding of its entries."""
    for registry in registries:
        for view in registry._warm_views.values():
            assert view.entries == oracle_load(_Scratch(view.text), NET, 1)
            if view.canonical:
                expected = _Scratch(None)
                oracle_save(expected, NET, 1, view.entries)
                assert view.text == expected.text


def _replay(transports, steps):
    """Run ``steps`` on one registry per transport; check every step."""
    registries = [RunRegistry("warm-view", transport=t) for t in transports]
    observer = transports[0]
    for step in steps:
        _check_views(registries)
        kind = step[0]
        if kind == "load":
            registry = registries[step[1] % len(registries)]
            assert registry.load_warm_summaries(NET, 1) == oracle_load(
                observer, NET, 1
            )
        elif kind == "save":
            registry = registries[step[1] % len(registries)]
            entries = [entry(i) for i in step[2]]
            expected = _Scratch(observer.read_text(KEY))
            if step[3] is None:
                oracle_save(expected, NET, 1, entries)
                registry.save_warm_summaries(NET, 1, entries)
            else:
                oracle_save(expected, NET, 1, entries, cap=step[3])
                registry.save_warm_summaries(NET, 1, entries, cap=step[3])
            assert observer.read_text(KEY) == expected.text
        else:
            _foreign_write(observer, step)
    _check_views(registries)


@settings(max_examples=250, deadline=None)
@given(registries=st.integers(2, 3), steps=STEPS)
def test_fs_registries_match_oracle(registries, steps):
    with tempfile.TemporaryDirectory() as root:
        _replay([FsTransport(Path(root)) for _ in range(registries)], steps)


@settings(max_examples=250, deadline=None)
@given(registries=st.integers(2, 3), steps=STEPS)
def test_objectstore_registries_match_oracle(registries, steps):
    store = ObjectStore()
    _replay([ObjectStoreTransport(store) for _ in range(registries)], steps)


# ---------------------------------------------------------------------------
# Hand-picked paths
# ---------------------------------------------------------------------------
class TestViewPaths:
    @pytest.fixture
    def decodes(self, monkeypatch):
        """The text of every parse the registry makes."""
        calls = []
        real = registry_mod._decode_warm

        def spy(text):
            calls.append(text)
            return real(text)

        monkeypatch.setattr(registry_mod, "_decode_warm", spy)
        return calls

    def test_own_text_is_never_reparsed(self, tmp_path, decodes):
        registry = RunRegistry(tmp_path)
        registry.save_warm_summaries(NET, 1, [entry(0), entry(1)])
        registry.save_warm_summaries(NET, 1, [entry(1), entry(2)])
        assert registry.load_warm_summaries(NET, 1) == [
            entry(0), entry(1), entry(2)
        ]
        assert decodes == []

    def test_another_writers_merge_is_parsed_alone(self, tmp_path, decodes):
        mine, theirs = RunRegistry(tmp_path), RunRegistry(tmp_path)
        mine.save_warm_summaries(NET, 1, [entry(0)])
        assert theirs.load_warm_summaries(NET, 1) == [entry(0)]
        theirs.save_warm_summaries(NET, 1, [entry(3), entry(4)])
        del decodes[:]
        assert mine.load_warm_summaries(NET, 1) == [
            entry(0), entry(3), entry(4)
        ]
        added = [[sorted(k[0]), list(k[1]), list(s)] for k, s in (entry(3), entry(4))]
        assert decodes == [json.dumps({"entries": added})]

    def test_changed_summary_rewrites_like_the_oracle(self, tmp_path):
        registry = RunRegistry(tmp_path)
        registry.save_warm_summaries(NET, 1, [entry(0), entry(1)])
        changed = [(KEYS[0], (False, 1, 2.0, 3.0)), entry(2)]
        expected = _Scratch(registry.transport.read_text(KEY))
        oracle_save(expected, NET, 1, changed)
        registry.save_warm_summaries(NET, 1, changed)
        assert registry.transport.read_text(KEY) == expected.text

    def test_duplicate_keys_in_a_file_are_merged_like_the_oracle(self, tmp_path):
        registry = RunRegistry(tmp_path)
        registry.save_warm_summaries(NET, 1, [entry(0)])
        text = registry.transport.read_text(KEY)
        duplicated = text[:-2] + ", " + text[text.index("[[[") + 1:]
        registry.transport.write_atomic(KEY, duplicated)
        assert registry.load_warm_summaries(NET, 1) == [entry(0), entry(0)]
        expected = _Scratch(duplicated)
        oracle_save(expected, NET, 1, [entry(1)])
        registry.save_warm_summaries(NET, 1, [entry(1)])
        assert registry.transport.read_text(KEY) == expected.text
