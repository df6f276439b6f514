"""The deterministic budget scheduler: grants, refunds, path-independence."""

from __future__ import annotations

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distrib.budget import (
    CellProgress,
    cell_progress,
    claimable_cells,
    campaign_finished,
    compute_allocations,
)
from repro.distrib.objectstore import _Handler
from repro.runs.registry import RunRegistry
from repro.runs.suite import CAPPED_SCHEMES
from repro.runs.transport import FsTransport

from .test_objectstore import serving


@dataclass(frozen=True)
class FakeCell:
    """Just enough of a SuiteCell for the scheduler: key + scheme."""

    name: str
    scheme: str = "cocco"

    @property
    def key(self) -> tuple:
        return (self.name, self.scheme)


def running(evals: int = 0) -> CellProgress:
    return CellProgress(complete=False, failed=False, evaluations=evals)


def complete(evals: int) -> CellProgress:
    return CellProgress(complete=True, failed=False, evaluations=evals)


def failed() -> CellProgress:
    return CellProgress(complete=False, failed=True, evaluations=0)


class TestInitialGrants:
    def test_even_split_with_remainder_to_earliest(self):
        cells = [FakeCell(n) for n in "abc"]
        view = compute_allocations(
            cells, 10, {c.key: running() for c in cells}
        )
        assert [view.allocations[c.key] for c in cells] == [4, 3, 3]

    def test_unstarted_round_is_open(self):
        cells = [FakeCell(n) for n in "ab"]
        view = compute_allocations(cells, 10, {c.key: running() for c in cells})
        assert not view.out_of_budget
        assert view.exhausted == frozenset()

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            compute_allocations([FakeCell("a")], -1, {})


class TestRefundRounds:
    def test_unspent_budget_flows_to_unconverged_cells(self):
        cells = [FakeCell(n) for n in "abc"]
        progress = {
            cells[0].key: complete(10),  # converged: refunds 20
            cells[1].key: running(30),   # exhausted at cap 30
            cells[2].key: running(30),   # exhausted at cap 30
        }
        view = compute_allocations(cells, 90, progress)
        assert view.allocations[cells[0].key] == 30
        assert view.allocations[cells[1].key] == 40
        assert view.allocations[cells[2].key] == 40
        assert not view.out_of_budget

    def test_failed_cell_refunds_whole_allocation(self):
        cells = [FakeCell(n) for n in "ab"]
        progress = {cells[0].key: failed(), cells[1].key: running(30)}
        view = compute_allocations(cells, 60, progress)
        assert view.allocations[cells[1].key] == 60

    def test_failed_cell_refunds_only_unspent_samples(self):
        # the cell checkpointed 12 evaluations before erroring: those
        # samples were really drawn from the budget and must not flow
        # back out (or the campaign total would exceed the cap)
        cells = [FakeCell(n) for n in "ab"]
        progress = {
            cells[0].key: CellProgress(
                complete=False, failed=True, evaluations=12
            ),
            cells[1].key: running(30),
        }
        view = compute_allocations(cells, 60, progress)
        assert view.allocations[cells[1].key] == 30 + (30 - 12)

    def test_round_blocked_by_midrun_cell_withholds_refunds(self):
        cells = [FakeCell(n) for n in "abc"]
        progress = {
            cells[0].key: complete(10),
            cells[1].key: running(15),   # mid-run below its cap of 30
            cells[2].key: running(30),
        }
        view = compute_allocations(cells, 90, progress)
        # refunds wait until the round resolves
        assert view.allocations[cells[1].key] == 30
        assert view.allocations[cells[2].key] == 30
        assert view.exhausted == frozenset({cells[2].key})

    def test_out_of_budget_when_pool_empty(self):
        cells = [FakeCell(n) for n in "ab"]
        progress = {c.key: running(30) for c in cells}
        view = compute_allocations(cells, 60, progress)
        assert view.out_of_budget
        assert view.exhausted == frozenset(c.key for c in cells)


class TestPathIndependence:
    """The replay must reconstruct history, not shortcut it."""

    def test_late_completion_replays_through_its_exhaustion_rounds(self):
        # History: d completes only after a regrant (used 11 > round-1
        # cap 10). The replay must keep d active through round 1 and
        # refund in round 2, exactly as history did. (nsga is the one
        # remaining cell-atomic scheme now that rs/gs checkpoint.)
        cells = [FakeCell(n) for n in "abcd"] + [FakeCell("e", scheme="nsga")]
        progress = {
            cells[0].key: running(12),
            cells[1].key: running(12),
            cells[2].key: running(12),
            cells[3].key: complete(11),   # checkpointable, finished late
            cells[4].key: complete(2),    # atomic, finished round 1
        }
        view = compute_allocations(cells, 50, progress)
        # round 1: 10 each; e refunds 8 -> round 2: [2,2,2,2] over a-d;
        # d (cap 12 >= used 11) refunds 1 -> round 3: [1,0,0] over a-c.
        assert view.allocations[cells[0].key] == 13
        assert view.allocations[cells[1].key] == 12
        assert view.allocations[cells[2].key] == 12
        assert view.allocations[cells[3].key] == 12

    def test_atomic_overdraft_shrinks_pool(self):
        cells = [FakeCell("a"), FakeCell("b", scheme="nsga")]
        progress = {
            cells[0].key: running(30),
            cells[1].key: complete(45),  # atomic: overdrew its 30 by 15
        }
        view = compute_allocations(cells, 60, progress)
        # refund = 30 - 45 = -15 -> pool floored at 0: no regrant for a
        assert view.allocations[cells[0].key] == 30
        assert view.out_of_budget

    def test_allocations_are_pure_functions_of_state(self):
        cells = [FakeCell(n) for n in "abc"]
        progress = {
            cells[0].key: complete(5),
            cells[1].key: running(28),
            cells[2].key: running(28),
        }
        first = compute_allocations(cells, 84, progress)
        second = compute_allocations(cells, 84, progress)
        assert first.allocations == second.allocations
        assert first.exhausted == second.exhausted


class TestClaimable:
    def test_unbudgeted_claims_all_unfinished(self):
        cells = [FakeCell(n) for n in "abc"]
        progress = {
            cells[0].key: complete(9),
            cells[1].key: failed(),
            cells[2].key: running(5),
        }
        assert claimable_cells(cells, None, progress) == [(cells[2], None)]

    def test_budgeted_claims_under_cap_only(self):
        cells = [FakeCell(n) for n in "ab"]
        progress = {cells[0].key: running(30), cells[1].key: running(7)}
        pairs = claimable_cells(cells, 60, progress)
        assert pairs == [(cells[1], 30)]

    def test_unfinished_atomic_cell_stays_claimable_past_its_cap(self):
        # An nsga checkpoint may count more than the cell's allocation,
        # but the cell only spends by running whole: it keeps its round
        # open instead of reading as exhausted.
        cells = [FakeCell("a", scheme="nsga"), FakeCell("b")]
        progress = {cells[0].key: running(8), cells[1].key: running(5)}
        view = compute_allocations(cells, 10, progress)
        assert view.exhausted == frozenset({cells[1].key})
        assert not view.out_of_budget
        assert claimable_cells(cells, 10, progress) == [(cells[0], 5)]
        assert not campaign_finished(cells, 10, progress)

    def test_zero_allocation_cells_not_claimable(self):
        cells = [FakeCell(n) for n in "abc"]
        progress = {c.key: running() for c in cells}
        pairs = claimable_cells(cells, 2, progress)
        assert [c.name for c, _ in pairs] == ["a", "b"]


class TestFinished:
    def test_all_complete(self):
        cells = [FakeCell("a")]
        assert campaign_finished(cells, None, {cells[0].key: complete(3)})

    def test_failed_counts_as_finished(self):
        cells = [FakeCell("a")]
        assert campaign_finished(cells, None, {cells[0].key: failed()})

    def test_unbudgeted_incomplete_not_finished(self):
        cells = [FakeCell("a")]
        assert not campaign_finished(cells, None, {cells[0].key: running(5)})

    def test_out_of_budget_is_finished(self):
        cells = [FakeCell("a"), FakeCell("b")]
        progress = {c.key: running(30) for c in cells}
        assert campaign_finished(cells, 60, progress)
        assert not campaign_finished(cells, 100, progress)


class TestCellProgress:
    def test_checkpoint_that_is_not_an_object_counts_as_none(self, tmp_path):
        registry = RunRegistry(tmp_path)
        config = {"network": "vgg16", "scheme": "cocco"}
        run = registry.open_run(config, 5)
        run.save_checkpoint({"evaluations": 7})
        assert cell_progress(registry, config, 5) == running(7)
        run.save_checkpoint([])
        assert cell_progress(registry, config, 5) == running(0)

    def test_torn_checkpoint_counts_as_none(self, tmp_path):
        registry = RunRegistry(tmp_path)
        config = {"network": "vgg16", "scheme": "cocco"}
        run = registry.open_run(config, 5)
        run.node.write_atomic("checkpoint.json", '{"evaluations": 7')
        assert cell_progress(registry, config, 5) == running(0)

    def test_unreadable_checkpoint_raises(self):
        """A failed read is not "no checkpoint": it would refund 40 samples."""

        class CheckpointGetUnavailable(_Handler):
            def do_GET(self) -> None:  # noqa: N802
                if self.path.endswith("/checkpoint.json"):
                    self._reply(503)
                else:
                    super().do_GET()

        with serving(CheckpointGetUnavailable) as server:
            registry = RunRegistry(server.url("bucket"))
            config = {"network": "vgg16", "scheme": "cocco"}
            registry.open_run(config, 5).save_checkpoint({"evaluations": 40})
            with pytest.raises(OSError, match="HTTP 503"):
                cell_progress(registry, config, 5)

    def test_checkpointed_cell_costs_two_probes_and_one_read(self, tmp_path):
        """The checkpoint is read once, with no existence probe before."""

        class CountingFs(FsTransport):
            def __init__(self, root):
                super().__init__(root)
                self.probes = self.reads = 0

            def exists(self, key):
                self.probes += 1
                return super().exists(key)

            def read_text(self, key):
                self.reads += 1
                return super().read_text(key)

        transport = CountingFs(tmp_path)
        registry = RunRegistry(tmp_path, transport=transport)
        config = {"network": "vgg16", "scheme": "cocco"}
        registry.open_run(config, 5).save_checkpoint({"evaluations": 7})
        transport.probes = transport.reads = 0
        assert cell_progress(registry, config, 5) == running(7)
        # Result probe, checkpoint read, error probe.
        assert (transport.probes, transport.reads) == (2, 1)


class TestPathIndependenceProperty:
    """Any run order spends the same caps and ends in the same state.

    A modelled campaign: a capped cell run under cap ``c`` stops at
    ``min(need, c)`` evaluations (complete when its need fits); a
    cell-atomic cell spends its whole need whatever its cap. From every
    probe, some subset of the claimable cells runs under the caps that
    probe granted, until the campaign is finished. Running every
    claimable cell each probe (what ``run_suite`` does) is the
    reference order.
    """

    @staticmethod
    def run(cells, needs, budget, choose):
        progress = {cell.key: running() for cell in cells}
        caps = {cell.key: [] for cell in cells}
        while not campaign_finished(cells, budget, progress):
            claimable = claimable_cells(cells, budget, progress)
            assert claimable, "an unfinished campaign has claimable cells"
            for cell, cap in choose(claimable):
                caps[cell.key].append(cap)
                need = needs[cell.key]
                spent = min(need, cap) if cell.scheme in CAPPED_SCHEMES else need
                progress[cell.key] = CellProgress(
                    complete=spent == need, failed=False, evaluations=spent
                )
        return caps, progress

    @settings(max_examples=300, deadline=None)
    @given(
        cells=st.lists(
            st.tuples(
                st.sampled_from(("cocco", "nsga")),
                st.integers(min_value=1, max_value=60),
            ),
            min_size=1,
            max_size=6,
        ),
        budget=st.integers(min_value=0, max_value=200),
        data=st.data(),
    )
    def test_every_run_order_spends_the_same_caps(self, cells, budget, data):
        fakes = [FakeCell(f"c{i}", scheme) for i, (scheme, _) in enumerate(cells)]
        needs = {fake.key: need for fake, (_, need) in zip(fakes, cells)}
        reference = self.run(fakes, needs, budget, lambda claimable: claimable)

        def some(claimable):
            picked = data.draw(
                st.sets(
                    st.integers(min_value=0, max_value=len(claimable) - 1),
                    min_size=1,
                )
            )
            return [claimable[i] for i in sorted(picked)]

        assert self.run(fakes, needs, budget, some) == reference
