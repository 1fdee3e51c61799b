"""Unit tests for the fetch unit and RAS."""

import pytest

from repro.frontend.bht import BHT_4K_2W_1T, BHT_16K_4W_2T
from repro.frontend.fetch import FetchUnit, FrontEndParams
from repro.frontend.ras import ReturnAddressStack
from repro.isa.opcodes import OpClass
from repro.model.simulator import build_hierarchy
from repro.trace.record import TraceRecord, make_alu, make_branch
from repro.trace.stream import Trace


def make_fetch(records, config, frontend=None, bht=None):
    hierarchy = build_hierarchy(config)
    # Pre-warm the I-side so fetch timing is deterministic.
    for record in records:
        if not hierarchy.l1i.lookup(record.pc):
            hierarchy.l2.lookup(record.pc)
            hierarchy.l2.fill(record.pc)
            hierarchy.l1i.fill(record.pc)
        hierarchy.itlb.translate(record.pc)
    hierarchy.l1i.stats.__init__()
    unit = FetchUnit(
        Trace(records),
        hierarchy,
        bht or BHT_16K_4W_2T,
        frontend or FrontEndParams(),
    )
    return unit


def decodable(unit, cycle):
    """Buffered instructions whose fetch pipe has completed by ``cycle``."""
    start = unit._position - unit._buffered
    count = 0
    for avail, end, _ in unit._runs:
        if avail > cycle:
            break
        count = end - start
    return count


def mispredict_flags(unit):
    """Per buffered instruction, whether fetch flagged it mispredicted."""
    flags = []
    start = unit._position - unit._buffered
    for _, end, last_mispredicted in unit._runs:
        flags.extend([False] * (end - start - 1) + [last_mispredicted])
        start = end
    return flags


class TestRas:
    def test_push_pop_match(self):
        ras = ReturnAddressStack(4)
        ras.push(0x100)
        assert ras.predict_return(0x100)
        assert ras.accuracy == 1.0

    def test_mismatch(self):
        ras = ReturnAddressStack(4)
        ras.push(0x100)
        assert not ras.predict_return(0x200)

    def test_underflow(self):
        ras = ReturnAddressStack(4)
        assert not ras.predict_return(0x100)

    def test_depth_limit_drops_oldest(self):
        ras = ReturnAddressStack(2)
        for address in (1, 2, 3):
            ras.push(address)
        assert ras.predict_return(3)
        assert ras.predict_return(2)
        assert not ras.predict_return(1)  # dropped


class TestFetchGroups:
    def test_sequential_delivery(self, small_config):
        records = [make_alu(0x1000 + 4 * i, dest=8, srcs=()) for i in range(16)]
        unit = make_fetch(records, small_config)
        unit.step(0)
        assert decodable(unit, 0 + unit.params.pipeline_depth) == 8  # one full 32-byte group

    def test_group_respects_alignment(self, small_config):
        # Start mid-group: 0x1010 leaves only 4 slots to the boundary.
        records = [make_alu(0x1010 + 4 * i, dest=8, srcs=()) for i in range(8)]
        unit = make_fetch(records, small_config)
        unit.step(0)
        assert decodable(unit, 5) == 4

    def test_stops_at_taken_branch(self, small_config):
        records = [
            make_alu(0x1000, dest=8, srcs=()),
            make_branch(0x1004, taken=True, target=0x2000),
            make_alu(0x2000, dest=8, srcs=()),
        ]
        unit = make_fetch(records, small_config)
        unit.step(0)
        assert decodable(unit, 5) == 2  # group ends at the taken branch

    def test_taken_branch_bubbles(self, small_config):
        records = [
            make_branch(0x1000, taken=True, target=0x2000, conditional=False),
            make_alu(0x2000, dest=8, srcs=()),
        ]
        unit = make_fetch(records, small_config)
        unit.step(0)
        bubbles = unit.bht.params.access_latency
        # Fetch must be stalled for `bubbles` cycles after the branch.
        for cycle in range(1, 1 + bubbles):
            before = unit._buffered
            unit.step(cycle)
            assert unit._buffered == before
        unit.step(1 + bubbles)
        assert unit._buffered == 2

    def test_one_bubble_with_fast_bht(self, small_config):
        records = [
            make_branch(0x1000, taken=True, target=0x2000, conditional=False),
            make_alu(0x2000, dest=8, srcs=()),
        ]
        unit = make_fetch(records, small_config, bht=BHT_4K_2W_1T)
        unit.step(0)
        unit.step(1)  # single bubble
        unit.step(2)
        assert unit._buffered == 2

    def test_exhausted(self, small_config):
        records = [make_alu(0x1000, dest=8, srcs=())]
        unit = make_fetch(records, small_config)
        unit.step(0)
        assert unit.exhausted


class TestMisprediction:
    def test_mispredict_blocks_fetch(self, small_config):
        # Untrained BHT predicts not-taken; the branch is taken -> mispredict.
        records = [
            make_branch(0x1000, taken=True, target=0x2000),
            make_alu(0x2000, dest=8, srcs=()),
        ]
        unit = make_fetch(records, small_config)
        unit.step(0)
        assert mispredict_flags(unit)[0]
        for cycle in range(1, 6):
            unit.step(cycle)
        assert unit._buffered == 1  # blocked until redirect

    def test_redirect_resumes(self, small_config):
        records = [
            make_branch(0x1000, taken=True, target=0x2000),
            make_alu(0x2000, dest=8, srcs=()),
        ]
        unit = make_fetch(records, small_config)
        unit.step(0)
        unit.redirect(10)
        resume = 10 + unit.params.redirect_penalty
        unit.step(resume)
        assert unit._buffered == 2

    def test_perfect_prediction_never_blocks(self, small_config):
        records = [
            make_branch(0x1000, taken=True, target=0x2000),
            make_alu(0x2000, dest=8, srcs=()),
        ]
        frontend = FrontEndParams(perfect_prediction=True)
        unit = make_fetch(records, small_config, frontend=frontend)
        unit.step(0)
        assert not mispredict_flags(unit)[0]


class TestIcacheMiss:
    def test_miss_stalls_then_delivers(self, small_config):
        records = [make_alu(0x1000, dest=8, srcs=())]
        hierarchy = build_hierarchy(small_config)
        unit = FetchUnit(Trace(records), hierarchy, BHT_16K_4W_2T, FrontEndParams())
        unit.step(0)  # cold miss
        assert unit.buffer_empty()
        assert unit.icache_stall_cycles > 0
        ready = unit._stall_until
        unit.step(ready)
        assert unit._buffered == 1
        # Only one L1I demand access recorded despite the retry.
        assert hierarchy.l1i.stats.demand_accesses == 1
