"""Unit tests for the assembled memory hierarchy."""

import pytest

from repro.common.errors import SimulationError
from repro.model.simulator import build_hierarchy, prewarm_regions


@pytest.fixture
def hierarchy(small_config):
    return build_hierarchy(small_config)


class TestDemandPath:
    def test_cold_load_goes_to_memory(self, hierarchy):
        result = hierarchy.load(0, 0x10000)
        assert result.level == "mem"
        assert result.ready_cycle > 60  # at least the DRAM latency

    def test_warm_load_hits_l1(self, hierarchy):
        first = hierarchy.load(0, 0x10000)
        second = hierarchy.load(first.ready_cycle, 0x10000)
        assert second.level == "l1"
        assert (
            second.ready_cycle - first.ready_cycle
            == hierarchy.l1d.geometry.hit_latency
        )

    def test_l2_hit_after_l1_eviction(self, hierarchy):
        # Fill L1D (8KB, 2-way) with lines that map to one (hashed) set.
        target_set = hierarchy.l1d._index_tag(0x10000)[0]
        conflicts = [
            addr for addr in range(0x20000, 0x200000, 0x40)
            if hierarchy.l1d._index_tag(addr)[0] == target_set
        ][:2]
        hierarchy.load(0, 0x10000)
        hierarchy.load(1000, conflicts[0])
        hierarchy.load(2000, conflicts[1])  # evicts 0x10000 from L1
        result = hierarchy.load(5000, 0x10000)
        assert result.level == "l2"

    def test_store_allocates_dirty(self, hierarchy):
        result = hierarchy.store(0, 0x10000)
        assert result.level == "mem"
        from repro.memory.cache import LineState

        assert hierarchy.l1d.probe(0x10000) == LineState.MODIFIED

    def test_fetch_uses_l1i(self, hierarchy):
        first = hierarchy.fetch(0, 0x1000)
        second = hierarchy.fetch(first.ready_cycle, 0x1000)
        assert second.level == "l1"
        assert hierarchy.l1i.stats.demand_accesses == 2

    def test_mshr_coalescing(self, hierarchy):
        first = hierarchy.load(0, 0x10000)
        second = hierarchy.load(1, 0x10008)  # same line, while in flight
        assert second.ready_cycle <= first.ready_cycle + 1
        assert hierarchy.l1d.stats.demand_misses == 2  # secondary miss counted

    def test_tlb_miss_penalty_applied(self, hierarchy):
        result = hierarchy.load(0, 0x10000)
        assert result.tlb_cycles == hierarchy.dtlb.geometry.miss_penalty


class TestPerfectSwitches:
    def test_perfect_l1(self, small_config):
        hierarchy = build_hierarchy(small_config.derived("p", perfect_l1=True))
        result = hierarchy.load(0, 0xDEAD000)
        assert result.level == "l1"
        assert result.ready_cycle == hierarchy.l1d.geometry.hit_latency

    def test_perfect_l2(self, small_config):
        hierarchy = build_hierarchy(small_config.derived("p", perfect_l2=True))
        result = hierarchy.load(0, 0xDEAD000)
        assert result.level in ("l2", "mem")
        # No memory round trip: far less than the DRAM latency.
        assert result.ready_cycle < 60

    def test_perfect_tlb(self, small_config):
        hierarchy = build_hierarchy(small_config.derived("p", perfect_tlb=True))
        result = hierarchy.load(0, 0x10000)
        assert result.tlb_cycles == 0


class TestPrefetchIntegration:
    def test_sequential_misses_prefetch_into_l2(self, hierarchy):
        cycle = 0
        for i in range(6):
            result = hierarchy.load(cycle, 0x40000 + i * 64)
            cycle = result.ready_cycle + 1
        assert hierarchy.prefetcher.stats.issued > 0
        # A line ahead of the stream should already be L2-resident.
        assert hierarchy.l2.resident(0x40000 + 8 * 64)


class TestPrewarm:
    def test_regions_resident_after_prewarm(self, hierarchy):
        regions = {
            "user_code": (0x1000, 4096),
            "user_data": (0x100000, 8192),
            "user_data_hot": (0x100000, 2048),
        }
        prewarm_regions(hierarchy, regions)
        assert hierarchy.l2.resident(0x1000)
        assert hierarchy.l2.resident(0x100000)
        assert hierarchy.l1d.resident(0x100000)  # hot region in L1D
        assert hierarchy.l1i.resident(0x1000)

    def test_code_outlives_large_data(self, small_config):
        hierarchy = build_hierarchy(small_config)
        regions = {
            "user_code": (0x1000, 8 * 1024),
            "user_data": (0x100000, 1024 * 1024),  # 16x the 64KB L2
        }
        prewarm_regions(hierarchy, regions)
        # Code was touched after data, so it survives in the L2.
        assert hierarchy.l2.resident(0x1000)

    def test_second_prewarm_raises(self, hierarchy):
        regions = {"user_code": (0x1000, 4096)}
        prewarm_regions(hierarchy, regions)
        with pytest.raises(SimulationError, match="fresh hierarchy"):
            prewarm_regions(hierarchy, regions)

    def test_warm_l1_raises_before_installing(self, hierarchy):
        # Only the L1D is warm: the check must fire before the L2 is written.
        hierarchy.l1d.fill(0x100000)
        with pytest.raises(SimulationError, match="L1D"):
            prewarm_regions(hierarchy, {"user_data": (0x100000, 8192)})
        assert hierarchy.l2.is_cold()
        assert hierarchy.l2.stats.demand_accesses == 0


class TestBankMapping:
    def test_bank_of(self, hierarchy):
        assert hierarchy.bank_of(0x10000) != hierarchy.bank_of(0x10004)
        assert hierarchy.bank_of(0x10000) == hierarchy.bank_of(0x10020)
