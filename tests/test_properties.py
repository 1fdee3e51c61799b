"""Property-based tests (hypothesis) on core data structures and invariants."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.rng import DeterministicRng
from repro.memory.bus import Bus
from repro.memory.cache import LineState, SetAssociativeCache
from repro.memory.mshr import MshrFile
from repro.memory.params import BusParams, CacheGeometry
from repro.frontend.bht import BhtParams, BranchHistoryTable
from repro.trace.io import read_trace, write_trace
from repro.trace.record import TraceRecord
from repro.trace.stream import Trace
from repro.isa.opcodes import OpClass


# ---------------------------------------------------------------------------
# Cache invariants.
# ---------------------------------------------------------------------------

addresses = st.integers(min_value=0, max_value=(1 << 40) - 1)


@given(st.lists(st.tuples(addresses, st.booleans()), min_size=1, max_size=300))
@settings(max_examples=50, deadline=None)
def test_cache_capacity_never_exceeded(operations):
    cache = SetAssociativeCache(CacheGeometry("c", 1024, 2, line_bytes=64))
    capacity = cache.geometry.sets * cache.geometry.ways
    for address, is_write in operations:
        if not cache.lookup(address, is_write=is_write):
            cache.fill(
                address,
                state=LineState.MODIFIED if is_write else LineState.EXCLUSIVE,
            )
        assert cache.valid_line_count() <= capacity


@given(st.lists(addresses, min_size=1, max_size=200))
@settings(max_examples=50, deadline=None)
def test_cache_fill_makes_resident(addrs):
    cache = SetAssociativeCache(CacheGeometry("c", 4096, 4, line_bytes=64))
    for address in addrs:
        cache.fill(address)
        assert cache.resident(address)  # most recent fill always present


@given(st.lists(addresses, min_size=1, max_size=200))
@settings(max_examples=30, deadline=None)
def test_cache_stats_consistent(addrs):
    cache = SetAssociativeCache(CacheGeometry("c", 2048, 2, line_bytes=64))
    for address in addrs:
        if not cache.lookup(address):
            cache.fill(address)
    stats = cache.stats
    assert stats.demand_misses <= stats.demand_accesses == len(addrs)
    assert 0.0 <= stats.demand_miss_ratio <= 1.0


# ---------------------------------------------------------------------------
# MSHR invariants.
# ---------------------------------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=40),  # line index
            st.integers(min_value=1, max_value=500),  # fill delay
        ),
        min_size=1,
        max_size=100,
    )
)
@settings(max_examples=50, deadline=None)
def test_mshr_never_overflows(requests):
    mshr = MshrFile(4)
    cycle = 0
    for line_index, delay in requests:
        cycle += 1
        line = line_index * 64
        if mshr.outstanding(line, cycle) is not None:
            continue
        if mshr.can_allocate(cycle):
            mshr.allocate(line, cycle + delay, cycle)
        assert len(mshr) <= 4


# ---------------------------------------------------------------------------
# Bus invariants.
# ---------------------------------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10),  # inter-arrival gap
            st.integers(min_value=1, max_value=256),  # payload bytes
        ),
        min_size=1,
        max_size=100,
    )
)
@settings(max_examples=50, deadline=None)
def test_bus_transfers_never_overlap(requests):
    bus = Bus(BusParams("b", latency=5, bytes_per_cycle=16))
    cycle = 0
    previous_start = -1
    previous_busy = 0
    for gap, payload in requests:
        cycle += gap
        timing = bus.transfer(cycle, payload)
        assert timing.start >= cycle
        assert timing.start >= previous_busy  # no overlap with prior transfer
        assert timing.done >= timing.start
        previous_busy = timing.start + bus.params.occupancy(payload)
        previous_start = timing.start


# ---------------------------------------------------------------------------
# BHT: misprediction ratio bounded, training converges.
# ---------------------------------------------------------------------------


@given(st.lists(st.booleans(), min_size=8, max_size=200), st.integers(0, 1 << 30))
@settings(max_examples=50, deadline=None)
def test_bht_statistics_bounded(outcomes, pc_seed):
    table = BranchHistoryTable(BhtParams("t", entries=64, ways=2, access_latency=1))
    pc = (pc_seed & ~0x3) or 4
    for taken in outcomes:
        predicted = table.predict(pc)
        table.update(pc, taken, predicted)
    assert table.stats.conditional_branches == len(outcomes)
    assert 0.0 <= table.stats.misprediction_ratio <= 1.0


@given(st.integers(1, 1 << 30))
@settings(max_examples=30, deadline=None)
def test_bht_constant_branch_converges(pc_seed):
    table = BranchHistoryTable(BhtParams("t", entries=64, ways=2, access_latency=1))
    pc = (pc_seed & ~0x3) or 4
    for _ in range(10):
        table.update(pc, True, table.predict(pc))
    assert table.predict(pc) is True


# ---------------------------------------------------------------------------
# Trace I/O round trip.
# ---------------------------------------------------------------------------

record_strategy = st.builds(
    TraceRecord,
    pc=st.integers(min_value=0, max_value=(1 << 47) - 1).map(lambda v: v & ~0x3),
    op=st.sampled_from([OpClass.INT_ALU, OpClass.LOAD, OpClass.STORE, OpClass.NOP]),
    dest=st.integers(min_value=-1, max_value=65),
    srcs=st.lists(st.integers(min_value=0, max_value=65), max_size=3).map(tuple),
    ea=st.integers(min_value=-1, max_value=(1 << 47) - 1),
    size=st.sampled_from([0, 4, 8]),
    privileged=st.booleans(),
)


@given(st.lists(record_strategy, max_size=50))
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_trace_io_roundtrip(tmp_path_factory, records):
    trace = Trace(records, name="prop", cpu=1)
    directory = tmp_path_factory.mktemp("io")
    for suffix in (".jsonl", ".trc"):
        path = directory / f"t{suffix}"
        write_trace(trace, path)
        assert read_trace(path).records == trace.records


# ---------------------------------------------------------------------------
# Synthetic traces: control-flow consistency for arbitrary seeds.
# ---------------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_generated_traces_always_consistent(seed):
    from repro.trace.synth import generate_trace, standard_profiles

    trace = generate_trace(standard_profiles()["SPECint95"], 1500, seed=seed)
    trace.validate()
    assert len(trace) == 1500


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=8, deadline=None)
def test_rng_geometric_always_positive(seed):
    rng = DeterministicRng(seed)
    assert all(rng.geometric(5.0) >= 1 for _ in range(100))
