"""The closed-form region pre-warm equals touching every line.

``prewarm_regions`` writes each cache's final state directly
(:meth:`SetAssociativeCache.install_touched`).  The per-line loop it
replaced is kept here, verbatim, as the oracle: every region line goes
through ``lookup`` and, on a miss, ``fill`` in the L2 and in the L1D
(data regions) or the L1I (the rest).

Each cache is compared on its per-set contents as a multiset of
``(tag, state, lru, from_prefetch)``, its ``_lru_clock`` and
``stats.as_dict()``.  Way order inside a set is not compared, because
no ``lookup``, ``fill`` or ``probe`` result depends on it: LRU stamps
are unique, so the victim never depends on way order, and invalid ways
are interchangeable.
"""

from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.workloads import smp_workload, standard_workloads
from repro.memory.cache import SetAssociativeCache
from repro.memory.params import CacheGeometry
from repro.model.config import base_config
from repro.model.simulator import build_hierarchy, prewarm_regions
from repro.trace.synth.smp import build_smp_generators

CACHES = ("l2", "l1d", "l1i")


def touch_every_line(hierarchy, regions: dict) -> None:
    """The pre-warm as a per-line touch loop (the oracle)."""
    line = hierarchy.l2.geometry.line_bytes

    def touch_span(base: int, size: int, data: bool) -> None:
        for addr in range(base, base + size, line):
            if not hierarchy.l2.lookup(addr):
                hierarchy.l2.fill(addr)
            if data:
                if not hierarchy.l1d.lookup(addr):
                    hierarchy.l1d.fill(addr)
            else:
                if not hierarchy.l1i.lookup(addr):
                    hierarchy.l1i.fill(addr)

    hot_names = sorted(name for name in regions if name.endswith("_hot"))
    code_names = sorted(
        name for name in regions if "code" in name and not name.endswith("_hot")
    )
    cold_names = sorted(
        name
        for name in regions
        if name not in hot_names and name not in code_names
    )
    for name in cold_names + code_names + hot_names:
        base, size = regions[name]
        touch_span(base, size, data="data" in name)


def set_contents(cache: SetAssociativeCache) -> list:
    return [
        sorted((line.tag, line.state, line.lru, line.from_prefetch) for line in bucket)
        for bucket in cache._sets
    ]


def assert_same_state(expected, actual) -> None:
    for name in CACHES:
        want, got = getattr(expected, name), getattr(actual, name)
        want_sets, got_sets = set_contents(want), set_contents(got)
        differing = [i for i, pair in enumerate(zip(want_sets, got_sets)) if pair[0] != pair[1]]
        assert not differing, (
            f"{name}: {len(differing)} sets differ, first {differing[0]}: "
            f"loop {want_sets[differing[0]]}, closed form {got_sets[differing[0]]}"
        )
        assert got._lru_clock == want._lru_clock, name
        assert got.stats.as_dict() == want.stats.as_dict(), name


def check_against_loop(make_hierarchy, regions: dict) -> None:
    expected, actual = make_hierarchy(), make_hierarchy()
    touch_every_line(expected, regions)
    prewarm_regions(actual, regions)
    assert_same_state(expected, actual)


# Regions do not depend on the trace length, so short workloads suffice.
STANDARD = {w.name: w for w in standard_workloads(warm=2000, timed=500)}


@pytest.mark.parametrize("name", sorted(STANDARD))
def test_standard_profile_matches_loop(name):
    config = base_config()
    check_against_loop(lambda: build_hierarchy(config), STANDARD[name].regions())


@pytest.mark.parametrize("cpu", range(4))
def test_smp_cpu_matches_loop(cpu):
    config = base_config()
    workload = smp_workload(4)
    generators = build_smp_generators(workload.profile, 4, seed=workload.seed)
    check_against_loop(
        lambda: build_hierarchy(config, cpu=cpu), generators[cpu].memory_regions()
    )


def test_overlapping_hot_region_hits():
    """``user_data_hot`` re-touches lines the L2 still holds: the hits count."""
    config = base_config()
    hierarchy = build_hierarchy(config)
    prewarm_regions(hierarchy, STANDARD["SPECint95"].regions())
    stats = hierarchy.l2.stats
    assert stats.demand_accesses - stats.demand_misses == 2048


@pytest.mark.parametrize("set_bits", range(5))
def test_count_in_set_matches_enumeration(set_bits):
    """The O(1) per-set count of a line range, against listing it."""
    cache = SetAssociativeCache(CacheGeometry("c", 64 << set_bits, 1, line_bytes=64))
    sets = 1 << set_bits
    for first in range(0, 3 * sets + 5):
        for count in (0, 1, 2, 3, sets - 1, sets, sets + 1, 3 * sets + 2, 70):
            lines = range(first, first + count)
            for target in range(sets):
                expected = sum(
                    1 for line in lines if cache._index_tag(line << 6)[0] == target
                )
                assert cache._count_in_set(target, first, count) == expected, (
                    f"sets {sets} first {first} count {count} set {target}"
                )


REGION_NAMES = (
    "user_code",
    "user_data",
    "user_data_hot",
    "kernel_code",
    "kernel_data",
    "shared_data",
    "code_hot",
    "misc",
)


@st.composite
def machines(draw):
    """Random small L1I/L1D/L2 geometries and regions around one anchor.

    All three caches share one line size, as :class:`MemoryHierarchy`
    requires.
    """
    line = draw(st.sampled_from([8, 16, 32, 64, 128, 256]))

    def geometry(name: str) -> CacheGeometry:
        sets = 2 ** draw(st.integers(0, 5), label=f"{name} set bits")
        ways = draw(st.integers(1, 8), label=f"{name} ways")
        return CacheGeometry(name, sets * ways * line, ways, line_bytes=line)

    geometries = {"l2": geometry("L2"), "l1d": geometry("L1D"), "l1i": geometry("L1I")}
    anchor = draw(st.integers(0, 1 << 20))
    names = draw(st.lists(st.sampled_from(REGION_NAMES), min_size=1, max_size=8, unique=True))
    # Unaligned bases near a shared anchor make regions overlap; sizes run
    # from empty to several times the largest cache drawn.
    sizes = st.one_of(st.integers(0, 64 * line), st.integers(0, 600 * line))
    regions = {
        name: (anchor + draw(st.integers(0, 48 * line)), draw(sizes))
        for name in names
    }
    if "user_data" in regions and "user_data_hot" in regions and draw(st.booleans()):
        base, size = regions["user_data"]
        offset = draw(st.integers(0, size))
        regions["user_data_hot"] = (base + offset, draw(st.integers(0, size - offset)))
    return geometries, regions


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,  # fixed corpus: reproducible in CI
    suppress_health_check=[HealthCheck.too_slow],
)
@given(machines())
def test_random_geometries_match_loop(machine):
    geometries, regions = machine

    def make_hierarchy():
        # prewarm_regions reads only the three caches of a hierarchy.
        return SimpleNamespace(
            **{name: SetAssociativeCache(geometry) for name, geometry in geometries.items()}
        )

    check_against_loop(make_hierarchy, regions)
