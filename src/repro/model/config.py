"""Machine configurations.

:func:`base_config` reproduces Table 1 — the production SPARC64 V — and
the other factories produce the design-space alternatives studied in §4:

========================  =======================================  ========
factory                   paper alternative                        figure
========================  =======================================  ========
``issue_2way``            2-way issue vs 4-way                     Fig. 8
``bht_4k_2w_1t``          4K-entry 2-way 1-cycle BHT               Fig. 9/10
``l1_32k_1w_3c``          32 KB direct-mapped 3-cycle L1           Fig. 11–13
``l2_off_8m_2w``          off-chip 8 MB 2-way L2 (+10 ns)          Fig. 14/15
``l2_off_8m_1w``          off-chip 8 MB direct-mapped L2 (+10 ns)  Fig. 14/15
``prefetch_off``          no hardware prefetch                     Fig. 16/17
``one_rs``                single RS per unit pair, 2 dispatches    Fig. 18
========================  =======================================  ========

Latency notes (all in 1.3 GHz CPU cycles):

- L1 hits: 4 cycles for the 128 KB 2-way operand cache ("128k-2w.4c"),
  3 for the 32 KB direct-mapped alternative ("32k-1w.3c"); the
  instruction side uses the 3-cycle fetch-access of the 5-stage fetch
  pipeline.
- On-chip L2 hit: 12 cycles.  Off-chip adds the paper's 10 ns chip
  crossing — 13 cycles at 1.3 GHz — on top, and the pin-limited
  interface halves the transfer bandwidth.
- Main memory: ~200 ns ≈ 260 cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict

from repro.common.units import ns_to_cycles
from repro.core.params import CoreParams, RsOrganization
from repro.frontend.bht import BHT_4K_2W_1T, BHT_16K_4W_2T, BhtParams
from repro.frontend.fetch import FrontEndParams
from repro.memory.params import (
    BusParams,
    CacheGeometry,
    MemoryParams,
    PrefetchParams,
    TlbGeometry,
)

#: Chip-crossing penalty for the off-chip L2 study (§4.3.4: "we add 10ns").
OFF_CHIP_EXTRA_CYCLES = ns_to_cycles(10.0)  # 13 cycles at 1.3 GHz

@dataclass(frozen=True)
class MachineConfig:
    """A complete machine description for the performance model."""

    name: str = "SPARC64-V"
    core: CoreParams = field(default_factory=CoreParams)
    frontend: FrontEndParams = field(default_factory=FrontEndParams)
    bht: BhtParams = field(default_factory=lambda: BHT_16K_4W_2T)
    l1i: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(
            "L1I", 128 * 1024, 2, hit_latency=3, port_occupancy=1, mshr_count=4
        )
    )
    l1d: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(
            "L1D",
            128 * 1024,
            2,
            hit_latency=4,
            mshr_count=8,
            banks=8,
            bank_bytes=4,
            ports=2,
        )
    )
    l2: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(
            "L2-on.2m-4w", 2 * 1024 * 1024, 4, hit_latency=12, mshr_count=16
        )
    )
    itlb: TlbGeometry = field(
        default_factory=lambda: TlbGeometry("ITLB", entries=128, ways=4, miss_penalty=50)
    )
    dtlb: TlbGeometry = field(
        default_factory=lambda: TlbGeometry("DTLB", entries=512, ways=4, miss_penalty=50)
    )
    #: L1<->L2 interface: on-chip, wide and fast.
    l1_l2_bus: BusParams = field(
        default_factory=lambda: BusParams("l1-l2", latency=2, bytes_per_cycle=32)
    )
    #: System bus to memory and other processors.
    system_bus: BusParams = field(
        default_factory=lambda: BusParams("system", latency=24, bytes_per_cycle=8)
    )
    memory: MemoryParams = field(default_factory=lambda: MemoryParams(latency=260))
    prefetch: PrefetchParams = field(default_factory=PrefetchParams)
    perfect_l1: bool = False
    perfect_l2: bool = False
    perfect_tlb: bool = False
    perfect_branch_prediction: bool = False

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Cross-component consistency checks.

        Each component dataclass already rejects nonsense values in
        isolation (non-power-of-two geometries, zero widths, negative
        latencies); this catches combinations that are individually
        legal but describe a machine that cannot exist — the class of
        mistake a sweep generator makes when it scales one parameter
        and forgets its neighbours.  Raises
        :class:`~repro.common.errors.ConfigError` naming the config.
        """
        from repro.common.errors import ConfigError

        def reject(message: str) -> None:
            raise ConfigError(f"{self.name}: {message}")

        for l1 in (self.l1i, self.l1d):
            if self.l2.line_bytes % l1.line_bytes != 0:
                reject(
                    f"L2 line ({self.l2.line_bytes} B) must be a multiple of "
                    f"{l1.name} line ({l1.line_bytes} B): refills would tear lines"
                )
            if self.l2.size_bytes < l1.size_bytes:
                reject(
                    f"L2 ({self.l2.size_bytes} B) smaller than {l1.name} "
                    f"({l1.size_bytes} B): inclusion is impossible"
                )
            if self.l2.hit_latency < l1.hit_latency:
                reject(
                    f"L2 hit ({self.l2.hit_latency} cy) faster than {l1.name} "
                    f"hit ({l1.hit_latency} cy): hierarchy is inverted"
                )
        if self.memory.latency <= self.l2.hit_latency:
            reject(
                f"memory latency ({self.memory.latency} cy) must exceed the "
                f"L2 hit latency ({self.l2.hit_latency} cy)"
            )
        if self.frontend.fetch_width < self.core.issue_width:
            reject(
                f"fetch width ({self.frontend.fetch_width}) below issue width "
                f"({self.core.issue_width}): the front-end can never feed the core"
            )
        if self.core.commit_width > self.core.window_size:
            reject(
                f"commit width ({self.core.commit_width}) exceeds the "
                f"instruction window ({self.core.window_size})"
            )

    def derived(self, name: str, **changes) -> "MachineConfig":
        """Copy with the given fields replaced and a new name."""
        return replace(self, name=name, **changes)

    def content_hash(self) -> str:
        """Digest of every parameter (not just the display name).

        Experiment caches key on this, so two configurations that share
        a ``name`` but differ in any field never alias.
        """
        from repro.common.hashing import content_hash

        return content_hash(self)

    def table1(self) -> str:
        """Render the configuration the way Table 1 itemises it."""
        core = self.core
        rows = [
            ("Instruction set architecture", "SPARC-V9"),
            ("Clock rate", "1.3 GHz"),
            ("Level 1 cache (I/D)", f"{self.l1i.ways}-way, {self.l1i.size_bytes // 1024} KB"),
            (
                "Level-2 cache",
                f"{self.l2.ways}-way {self.l2.size_bytes // (1024 * 1024)} MB"
                f" ({self.l2.name})",
            ),
            ("Execution control method", "Out-of-order superscalar"),
            ("Issue number", f"{core.issue_width}-way"),
            ("Instruction window", f"{core.window_size} instructions"),
            ("Instruction fetch width", f"{self.frontend.fetch_group_bytes} bytes"),
            ("Branch history table", f"{self.bht.ways}-way, {self.bht.entries // 1024}K-entry"),
            (
                "Execution unit",
                f"Fixed-point: {core.int_units}  Floating-point: {core.fp_units}"
                f" (Multiply-add)  Address generator: {core.eag_units}",
            ),
            (
                "Reservation station",
                f"RSE: {core.rse_entries * core.int_units}"
                f"({core.rse_entries}/{core.rse_entries}) for fixed-point  "
                f"RSF: {core.rsf_entries * core.fp_units}"
                f"({core.rsf_entries}/{core.rsf_entries}) for floating-point  "
                f"RSA: {core.rsa_entries}  RSBR: {core.rsbr_entries}",
            ),
            (
                "Reorder buffer",
                f"Fixed-point: {core.int_rename}  Floating-point: {core.fp_rename}",
            ),
            ("Load/Store queue", f"{core.load_queue}/{core.store_queue} entries"),
        ]
        width = max(len(label) for label, _ in rows)
        return "\n".join(f"{label:<{width}}  {value}" for label, value in rows)


def base_config() -> MachineConfig:
    """The production SPARC64 V (Table 1)."""
    return MachineConfig()


def issue_2way(base: MachineConfig = None) -> MachineConfig:
    """Fig. 8 alternative: 2-way issue (and commit) width."""
    base = base or base_config()
    return base.derived(
        "issue-2way", core=base.core.derived(issue_width=2, commit_width=2)
    )


def bht_4k_2w_1t(base: MachineConfig = None) -> MachineConfig:
    """Fig. 9/10 alternative: 4K-entry 2-way 1-cycle-access BHT."""
    base = base or base_config()
    return base.derived("bht-4k-2w.1t", bht=BHT_4K_2W_1T)


def l1_32k_1w_3c(base: MachineConfig = None) -> MachineConfig:
    """Fig. 11–13 alternative: 32 KB direct-mapped 3-cycle L1 caches."""
    base = base or base_config()
    return base.derived(
        "l1-32k-1w.3c",
        l1i=base.l1i.scaled(name="L1I-32k", size_bytes=32 * 1024, ways=1, hit_latency=3),
        l1d=base.l1d.scaled(name="L1D-32k", size_bytes=32 * 1024, ways=1, hit_latency=3),
    )


def _off_chip_bus(base: MachineConfig) -> BusParams:
    """Pin-limited off-chip L1<->L2 interface (§4.3.4)."""
    on_chip = base.l1_l2_bus
    return BusParams(
        "l1-l2-offchip",
        latency=on_chip.latency + OFF_CHIP_EXTRA_CYCLES,
        bytes_per_cycle=max(1, on_chip.bytes_per_cycle // 2),
    )


def l2_off_8m_2w(base: MachineConfig = None) -> MachineConfig:
    """Fig. 14/15 alternative: off-chip 8 MB 2-way L2."""
    base = base or base_config()
    return base.derived(
        "l2-off.8m-2w",
        l2=base.l2.scaled(
            name="L2-off.8m-2w", size_bytes=8 * 1024 * 1024, ways=2
        ),
        l1_l2_bus=_off_chip_bus(base),
    )


def l2_off_8m_1w(base: MachineConfig = None) -> MachineConfig:
    """Fig. 14/15 alternative: off-chip 8 MB direct-mapped L2."""
    base = base or base_config()
    return base.derived(
        "l2-off.8m-1w",
        l2=base.l2.scaled(
            name="L2-off.8m-1w", size_bytes=8 * 1024 * 1024, ways=1
        ),
        l1_l2_bus=_off_chip_bus(base),
    )


def prefetch_off(base: MachineConfig = None) -> MachineConfig:
    """Fig. 16/17 alternative: hardware prefetch disabled."""
    base = base or base_config()
    return base.derived(
        "no-prefetch", prefetch=PrefetchParams(enabled=False)
    )


def one_rs(base: MachineConfig = None) -> MachineConfig:
    """Fig. 18 alternative: single RS per unit pair, two dispatches/cycle."""
    base = base or base_config()
    return base.derived(
        "1RS", core=base.core.derived(rs_organization=RsOrganization.ONE_RS)
    )


def named_configs() -> "Dict[str, Callable[[], MachineConfig]]":
    """The CLI/service registry: short name -> configuration factory.

    Job specs in :mod:`repro.service` reference configurations by these
    names (JSON-serialisable, stable across hosts); the factories are
    evaluated at execution time so the resulting content hashes — not
    the names — are what the result cache and dedup keys see.
    """
    return {
        "base": base_config,
        "issue-2way": issue_2way,
        "bht-4k": bht_4k_2w_1t,
        "l1-32k": l1_32k_1w_3c,
        "l2-off-8m-2w": l2_off_8m_2w,
        "l2-off-8m-1w": l2_off_8m_1w,
        "no-prefetch": prefetch_off,
        "1rs": one_rs,
    }
