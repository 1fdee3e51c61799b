"""Dynamic trace generation: walking the static code image.

The :class:`TraceGenerator` executes the static code image the way a real
program would: it follows branch targets, keeps a call stack, takes kernel
excursions (for profiles with a kernel fraction), threads register
dependences through the emitted instructions, and draws data addresses
from the profile's stream mix.  The output is a control-flow-consistent
dynamic stream — ``Trace.validate()`` passes — which is what the timing
model's fetch/branch-prediction path requires.

Register-dependence conventions (these shape the ILP the out-of-order
core can extract):

- destination registers cycle through a pool, so WAW distance is long;
- source registers are drawn from recently written ones with geometric
  recency (profile's ``dependency_recency_mean``);
- chain-stream loads are made *address-dependent on the previous chain
  load* — real pointer chasing — which serialises OLTP memory access;
- conditional branches read the condition codes written by a compare
  placed at the end of the preceding block body.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.common.rng import DeterministicRng
from repro.isa.opcodes import OpClass
from repro.isa.registers import ICC, fp_reg, int_reg
from repro.trace.record import NO_REG, TraceRecord
from repro.trace.stream import Trace
from repro.trace.synth.code import (
    INSTRUCTION_BYTES,
    KERNEL_TEXT_BASE,
    USER_TEXT_BASE,
    BranchBehavior,
    CodeImage,
    StaticBlock,
    TerminalKind,
    build_code_image,
)
from repro.trace.synth.data import (
    KERNEL_DATA_BASE,
    USER_DATA_BASE,
    AddressGenerator,
    SharedRegionGenerator,
)
from repro.trace.synth.profiles import WorkloadProfile

#: Integer registers used as cycling destinations (r15 is the link register,
#: r1–r6 are stable base/pointer registers).
_INT_DEST_POOL = tuple(list(range(8, 15)) + list(range(16, 31)))
_FP_DEST_POOL = tuple(range(32))
_BASE_REG_POOL = tuple(range(1, 7))

_MAX_CALL_DEPTH = 24


class _RegisterState:
    """Tracks recent register writes to thread dependences."""

    def __init__(self, rng: DeterministicRng, recency_mean: float) -> None:
        self._rng = rng
        self._recency_mean = recency_mean
        self._recent_int: Deque[int] = deque(maxlen=12)
        self._recent_fp: Deque[int] = deque(maxlen=12)
        self._int_cursor = 0
        self._fp_cursor = 0
        # Seed with a few base registers so early sources are valid.
        for reg in (8, 9, 10):
            self._recent_int.append(reg)
        for reg in (0, 1):
            self._recent_fp.append(fp_reg(reg))

    def next_int_dest(self) -> int:
        reg = _INT_DEST_POOL[self._int_cursor]
        self._int_cursor = (self._int_cursor + 1) % len(_INT_DEST_POOL)
        self._recent_int.append(reg)
        return int_reg(reg)

    def next_fp_dest(self) -> int:
        reg = _FP_DEST_POOL[self._fp_cursor]
        self._fp_cursor = (self._fp_cursor + 1) % len(_FP_DEST_POOL)
        flat = fp_reg(reg)
        self._recent_fp.append(flat)
        return flat

    def _pick_recent(self, recent: Deque[int]) -> int:
        depth = min(self._rng.geometric(self._recency_mean, maximum=len(recent)), len(recent))
        return recent[-depth]

    def int_source(self) -> int:
        return self._pick_recent(self._recent_int)

    def fp_source(self) -> int:
        return self._pick_recent(self._recent_fp)

    def base_register(self) -> int:
        return int_reg(self._rng.choice(_BASE_REG_POOL))


class TraceGenerator:
    """Generates dynamic traces for one workload profile.

    One generator instance owns its static code image, so repeated
    :meth:`generate` calls continue walking the *same* program — useful
    for producing independent sample windows of one workload.
    """

    def __init__(
        self,
        profile: WorkloadProfile,
        seed: int = 1,
        cpu: int = 0,
        shared_generator: Optional[SharedRegionGenerator] = None,
        sample_seed: Optional[int] = None,
    ) -> None:
        """``seed`` fixes the static program (code image); ``sample_seed``
        (defaulting to ``seed``) fixes the dynamic sample — the walk,
        operand values, and data addresses.  Two generators with the same
        seed but different sample seeds model two captures of the *same*
        workload, the situation of the paper's model-vs-machine accuracy
        comparison.
        """
        profile.validate()
        self.profile = profile
        self.cpu = cpu
        root = DeterministicRng(seed).fork(cpu + 1)
        sample_root = (
            root if sample_seed is None
            else DeterministicRng(sample_seed).fork(cpu + 1)
        )
        self._rng_code = root.fork(1)
        self._rng_walk = sample_root.fork(2)
        self._rng_body = sample_root.fork(3)

        self.user_image = build_code_image(
            profile, self._rng_code, profile.block_count, base=USER_TEXT_BASE
        )
        self.kernel_image: Optional[CodeImage] = None
        if profile.kernel_fraction > 0:
            self.kernel_image = build_code_image(
                profile,
                self._rng_code.fork(7),
                profile.kernel_block_count,
                base=KERNEL_TEXT_BASE,
                privileged=True,
            )

        self._user_data = AddressGenerator(
            profile.data_mix, sample_root.fork(4), region_base=USER_DATA_BASE
        )
        self._kernel_data: Optional[AddressGenerator] = None
        if self.kernel_image is not None:
            kernel_mix = profile.data_mix.__class__(
                hot_fraction=profile.data_mix.hot_fraction,
                stride_fraction=profile.data_mix.stride_fraction,
                chain_fraction=profile.data_mix.chain_fraction,
                random_fraction=profile.data_mix.random_fraction,
                hot_region_bytes=profile.data_mix.hot_region_bytes,
                working_set_bytes=profile.kernel_working_set_bytes,
                hot_zipf_skew=profile.data_mix.hot_zipf_skew,
            )
            self._kernel_data = AddressGenerator(
                kernel_mix, sample_root.fork(5), region_base=KERNEL_DATA_BASE
            )
        self._shared = shared_generator

        self._regs = _RegisterState(sample_root.fork(6), profile.dependency_recency_mean)

        # Walker state that persists across generate() calls.
        self._mode_kernel = False
        self._block_index = 0
        self._call_stack: List[Tuple[bool, int]] = []
        self._loop_counters: Dict[Tuple[bool, int], int] = {}
        self._kernel_budget = 0
        self._last_chain_load_dest: Dict[bool, int] = {False: NO_REG, True: NO_REG}
        # Kernel/user instruction balance, used to steer excursions toward
        # the profile's kernel fraction (closed-loop control is robust to
        # how often fall-through opportunities actually occur dynamically).
        self._kernel_instructions = 0
        self._total_instructions = 0
        # Per-pc body-instruction class memo: a static instruction has one
        # opcode, so the class drawn on first execution is reused on every
        # revisit (operands and addresses still vary per execution).
        self._slot_class: Dict[int, str] = {}
        # Cycling cursor per mode over the active code set: far jumps land
        # at the cursor, which sweeps the active set round-robin — the
        # transaction-mix revisit pattern that gives every code site a
        # bounded reuse distance.
        self._active_cursor: Dict[bool, int] = {False: 0, True: 0}

        # Body instruction class choice tables.
        p = profile
        rest = 1.0 - (
            p.load_fraction
            + p.store_fraction
            + p.fp_fraction
            + p.int_mul_fraction
            + p.int_div_fraction
            + p.special_fraction
            + p.nop_fraction
        )
        self._body_classes = (
            "load",
            "store",
            "fp",
            "int_mul",
            "int_div",
            "special",
            "nop",
            "int_alu",
        )
        self._body_weights = (
            p.load_fraction,
            p.store_fraction,
            p.fp_fraction,
            p.int_mul_fraction,
            p.int_div_fraction,
            p.special_fraction,
            p.nop_fraction,
            rest,
        )
        self._fp_ops = (OpClass.FP_ADD, OpClass.FP_MUL, OpClass.FP_FMA, OpClass.FP_DIV)

    # ------------------------------------------------------------------

    def _should_enter_kernel(self) -> bool:
        """Closed-loop steering: enter when kernel share is below target."""
        if self.kernel_image is None:
            return False
        if self._total_instructions < 50:
            return False
        share = self._kernel_instructions / self._total_instructions
        return share < self.profile.kernel_fraction

    @property
    def _image(self) -> CodeImage:
        if self._mode_kernel:
            assert self.kernel_image is not None
            return self.kernel_image
        return self.user_image

    @property
    def _data(self) -> AddressGenerator:
        if self._mode_kernel and self._kernel_data is not None:
            return self._kernel_data
        return self._user_data

    # ------------------------------------------------------------------

    def memory_regions(self) -> Dict[str, Tuple[int, int]]:
        """Address regions this workload touches, as name -> (base, bytes).

        Used by the steady-state warm-up: the paper's traces are captured
        after the workload reaches steady state, so resident-where-
        capacity-allows is the right initial cache condition.  The
        ``*_hot`` entries are sub-regions that should be touched *last*
        (most recently used) during pre-warming.
        """
        mix = self.profile.data_mix
        # The hot extent covers both the exponential core and the uniform
        # tail — the whole graded-locality band must be steady-state
        # resident (tail lines are revisited across windows).
        hot_extent = max(
            mix.hot_region_bytes,
            mix.hot_tail_region_bytes if mix.hot_tail_fraction > 0 else 0,
        )
        regions: Dict[str, Tuple[int, int]] = {
            "user_code": (self.user_image.base, self.user_image.footprint_bytes),
            "user_data": (USER_DATA_BASE, mix.working_set_bytes),
            "user_data_hot": (USER_DATA_BASE, hot_extent),
        }
        if self.kernel_image is not None:
            regions["kernel_code"] = (
                self.kernel_image.base,
                self.kernel_image.footprint_bytes,
            )
            regions["kernel_data"] = (
                KERNEL_DATA_BASE,
                self.profile.kernel_working_set_bytes,
            )
        if self._shared is not None:
            from repro.trace.synth.data import SHARED_DATA_BASE

            regions["shared_data"] = (
                SHARED_DATA_BASE,
                self.profile.shared_region_bytes,
            )
        return regions

    def generate(self, instruction_count: int, name: Optional[str] = None) -> Trace:
        """Emit a trace of exactly ``instruction_count`` records."""
        if instruction_count <= 0:
            raise ConfigError("instruction_count must be positive")
        records: List[TraceRecord] = []
        while len(records) < instruction_count:
            self._emit_block(records)
        del records[instruction_count:]
        trace_name = name or f"{self.profile.name}-cpu{self.cpu}"
        return Trace(records, name=trace_name, cpu=self.cpu)

    # ------------------------------------------------------------------

    def _emit_block(self, records: List[TraceRecord]) -> None:
        start_count = len(records)
        try:
            self._emit_block_inner(records)
        finally:
            emitted = len(records) - start_count
            self._total_instructions += emitted

    def _emit_block_inner(self, records: List[TraceRecord]) -> None:
        image = self._image
        block = image.blocks[self._block_index]
        privileged = self._mode_kernel
        if privileged:
            self._kernel_instructions += block.length

        body_slots = block.body_length
        terminal = block.terminal

        # Kernel entry/exit replace the final slot of fall-through blocks.
        kernel_transition: Optional[str] = None
        if terminal is TerminalKind.NONE and body_slots > 0:
            if not self._mode_kernel and self._should_enter_kernel():
                kernel_transition = "enter"
                body_slots -= 1
            elif self._mode_kernel and self._kernel_budget <= 0:
                kernel_transition = "exit"
                body_slots -= 1

        needs_compare = terminal is TerminalKind.COND
        pc = block.start_pc
        for slot in range(body_slots):
            is_last_body = slot == body_slots - 1
            if needs_compare and is_last_body and kernel_transition is None:
                records.append(self._make_compare(pc, privileged))
            else:
                records.append(self._make_body_instruction(pc, privileged))
            pc += INSTRUCTION_BYTES

        if kernel_transition == "enter":
            self._emit_kernel_entry(records, block)
            return
        if kernel_transition == "exit":
            self._emit_kernel_exit(records, block)
            return

        if terminal is TerminalKind.NONE:
            self._block_index = self._next_sequential(block)
            if self._mode_kernel:
                self._kernel_budget -= block.length
            return
        if terminal is TerminalKind.COND:
            self._emit_conditional(records, block, privileged)
        elif terminal is TerminalKind.UNCOND:
            self._emit_unconditional(records, block, privileged)
        elif terminal is TerminalKind.CALL:
            self._emit_call(records, block, privileged)
        elif terminal is TerminalKind.RET:
            self._emit_return(records, block, privileged)

        if self._mode_kernel:
            self._kernel_budget -= block.length

    def _next_sequential(self, block: StaticBlock) -> int:
        nxt = block.index + 1
        if nxt >= len(self._image.blocks):
            return 0
        return nxt

    # -- body instructions ---------------------------------------------

    def _make_compare(self, pc: int, privileged: bool) -> TraceRecord:
        srcs = (self._regs.int_source(), self._regs.int_source())
        return TraceRecord(pc, OpClass.INT_ALU, dest=ICC, srcs=srcs, privileged=privileged)

    def _make_body_instruction(self, pc: int, privileged: bool) -> TraceRecord:
        rng = self._rng_body
        kind = self._slot_class.get(pc)
        if kind is None:
            kind = rng.weighted_choice(self._body_classes, self._body_weights)
            self._slot_class[pc] = kind
        regs = self._regs

        if kind == "load":
            return self._make_load(pc, privileged)
        if kind == "store":
            return self._make_store(pc, privileged)
        if kind == "fp":
            op = rng.weighted_choice(self._fp_ops, self.profile.fp_mix)
            if op is OpClass.FP_FMA:
                srcs = (regs.fp_source(), regs.fp_source(), regs.fp_source())
            else:
                srcs = (regs.fp_source(), regs.fp_source())
            return TraceRecord(pc, op, dest=regs.next_fp_dest(), srcs=srcs,
                               privileged=privileged)
        if kind == "int_mul":
            srcs = (regs.int_source(), regs.int_source())
            return TraceRecord(pc, OpClass.INT_MUL, dest=regs.next_int_dest(), srcs=srcs,
                               privileged=privileged)
        if kind == "int_div":
            srcs = (regs.int_source(), regs.int_source())
            return TraceRecord(pc, OpClass.INT_DIV, dest=regs.next_int_dest(), srcs=srcs,
                               privileged=privileged)
        if kind == "special":
            return TraceRecord(pc, OpClass.SPECIAL, privileged=privileged)
        if kind == "nop":
            return TraceRecord(pc, OpClass.NOP, privileged=privileged)
        # int_alu
        srcs = (regs.int_source(),) if rng.chance(0.35) else (
            regs.int_source(), regs.int_source())
        return TraceRecord(pc, OpClass.INT_ALU, dest=regs.next_int_dest(), srcs=srcs,
                           privileged=privileged)

    def _next_data_address(self) -> Tuple[int, str]:
        """Pick the next data address, possibly redirected to shared data."""
        profile = self.profile
        if self._shared is not None and profile.shared_access_fraction > 0:
            if self._rng_body.chance(profile.shared_access_fraction):
                return self._shared.next_address(), "shared"
        data = self._data
        kind = self._rng_body.weighted_choice(data._kinds, data._weights)
        if kind == "hot":
            return data.hot_address(self._rng_body), "hot"
        if kind == "stride":
            stream = data._stride_streams[data._next_stride_stream]
            data._next_stride_stream = (data._next_stride_stream + 1) % len(
                data._stride_streams
            )
            return stream.next_address() & ~0x7, "stride"
        if kind == "chain":
            return data._chain.next_address(), "chain"
        slot = self._rng_body.randint(0, data._ws_slots - 1)
        return data._region_base + slot * 8, "random"

    def _make_load(self, pc: int, privileged: bool) -> TraceRecord:
        regs = self._regs
        ea, kind = self._next_data_address()
        if kind == "chain":
            # Pointer chase: the address depends on the previous chain load.
            prev = self._last_chain_load_dest[privileged]
            addr_src = prev if prev != NO_REG else regs.base_register()
        else:
            addr_src = regs.base_register()
        use_fp_dest = self.profile.fp_fraction > 0 and self._rng_body.chance(0.6)
        dest = regs.next_fp_dest() if use_fp_dest else regs.next_int_dest()
        if kind == "chain" and not use_fp_dest:
            self._last_chain_load_dest[privileged] = dest
        return TraceRecord(
            pc, OpClass.LOAD, dest=dest, srcs=(addr_src,), ea=ea, size=8,
            privileged=privileged,
        )

    def _make_store(self, pc: int, privileged: bool) -> TraceRecord:
        regs = self._regs
        ea, _ = self._next_data_address()
        data_src = (
            regs.fp_source()
            if self.profile.fp_fraction > 0 and self._rng_body.chance(0.5)
            else regs.int_source()
        )
        return TraceRecord(
            pc, OpClass.STORE, srcs=(regs.base_register(), data_src), ea=ea, size=8,
            privileged=privileged,
        )

    # -- terminals -------------------------------------------------------

    def _branch_taken(self, block: StaticBlock) -> bool:
        key = (block.privileged, block.index)
        behavior = block.behavior
        if behavior is BranchBehavior.LOOP:
            # Positive counter: armed, remaining taken iterations.
            # Negative counter: dormant, not-taken encounters remaining.
            # Zero/absent: ready to arm on the next encounter.
            state = self._loop_counters.get(key, 0)
            if state == 0:
                state = block.loop_trip
            if state > 0:
                state -= 1
                if state == 0:
                    dormancy = self._rng_walk.geometric(
                        self.profile.branch_mix.loop_dormancy_mean
                    )
                    self._loop_counters[key] = -dormancy
                else:
                    self._loop_counters[key] = state
                return True
            self._loop_counters[key] = state + 1
            return False
        if behavior is BranchBehavior.BIASED_TAKEN:
            return self._rng_walk.chance(block.bias)
        if behavior is BranchBehavior.BIASED_NOT:
            return self._rng_walk.chance(1.0 - block.bias)
        return self._rng_walk.chance(0.5)  # RANDOM

    def _dynamic_target(self, current_index: int) -> int:
        """Pick a dynamic branch target: local window or hot-far jump.

        Local targets are forward-biased (compiler layout puts likely
        successors after the branch); far jumps are Zipf-skewed over the
        image so low-index blocks act as hot shared code, and they move
        the walk to a new neighbourhood — the phase behaviour that spreads
        the dynamic code footprint.
        """
        image = self._image
        count = len(image.blocks)
        if self._rng_walk.chance(self.profile.local_target_fraction):
            low = max(0, current_index - 2)
            high = min(count - 1, current_index + 10)
            return self._rng_walk.randint(low, high)
        active = max(2, int(count * self.profile.active_block_fraction))
        if active < count and not self._rng_walk.chance(
            self.profile.active_target_probability
        ):
            # Cold tail: occasionally the walk leaves the active set.
            return self._rng_walk.randint(0, count - 1)
        if active < count:
            if self.profile.active_zipf_skew > 0 and self._rng_walk.chance(0.3):
                # Hot head: frequently re-executed shared code.
                return self._rng_walk.zipf_index(active, self.profile.active_zipf_skew)
            # Cycling sweep: land at the cursor and advance it a few
            # blocks, so the active set is revisited with a bounded,
            # roughly constant reuse distance.
            cursor = self._active_cursor[self._mode_kernel]
            self._active_cursor[self._mode_kernel] = (
                cursor + self._rng_walk.randint(4, 9)
            ) % active
            return cursor
        return self._rng_walk.zipf_index(count, self.profile.code_zipf_skew)

    def _pick_function_entry(self, image: CodeImage) -> int:
        """Pick a CALL target, preferring entries inside the active set."""
        entries = image.function_entries
        active_limit = max(2, int(len(image.blocks) * self.profile.active_block_fraction))
        active_entries = [index for index in entries if index < active_limit]
        pool = active_entries or entries
        if active_entries and not self._rng_walk.chance(
            self.profile.active_target_probability
        ):
            pool = entries
        return self._rng_walk.choice(pool)

    def _emit_conditional(self, records, block: StaticBlock, privileged: bool) -> None:
        taken = self._branch_taken(block)
        image = self._image
        if block.target_block is not None:
            target_index = block.target_block
        else:
            target_index = self._dynamic_target(block.index)
        target_block = image.blocks[target_index]
        records.append(
            TraceRecord(
                block.terminal_pc,
                OpClass.BRANCH_COND,
                srcs=(ICC,),
                taken=taken,
                target=target_block.start_pc,
                privileged=privileged,
            )
        )
        self._block_index = target_index if taken else self._next_sequential(block)

    def _emit_unconditional(self, records, block: StaticBlock, privileged: bool) -> None:
        image = self._image
        target_index = self._dynamic_target(block.index)
        target_block = image.blocks[target_index]
        records.append(
            TraceRecord(
                block.terminal_pc,
                OpClass.BRANCH_UNCOND,
                taken=True,
                target=target_block.start_pc,
                privileged=privileged,
            )
        )
        self._block_index = target_index

    def _emit_call(self, records, block: StaticBlock, privileged: bool) -> None:
        image = self._image
        if len(self._call_stack) >= _MAX_CALL_DEPTH:
            self._emit_unconditional(records, block, privileged)
            return
        target_block = image.blocks[self._pick_function_entry(image)]
        records.append(
            TraceRecord(
                block.terminal_pc,
                OpClass.CALL,
                dest=int_reg(15),
                taken=True,
                target=target_block.start_pc,
                privileged=privileged,
            )
        )
        return_index = self._next_sequential(block)
        self._call_stack.append((self._mode_kernel, return_index))
        self._block_index = target_block.index

    def _emit_return(self, records, block: StaticBlock, privileged: bool) -> None:
        image = self._image
        # Pop to the innermost frame of the current mode; cross-mode frames
        # are handled by kernel entry/exit, not plain RET.
        return_index: Optional[int] = None
        if self._call_stack and self._call_stack[-1][0] == self._mode_kernel:
            _, return_index = self._call_stack.pop()
        if return_index is None:
            # Dispatcher jump: model an indirect branch into the active set.
            return_index = self._dynamic_target(block.index)
        target_pc = image.blocks[return_index].start_pc
        records.append(
            TraceRecord(
                block.terminal_pc,
                OpClass.RETURN,
                srcs=(int_reg(15),),
                taken=True,
                target=target_pc,
                privileged=privileged,
            )
        )
        self._block_index = return_index

    # -- kernel transitions ----------------------------------------------

    def _emit_kernel_entry(self, records, block: StaticBlock) -> None:
        assert self.kernel_image is not None
        entry_index = self._rng_walk.zipf_index(
            len(self.kernel_image.function_entries), 0.8
        )
        entry_block = self.kernel_image.blocks[
            self.kernel_image.function_entries[entry_index]
        ]
        records.append(
            TraceRecord(
                block.terminal_pc,
                OpClass.CALL,
                dest=int_reg(15),
                taken=True,
                target=entry_block.start_pc,
                privileged=False,
            )
        )
        self._call_stack.append((False, self._next_sequential(block)))
        self._mode_kernel = True
        self._kernel_budget = self._rng_walk.geometric(
            self.profile.kernel_burst_mean, maximum=int(self.profile.kernel_burst_mean * 6)
        )
        self._block_index = entry_block.index

    def _emit_kernel_exit(self, records, block: StaticBlock) -> None:
        # Unwind to the most recent user frame.
        return_index = 0
        while self._call_stack:
            mode_kernel, index = self._call_stack.pop()
            if not mode_kernel:
                return_index = index
                break
        target_pc = self.user_image.blocks[return_index].start_pc
        records.append(
            TraceRecord(
                block.terminal_pc,
                OpClass.RETURN,
                srcs=(int_reg(15),),
                taken=True,
                target=target_pc,
                privileged=True,
            )
        )
        self._mode_kernel = False
        self._block_index = return_index


def generate_trace(
    profile: WorkloadProfile,
    instruction_count: int,
    seed: int = 1,
    name: Optional[str] = None,
) -> Trace:
    """One-shot convenience: build a generator and emit one trace."""
    generator = TraceGenerator(profile, seed=seed)
    return generator.generate(instruction_count, name=name)
