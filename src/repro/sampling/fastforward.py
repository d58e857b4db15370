"""Fast-forward functional executor: the engine's compiled closures, untimed.

Reaching interesting program regions of long workloads needs orders of
magnitude more throughput than detailed simulation (BENCH_engine.json
has the current ratio).  This module runs a program on the per-pc
closures :mod:`repro.uarch.fastpath` compiles for the detailed engine's
fetch stage — one closure compiler, so one fast copy of the ISA — and
drops everything else the engine does:

* the hot loop is just ``pc = handlers[pc](regs, view, out)`` over
  closures compiled once per program and shared with the engine;
* no :class:`~repro.uarch.executor.ExecResult` allocation, no per-step
  statistics, no timing model;
* behaviour only fast-forward needs lives in small per-pc wrappers built
  once per executor: basic-block counting at block ends, warm-up
  recording at branches (plus a recording memory view), the golden
  executor's fault for a ``ret`` to a negative address, and the hint
  stops of :meth:`FastForwardExecutor.run_hints`.

On top of the raw interpreter this module provides the sampling
infrastructure: basic-block-vector (BBV) interval profiling,
architectural checkpoints, and bounded functional-warmup recording
(recent data addresses + branch outcomes) for replay into the detailed
engine's caches and branch predictor.

It also serves the analyses that need one functional run segmented at
the LoopFrog hints: :meth:`FastForwardExecutor.run_hints` reports each
executed DETACH/REATTACH/SYNC with the running instruction count and
lets the caller observe loads and stores.  Table 3's task extraction
(:func:`repro.tls.common.extract_tasks`) and profile-guided loop
selection (:func:`repro.compiler.profiling.profile_program`) run on it.

Differential tests pin the executor against the golden
:class:`~repro.uarch.executor.Executor`: on seeded random programs and
one-instruction edge-operand programs
(``tests/test_sampling_fastforward.py``: same final registers, memory,
instruction count and fault messages) and, through the hint-stepped run,
on every spec phase (``tests/test_tls.py``, ``tests/test_profiling.py``:
the same task traces and loop profiles as a ``trace_hook`` run).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import ExecutionError
from ..isa.instructions import Opcode
from ..isa.program import Program
from ..isa.registers import initial_register_file
from ..uarch.fastpath import HaltStop, fast_program
from ..uarch.memory_state import SparseMemory


class _HintStop(Exception):
    """Raised by a hint closure of :meth:`FastForwardExecutor.run_hints`;
    carries the hint's pc."""

    def __init__(self, pc: int):
        self.pc = pc


# ---------------------------------------------------------------------------
# Basic blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BasicBlocks:
    """Static basic-block structure of a program."""

    leaders: Tuple[int, ...]           # block start pcs, ascending
    block_of_pc: Tuple[int, ...]       # pc -> block index
    block_lengths: Tuple[int, ...]     # block index -> instruction count
    block_ends: Tuple[int, ...]        # block index -> last pc of the block


def basic_blocks(program: Program) -> BasicBlocks:
    """Compute basic blocks: leaders are the entry pc, branch targets, and
    fall-through successors of branches and ``halt``.

    Control only leaves a block at its last instruction (branches create a
    leader right after themselves), so counting executions at block *ends*
    counts whole-block executions.
    """
    instrs = program.instructions
    n = len(instrs)
    leaders = {0}
    for i, instr in enumerate(instrs):
        if instr.is_branch:
            if instr.target_index is not None:
                leaders.add(instr.target_index)
            if i + 1 < n:
                leaders.add(i + 1)
        elif instr.opcode is Opcode.HALT and i + 1 < n:
            leaders.add(i + 1)
    ordered = sorted(leaders)
    block_of_pc = [0] * n
    block = -1
    leader_set = leaders
    for pc in range(n):
        if pc in leader_set:
            block += 1
        block_of_pc[pc] = block
    lengths = []
    ends = []
    for bi, start in enumerate(ordered):
        end = (ordered[bi + 1] - 1) if bi + 1 < len(ordered) else n - 1
        lengths.append(end - start + 1)
        ends.append(end)
    return BasicBlocks(
        leaders=tuple(ordered),
        block_of_pc=tuple(block_of_pc),
        block_lengths=tuple(lengths),
        block_ends=tuple(ends),
    )


# ---------------------------------------------------------------------------
# Warmup recording and checkpoints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WarmupState:
    """Functional history recorded at a checkpoint, for timing warmup.

    ``mem_addresses`` is the *last-touch order* of every data address the
    program has accessed so far (the memory-timestamp-record idea of the
    SMARTS line of work), seeded with the initial working set at time
    zero.  Replaying it oldest-first through LRU caches reconstructs the
    cache contents a continuous run would hold at the checkpoint — the
    most recent lines of each set survive, older ones are evicted — which
    is what makes mid-program windows start from realistic cache state
    instead of stone-cold (CPI overestimate) or fully-warmed (CPI
    underestimate) extremes.  Branch history stays a bounded recent
    window: predictor state has a much shorter memory than caches.
    """

    mem_addresses: Tuple[int, ...] = ()           # last-touch order, oldest 1st
    cond_branches: Tuple[Tuple[int, bool], ...] = ()   # (pc, taken)
    branch_targets: Tuple[Tuple[int, int], ...] = ()   # (pc, actual target)


@dataclass
class Checkpoint:
    """Architectural state at an instruction-count boundary.

    ``memory`` is a private snapshot that no later fast-forward touches.
    A consumer that runs one engine per checkpoint may hand the snapshot
    itself to that engine; :meth:`engine_memory` gives every further
    engine started from the same checkpoint its own copy.
    """

    icount: int
    pc: int
    regs: Dict[str, float]
    memory: SparseMemory
    warmup: WarmupState

    def engine_memory(self) -> SparseMemory:
        """A fresh mutable copy of the snapshot for one engine run."""
        return self.memory.copy()


# ---------------------------------------------------------------------------
# Per-pc wrappers around the shared closures
# ---------------------------------------------------------------------------


class _View:
    """A memory view over plain ``load``/``store`` callables."""

    __slots__ = ("load", "store")

    def __init__(self, load, store):
        self.load = load
        self.store = store


def _handlers(program: Program) -> List:
    """A fresh list of the program's shared closures, with every RET
    guarded against a negative return address.

    Python list indexing would silently wrap a negative pc; the guard
    raises the golden executor's fault text instead.  A return past the
    end faults at the next fetch (``IndexError`` in the run loops).  The
    engine keeps the unguarded closure: it checks every fetch pc itself.
    """
    handlers = list(fast_program(program).handlers)
    name = program.name
    for pc, instr in enumerate(program.instructions):
        if instr.opcode is Opcode.RET:

            def ret(regs, view, out, _h=handlers[pc], _name=name):
                target = _h(regs, view, out)
                if target < 0:
                    raise ExecutionError(
                        f"pc {target} out of range in {_name}"
                    )
                return target

            handlers[pc] = ret
    return handlers


class _WarmupRecorder:
    """History buffers the recording wrappers append into.

    Memory is a recency-ordered last-touch map (a plain dict: re-touching
    an address moves it to the end), seeded with the initial working set;
    branch history is a bounded recent window.
    """

    def __init__(self, depth: int, initial_addresses=()):
        self.mem: Dict[int, None] = dict.fromkeys(initial_addresses)
        self.conds: deque = deque(maxlen=depth)
        self.targets: deque = deque(maxlen=depth)

    def view(self, memory: SparseMemory) -> _View:
        """``memory``, touching every accessed address first."""

        def load(addr, size, _m=self.mem, _l=memory.load):
            _m.pop(addr, None)
            _m[addr] = None
            return _l(addr, size)

        def store(addr, size, value, _m=self.mem, _s=memory.store):
            _m.pop(addr, None)
            _m[addr] = None
            _s(addr, size, value)

        return _View(load, store)

    def wrap_branch(self, handler, pc: int, conditional: bool):
        """``handler`` recording the branch's outcome (taken flag from
        ``out[1]``) and, when taken, its target."""
        if conditional:

            def h(regs, view, out, _h=handler, _p=pc,
                  _c=self.conds.append, _t=self.targets.append):
                target = _h(regs, view, out)
                taken = out[1]
                _c((_p, taken))
                if taken:
                    _t((_p, target))
                return target
        else:

            def h(regs, view, out, _h=handler, _p=pc,
                  _t=self.targets.append):
                target = _h(regs, view, out)
                _t((_p, target))
                return target
        return h

    def snapshot(self) -> WarmupState:
        return WarmupState(
            mem_addresses=tuple(self.mem),
            cond_branches=tuple(self.conds),
            branch_targets=tuple(self.targets),
        )


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------


class FastForwardExecutor:
    """Batched architectural interpreter over the shared compiled closures.

    Args:
        program: the program to interpret.
        memory: initial memory (mutated in place, like ``Executor``).
        initial_regs: initial register overrides.
        collect_bbv: wrap block-end closures with basic-block counting
            (adds one indirection per *block*, not per instruction).
        record_warmup: keep bounded recent data addresses and branch
            outcomes for checkpoint warmup (0 disables recording).
    """

    def __init__(
        self,
        program: Program,
        memory: Optional[SparseMemory] = None,
        initial_regs: Optional[Dict[str, float]] = None,
        collect_bbv: bool = False,
        record_warmup: int = 0,
    ):
        self.program = program
        self.memory = memory if memory is not None else SparseMemory()
        self.regs = initial_register_file()
        if initial_regs:
            self.regs.update(initial_regs)
        self.pc = 0
        self.icount = 0
        self.halted = False
        self.blocks = basic_blocks(program) if collect_bbv else None
        self._block_counts: List[int] = (
            [0] * len(self.blocks.leaders) if self.blocks else []
        )
        self._recorder = (
            _WarmupRecorder(record_warmup, self.memory.written_addresses())
            if record_warmup > 0 else None
        )
        self._view = (
            self._recorder.view(self.memory) if self._recorder is not None
            else self.memory
        )
        self._out: list = [None, None]
        self._handlers = self._compile(collect_bbv)

    def _compile(self, collect_bbv: bool):
        handlers = _handlers(self.program)
        recorder = self._recorder
        if recorder is not None:
            # Returns were never part of the record; adding them would
            # change the replayed BTB state and so every window's cycles.
            for pc, instr in enumerate(self.program.instructions):
                if instr.is_branch and instr.opcode is not Opcode.RET:
                    handlers[pc] = recorder.wrap_branch(
                        handlers[pc], pc, instr.is_conditional_branch
                    )
        if collect_bbv:
            counts = self._block_counts
            block_of_pc = self.blocks.block_of_pc
            for end in self.blocks.block_ends:
                inner = handlers[end]
                bid = block_of_pc[end]

                def counted(regs, view, out, _i=inner, _b=bid, _c=counts):
                    _c[_b] += 1
                    return _i(regs, view, out)

                handlers[end] = counted
        return handlers

    # -- execution ----------------------------------------------------------

    def run(self, max_instructions: int) -> int:
        """Execute up to ``max_instructions``; returns the number executed.

        Stops early on ``halt`` (which counts as one executed instruction,
        matching :class:`~repro.uarch.executor.Executor`).
        """
        if self.halted or max_instructions <= 0:
            return 0
        handlers = self._handlers
        regs = self.regs
        view = self._view
        out = self._out
        pc = self.pc
        executed = 0
        try:
            while executed < max_instructions:
                pc = handlers[pc](regs, view, out)
                executed += 1
        except HaltStop as halt:
            pc = halt.pc
            executed += 1
            self.halted = True
        except IndexError:
            raise ExecutionError(
                f"pc {pc} out of range in {self.program.name}"
            ) from None
        if not self.halted and not 0 <= pc < len(handlers):
            # A ``ret`` past the end lands here at the window edge.
            raise ExecutionError(f"pc {pc} out of range in {self.program.name}")
        self.pc = pc
        self.icount += executed
        return executed

    def run_to(self, target_icount: int) -> int:
        """Fast-forward until ``icount == target_icount`` (exact)."""
        executed = self.run(target_icount - self.icount)
        if self.icount < target_icount and self.halted:
            raise ExecutionError(
                f"{self.program.name} halted at {self.icount} instructions, "
                f"before the requested boundary {target_icount}"
            )
        return executed

    def run_to_halt(self, max_instructions: int = 50_000_000) -> int:
        """Run to completion; returns the total dynamic instruction count."""
        while not self.halted:
            if self.icount >= max_instructions:
                raise ExecutionError(
                    f"{self.program.name} exceeded {max_instructions} "
                    f"instructions"
                )
            self.run(max_instructions - self.icount)
        return self.icount

    def run_hints(self, on_hint, max_instructions: int,
                  load=None, store=None) -> int:
        """Run to ``halt``, reporting every executed hint.

        ``on_hint(instr, icount)`` is called after each DETACH, REATTACH
        and SYNC, with ``icount`` counting the hint itself.  ``load`` and
        ``store`` replace the memory callables, so a caller can observe
        every data access; they must forward to ``self.memory``.  The run
        uses the uninstrumented shared closures: no BBV counting and no
        warm-up recording.

        Returns the instruction count before ``halt``: what a per-instruction
        ``trace_hook`` of :class:`~repro.uarch.executor.Executor` sees, which
        never includes the halt.  ``self.icount`` counts the halt, as after
        :meth:`run`.  Raises the golden executor's ``exceeded`` error when
        ``max_instructions`` runs out first.
        """
        instrs = self.program.instructions
        handlers = _handlers(self.program)
        for pc, instr in enumerate(instrs):
            if instr.is_hint:

                def stop(regs, view, out, _e=_HintStop(pc)):
                    raise _e

                handlers[pc] = stop
        view = self.memory
        if load is not None or store is not None:
            view = _View(load or view.load, store or view.store)
        regs = self.regs
        out = self._out
        pc = self.pc
        icount = self.icount
        while True:
            try:
                while icount < max_instructions:
                    pc = handlers[pc](regs, view, out)
                    icount += 1
                raise ExecutionError(
                    f"{self.program.name} exceeded {max_instructions} "
                    f"instructions"
                )
            except _HintStop as hint:
                # The stop is raised again at the next execution of this
                # hint; dropping the traceback keeps it from growing.
                hint.__traceback__ = None
                icount += 1
                pc = hint.pc + 1
                on_hint(instrs[hint.pc], icount)
            except HaltStop as halt:
                self.pc = halt.pc
                self.icount = icount + 1
                self.halted = True
                return icount
            except IndexError:
                raise ExecutionError(
                    f"pc {pc} out of range in {self.program.name}"
                ) from None

    # -- sampling hooks ------------------------------------------------------

    def take_block_counts(self) -> List[int]:
        """Return and reset the per-block execution counts."""
        if self.blocks is None:
            raise ExecutionError("executor built without collect_bbv")
        counts = list(self._block_counts)
        self._block_counts[:] = [0] * len(counts)
        return counts

    def checkpoint(self) -> Checkpoint:
        """Snapshot the architectural state (plus warmup history) here."""
        warmup = (
            self._recorder.snapshot() if self._recorder is not None
            else WarmupState()
        )
        return Checkpoint(
            icount=self.icount,
            pc=self.pc,
            regs=dict(self.regs),
            memory=self.memory.copy(),
            warmup=warmup,
        )


# ---------------------------------------------------------------------------
# Interval profiling (sampling pass 1) and checkpoint collection (pass 2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """One profiled instruction interval (fixed length; last may be short)."""

    index: int
    start_icount: int
    length: int                   # executed instructions (last may be short)
    bbv: Tuple[int, ...]          # per-block executions * block length


def profile_intervals(
    program: Program,
    memory: SparseMemory,
    initial_regs: Dict[str, float],
    interval_length: int,
    max_instructions: int = 500_000_000,
) -> Tuple[List[Interval], int]:
    """Fast-forward the whole program, one BBV per interval.

    Returns ``(intervals, total_instructions)``.  BBV entries are block
    execution counts weighted by block size, so each vector's L1 mass
    approximates the instructions the interval spent per block — the
    standard SimPoint frequency-vector construction.
    """
    ff = FastForwardExecutor(
        program, memory, initial_regs, collect_bbv=True
    )
    lengths = ff.blocks.block_lengths
    intervals: List[Interval] = []
    while not ff.halted:
        if ff.icount >= max_instructions:
            raise ExecutionError(
                f"{program.name} exceeded {max_instructions} instructions "
                f"during interval profiling"
            )
        start = ff.icount
        executed = ff.run(interval_length)
        if executed == 0:
            break
        counts = ff.take_block_counts()
        bbv = tuple(c * l for c, l in zip(counts, lengths))
        intervals.append(
            Interval(
                index=len(intervals),
                start_icount=start,
                length=executed,
                bbv=bbv,
            )
        )
    return intervals, ff.icount


def collect_checkpoints(
    program: Program,
    memory: SparseMemory,
    initial_regs: Dict[str, float],
    boundaries: Sequence[int],
    record_warmup: int = 4096,
) -> Iterator[Tuple[int, Checkpoint]]:
    """Re-run fast-forward, yielding ``(icount, checkpoint)`` at each
    boundary, in ascending order.

    ``boundaries`` are absolute instruction counts (ascending order not
    required; they are sorted, duplicates taken once).  A boundary of 0
    yields the pristine program-entry state without executing anything.
    The pass is lazy: fast-forward to the next boundary resumes only when
    the consumer asks for it, so a consumer that drops each checkpoint
    before the next holds one snapshot at a time.
    """
    ff = FastForwardExecutor(
        program, memory, initial_regs, record_warmup=record_warmup
    )
    for target in sorted(set(boundaries)):
        ff.run_to(target)
        yield target, ff.checkpoint()
