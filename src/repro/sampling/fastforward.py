"""Fast-forward functional executor: closure-compiled architectural interp.

Reaching interesting program regions of long workloads needs orders of
magnitude more throughput than detailed simulation (BENCH_engine.json
has the current ratio; the detailed engine's own fast path —
:mod:`repro.uarch.fastpath`, which borrows this module's
closure-compilation technique — narrows but nowhere near closes the
gap).  This module trades the generality of
:func:`repro.uarch.executor.execute_one` for speed while keeping its
architectural semantics bit-exact:

* every static instruction is compiled once into a specialised closure —
  operand register names, immediates, masks and the static next-pc are
  bound as constants at compile time, so the hot loop is just
  ``pc = handlers[pc](regs, load, store)``;
* no :class:`~repro.uarch.executor.ExecResult` allocation, no per-step
  statistics, no timing model;
* sign-extension/wrapping arithmetic is inlined (same formulas as
  ``memory_state.to_signed``/``to_unsigned``).

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
:class:`~repro.uarch.executor.Executor`: on seeded random programs
(``tests/test_sampling_fastforward.py``: same final registers, memory,
instruction count and fault messages) and, through the hint-stepped run,
on every spec phase (``tests/test_tls.py``, ``tests/test_profiling.py``:
the same task traces and loop profiles as a ``trace_hook`` run).
"""

from __future__ import annotations

import math
import weakref
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import ExecutionError
from ..isa.instructions import Instruction, Opcode
from ..isa.program import Program
from ..isa.registers import initial_register_file
from ..uarch.memory_state import (
    MASK64,
    SparseMemory,
    bits_to_float,
    float_to_bits,
)

_SIGN64 = 1 << 63
_WRAP64 = 1 << 64


class _Halt(Exception):
    """Raised by the HALT closure; carries the halting pc."""

    def __init__(self, pc: int):
        self.pc = pc


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
# Closure compiler
# ---------------------------------------------------------------------------


def _compile_instruction(
    instr: Instruction,
    pc: int,
    recorder: Optional["_WarmupRecorder"],
):
    """Compile one instruction into a ``(regs, load, store) -> next_pc``
    closure.  All operand decoding happens here, once per static
    instruction; the closures must mirror ``execute_one`` exactly."""
    op = instr.opcode
    srcs = instr.srcs
    dest = instr.dest
    nxt = pc + 1
    has_rb = len(srcs) > 1

    # -- integer ALU --------------------------------------------------------
    if op in (Opcode.ADD, Opcode.SUB, Opcode.MUL):
        a = srcs[0]
        sign = 1 if op is not Opcode.SUB else -1
        if op is Opcode.MUL:
            if has_rb:
                b = srcs[1]

                def h(regs, load, store, _d=dest, _a=a, _b=b, _n=nxt):
                    v = (regs[_a] * regs[_b]) & MASK64
                    regs[_d] = v - _WRAP64 if v >= _SIGN64 else v
                    return _n
            else:
                imm = instr.imm

                def h(regs, load, store, _d=dest, _a=a, _i=imm, _n=nxt):
                    v = (regs[_a] * _i) & MASK64
                    regs[_d] = v - _WRAP64 if v >= _SIGN64 else v
                    return _n
        elif has_rb:
            b = srcs[1]

            def h(regs, load, store, _d=dest, _a=a, _b=b, _s=sign, _n=nxt):
                v = (regs[_a] + _s * regs[_b]) & MASK64
                regs[_d] = v - _WRAP64 if v >= _SIGN64 else v
                return _n
        else:
            imm = instr.imm

            def h(regs, load, store, _d=dest, _a=a, _i=imm, _s=sign, _n=nxt):
                v = (regs[_a] + _s * _i) & MASK64
                regs[_d] = v - _WRAP64 if v >= _SIGN64 else v
                return _n
        return h

    if op in (Opcode.DIV, Opcode.REM):
        a = srcs[0]
        b = srcs[1] if has_rb else None
        imm = None if has_rb else instr.imm
        want_quot = op is Opcode.DIV
        msg = f"division by zero at pc={pc}: {instr}"

        def h(regs, load, store, _d=dest, _a=a, _b=b, _i=imm,
              _q=want_quot, _msg=msg, _n=nxt):
            av = int(regs[_a])
            bv = int(regs[_b]) if _b is not None else int(_i)
            if bv == 0:
                raise ExecutionError(_msg)
            q = abs(av) // abs(bv)
            if (av < 0) != (bv < 0):
                q = -q
            v = (q if _q else av - q * bv) & MASK64
            regs[_d] = v - _WRAP64 if v >= _SIGN64 else v
            return _n
        return h

    if op in (Opcode.AND, Opcode.OR, Opcode.XOR):
        a = srcs[0]
        kind = op

        if has_rb:
            b = srcs[1]

            def h(regs, load, store, _d=dest, _a=a, _b=b, _k=kind, _n=nxt):
                av = regs[_a] & MASK64
                bv = regs[_b] & MASK64
                if _k is Opcode.AND:
                    v = av & bv
                elif _k is Opcode.OR:
                    v = av | bv
                else:
                    v = av ^ bv
                regs[_d] = v - _WRAP64 if v >= _SIGN64 else v
                return _n
        else:
            bconst = int(instr.imm) & MASK64

            def h(regs, load, store, _d=dest, _a=a, _bc=bconst, _k=kind, _n=nxt):
                av = regs[_a] & MASK64
                if _k is Opcode.AND:
                    v = av & _bc
                elif _k is Opcode.OR:
                    v = av | _bc
                else:
                    v = av ^ _bc
                regs[_d] = v - _WRAP64 if v >= _SIGN64 else v
                return _n
        return h

    if op in (Opcode.SHL, Opcode.SHR):
        a = srcs[0]
        left = op is Opcode.SHL
        if has_rb:
            b = srcs[1]

            def h(regs, load, store, _d=dest, _a=a, _b=b, _l=left, _n=nxt):
                av = regs[_a] & MASK64
                sh = int(regs[_b]) & 63
                v = (av << sh) & MASK64 if _l else av >> sh
                regs[_d] = v - _WRAP64 if v >= _SIGN64 else v
                return _n
        else:
            sh = int(instr.imm) & 63

            def h(regs, load, store, _d=dest, _a=a, _sh=sh, _l=left, _n=nxt):
                av = regs[_a] & MASK64
                v = (av << _sh) & MASK64 if _l else av >> _sh
                regs[_d] = v - _WRAP64 if v >= _SIGN64 else v
                return _n
        return h

    if op in (Opcode.SLT, Opcode.SLE, Opcode.SEQ, Opcode.SNE,
              Opcode.FSLT, Opcode.FSLE, Opcode.FSEQ):
        a = srcs[0]
        b = srcs[1] if has_rb else None
        imm = None if has_rb else instr.imm
        cmp = {
            Opcode.SLT: "lt", Opcode.FSLT: "lt",
            Opcode.SLE: "le", Opcode.FSLE: "le",
            Opcode.SEQ: "eq", Opcode.FSEQ: "eq",
            Opcode.SNE: "ne",
        }[op]

        def h(regs, load, store, _d=dest, _a=a, _b=b, _i=imm, _c=cmp, _n=nxt):
            av = regs[_a]
            bv = regs[_b] if _b is not None else _i
            if _c == "lt":
                regs[_d] = int(av < bv)
            elif _c == "le":
                regs[_d] = int(av <= bv)
            elif _c == "eq":
                regs[_d] = int(av == bv)
            else:
                regs[_d] = int(av != bv)
            return _n
        return h

    if op in (Opcode.MIN, Opcode.MAX, Opcode.FMIN, Opcode.FMAX):
        a = srcs[0]
        b = srcs[1] if has_rb else None
        imm = None if has_rb else instr.imm
        fn = min if op in (Opcode.MIN, Opcode.FMIN) else max

        def h(regs, load, store, _d=dest, _a=a, _b=b, _i=imm, _f=fn, _n=nxt):
            bv = regs[_b] if _b is not None else _i
            regs[_d] = _f(regs[_a], bv)
            return _n
        return h

    if op in (Opcode.MOV, Opcode.FMOV):
        a = srcs[0]

        def h(regs, load, store, _d=dest, _a=a, _n=nxt):
            regs[_d] = regs[_a]
            return _n
        return h

    if op is Opcode.LI:
        v = int(instr.imm) & MASK64
        value = v - _WRAP64 if v >= _SIGN64 else v

        def h(regs, load, store, _d=dest, _v=value, _n=nxt):
            regs[_d] = _v
            return _n
        return h

    if op is Opcode.FLI:
        value = float(instr.imm)

        def h(regs, load, store, _d=dest, _v=value, _n=nxt):
            regs[_d] = _v
            return _n
        return h

    # -- floating point -----------------------------------------------------
    if op in (Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV):
        a = srcs[0]
        b = srcs[1] if has_rb else None
        imm = None if has_rb else instr.imm
        kind = op
        msg = f"float division by zero at pc={pc}: {instr}"

        def h(regs, load, store, _d=dest, _a=a, _b=b, _i=imm,
              _k=kind, _msg=msg, _n=nxt):
            av = regs[_a]
            bv = regs[_b] if _b is not None else _i
            if _k is Opcode.FADD:
                regs[_d] = av + bv
            elif _k is Opcode.FSUB:
                regs[_d] = av - bv
            elif _k is Opcode.FMUL:
                regs[_d] = av * bv
            else:
                if bv == 0.0:
                    raise ExecutionError(_msg)
                regs[_d] = av / bv
            return _n
        return h

    if op is Opcode.FSQRT:
        a = srcs[0]
        msg = f"sqrt of negative at pc={pc}: {instr}"

        def h(regs, load, store, _d=dest, _a=a, _msg=msg, _n=nxt):
            av = regs[_a]
            if av < 0.0:
                raise ExecutionError(_msg)
            regs[_d] = math.sqrt(av)
            return _n
        return h

    if op is Opcode.FABS:
        a = srcs[0]

        def h(regs, load, store, _d=dest, _a=a, _n=nxt):
            regs[_d] = abs(regs[_a])
            return _n
        return h

    if op is Opcode.FCVT:
        a = srcs[0]

        def h(regs, load, store, _d=dest, _a=a, _n=nxt):
            regs[_d] = float(regs[_a])
            return _n
        return h

    if op is Opcode.ICVT:
        a = srcs[0]

        def h(regs, load, store, _d=dest, _a=a, _n=nxt):
            v = int(regs[_a]) & MASK64
            regs[_d] = v - _WRAP64 if v >= _SIGN64 else v
            return _n
        return h

    # -- memory -------------------------------------------------------------
    if op is Opcode.LOAD:
        base = srcs[0]
        off = int(instr.imm or 0)
        size = instr.size
        sign = 1 << (8 * size - 1)
        wrap = 1 << (8 * size)

        def h(regs, load, store, _d=dest, _b=base, _o=off, _z=size,
              _s=sign, _w=wrap, _n=nxt):
            raw = load(int(regs[_b]) + _o, _z)
            regs[_d] = raw - _w if raw >= _s else raw
            return _n
        return h

    if op is Opcode.STORE:
        val = srcs[0]
        base = srcs[1]
        off = int(instr.imm or 0)
        size = instr.size
        mask = (1 << (8 * size)) - 1

        def h(regs, load, store, _v=val, _b=base, _o=off, _z=size,
              _m=mask, _n=nxt):
            store(int(regs[_b]) + _o, _z, int(regs[_v]) & _m)
            return _n
        return h

    if op is Opcode.FLOAD:
        base = srcs[0]
        off = int(instr.imm or 0)
        size = instr.size

        def h(regs, load, store, _d=dest, _b=base, _o=off, _z=size, _n=nxt):
            regs[_d] = bits_to_float(load(int(regs[_b]) + _o, _z), _z)
            return _n
        return h

    if op is Opcode.FSTORE:
        val = srcs[0]
        base = srcs[1]
        off = int(instr.imm or 0)
        size = instr.size

        def h(regs, load, store, _v=val, _b=base, _o=off, _z=size, _n=nxt):
            store(int(regs[_b]) + _o, _z, float_to_bits(regs[_v], _z))
            return _n
        return h

    # -- control flow -------------------------------------------------------
    if op is Opcode.JMP:
        target = instr.target_index
        if recorder is not None:
            rec = recorder.targets.append

            def h(regs, load, store, _t=target, _p=pc, _r=rec):
                _r((_p, _t))
                return _t
        else:

            def h(regs, load, store, _t=target):
                return _t
        return h

    if op in (Opcode.BEQZ, Opcode.BNEZ):
        a = srcs[0]
        target = instr.target_index
        want_zero = op is Opcode.BEQZ
        if recorder is not None:
            rec = recorder.conds.append
            rect = recorder.targets.append

            def h(regs, load, store, _a=a, _t=target, _z=want_zero,
                  _p=pc, _n=nxt, _r=rec, _rt=rect):
                taken = (regs[_a] == 0) if _z else (regs[_a] != 0)
                _r((_p, taken))
                if taken:
                    _rt((_p, _t))
                    return _t
                return _n
        else:

            def h(regs, load, store, _a=a, _t=target, _z=want_zero, _n=nxt):
                if _z:
                    return _t if regs[_a] == 0 else _n
                return _t if regs[_a] != 0 else _n
        return h

    if op is Opcode.CALL:
        target = instr.target_index
        if recorder is not None:
            rec = recorder.targets.append

            def h(regs, load, store, _t=target, _p=pc, _n=nxt, _r=rec):
                regs["ra"] = _n
                _r((_p, _t))
                return _t
        else:

            def h(regs, load, store, _t=target, _n=nxt):
                regs["ra"] = _n
                return _t
        return h

    if op is Opcode.RET:
        # Guard against negative return addresses explicitly: Python list
        # indexing would silently wrap them instead of faulting.
        def h(regs, load, store, _p=pc):
            target = int(regs["ra"])
            if target < 0:
                raise ExecutionError(f"pc {target} out of range (ret at {_p})")
            return target
        return h

    if op is Opcode.HALT:
        exc = _Halt(pc)

        def h(regs, load, store, _e=exc):
            raise _e
        return h

    if op in (Opcode.DETACH, Opcode.REATTACH, Opcode.SYNC, Opcode.NOP):

        def h(regs, load, store, _n=nxt):
            return _n
        return h

    def h(regs, load, store, _op=op, _p=pc):  # pragma: no cover
        raise ExecutionError(f"unimplemented opcode {_op!r} at pc={_p}")
    return h


# Recorder-free handler tables are pure functions of the program (all
# mutable state — registers, memory — enters through call arguments), so
# they are compiled once per program and shared across executors.  A
# sampled run fast-forwards the same program at least twice (profiling,
# then checkpointing), and benchmark sweeps re-run the same programs many
# times; memoizing turns all but the first pass into pure execution.
_HANDLER_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _base_handlers(program: Program) -> List:
    handlers = _HANDLER_CACHE.get(program)
    if handlers is None:
        handlers = [
            _compile_instruction(instr, pc, None)
            for pc, instr in enumerate(program.instructions)
        ]
        _HANDLER_CACHE[program] = handlers
    return handlers


def _hint_handlers(program: Program) -> List:
    """The cached handlers with every DETACH/REATTACH/SYNC replaced by a
    closure that raises :class:`_HintStop`, so hints cost nothing until
    one executes."""
    handlers = list(_base_handlers(program))
    for pc, instr in enumerate(program.instructions):
        if instr.is_hint:
            stop = _HintStop(pc)

            def h(regs, load, store, _e=stop):
                raise _e

            handlers[pc] = h
    return handlers


class _WarmupRecorder:
    """History buffers the recording closures append into.

    Memory is a recency-ordered last-touch map (a plain dict: re-touching
    an address moves it to the end), seeded with the initial working set;
    branch history is a bounded recent window.
    """

    def __init__(self, depth: int, initial_addresses=()):
        self.mem: Dict[int, None] = dict.fromkeys(initial_addresses)
        self.conds: deque = deque(maxlen=depth)
        self.targets: deque = deque(maxlen=depth)

    def touch(self, addr: int) -> None:
        mem = self.mem
        if addr in mem:
            del mem[addr]
        mem[addr] = None

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
    """Batched architectural interpreter over compiled closures.

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
        if self._recorder is not None:
            base_load = self.memory.load
            base_store = self.memory.store
            rec = self._recorder.touch

            def load(addr, size, _r=rec, _l=base_load):
                _r(addr)
                return _l(addr, size)

            def store(addr, size, value, _r=rec, _s=base_store):
                _r(addr)
                _s(addr, size, value)

            self._load = load
            self._store = store
        else:
            self._load = self.memory.load
            self._store = self.memory.store
        self._handlers = self._compile(collect_bbv)

    def _compile(self, collect_bbv: bool):
        if self._recorder is None:
            handlers = list(_base_handlers(self.program))
        else:
            handlers = [
                _compile_instruction(instr, pc, self._recorder)
                for pc, instr in enumerate(self.program.instructions)
            ]
        if collect_bbv:
            counts = self._block_counts
            block_of_pc = self.blocks.block_of_pc
            for end in self.blocks.block_ends:
                inner = handlers[end]
                bid = block_of_pc[end]

                def counted(regs, load, store, _i=inner, _b=bid, _c=counts):
                    _c[_b] += 1
                    return _i(regs, load, store)

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
        load = self._load
        store = self._store
        pc = self.pc
        executed = 0
        try:
            while executed < max_instructions:
                pc = handlers[pc](regs, load, store)
                executed += 1
        except _Halt as halt:
            pc = halt.pc
            executed += 1
            self.halted = True
        except IndexError:
            raise ExecutionError(
                f"pc {pc} out of range in {self.program.name}"
            ) from None
        if not self.halted and not 0 <= pc < len(self._handlers):
            # A ``ret`` to a bogus address lands here at the window edge.
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
        uses the uninstrumented cached closures: no BBV counting and no
        warm-up recording.

        Returns the instruction count before ``halt``: what a per-instruction
        ``trace_hook`` of :class:`~repro.uarch.executor.Executor` sees, which
        never includes the halt.  ``self.icount`` counts the halt, as after
        :meth:`run`.  Raises the golden executor's ``exceeded`` error when
        ``max_instructions`` runs out first.
        """
        handlers = _hint_handlers(self.program)
        instrs = self.program.instructions
        regs = self.regs
        load = load or self._load
        store = store or self._store
        pc = self.pc
        icount = self.icount
        while True:
            try:
                while icount < max_instructions:
                    pc = handlers[pc](regs, load, store)
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
            except _Halt as halt:
                halt.__traceback__ = None
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
