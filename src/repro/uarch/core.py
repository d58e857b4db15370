"""The approximate-cycle out-of-order core engine.

One engine serves both the baseline and the LoopFrog configurations: with
``LoopFrogConfig.enabled == False`` hints are treated as nops (the paper's
backwards-compatibility guarantee) and the machine is a conventional wide
OoO core; with it enabled, ``detach`` spawns speculative threadlets whose
memory traffic flows through the SSB and conflict detector.

Model structure (see DESIGN.md "Timing-model fidelity notes"):

* **Functional execution happens at fetch.**  Each threadlet's register
  state advances as instructions are fetched along its (locally correct)
  path; speculative threadlets read through the SSB's versioning logic, so
  they really do consume stale data when they out-run an older threadlet's
  stores — which the conflict detector later catches and repairs by
  squashing, exactly as in section 4.2.
* **Timing is layered on top**: fetched instructions flow through dispatch
  (ROB/IQ/LSQ allocation, renaming), issue (operand readiness, FU ports,
  cache latencies) and in-order per-threadlet commit.  Branch mispredicts
  stall the fetch of the offending threadlet until the branch resolves,
  charging a variable, data-dependent penalty; other threadlets keep
  fetching (the paper's "cutting control dependencies").
* **Two-level commit**: instructions commit to their threadlet; the oldest
  threadlet is architectural and its commits are the program's. When it
  finishes its epoch, the successor becomes architectural and its SSB slice
  is merged (section 4.1.4).
"""

from __future__ import annotations

import heapq
import os
from typing import Dict, List, Optional, Set, Tuple

from ..errors import ExecutionError, SimulationError
from ..isa.instructions import (
    OPCLASS_ORDER,
    Instruction,
    OpClass,
    Opcode,
)
from ..obs.metrics import COUNTER, GAUGE, HISTOGRAM, MetricSpec, register
from ..obs.tracing import current_tracer
from ..isa.program import Program
from ..isa.registers import initial_register_file
from .branch_pred import FrontEndPredictor
from .caches import MemoryHierarchy, replay_last_touch
from .config import MachineConfig
from .conflict import ConflictDetector
from .executor import DISPATCH as _EXEC_DISPATCH
from .fastpath import (
    FLAG_BRANCH,
    FLAG_HALT,
    FLAG_HINT,
    FLAG_LOAD,
    FLAG_MEM,
    FLAG_STORE,
    fast_program,
)
from .memory_state import SparseMemory
from .packing import IterationPacker
from .ssb import SpeculativeStateBuffer
from .statistics import SimStats
from .threadlet import Threadlet, ThreadletState

# Version of the engine's *timing semantics*.  The persistent result store
# (repro.results) keys cached simulation results on this value: bump it on
# ANY change that can alter cycle counts or statistics, so stale results
# from older engines are invalidated across sessions.  Pure speedups that
# keep outputs bit-identical (like the hot-path work in this module) must
# NOT bump it — that is what keeps warm re-runs instant across versions.
#
# v2: pending packed-iteration skips are cancelled when an epoch leaves
# its region at SYNC (the fuzz-found cross-region state-divergence fix),
# which changes cycle counts and committed state on affected programs.
ENGINE_SCHEMA_VERSION = 2


# ---------------------------------------------------------------------------
# Engine execution-mode selection.
#
# The engine has two bindings of the same timing semantics:
#
# * ``reference`` — the original per-phase methods, one call per stage per
#   cycle (Engine.step).  Slowest; the ground truth the optimized mode is
#   compared to.
# * ``epoch-parallel`` — the optimized mode.  Runs of cycles whose
#   threadlet population is stable (*episodes*) are simulated by
#   cross-cycle monolithic loops with compiled fetch closures, cached
#   slot orders, batched per-cycle statistics and idle-cycle skipping
#   (see _ep_advance below).  Both run() and run_window() use it.
#
# Both modes must produce bit-identical cycles and statistics — the parity
# suite (tests/test_engine_parity.py) and the bench_compare semantics gate
# enforce this.  The mode is resolved once per Engine at construction:
# the REPRO_ENGINE_MODE environment variable picks a mode by name, and
# set_engine_mode() overrides it in-process.
# ---------------------------------------------------------------------------

_MODE_ENV = "REPRO_ENGINE_MODE"
ENGINE_MODES = ("reference", "epoch-parallel")
_mode_override: Optional[str] = None


def set_engine_mode(mode: Optional[str]) -> None:
    """Force an engine mode by name, or clear the override (``None``).

    Overrides the environment variable for engines constructed
    afterwards; existing engines keep their binding.
    """
    global _mode_override
    if mode is not None and mode not in ENGINE_MODES:
        raise ValueError(
            f"unknown engine mode {mode!r} "
            f"(choose from {', '.join(ENGINE_MODES)})"
        )
    _mode_override = mode


def engine_mode() -> str:
    """The mode new engines will bind: reference|epoch-parallel.

    ``epoch-parallel`` is the default: it is bit-identical to the
    reference (gated by the parity matrix) and much faster.
    """
    if _mode_override is not None:
        return _mode_override
    env = os.environ.get(_MODE_ENV, "")
    if env:
        if env not in ENGINE_MODES:
            raise ValueError(
                f"unknown {_MODE_ENV} value {env!r} "
                f"(choose from {', '.join(ENGINE_MODES)})"
            )
        return env
    return "epoch-parallel"


# Shared default for PipelineInstr.mem_dep_writers: it is only ever
# iterated (dispatch) or replaced wholesale (fetch of a load), never
# mutated in place, so all non-load instructions can share one tuple.
_NO_WRITERS: Tuple["PipelineInstr", ...] = ()

# Sentinel completion cycle for not-yet-issued instructions.  Issue is
# the only place that assigns ready_cycle (always alongside
# ``issued = True``), so ``pi.ready_cycle <= cycle`` alone is the exact
# "issued and complete" test — no separate issued/None guards needed on
# the hot paths.
_NEVER_READY = 1 << 62

# Default ``stop_at`` of the advance functions: a sequential-progress
# target no run reaches, so run() never stops on progress.
_NO_STOP = 1 << 62


class PipelineInstr:
    """One dynamic instruction in flight."""

    __slots__ = (
        "seq", "slot", "pc", "instr", "op_index", "consumers",
        "num_pending", "dispatched", "issued", "ready_cycle", "committed",
        "squashed", "mem_addr", "mem_size", "taken", "mispredicted",
        "dest_is_fp", "mem_dep_writers", "is_load", "is_store",
        "is_halt", "has_dest",
    )

    def __init__(self, seq: int, slot: int, pc: int, instr: Instruction):
        self.seq = seq
        self.slot = slot
        self.pc = pc
        self.instr = instr
        self.consumers: List["PipelineInstr"] = []
        self.num_pending = 0
        self.dispatched = False
        self.issued = False
        # Completion time; _NEVER_READY until issue assigns the real
        # cycle, so "done" is a single integer comparison with no
        # issued/None guards.
        self.ready_cycle: int = _NEVER_READY
        self.committed = False
        self.squashed = False
        self.mem_addr: Optional[int] = None
        self.mem_size = 0
        self.taken = False
        self.mispredicted = False
        self.mem_dep_writers = _NO_WRITERS
        # Commit/dispatch hot-path flags, precomputed per static
        # instruction: one tuple unpack instead of six .instr chases.
        (
            self.op_index, self.dest_is_fp, self.is_load, self.is_store,
            self.is_halt, self.has_dest,
        ) = instr._pi_static

    def done(self, cycle: int) -> bool:
        return self.ready_cycle <= cycle

    def __repr__(self) -> str:
        return f"PI(seq={self.seq}, slot={self.slot}, pc={self.pc}, {self.instr.opcode.value})"


class _SpecMemView:
    """Memory view for a speculative threadlet: reads via SSB versioning,
    writes into the threadlet's slice.  Records access metadata for the
    engine to pick up after ``execute_one`` returns."""

    __slots__ = ("engine", "threadlet")

    def __init__(self, engine: "Engine", threadlet: Threadlet):
        self.engine = engine
        self.threadlet = threadlet

    def load(self, addr: int, size: int) -> int:
        return self.engine._spec_load(self.threadlet, addr, size)

    def store(self, addr: int, size: int, value: int) -> None:
        self.engine._spec_store(self.threadlet, addr, size, value)


class _ArchMemView:
    """Memory view for the architectural threadlet: direct to memory, but
    accesses still update the conflict detector (section 4)."""

    __slots__ = ("engine", "threadlet")

    def __init__(self, engine: "Engine", threadlet: Threadlet):
        self.engine = engine
        self.threadlet = threadlet

    def load(self, addr: int, size: int) -> int:
        return self.engine._arch_load(self.threadlet, addr, size)

    def store(self, addr: int, size: int, value: int) -> None:
        self.engine._arch_store(self.threadlet, addr, size, value)


class WindowResult:
    """Outcome of :meth:`Engine.run_window`: the detailed-warmup prefix is
    split out so callers measure only the post-warmup portion."""

    __slots__ = (
        "stats", "warmup_instructions", "warmup_cycles",
        "measured_instructions", "measured_cycles", "finished",
    )

    def __init__(self, stats: SimStats, warmup_instructions: int,
                 warmup_cycles: int, measured_instructions: int,
                 measured_cycles: int, finished: bool):
        self.stats = stats
        self.warmup_instructions = warmup_instructions
        self.warmup_cycles = warmup_cycles
        self.measured_instructions = measured_instructions
        self.measured_cycles = measured_cycles
        self.finished = finished

    @property
    def cpi(self) -> float:
        if self.measured_instructions == 0:
            return 0.0
        return self.measured_cycles / self.measured_instructions


class Engine:
    """Cycle-driven simulation of one core running one program."""

    def __init__(
        self,
        machine: MachineConfig,
        program: Program,
        memory: Optional[SparseMemory] = None,
        initial_regs: Optional[Dict[str, float]] = None,
        warm_caches: bool = True,
        initial_pc: int = 0,
    ):
        machine.validate()
        self.machine = machine
        self.core = machine.core
        self.lf = machine.loopfrog
        self.program = program
        self._instructions = program.instructions
        self._program_len = len(self._instructions)
        self.memory = memory if memory is not None else SparseMemory()
        self.stats = SimStats()
        self.hierarchy = MemoryHierarchy(machine.memory, self.stats)
        if warm_caches:
            self._warm_caches()
        self.predictor = FrontEndPredictor(self.core, self.lf.num_threadlets)
        self.ssb = SpeculativeStateBuffer(self.lf, self.memory)
        self.conflicts = ConflictDetector(
            self.lf.granule_bytes,
            self.lf.num_threadlets,
            use_bloom=self.lf.use_bloom_filters,
            bloom_bits=self.lf.bloom_bits,
            bloom_hashes=self.lf.bloom_hashes,
        )
        self.packer = IterationPacker(self.lf)

        self.threadlets = [
            Threadlet(slot, self.core.fetch_queue_size)
            for slot in range(self.lf.num_threadlets)
        ]
        main = self.threadlets[0]
        regs = initial_register_file()
        if initial_regs:
            regs.update(initial_regs)
        main.activate(epoch=0, regs=regs, pc=initial_pc, rename={},
                      region=None, region_label=None)
        main.is_arch = True
        self.order: List[Threadlet] = [main]

        self.cycle = 0
        self.seq = 0
        self.finished = False

        # Shared back-end occupancy.
        self.rob_used = 0
        self.iq_used = 0
        self.lq_used = 0
        self.sq_used = 0
        self.int_regs_used = 0
        self.fp_regs_used = 0

        self.ready: List[Tuple[int, PipelineInstr]] = []   # issueable heap
        self.completions: List[Tuple[int, int, PipelineInstr]] = []
        # Issue-path FU tables indexed by OpClass position (see OPCLASS_ORDER):
        # list indexing avoids enum hashing on every issued instruction.
        self._fu_latency_by_index = [
            self.core.fu_latency.get(cls, 1) for cls in OPCLASS_ORDER
        ]
        self._fu_ports_template = [
            self.core.fu_ports.get(cls, 8) for cls in OPCLASS_ORDER
        ]
        # Cached per-access scratch set by _spec_load/_spec_store.
        self._last_writers: List[PipelineInstr] = []
        self._last_forwarded = False
        self._arch_commit_gate = 0  # conflict-check drain before commit
        # Tracing is resolved once at construction: the per-epoch emit
        # sites test one attribute against None, and the default (tracing
        # disabled) leaves timing and statistics bit-identical.
        self._tracer = current_tracer()

        # Optimized-mode state (harmless but unused on the reference path).
        self._progress = 0               # per-cycle activity counter
        self._exec_out = [0, False]      # handler scratch: [mem_addr, taken]
        self._pcs_active = -1            # batched per-cycle stats: run key
        self._pcs_region: Optional[str] = None
        self._pcs_count = 0              # cycles accumulated under the key
        n_slots = self.lf.num_threadlets
        self._older_cache: List[List[int]] = [[] for _ in range(n_slots)]
        self._younger_cache: List[List[int]] = [[] for _ in range(n_slots)]

        # Epoch-parallel episode accounting (engine attributes, NOT
        # SimStats: statistics must stay bit-identical across modes, so
        # mode-specific bookkeeping lives outside the parity surface).
        self.ep_episodes_single = 0   # single-threadlet episodes run
        self.ep_episodes_multi = 0    # multi-threadlet episodes run
        self.ep_cycles_single = 0     # cycles simulated inside them
        self.ep_cycles_multi = 0

        # Path selection (see set_engine_mode above).  The reference
        # engine runs the class's per-phase methods one cycle per advance;
        # the optimized engine advances one episode per call (_ep_advance)
        # and reads the cached slot orders; step() stays the reference
        # cycle.  The choice is the ``reference_mode`` flag, never a bound
        # method stored on the instance: that would be a reference cycle,
        # keeping every finished engine alive until a full GC pass.
        mode = engine_mode()
        self.engine_mode = mode
        self.reference_mode = mode == "reference"
        if not self.reference_mode:
            self._fast_prog = fast_program(program)
        self._order_changed()

    def use_reference_path(self) -> None:
        """Rebind this engine instance onto the reference step pipeline.

        Instrumentation that wraps the per-stage helpers (e.g.
        :class:`~repro.uarch.trace.Tracer` hooking ``_fetch_one`` /
        ``_dispatch_one``) needs the reference path, because the episode
        loops inline those helpers.  Both paths are bit-identical, so
        results do not change.
        """
        self.reference_mode = True
        self.engine_mode = "reference"

    def _warm_caches(self) -> None:
        """Pre-warm the L2 with the workload's initialised data and the L1I
        with the program text, modelling a benchmark past its warmup phase
        (the paper warms 50M instructions per SimPoint, section 6.1).
        Untouched regions — e.g. the huge sparse spans of miss-bound
        kernels — stay cold and pay full memory latency."""
        replay_last_touch((self.hierarchy.l2,),
                          self.memory.written_addresses(),
                          self.machine.memory.line_size)
        self._warm_text()

    def _warm_text(self) -> None:
        """Insert the whole program text into L1I+L2 (shared by the
        constructor's whole-working-set warmup and :meth:`apply_warmup`,
        so the two entry points cannot drift)."""
        line = self.machine.memory.line_size
        l1i_insert = self.hierarchy.l1i.insert
        l2_insert = self.hierarchy.l2.insert
        for pc in range(self._program_len):
            text_line = (pc * 4) // line
            l1i_insert(text_line)
            l2_insert(text_line)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self, max_cycles: int = 50_000_000) -> SimStats:
        """Simulate until the program halts; returns the statistics."""
        tracer = self._tracer
        if tracer is None:
            self._run_loop(max_cycles)
        else:
            with tracer.span(
                "simulate",
                program=self.program.name,
                loopfrog=self.lf.enabled,
                engine_mode=self.engine_mode,
            ) as span:
                self._run_loop(max_cycles)
                span.attrs["cycles"] = self.cycle
                span.attrs["arch_instructions"] = self.stats.arch_instructions
                if self.engine_mode == "epoch-parallel":
                    # Episode attribution: how the run decomposed into
                    # cross-cycle monolith executions (engine counters,
                    # deliberately outside SimStats — see __init__).
                    span.attrs["ep_episodes_single"] = self.ep_episodes_single
                    span.attrs["ep_episodes_multi"] = self.ep_episodes_multi
                    span.attrs["ep_cycles_single"] = self.ep_cycles_single
                    span.attrs["ep_cycles_multi"] = self.ep_cycles_multi
        self._flush_cycle_stats()
        self.stats.cycles = self.cycle
        return self.stats

    def apply_warmup(self, warmup) -> None:
        """Replay recorded functional history into the timing structures.

        ``warmup`` is a :class:`repro.sampling.fastforward.WarmupState`
        (duck-typed: anything with ``mem_addresses``, ``cond_branches``,
        ``branch_targets``).  Data lines are replayed into L1D+L2 in
        last-touch order, each distinct line once (exact for LRU, see
        :func:`~repro.uarch.caches.replay_last_touch`), so each set holds
        its most recently used lines — reconstructing the cache contents
        of a continuous run at this point.  Branch targets fill the BTB and
        conditional outcomes train the TAGE tables through the normal
        predict/update path.  The program text is warmed like
        steady-state fetch leaves it.  Windows use this INSTEAD of the
        constructor's ``warm_caches`` whole-working-set warming (which
        models program *entry*, not a mid-program cut).  Must be called
        before the first :meth:`step`.
        """
        replay_last_touch((self.hierarchy.l2, self.hierarchy.l1d),
                          warmup.mem_addresses,
                          self.machine.memory.line_size)
        self._warm_text()
        for pc, target in warmup.branch_targets:
            self.predictor.btb.insert(pc, target)
        tage = self.predictor.tage
        for pc, taken in warmup.cond_branches:
            tage.update(pc, taken, tage.predict(pc, 0), 0)

    def run_window(
        self,
        n_instructions: int,
        warmup_instructions: int = 0,
        max_cycles: int = 50_000_000,
    ) -> WindowResult:
        """Simulate ``warmup_instructions + n_instructions`` *sequential*
        instructions (or until the program halts) and report cycles for
        the post-warmup portion only.

        Progress is counted in sequential-stream instructions —
        ``arch_instructions + spec_committed_instructions`` — because
        successfully speculated loop iterations retire against the
        speculative threadlet, not the architectural one.  That is the
        same stream the fast-forward profiler counts, so window
        boundaries line up with interval boundaries on both baseline and
        LoopFrog machines.

        Sampled windows go through this entry point exclusively, on the
        same advance as :meth:`run`: each call is told the next progress
        target and stops at the end of the first cycle that reaches it.
        Commit can retire several instructions per cycle — and a
        threadlet merge credits a whole speculated slice at once — so
        boundaries land on the first cycle *at or past* each target.  The
        measurement target is re-anchored to the *actual* warm-boundary
        overshoot (a merge during warmup can jump far past the nominal
        cut), so the measured portion is always ~``n_instructions`` long
        rather than silently empty.
        """
        stats = self.stats
        target_warm = warmup_instructions
        target_total = warmup_instructions + n_instructions
        warm_cycle = 0
        warm_instructions = 0
        warm_pending = warmup_instructions > 0
        progress = 0
        advance = self._advancer()
        try:
            while not self.finished:
                if self.cycle >= max_cycles:
                    raise SimulationError(
                        f"{self.program.name}: window exceeded {max_cycles} "
                        f"cycles (arch pc={self.order[0].pc})"
                    )
                advance(max_cycles,
                        target_warm if warm_pending else target_total)
                progress = (
                    stats.arch_instructions + stats.spec_committed_instructions
                )
                if warm_pending and progress >= target_warm:
                    warm_cycle = self.cycle
                    warm_instructions = progress
                    warm_pending = False
                    target_total = progress + n_instructions
                if not warm_pending and progress >= target_total:
                    break
        finally:
            self._release_views()
        self._flush_cycle_stats()
        stats.cycles = self.cycle
        return WindowResult(
            stats=stats,
            warmup_instructions=warm_instructions,
            warmup_cycles=warm_cycle,
            measured_instructions=progress - warm_instructions,
            measured_cycles=self.cycle - warm_cycle,
            finished=self.finished,
        )

    def _run_loop(self, max_cycles: int) -> None:
        advance = self._advancer()
        try:
            while not self.finished:
                if self.cycle >= max_cycles:
                    raise SimulationError(
                        f"{self.program.name}: exceeded {max_cycles} cycles "
                        f"(arch pc={self.order[0].pc})"
                    )
                advance(max_cycles)
        finally:
            self._release_views()

    def _release_views(self) -> None:
        """Drop the threadlets' cached memory views when a run loop exits.

        A view points back at its engine and its threadlet, so the cache
        is a reference cycle; released here, a finished engine is freed
        by reference counting as soon as its last outside reference goes.
        """
        for t in self.threadlets:
            t.mem_view = None

    def _advancer(self):
        """The advance step of this engine's mode, bound for one run loop
        (a local, so it forms no cycle with the engine)."""
        return self._reference_advance if self.reference_mode else self._ep_advance

    def _reference_advance(
        self, max_cycles: int, stop_at: int = _NO_STOP
    ) -> None:
        # One cycle per call, so the caller observes every cycle and
        # ``stop_at`` needs no handling here.
        self.step()

    def _skip_idle(self, max_cycles: int) -> None:
        """Skip ahead over provably idle cycles after a cycle with no
        progress.

        ``_progress`` (plus the episode's local counter) counts every
        state-changing pipeline event of a cycle: fetches, dispatches,
        issues, completions, retires and order mutations.  After a cycle
        with none, nothing in the engine changes cycle-to-cycle except
        gates that compare against ``self.cycle``.  The machine stays
        frozen until the earliest such gate opens, so the cycles in
        between can be counted without simulating them.  This computes
        that earliest wake event conservatively and bails out (no skip)
        whenever any gate cannot be bounded.
        """
        cycle = self.cycle
        wake: Optional[int] = None
        completions = self.completions
        if completions:
            wake = completions[0][0]
        order = self.order
        # Threadlet-commit gate: the oldest threadlet is drained and only
        # waiting out the conflict-check latency before handing over.
        t0 = order[0]
        if (
            t0.state is ThreadletState.HALTED
            and t0.successor is not None
            and not t0.inflight
            and not t0.fetch_queue
        ):
            gate = t0.halt_cycle + self.lf.conflict_check_latency
            if gate > cycle and (wake is None or gate < wake):
                wake = gate
        running = ThreadletState.RUNNING
        for t in order:
            if t.ssb_stalled:
                return  # per-cycle ssb_stall_cycles accounting must run
            if t.state is running and not t.fetch_done:
                if len(t.fetch_queue) >= t.fetch_queue_size:
                    continue  # drain needs dispatch -> completions cover it
                if t.fetch_stall_branch is not None:
                    continue  # resolution is a completion event
                stall = t.fetch_stall_until
                if stall <= cycle + 1:
                    return  # fetch could act next cycle; cannot skip
                if wake is None or stall < wake:
                    wake = stall
        if wake is None or wake <= cycle + 1:
            return
        if wake > max_cycles:
            wake = max_cycles
            if wake <= cycle + 1:
                return
        # Jump to the cycle before the event; the next step() lands on it.
        self._pcs_count += wake - cycle - 1
        self.cycle = wake - 1

    # ------------------------------------------------------------------
    # Epoch-parallel engine mode (docs/microarchitecture.md)
    # ------------------------------------------------------------------

    def _ep_advance(self, max_cycles: int, stop_at: int = _NO_STOP) -> None:
        """Epoch-parallel advance: one *episode* per call.

        An episode is a maximal run of cycles over which the active
        threadlet population is stable.  Single-threadlet episodes (the
        serial program, or a drained region tail) run through a
        cross-cycle specialization of the single-threadlet cycle that
        keeps all hot engine state in locals for the episode's whole
        lifetime; multi-threadlet episodes simulate the concurrent
        threadlet epochs through inlined batched phases, reconciling
        them in commit order every cycle.  Both are held bit-identical
        to the reference engine by the parity suite; an episode ends
        when the population changes (a detach spawns, an epoch commits
        or is squashed, the program finishes), the cycle budget runs
        out, or sequential progress (``arch_instructions +
        spec_committed_instructions``) reaches ``stop_at``, and the next
        call re-dispatches on the new population.

        The progress check runs only on cycles that commit (instructions
        or a threadlet handover), after the cycle's statistics and before
        any idle skip: the episode stops at the end of the first cycle at
        or past ``stop_at``, which is where :meth:`run_window` places its
        boundaries.
        """
        if len(self.order) == 1:
            self._ep_run_single(max_cycles, stop_at)
        else:
            self._ep_run_multi(max_cycles, stop_at)

    def _ep_run_multi(self, max_cycles: int, stop_at: int) -> None:
        """Run one multi-threadlet episode (concurrent epochs).

        Cycle-for-cycle this is the reference :meth:`step` followed by
        ``_skip_idle``, with the phase bodies inlined so the engine-level
        hoists (heaps, widths, latencies, stats) happen once per
        *episode* rather than once per phase call per cycle, and the
        batched issue/dispatch/commit totals flush once per episode.
        Unlike the single-threadlet monolith, engine state stays
        canonical on ``self`` *between phases*: epoch handover, conflict
        squashes and hint-spawns all run through out-of-line helpers
        (``_threadlet_commit``, ``_fast_fetch_threadlet``) that read and
        mutate the engine directly, so occupancy counters are only
        localized within a phase.  The episode ends when the population
        returns to one (handover, squash, program end), the budget
        expires, or sequential progress reaches ``stop_at``.
        """
        stats = self.stats
        completions = self.completions
        ready = self.ready
        heappop = heapq.heappop
        heappush = heapq.heappush
        core = self.core
        commit_width = core.commit_width
        issue_width = core.issue_width
        dispatch_width = core.dispatch_width
        fetch_width = core.fetch_width
        rob_size = core.rob_size
        iq_size = core.iq_size
        lq_size = core.lq_size
        sq_size = core.sq_size
        int_size = core.int_phys_regs
        fp_size = core.fp_phys_regs
        latency = self._fu_latency_by_index
        ports_template = self._fu_ports_template
        lf_enabled = self.lf.enabled
        ssb_read_latency = self.lf.ssb_read_latency
        ssb_write_latency = self.lf.ssb_write_latency
        g = self.lf.granule_bytes
        access_data = self.hierarchy.access_data
        threadlets = self.threadlets
        fetch_threadlet = self._fast_fetch_threadlet
        skip_idle = self._skip_idle
        running = ThreadletState.RUNNING
        halted_state = ThreadletState.HALTED
        start_cycle = self.cycle
        issued_total = 0
        dispatched_total = 0

        while True:
            cycle = self.cycle
            if cycle >= max_cycles:
                break
            cycle += 1
            self.cycle = cycle
            self._progress = 0
            progress = 0
            committed = False  # sequential progress may have moved
            order = self.order

            # --- completions ---
            if completions and completions[0][0] <= cycle:
                while completions and completions[0][0] <= cycle:
                    _, _, pi = heappop(completions)
                    progress += 1
                    if pi.squashed:
                        continue
                    for consumer in pi.consumers:
                        if consumer.squashed or consumer.issued:
                            continue
                        consumer.num_pending -= 1
                        if consumer.num_pending <= 0 and consumer.dispatched:
                            heappush(ready, (consumer.seq, consumer))

            # --- commit ---
            budget = commit_width
            finished_now = False
            for t in order:
                inflight = t.inflight
                if inflight:
                    is_arch = t.is_arch
                    rob_used = self.rob_used
                    lq_used = self.lq_used
                    sq_used = self.sq_used
                    int_used = self.int_regs_used
                    fp_used = self.fp_regs_used
                    arch_count = 0
                    spec_count = 0
                    halted = False
                    while budget > 0 and inflight:
                        pi = inflight[0]
                        if not (pi.ready_cycle <= cycle):
                            break
                        inflight.popleft()
                        rob_used -= 1
                        if pi.is_load:
                            lq_used -= 1
                        if pi.is_store:
                            sq_used -= 1
                        if pi.has_dest:
                            if pi.dest_is_fp:
                                fp_used -= 1
                            else:
                                int_used -= 1
                        pi.committed = True
                        budget -= 1
                        progress += 1
                        if is_arch:
                            arch_count += 1
                            if pi.is_halt:
                                halted = True
                                break
                        else:
                            spec_count += 1
                    self.rob_used = rob_used
                    self.lq_used = lq_used
                    self.sq_used = sq_used
                    self.int_regs_used = int_used
                    self.fp_regs_used = fp_used
                    t.epoch_committed += arch_count + spec_count
                    if arch_count:
                        stats.arch_instructions += arch_count
                        region = t.stat_region
                        if region is not None:
                            stats.region(region).arch_instructions += arch_count
                        committed = True
                    if spec_count:
                        t.committed_while_spec += spec_count
                    if halted:
                        self._finish()
                        finished_now = True
                        break
                if t.faulted and t.is_arch and not t.inflight and t.fetch_done:
                    if issued_total:
                        stats.issued_instructions += issued_total
                    if dispatched_total:
                        stats.dispatched_instructions += dispatched_total
                    raise ExecutionError(
                        f"{self.program.name}: architectural fault: {t.faulted}"
                    )
            if finished_now:
                break

            # --- threadlet commit ---
            # Inlined entry gate: the helper only acts when the oldest
            # threadlet is fully drained and either finished the program
            # or halted its epoch; anything else returns after the same
            # checks.  It may pop/rebind ``order`` (handover) or finish
            # the program (_finish flushes the cycle-stat run), so
            # re-read both afterwards.
            t0 = order[0]
            if not t0.inflight and not t0.fetch_queue and (
                (t0.fetch_done and t0.faulted is None)
                or t0.state is halted_state
            ):
                # No finished check here: like step(), the remaining
                # phases (and this cycle's stats) still run after a
                # program-end _finish; the loop exits at the cycle's end.
                self._threadlet_commit()
                order = self.order
                committed = True

            # --- issue ---
            if ready:
                budget = issue_width
                ports = ports_template[:]
                retry: List[Tuple[int, PipelineInstr]] = []
                issued = 0
                while budget > 0 and ready:
                    seq, pi = heappop(ready)
                    if pi.squashed or pi.issued:
                        continue
                    ci = pi.op_index
                    if ports[ci] <= 0:
                        retry.append((seq, pi))
                        continue
                    ports[ci] -= 1
                    budget -= 1
                    pi.issued = True
                    issued += 1
                    done_at = cycle + latency[ci]
                    if pi.is_load:
                        fill = access_data(pi.mem_addr, cycle, False, pi.pc)
                        if lf_enabled and not threadlets[pi.slot].is_arch:
                            done_at = max(cycle + ssb_read_latency, fill)
                        else:
                            done_at = max(done_at, fill)
                    elif pi.is_store:
                        if lf_enabled and not threadlets[pi.slot].is_arch:
                            done_at = cycle + ssb_write_latency
                        else:
                            access_data(pi.mem_addr, cycle, True, pi.pc)
                            done_at = cycle + 1
                    pi.ready_cycle = done_at
                    heappush(completions, (done_at, seq, pi))
                for item in retry:
                    heappush(ready, item)
                self.iq_used -= issued
                issued_total += issued
                progress += issued

            # --- dispatch ---
            if self.rob_used < rob_size and self.iq_used < iq_size:
                budget = dispatch_width
                rob_used = self.rob_used
                iq_used = self.iq_used
                lq_used = self.lq_used
                sq_used = self.sq_used
                int_used = self.int_regs_used
                fp_used = self.fp_regs_used
                dispatched = 0
                for t in order:
                    fetch_queue = t.fetch_queue
                    if not fetch_queue:
                        continue
                    rename = t.rename
                    inflight = t.inflight
                    store_writers = t.store_writers
                    while budget > 0 and fetch_queue:
                        pi = fetch_queue[0]
                        if rob_used >= rob_size or iq_used >= iq_size:
                            budget = 0
                            break
                        is_load = pi.is_load
                        is_store = pi.is_store
                        if is_load and lq_used >= lq_size:
                            break
                        if is_store and sq_used >= sq_size:
                            break
                        instr = pi.instr
                        if pi.has_dest:
                            if pi.dest_is_fp:
                                if fp_used >= fp_size:
                                    budget = 0
                                    break
                                fp_used += 1
                            else:
                                if int_used >= int_size:
                                    budget = 0
                                    break
                                int_used += 1
                        fetch_queue.popleft()
                        rob_used += 1
                        iq_used += 1
                        if is_load:
                            lq_used += 1
                        if is_store:
                            sq_used += 1
                        deps: Optional[List[PipelineInstr]] = None
                        for reg in instr._reads:
                            producer = rename.get(reg)
                            if (
                                producer is not None
                                and not producer.squashed
                                and not (producer.ready_cycle <= cycle)
                            ):
                                if deps is None:
                                    deps = [producer]
                                else:
                                    deps.append(producer)
                        if is_load and (store_writers or pi.mem_dep_writers):
                            seq = pi.seq
                            mem_addr = pi.mem_addr
                            for granule in range(
                                mem_addr // g,
                                (mem_addr + pi.mem_size - 1) // g + 1,
                            ):
                                writer = store_writers.get(granule)
                                if (
                                    writer is not None
                                    and writer.seq < seq
                                    and not writer.squashed
                                    and not (writer.ready_cycle <= cycle)
                                ):
                                    if deps is None:
                                        deps = [writer]
                                    else:
                                        deps.append(writer)
                            for writer in pi.mem_dep_writers:
                                if (
                                    writer is not None
                                    and writer.seq < seq
                                    and not writer.squashed
                                    and not (writer.ready_cycle <= cycle)
                                ):
                                    if deps is None:
                                        deps = [writer]
                                    else:
                                        deps.append(writer)
                        if deps is not None:
                            if len(deps) == 1:
                                unique_deps = deps
                            else:
                                unique_deps = []
                                seen: Set[int] = set()
                                for dep in deps:
                                    if id(dep) not in seen:
                                        seen.add(id(dep))
                                        unique_deps.append(dep)
                            pi.num_pending = len(unique_deps)
                            for dep in unique_deps:
                                dep.consumers.append(pi)
                        for reg in instr._writes:
                            rename[reg] = pi
                        pi.dispatched = True
                        inflight.append(pi)
                        dispatched += 1
                        if pi.num_pending == 0:
                            heappush(ready, (pi.seq, pi))
                        budget -= 1
                    if budget <= 0:
                        break
                self.rob_used = rob_used
                self.iq_used = iq_used
                self.lq_used = lq_used
                self.sq_used = sq_used
                self.int_regs_used = int_used
                self.fp_regs_used = fp_used
                dispatched_total += dispatched
                progress += dispatched

            # --- fetch ---
            budget = fetch_width
            for t in list(order):
                if budget <= 0:
                    break
                if t.state is not running or t.fetch_done:
                    continue
                if len(t.fetch_queue) >= t.fetch_queue_size:
                    continue
                br = t.fetch_stall_branch
                if br is None:
                    if t.fetch_stall_until > cycle:
                        continue
                elif not br.squashed and not (
                    br.ready_cycle <= cycle
                ):
                    continue
                budget = fetch_threadlet(t, budget)

            # --- per-cycle stats ---
            order = self.order  # hints may have spawned or squashed
            active = len(order)
            region = order[0].stat_region
            if active == self._pcs_active and region == self._pcs_region:
                self._pcs_count += 1
            else:
                if self._pcs_count:
                    self._flush_cycle_stats()
                self._pcs_active = active
                self._pcs_region = region
                self._pcs_count = 1

            if self.finished or active == 1:
                break
            if committed and (
                stats.arch_instructions + stats.spec_committed_instructions
                >= stop_at
            ):
                break
            if progress == 0 and self._progress == 0 and not ready:
                skip_idle(max_cycles)
        if issued_total:
            stats.issued_instructions += issued_total
        if dispatched_total:
            stats.dispatched_instructions += dispatched_total
        self.ep_episodes_multi += 1
        self.ep_cycles_multi += self.cycle - start_cycle

    def _ep_run_single(self, max_cycles: int, stop_at: int) -> None:
        """Run one single-threadlet episode (cross-cycle monolith).

        Mirrors the reference :meth:`step` for ``order == [t]``
        gate-for-gate: the per-phase ``order`` iterations collapse to
        direct accesses, and the per-cycle prologue/epilogue (attribute
        hoisting, occupancy-counter loads and stores, batched-stat
        writebacks) runs once per *episode* instead of once per cycle:
        the cycle counter, sequence number, occupancy counters,
        per-cycle-stat run-length state and the batched
        fetch/dispatch/issue totals all live in locals across cycles.
        This is sound because a lone threadlet's episode
        invariants hold until the population changes: ``order[0]`` has
        ``successor is None`` (successors always live in ``order``), so
        no handover, squash, or restart can rebind the hoisted
        threadlet containers mid-episode, and the out-of-line calls
        that could (hint handling, program finish) get a full state
        writeback first.  The cross-cycle L1I line memo is exact: an
        L1I hit's only side effect is re-stamping the line's LRU entry,
        and while the memo is valid the line is already the
        most-recently-used line in its set (no other fetch touches the
        L1I — prefetchers fill L1D/L2 only), so the skipped re-stamp
        cannot change any replacement decision; data traffic never
        touches L1I state, so no invalidation is needed.
        """
        # --- episode prologue: engine-level hoists -----------------------
        order = self.order
        t = order[0]
        core = self.core
        stats = self.stats
        completions = self.completions
        ready = self.ready
        heappop = heapq.heappop
        heappush = heapq.heappush
        commit_width = core.commit_width
        issue_width = core.issue_width
        dispatch_width = core.dispatch_width
        fetch_width = core.fetch_width
        rob_size = core.rob_size
        iq_size = core.iq_size
        lq_size = core.lq_size
        sq_size = core.sq_size
        int_size = core.int_phys_regs
        fp_size = core.fp_phys_regs
        mispredict_penalty = core.mispredict_penalty
        btb_miss_penalty = core.btb_miss_penalty
        latency = self._fu_latency_by_index
        ports_template = self._fu_ports_template
        lf_enabled = self.lf.enabled
        ssb_read_latency = self.lf.ssb_read_latency
        ssb_write_latency = self.lf.ssb_write_latency
        access_data = self.hierarchy.access_data
        access_instruction = self.hierarchy.access_instruction
        predict_instruction = self.predictor.predict_instruction
        fp = self._fast_prog
        handlers = fp.handlers
        flags = fp.flags
        instructions = self._instructions
        program_len = self._program_len
        line_size = self.machine.memory.line_size
        out = self._exec_out
        running = ThreadletState.RUNNING
        halted_state = ThreadletState.HALTED

        # --- threadlet-level hoists (stable per the episode invariants) --
        slot = t.slot
        regs = t.regs
        fetch_queue = t.fetch_queue
        queue_size = t.fetch_queue_size
        inflight = t.inflight
        rename = t.rename
        store_writers = t.store_writers
        regs_written = t.regs_written
        read_before_write = t.regs_read_before_write
        pcs_tracked = t.pcs_tracked
        is_arch = t.is_arch
        cached_view = t.mem_view
        if cached_view is not None and cached_view[0] is is_arch:
            view = cached_view[1]
        else:
            view = self._view_for(t)
        g = self.lf.granule_bytes

        # --- cross-cycle state: lives in locals until writeback ----------
        start_cycle = cycle = self.cycle
        seq = self.seq
        rob_used = self.rob_used
        iq_used = self.iq_used
        lq_used = self.lq_used
        sq_used = self.sq_used
        int_used = self.int_regs_used
        fp_used = self.fp_regs_used
        pcs_active = self._pcs_active
        pcs_region = self._pcs_region
        pcs_count = self._pcs_count
        epoch_fetched = t.epoch_fetched
        fetched_total = 0
        dispatched_total = 0
        issued_total = 0
        last_line = -1  # cross-cycle L1I line memo (docstring argument)
        last_ready = 0
        # Sequential progress target: a lone threadlet's episode cannot
        # hand over, so only arch commits move progress toward it.
        stop_arch = stop_at - stats.spec_committed_instructions
        reached = False

        while True:
            if cycle >= max_cycles:
                break  # writeback below; _run_loop raises on the budget
            cycle += 1
            progress = 0

            # --- completions ---
            if completions and completions[0][0] <= cycle:
                while completions and completions[0][0] <= cycle:
                    _, _, pi = heappop(completions)
                    progress += 1
                    if pi.squashed:
                        continue
                    for consumer in pi.consumers:
                        if consumer.squashed or consumer.issued:
                            continue
                        consumer.num_pending -= 1
                        if consumer.num_pending <= 0 and consumer.dispatched:
                            heappush(ready, (consumer.seq, consumer))

            # --- commit ---
            if inflight and (pi := inflight[0]).ready_cycle <= cycle:
                budget = commit_width
                arch_count = 0
                spec_count = 0
                halted_prog = False
                while True:
                    inflight.popleft()
                    rob_used -= 1
                    if pi.is_load:
                        lq_used -= 1
                    if pi.is_store:
                        sq_used -= 1
                    if pi.has_dest:
                        if pi.dest_is_fp:
                            fp_used -= 1
                        else:
                            int_used -= 1
                    pi.committed = True
                    budget -= 1
                    progress += 1
                    if is_arch:
                        arch_count += 1
                        if pi.is_halt:
                            halted_prog = True
                            break
                    else:
                        spec_count += 1
                    if budget <= 0 or not inflight:
                        break
                    pi = inflight[0]
                    if not (pi.ready_cycle <= cycle):
                        break
                t.epoch_committed += arch_count + spec_count
                if arch_count:
                    stats.arch_instructions += arch_count
                    region = t.stat_region
                    if region is not None:
                        stats.region(region).arch_instructions += arch_count
                    if stats.arch_instructions >= stop_arch:
                        reached = True  # stop after this cycle's stats
                if spec_count:
                    t.committed_while_spec += spec_count
                if halted_prog:
                    # Program HALT committed: like the reference step,
                    # the cycle ends here (no later phases, no per-cycle
                    # stats for this cycle).  Full writeback, then finish.
                    self.cycle = cycle
                    self.seq = seq
                    self.rob_used = rob_used
                    self.iq_used = iq_used
                    self.lq_used = lq_used
                    self.sq_used = sq_used
                    self.int_regs_used = int_used
                    self.fp_regs_used = fp_used
                    self._pcs_active = pcs_active
                    self._pcs_region = pcs_region
                    self._pcs_count = pcs_count
                    t.epoch_fetched = epoch_fetched
                    if fetched_total:
                        stats.fetched_instructions += fetched_total
                    if dispatched_total:
                        stats.dispatched_instructions += dispatched_total
                    if issued_total:
                        stats.issued_instructions += issued_total
                    self._finish()
                    self.ep_episodes_single += 1
                    self.ep_cycles_single += cycle - start_cycle
                    return
            if t.faulted and is_arch and not inflight and t.fetch_done:
                self.cycle = cycle
                self.seq = seq
                self.rob_used = rob_used
                self.iq_used = iq_used
                self.lq_used = lq_used
                self.sq_used = sq_used
                self.int_regs_used = int_used
                self.fp_regs_used = fp_used
                self._pcs_active = pcs_active
                self._pcs_region = pcs_region
                self._pcs_count = pcs_count
                t.epoch_fetched = epoch_fetched
                if fetched_total:
                    stats.fetched_instructions += fetched_total
                if dispatched_total:
                    stats.dispatched_instructions += dispatched_total
                if issued_total:
                    stats.issued_instructions += issued_total
                raise ExecutionError(
                    f"{self.program.name}: architectural fault: {t.faulted}"
                )

            # --- threadlet commit ---
            finishing = False
            if not inflight and not fetch_queue:
                if t.fetch_done and t.faulted is None:
                    # Program end: the reference step runs the remaining
                    # phases this cycle after _finish, so fall through.
                    # _finish flushes the cycle-stat run through the
                    # engine attributes -> full writeback first, then
                    # re-seed the flushed accumulators.
                    self.cycle = cycle
                    self.seq = seq
                    self.rob_used = rob_used
                    self.iq_used = iq_used
                    self.lq_used = lq_used
                    self.sq_used = sq_used
                    self.int_regs_used = int_used
                    self.fp_regs_used = fp_used
                    self._pcs_active = pcs_active
                    self._pcs_region = pcs_region
                    self._pcs_count = pcs_count
                    t.epoch_fetched = epoch_fetched
                    if fetched_total:
                        stats.fetched_instructions += fetched_total
                        fetched_total = 0
                    if dispatched_total:
                        stats.dispatched_instructions += dispatched_total
                        dispatched_total = 0
                    if issued_total:
                        stats.issued_instructions += issued_total
                        issued_total = 0
                    self._finish()
                    pcs_count = 0  # _finish flushed the run
                    finishing = True
                elif t.state is halted_state:
                    # Provably a no-op for a lone threadlet (successor is
                    # None), but mirror the reference step's call: it reads
                    # ``self.cycle`` for the conflict-check gate.
                    self.cycle = cycle
                    self._threadlet_commit()

            # --- issue ---
            if ready:
                budget = issue_width
                ports = ports_template[:]
                retry: List[Tuple[int, PipelineInstr]] = []
                issued = 0
                while budget > 0 and ready:
                    iseq, pi = heappop(ready)
                    if pi.squashed or pi.issued:
                        continue
                    ci = pi.op_index
                    if ports[ci] <= 0:
                        retry.append((iseq, pi))
                        continue
                    ports[ci] -= 1
                    budget -= 1
                    pi.issued = True
                    issued += 1
                    done_at = cycle + latency[ci]
                    # Every live pipeline instr belongs to t here, so
                    # ``threadlets[pi.slot].is_arch`` is the hoisted flag.
                    if pi.is_load:
                        fill = access_data(pi.mem_addr, cycle, False, pi.pc)
                        if lf_enabled and not is_arch:
                            done_at = max(cycle + ssb_read_latency, fill)
                        else:
                            done_at = max(done_at, fill)
                    elif pi.is_store:
                        if lf_enabled and not is_arch:
                            done_at = cycle + ssb_write_latency
                        else:
                            access_data(pi.mem_addr, cycle, True, pi.pc)
                            done_at = cycle + 1
                    pi.ready_cycle = done_at
                    heappush(completions, (done_at, iseq, pi))
                for item in retry:
                    heappush(ready, item)
                iq_used -= issued
                issued_total += issued
                progress += issued

            # --- dispatch ---
            if fetch_queue and rob_used < rob_size and iq_used < iq_size:
                budget = dispatch_width
                dispatched = 0
                while budget > 0 and fetch_queue:
                    pi = fetch_queue[0]
                    if rob_used >= rob_size or iq_used >= iq_size:
                        break
                    is_load = pi.is_load
                    is_store = pi.is_store
                    if is_load and lq_used >= lq_size:
                        break
                    if is_store and sq_used >= sq_size:
                        break
                    instr = pi.instr
                    if pi.has_dest:
                        if pi.dest_is_fp:
                            if fp_used >= fp_size:
                                break
                            fp_used += 1
                        else:
                            if int_used >= int_size:
                                break
                            int_used += 1
                    fetch_queue.popleft()
                    rob_used += 1
                    iq_used += 1
                    if is_load:
                        lq_used += 1
                    if is_store:
                        sq_used += 1
                    deps: Optional[List[PipelineInstr]] = None
                    for reg in instr._reads:
                        producer = rename.get(reg)
                        if (
                            producer is not None
                            and not producer.squashed
                            and not (producer.ready_cycle <= cycle)
                        ):
                            if deps is None:
                                deps = [producer]
                            else:
                                deps.append(producer)
                    if is_load and (store_writers or pi.mem_dep_writers):
                        dseq = pi.seq
                        mem_addr = pi.mem_addr
                        for granule in range(
                            mem_addr // g, (mem_addr + pi.mem_size - 1) // g + 1
                        ):
                            writer = store_writers.get(granule)
                            if (
                                writer is not None
                                and writer.seq < dseq
                                and not writer.squashed
                                and not (writer.ready_cycle <= cycle)
                            ):
                                if deps is None:
                                    deps = [writer]
                                else:
                                    deps.append(writer)
                        for writer in pi.mem_dep_writers:
                            if (
                                writer is not None
                                and writer.seq < dseq
                                and not writer.squashed
                                and not (writer.ready_cycle <= cycle)
                            ):
                                if deps is None:
                                    deps = [writer]
                                else:
                                    deps.append(writer)
                    if deps is not None:
                        if len(deps) == 1:
                            unique_deps = deps
                        else:
                            unique_deps = []
                            seen: Set[int] = set()
                            for dep in deps:
                                if id(dep) not in seen:
                                    seen.add(id(dep))
                                    unique_deps.append(dep)
                        pi.num_pending = len(unique_deps)
                        for dep in unique_deps:
                            dep.consumers.append(pi)
                    for reg in instr._writes:
                        rename[reg] = pi
                    pi.dispatched = True
                    inflight.append(pi)
                    dispatched += 1
                    if pi.num_pending == 0:
                        heappush(ready, (pi.seq, pi))
                    budget -= 1
                dispatched_total += dispatched
                progress += dispatched

            # --- fetch ---
            if t.state is running and not t.fetch_done \
                    and len(fetch_queue) < queue_size:
                br = t.fetch_stall_branch
                if br is None:
                    can_fetch = t.fetch_stall_until <= cycle
                else:
                    can_fetch = br.squashed or (
                        br.ready_cycle <= cycle
                    )
                if can_fetch:
                    budget = fetch_width
                    fetched = 0
                    while budget > 0:
                        if t.fetch_done or t.state is not running:
                            break
                        if len(fetch_queue) >= queue_size:
                            break
                        branch = t.fetch_stall_branch
                        if branch is not None:
                            if branch.squashed:
                                t.fetch_stall_branch = None
                            elif (branch.ready_cycle <= cycle):
                                t.fetch_stall_branch = None
                                t.fetch_stall_until = (
                                    branch.ready_cycle + mispredict_penalty
                                )
                            else:
                                break
                        if t.fetch_stall_until > cycle:
                            break
                        pc = t.pc
                        if not 0 <= pc < program_len:
                            t.faulted = f"pc {pc} out of range"
                            t.fetch_done = True
                            break

                        line = (pc * 4) // line_size
                        if line == last_line:
                            ready_at = last_ready
                        else:
                            ready_at = access_instruction(pc, cycle)
                            last_line = line
                            last_ready = ready_at
                        if ready_at > cycle + 1:
                            t.fetch_stall_until = ready_at
                            break

                        fl = flags[pc]
                        instr = instructions[pc]

                        if fl & FLAG_STORE and not is_arch and lf_enabled:
                            addr = int(regs[instr.srcs[1]]) + int(instr.imm or 0)
                            if not self._ssb_can_accept(t, addr, instr.size):
                                t.ssb_stalled = True
                                self._region_stats(t).ssb_stall_cycles += 1
                                break
                        t.ssb_stalled = False

                        pi = PipelineInstr(seq, slot, pc, instr)
                        seq += 1

                        if pc in pcs_tracked:
                            track = False
                        else:
                            pcs_tracked.add(pc)
                            track = True
                            for reg in instr._reads:
                                if reg not in regs_written:
                                    read_before_write.add(reg)

                        if fl & FLAG_HALT:
                            t.fetch_done = True
                            fetch_queue.append(pi)
                            epoch_fetched += 1
                            fetched += 1
                            budget -= 1
                            continue

                        try:
                            if fl & FLAG_MEM:
                                self._current_pi = pi
                                if fl & FLAG_LOAD:
                                    self._last_writers = []
                                    next_pc = handlers[pc](regs, view, out)
                                    pi.mem_dep_writers = self._last_writers
                                else:
                                    next_pc = handlers[pc](regs, view, out)
                                pi.mem_addr = out[0]
                                pi.mem_size = instr.size
                            else:
                                next_pc = handlers[pc](regs, view, out)
                        except ExecutionError as exc:
                            t.faulted = str(exc)
                            t.fetch_done = True
                            budget -= 1
                            break
                        if track:
                            regs_written.update(instr._writes)

                        taken = False
                        if fl & FLAG_BRANCH:
                            taken = out[1]
                            pi.taken = taken
                            stats.branches += 1
                            correct, target_known = predict_instruction(
                                pc, instr, taken, next_pc, slot
                            )
                            if not correct:
                                stats.branch_mispredicts += 1
                                pi.mispredicted = True
                                t.fetch_stall_branch = pi
                            elif taken and not target_known:
                                stats.btb_misses += 1
                                t.fetch_stall_until = cycle + btb_miss_penalty

                        fetch_queue.append(pi)
                        epoch_fetched += 1
                        fetched += 1
                        t.pc = next_pc

                        if fl & FLAG_HINT:
                            # Hint handling reads cycle/seq/epoch_fetched
                            # through the engine (spawn decisions, packer
                            # training, trace events): sync them first,
                            # then re-read ``order`` — a detach appends a
                            # successor in place.
                            self.cycle = cycle
                            self.seq = seq
                            t.epoch_fetched = epoch_fetched
                            self._handle_hint(t, instr)
                            order = self.order
                        budget -= 1
                        if taken:
                            break  # at most one taken branch per cycle
                    fetched_total += fetched
                    progress += fetched

            # --- per-cycle stats (run-length batched in locals) ---
            active = len(order)
            region = t.stat_region
            if active == pcs_active and region == pcs_region:
                pcs_count += 1
            else:
                if pcs_count:
                    hist = stats.active_threadlet_cycles
                    hist[pcs_active] = hist.get(pcs_active, 0) + pcs_count
                    if pcs_region is not None:
                        stats.region(pcs_region).arch_cycles += pcs_count
                pcs_active = active
                pcs_region = region
                pcs_count = 1

            if finishing or reached:
                break
            if active != 1:
                break  # a detach spawned: the episode is over

            # --- idle skip (single-threadlet _skip_idle, inlined) ---
            if progress == 0 and not ready and not t.ssb_stalled:
                wake = completions[0][0] if completions else None
                can_skip = True
                if t.state is running and not t.fetch_done \
                        and len(fetch_queue) < queue_size \
                        and t.fetch_stall_branch is None:
                    stall = t.fetch_stall_until
                    if stall <= cycle + 1:
                        can_skip = False
                    elif wake is None or stall < wake:
                        wake = stall
                if can_skip and wake is not None and wake > cycle + 1:
                    if wake > max_cycles:
                        wake = max_cycles
                    if wake > cycle + 1:
                        pcs_count += wake - cycle - 1
                        cycle = wake - 1

        # --- episode writeback -------------------------------------------
        self.cycle = cycle
        self.seq = seq
        self.rob_used = rob_used
        self.iq_used = iq_used
        self.lq_used = lq_used
        self.sq_used = sq_used
        self.int_regs_used = int_used
        self.fp_regs_used = fp_used
        self._pcs_active = pcs_active
        self._pcs_region = pcs_region
        self._pcs_count = pcs_count
        t.epoch_fetched = epoch_fetched
        if fetched_total:
            stats.fetched_instructions += fetched_total
        if dispatched_total:
            stats.dispatched_instructions += dispatched_total
        if issued_total:
            stats.issued_instructions += issued_total
        self.ep_episodes_single += 1
        self.ep_cycles_single += cycle - start_cycle

    def step(self) -> None:
        """Advance the machine by one cycle."""
        self.cycle += 1
        self._process_completions()
        self._commit()
        if self.finished:
            return
        self._threadlet_commit()
        self._issue()
        self._dispatch()
        self._fetch()
        self._per_cycle_stats()

    # ------------------------------------------------------------------
    # Memory views (functional access at fetch)
    # ------------------------------------------------------------------

    # The optimized mode reads the per-slot orders from caches recomputed
    # only when ``order`` mutates (_order_changed below), not on every
    # speculative memory access; the reference mode derives them from
    # ``order`` each time.  The cached lists are read-only to all
    # consumers (SSB versioned reads, conflict-detector write checks).

    def _older_slots(self, threadlet: Threadlet) -> List[int]:
        if not self.reference_mode:
            return self._older_cache[threadlet.slot]
        idx = self.order.index(threadlet)
        return [t.slot for t in reversed(self.order[:idx])]

    def _younger_slots(self, threadlet: Threadlet) -> List[int]:
        if not self.reference_mode:
            return self._younger_cache[threadlet.slot]
        idx = self.order.index(threadlet)
        return [t.slot for t in self.order[idx + 1 :]]

    def _order_changed(self) -> None:
        """Rebuild the slot-order caches; called at every ``order``
        mutation site (spawn, squash refresh, threadlet commit, finish).
        Mutating the order is pipeline progress, so this also feeds the
        multi-threadlet episode's idle detector."""
        self._progress += 1
        older = self._older_cache
        younger = self._younger_cache
        order = self.order
        n = len(order)
        for i in range(n):
            slot = order[i].slot
            older[slot] = [order[j].slot for j in range(i - 1, -1, -1)]
            younger[slot] = [order[j].slot for j in range(i + 1, n)]

    def _spec_load(self, t: Threadlet, addr: int, size: int) -> int:
        result = self.ssb.read(addr, size, self._older_slots(t), t.slot)
        self.conflicts.on_speculative_read(t.slot, addr, size)
        self.stats.ssb_reads += 1
        if result.forwarded_from:
            self.stats.ssb_forwards += 1
        self._last_writers = list(result.writers)
        return result.value

    def _spec_store(self, t: Threadlet, addr: int, size: int, value: int) -> None:
        pi_writer = self._current_pi  # the instruction being fetched
        accepted = self.ssb.write(t.slot, addr, size, value, pi_writer)
        if not accepted:
            raise AssertionError("SSB overflow must be pre-checked in fetch")
        self.stats.ssb_writes += 1
        g = self.lf.granule_bytes
        first_granule = addr // g
        last_granule = (addr + size - 1) // g
        # Sub-granule stores read-modify-write the whole granule: the read
        # that fills the unwritten bytes joins the read set and can cause
        # false-sharing conflicts (section 4.1.1).  This is what makes
        # large granules hurt in figure 10.
        if addr % g or size % g:
            end = addr + size
            for granule in range(first_granule, last_granule + 1):
                g_start = granule * g
                if addr > g_start or end < g_start + g:
                    self.conflicts.on_speculative_read(t.slot, g_start, g)
        victim = self.conflicts.on_write(
            t.slot, addr, size, self._younger_slots(t)
        )
        if victim is not None:
            self._squash_restart(self._by_slot(victim), reason="conflict")
        store_writers = t.store_writers
        for granule in range(first_granule, last_granule + 1):
            store_writers[granule] = pi_writer

    def _arch_load(self, t: Threadlet, addr: int, size: int) -> int:
        # Architectural reads come straight from memory; no RD-set update is
        # needed (nothing older can write), see section 4.2.
        return self.memory.load(addr, size)

    def _arch_store(self, t: Threadlet, addr: int, size: int, value: int) -> None:
        self.memory.store(addr, size, value)
        victim = self.conflicts.on_write(
            t.slot, addr, size, self._younger_slots(t)
        )
        if victim is not None:
            self._squash_restart(self._by_slot(victim), reason="conflict")
        g = self.lf.granule_bytes
        pi_writer = self._current_pi
        store_writers = t.store_writers
        for granule in range(addr // g, (addr + size - 1) // g + 1):
            store_writers[granule] = pi_writer

    def _by_slot(self, slot: int) -> Threadlet:
        return self.threadlets[slot]

    # ------------------------------------------------------------------
    # Fetch (functional execution + front-end timing)
    # ------------------------------------------------------------------

    def _fetch(self) -> None:
        budget = self.core.fetch_width
        running = ThreadletState.RUNNING
        for t in list(self.order):
            if budget <= 0:
                break
            # Only RUNNING threadlets fetch (HALTED/FREE/faulted ones do not).
            if t.state is not running:
                continue
            budget = self._fetch_threadlet(t, budget)

    def _fetch_threadlet(self, t: Threadlet, budget: int) -> int:
        cycle = self.cycle
        program = self._instructions
        program_len = self._program_len
        hierarchy = self.hierarchy
        running = ThreadletState.RUNNING
        fetch_queue = t.fetch_queue
        queue_size = t.fetch_queue_size
        lf_enabled = self.lf.enabled
        while budget > 0:
            if t.fetch_done or t.state is not running:
                break
            if len(fetch_queue) >= queue_size:
                break
            # Mispredicted-branch gate: wait for resolution + redirect.
            branch = t.fetch_stall_branch
            if branch is not None:
                if branch.squashed:
                    t.fetch_stall_branch = None
                elif branch.done(cycle):
                    t.fetch_stall_branch = None
                    t.fetch_stall_until = (
                        branch.ready_cycle + self.core.mispredict_penalty
                    )
                else:
                    break
            if t.fetch_stall_until > cycle:
                break
            if not 0 <= t.pc < program_len:
                t.faulted = f"pc {t.pc} out of range"
                t.fetch_done = True
                break

            # Instruction cache: a hit (latency 1) does not stall fetch.
            ready = hierarchy.access_instruction(t.pc, cycle)
            if ready > cycle + 1:
                t.fetch_stall_until = ready
                break

            instr = program[t.pc]

            # SSB capacity pre-check for speculative stores: a full slice
            # stalls the threadlet (writes can never be dropped, 4.1.2).
            if instr.is_store and not t.is_arch and lf_enabled:
                addr = int(t.regs[instr.srcs[1]]) + int(instr.imm or 0)
                if not self._ssb_can_accept(t, addr, instr.size):
                    t.ssb_stalled = True
                    self._region_stats(t).ssb_stall_cycles += 1
                    break
            t.ssb_stalled = False

            consumed = self._fetch_one(t, instr)
            budget -= 1
            if not consumed:
                break
            if fetch_queue and fetch_queue[-1].taken:
                break  # at most one taken branch per threadlet per cycle
        return budget

    def _ssb_can_accept(self, t: Threadlet, addr: int, size: int) -> bool:
        budget = self.ssb.victim_capacity - self.ssb._victim_in_use
        sl = self.ssb.slice(t.slot)
        first = addr // sl.line_bytes
        last = (addr + size - 1) // sl.line_bytes
        for line_addr in range(first, last + 1):
            ok, use_victim = sl._can_take_line(line_addr, budget)
            if not ok:
                return False
            if use_victim:
                budget -= 1
        return True

    def _fetch_one(self, t: Threadlet, instr: Instruction) -> bool:
        """Functionally execute and enqueue one instruction for ``t``."""
        cycle = self.cycle
        stats = self.stats
        pi = PipelineInstr(self.seq, t.slot, t.pc, instr)
        self.seq += 1
        self._current_pi = pi
        self._last_writers = []

        t.note_register_reads(instr._reads)

        if instr.opcode is Opcode.HALT:
            t.fetch_done = True
            t.fetch_queue.append(pi)
            t.epoch_fetched += 1
            stats.fetched_instructions += 1
            return True

        view = self._view_for(t)
        try:
            result = _EXEC_DISPATCH[instr.opcode_index](instr, t.regs, view, t.pc)
        except ExecutionError as exc:
            t.faulted = str(exc)
            t.fetch_done = True
            return False
        t.note_register_writes(instr._writes)

        pi.mem_addr = result.mem_addr
        pi.mem_size = result.mem_size
        pi.taken = result.taken
        if instr.is_load:
            pi.mem_dep_writers = self._last_writers

        # Branch prediction accounting.
        if instr.is_branch:
            stats.branches += 1
            correct, target_known = self.predictor.predict_instruction(
                t.pc, instr, result.taken, result.next_pc, t.slot
            )
            if not correct:
                stats.branch_mispredicts += 1
                pi.mispredicted = True
                t.fetch_stall_branch = pi
            elif result.taken and not target_known:
                stats.btb_misses += 1
                t.fetch_stall_until = cycle + self.core.btb_miss_penalty

        t.fetch_queue.append(pi)
        t.epoch_fetched += 1
        stats.fetched_instructions += 1
        t.pc = result.next_pc

        # LoopFrog hint semantics (section 3.1).
        if instr.is_hint:
            self._handle_hint(t, instr)
        return True

    def _view_for(self, t: Threadlet):
        cached = t.mem_view
        if cached is not None and cached[0] is t.is_arch:
            return cached[1]
        view = (_ArchMemView if t.is_arch else _SpecMemView)(self, t)
        t.mem_view = (t.is_arch, view)
        return view

    # ------------------------------------------------------------------
    # Hints: detach / reattach / sync
    # ------------------------------------------------------------------

    def _handle_hint(self, t: Threadlet, instr: Instruction) -> None:
        region = instr.region_index
        op = instr.opcode

        if op is Opcode.DETACH:
            if t.region is None and t.stat_region is None:
                t.stat_region = instr.region
            if t.region is not None:
                return  # already detached: ignore nested regions
            if not self.lf.enabled:
                return
            t.detach_seq += 1
            self._try_spawn(t, region, instr.region)
            return

        if op is Opcode.REATTACH:
            if t.region != region or t.successor is None:
                return  # not detached on this region: plain nop
            if t.skip_reattaches > 0:
                t.skip_reattaches -= 1
                self._region_stats(t).packed_iterations += 1
                return
            self._halt_epoch(t)
            return

        if op is Opcode.SYNC:
            if t.stat_region == instr.region and t.region is None:
                t.stat_region = None
            if t.region == region:
                # Successors were misspeculation: recycle the whole chain.
                self._squash_chain(t, reason="sync")
                t.region = None
                t.region_label = None
                t.stat_region = None
                # Pending packed-iteration skips die with the region: an
                # over-packed epoch that exits the loop early must not
                # carry them into a later region, where they would swallow
                # that region's reattaches and make the spawner re-execute
                # iterations its successor chain also runs (the fuzz-found
                # cross-region state divergence: duplicated RMW iterations
                # are not idempotent).
                if t.skip_reattaches:
                    self.stats.packing_skips_cancelled += t.skip_reattaches
                    t.skip_reattaches = 0
                t.packed_factor = 1
            return

    def _try_spawn(self, t: Threadlet, region: int, region_label: str) -> None:
        if t.successor is not None or self.order[-1] is not t:
            return
        state = self.packer.region(region)
        # Observe each *new* detach exactly once: keyed by (epoch, detach
        # sequence) so squash-restarts do not re-train the predictors but a
        # spawn-starved threadlet flowing into the next iteration does.
        key = (t.epoch, t.detach_seq)
        if key > state.last_observed_key:
            iterations = max(1, state.last_factor)
            state.observe_detach(dict(t.regs), iterations)
            state.last_observed_key = key
            state.last_factor = 1  # until a packed spawn says otherwise

        free = next(
            (x for x in self.threadlets if x.state is ThreadletState.FREE), None
        )
        if free is None:
            return

        decision = state.decide(self.core.rob_size)
        regs = dict(t.regs)
        if decision.factor > 1:
            regs.update(decision.predicted_regs)
            t.skip_reattaches = decision.factor - 1
            t.packed_factor = decision.factor
            self.stats.packing_factor_sum += decision.factor
            self.stats.packing_events += 1
            self.stats.max_packing_factor = max(
                self.stats.max_packing_factor, decision.factor
            )
            self._region_stats(t, region_label).packing_detaches += 1
        else:
            t.packed_factor = 1
        state.last_factor = decision.factor

        free.activate(
            epoch=t.epoch + 1,
            regs=regs,
            pc=region,
            rename=dict(t.rename),
            region=region,
            region_label=region_label,
        )
        free.packed_prediction = dict(decision.predicted_regs)
        free.predecessor = t
        # Duplicate the spawner's RAS so speculative returns predict well.
        self.predictor.ras[free.slot] = self.predictor.ras[t.slot].copy()
        t.successor = free
        t.region = region
        t.region_label = region_label
        self.order.append(free)
        self._order_changed()
        self.stats.threadlets_spawned += 1
        self._region_stats(t, region_label).epochs_spawned += 1
        if self._tracer is not None:
            self._tracer.event(
                "epoch.spawn", cycle=self.cycle, slot=free.slot,
                epoch=free.epoch, region=region_label,
            )

    def _halt_epoch(self, t: Threadlet) -> None:
        t.state = ThreadletState.HALTED
        t.halt_cycle = self.cycle
        if t.region is not None:
            # Train the epoch-size EMA on the per-iteration size, and feed
            # the IV detector the registers this epoch consumed.
            per_iteration = max(1, t.epoch_fetched // max(1, t.packed_factor))
            state = self.packer.region(t.region)
            state.observe_epoch_size(per_iteration)
            state.note_consumed(t.regs_read_before_write)
        if t.packed_factor > 1 and t.successor is not None:
            self._verify_packing(t)
        if t.successor is not None and t.successor.active:
            self._reconcile_successor_regs(t)

    def _reconcile_successor_regs(self, t: Threadlet) -> None:
        """Forward the spawner's final epoch state into dead successor regs.

        The successor's register file is a snapshot taken at the spawn
        point; anything the spawner wrote *later* in its epoch is missing
        from it.  Registers the successor consumed are validated elsewhere
        (packing verification, conflict detection), but a register the
        successor neither read nor wrote would keep its stale snapshot
        value all the way through the final merge — visible when an engine
        is resumed mid-program from a sampling checkpoint and the last
        epoch's scratch registers become the final architectural state.
        Copying values is timing-neutral: dependencies are tracked through
        the rename map, never through the value file.
        """
        s = t.successor
        for reg, actual in t.regs.items():
            if s.start_regs.get(reg) == actual:
                continue
            if reg in s.regs_read_before_write or reg in s.regs_written:
                continue
            s.regs[reg] = actual
            s.start_regs[reg] = actual
            if s.checkpoint is not None:
                s.checkpoint.regs[reg] = actual

    def _verify_packing(self, t: Threadlet) -> None:
        """Check the successor's predicted start state (section 4.3)."""
        s = t.successor
        assert s is not None
        consumed_mismatch = any(
            s.start_regs.get(r) != t.regs.get(r)
            for r in s.regs_read_before_write
            if r in s.start_regs
        )
        if consumed_mismatch:
            assert s.checkpoint is not None
            s.checkpoint.regs = dict(t.regs)
            self.packer.region(t.region).note_misprediction()
            self._squash_restart(s, reason="packing")
            return
        for reg in s.packed_prediction:
            actual = t.regs.get(reg)
            if actual is None or s.start_regs.get(reg) == actual:
                continue
            # Safe update: the stale value has not been consumed.
            if reg not in s.regs_written:
                s.regs[reg] = actual
            s.start_regs[reg] = actual
            if s.checkpoint is not None:
                s.checkpoint.regs[reg] = actual

    # ------------------------------------------------------------------
    # Squashing
    # ------------------------------------------------------------------

    def _squash_chain(self, t: Threadlet, reason: str) -> None:
        """Recycle all successors of ``t`` (no restart): sync semantics."""
        victim = t.successor
        count = 0
        while victim is not None:
            nxt = victim.successor
            self._drop_threadlet(victim, reason)
            victim.recycle()
            count += 1
            victim = nxt
        t.successor = None
        if count:
            self._refresh_order()

    def _squash_restart(self, victim: Threadlet, reason: str) -> None:
        """Squash ``victim`` and everything younger; restart only ``victim``
        (section 4: "only the oldest one is restarted")."""
        if not victim.active:
            return
        chain = victim.successor
        while chain is not None:
            nxt = chain.successor
            self._drop_threadlet(chain, reason)
            chain.recycle()
            chain = nxt
        self._drop_threadlet(victim, reason)
        victim.restart_from_checkpoint()
        victim.successor = None
        self._refresh_order()

    def _drop_threadlet(self, t: Threadlet, reason: str) -> None:
        """Release a threadlet's pipeline and speculative state."""
        if self._tracer is not None:
            self._tracer.event(
                "epoch.squash", cycle=self.cycle, slot=t.slot,
                epoch=t.epoch, reason=reason,
            )
        region = self._region_stats(t)
        if reason != "end":
            self.stats.threadlets_squashed += 1
            region.epochs_squashed += 1
        self.stats.failed_spec_instructions += t.epoch_committed
        if reason == "conflict":
            self.stats.squash_conflicts += 1
            region.squash_conflicts += 1
        elif reason == "sync":
            self.stats.squash_syncs += 1
            region.squash_syncs += 1
        elif reason == "packing":
            self.stats.squash_packing += 1
            region.squash_packing += 1
        elif reason == "overflow":
            self.stats.squash_overflow += 1

        for pi in t.inflight:
            self._release_entry(pi, committed=False)
            pi.squashed = True
        for pi in t.fetch_queue:
            pi.squashed = True
        t.inflight.clear()
        t.fetch_queue.clear()
        self.ssb.squash(t.slot)
        self.conflicts.clear(t.slot)
        t.store_writers.clear()

    def _refresh_order(self) -> None:
        self.order = [t for t in self.order if t.active]
        self._order_changed()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _dispatch(self) -> None:
        core = self.core
        budget = core.dispatch_width
        rob_size = core.rob_size
        iq_size = core.iq_size
        lq_size = core.lq_size
        sq_size = core.sq_size
        # Dispatch never mutates ``order``; iterate it directly.
        for t in self.order:
            fetch_queue = t.fetch_queue
            while budget > 0 and fetch_queue:
                pi = fetch_queue[0]
                if self.rob_used >= rob_size:
                    return
                if self.iq_used >= iq_size:
                    return
                if pi.is_load and self.lq_used >= lq_size:
                    break
                if pi.is_store and self.sq_used >= sq_size:
                    break
                if pi.instr.dest is not None:
                    if pi.dest_is_fp:
                        if self.fp_regs_used >= core.fp_phys_regs:
                            return
                    elif self.int_regs_used >= core.int_phys_regs:
                        return
                fetch_queue.popleft()
                self._dispatch_one(t, pi)
                budget -= 1

    def _dispatch_one(self, t: Threadlet, pi: PipelineInstr) -> None:
        self.rob_used += 1
        self.iq_used += 1
        if pi.is_load:
            self.lq_used += 1
        if pi.is_store:
            self.sq_used += 1
        instr = pi.instr
        if instr.dest is not None:
            if pi.dest_is_fp:
                self.fp_regs_used += 1
            else:
                self.int_regs_used += 1

        deps: List[PipelineInstr] = []
        cycle = self.cycle
        rename = t.rename
        for reg in instr._reads:
            producer = rename.get(reg)
            if producer is not None and not producer.squashed and not producer.done(cycle):
                deps.append(producer)
        if pi.is_load:
            # Store->load forwarding: wait for the producing store.  The
            # granule map is updated at fetch, which runs ahead of dispatch,
            # so only stores *older in program order* are real producers.
            g = self.lf.granule_bytes
            seq = pi.seq
            store_writers = t.store_writers
            for granule in range(
                pi.mem_addr // g, (pi.mem_addr + pi.mem_size - 1) // g + 1
            ):
                writer = store_writers.get(granule)
                if (
                    writer is not None
                    and writer.seq < seq
                    and not writer.squashed
                    and not writer.done(cycle)
                ):
                    deps.append(writer)
            for writer in pi.mem_dep_writers:
                if (
                    writer is not None
                    and writer.seq < seq
                    and not writer.squashed
                    and not writer.done(cycle)
                ):
                    deps.append(writer)

        if deps:
            unique_deps = []
            seen: Set[int] = set()
            for d in deps:
                if id(d) not in seen:
                    seen.add(id(d))
                    unique_deps.append(d)
            pi.num_pending = len(unique_deps)
            for d in unique_deps:
                d.consumers.append(pi)

        for reg in instr._writes:
            rename[reg] = pi

        pi.dispatched = True
        t.inflight.append(pi)
        self.stats.dispatched_instructions += 1
        if pi.num_pending == 0:
            heapq.heappush(self.ready, (pi.seq, pi))

    # ------------------------------------------------------------------
    # Issue / completion
    # ------------------------------------------------------------------

    def _issue(self) -> None:
        ready = self.ready
        if not ready:
            return
        budget = self.core.issue_width
        ports = self._fu_ports_template[:]
        retry: List[Tuple[int, PipelineInstr]] = []
        cycle = self.cycle
        heappop = heapq.heappop
        while budget > 0 and ready:
            seq, pi = heappop(ready)
            if pi.squashed or pi.issued:
                continue
            ci = pi.op_index
            if ports[ci] <= 0:
                retry.append((seq, pi))
                continue
            ports[ci] -= 1
            budget -= 1
            self._issue_one(pi, cycle)
        for item in retry:
            heapq.heappush(ready, item)

    def _issue_one(self, pi: PipelineInstr, cycle: int) -> None:
        pi.issued = True
        self.iq_used -= 1
        self.stats.issued_instructions += 1
        done_at = cycle + self._fu_latency_by_index[pi.op_index]

        if pi.is_load:
            fill = self.hierarchy.access_data(
                pi.mem_addr, cycle, is_write=False, pc=pi.pc
            )
            t = self.threadlets[pi.slot]
            if self.lf.enabled and not t.is_arch:
                done_at = max(cycle + self.lf.ssb_read_latency, fill)
            else:
                done_at = max(done_at, fill)
        elif pi.is_store:
            t = self.threadlets[pi.slot]
            if self.lf.enabled and not t.is_arch:
                done_at = cycle + self.lf.ssb_write_latency
            else:
                # Architectural stores go to the L1D write path.
                self.hierarchy.access_data(pi.mem_addr, cycle, is_write=True, pc=pi.pc)
                done_at = cycle + 1

        pi.ready_cycle = done_at
        heapq.heappush(self.completions, (done_at, pi.seq, pi))

    def _process_completions(self) -> None:
        cycle = self.cycle
        completions = self.completions
        ready = self.ready
        heappop = heapq.heappop
        heappush = heapq.heappush
        while completions and completions[0][0] <= cycle:
            _, _, pi = heappop(completions)
            if pi.squashed:
                continue
            for consumer in pi.consumers:
                if consumer.squashed or consumer.issued:
                    continue
                consumer.num_pending -= 1
                if consumer.num_pending <= 0 and consumer.dispatched:
                    heappush(ready, (consumer.seq, consumer))

    # ------------------------------------------------------------------
    # Commit (instruction level and threadlet level)
    # ------------------------------------------------------------------

    def _commit(self) -> None:
        budget = self.core.commit_width
        cycle = self.cycle
        stats = self.stats
        # Safe to iterate directly: order is only mutated on the _finish
        # path, which returns out of the loop immediately.
        for t in self.order:
            inflight = t.inflight
            while budget > 0 and inflight:
                pi = inflight[0]
                if not (pi.ready_cycle <= cycle):
                    break
                inflight.popleft()
                self._release_entry(pi, committed=True)
                t.epoch_committed += 1
                budget -= 1
                if t.is_arch:
                    stats.arch_instructions += 1
                    region = t.stat_region
                    if region is not None:
                        stats.region(region).arch_instructions += 1
                    if pi.instr.opcode is Opcode.HALT:
                        self._finish()
                        return
                else:
                    t.committed_while_spec += 1
            if t.faulted and t.is_arch and not t.inflight and t.fetch_done:
                raise ExecutionError(
                    f"{self.program.name}: architectural fault: {t.faulted}"
                )

    def _release_entry(self, pi: PipelineInstr, committed: bool) -> None:
        self.rob_used -= 1
        if not pi.issued:
            self.iq_used -= 1
        if pi.is_load:
            self.lq_used -= 1
        if pi.is_store:
            self.sq_used -= 1
        if pi.instr.dest is not None:
            if pi.dest_is_fp:
                self.fp_regs_used -= 1
            else:
                self.int_regs_used -= 1
        pi.committed = committed

    def _threadlet_commit(self) -> None:
        """Advance S_arch when the oldest threadlet finishes its epoch."""
        while True:
            t = self.order[0]
            # The threadlet that leaves the parallel region runs to the end
            # of the program; it may commit HALT to itself while still
            # speculative, so detect program end when it drains as arch.
            if (
                t.fetch_done
                and t.faulted is None
                and not t.inflight
                and not t.fetch_queue
            ):
                self._finish()
                return
            if (
                t.state is not ThreadletState.HALTED
                or t.inflight
                or t.fetch_queue
            ):
                return
            # Small delay for in-progress conflict checks (section 4.2).
            if self.cycle < t.halt_cycle + self.lf.conflict_check_latency:
                return
            successor = t.successor
            if successor is None:
                return
            self._region_stats(t).epochs_committed += 1
            self.stats.threadlets_committed += 1
            if self._tracer is not None:
                self._tracer.event(
                    "epoch.commit", cycle=self.cycle, slot=t.slot,
                    epoch=t.epoch,
                )
            # Retire the old architectural threadlet's context.
            self.conflicts.clear(t.slot)
            self.ssb.squash(t.slot)  # slice is empty (arch wrote directly)
            t.recycle()
            self.order.pop(0)
            self._order_changed()
            # The successor becomes architectural: merge its slice (atomic
            # commit, section 4.1.4) and expose its lines to the cache.
            new_arch = self.order[0]
            new_arch.is_arch = True
            self.stats.spec_committed_instructions += new_arch.committed_while_spec
            flushed = self._flush_slice_to_caches(new_arch.slot)
            successor.predecessor = None

    def _flush_slice_to_caches(self, slot: int) -> int:
        sl = self.ssb.slice(slot)
        line_addrs = {
            addr // self.machine.memory.line_size for addr in sl.data
        }
        flushed = self.ssb.commit(slot)
        for line in line_addrs:
            self.hierarchy.l1d.insert(line)
        return flushed

    def _finish(self) -> None:
        self.finished = True
        # Outstanding speculative threadlets die with the program.
        for t in self.order[1:]:
            self._drop_threadlet(t, reason="end")
            t.recycle()
        self.order = self.order[:1]
        self._order_changed()
        self._flush_cycle_stats()

    # ------------------------------------------------------------------
    # Per-cycle statistics
    # ------------------------------------------------------------------

    def _region_stats(self, t: Threadlet, label: Optional[str] = None):
        name = label or t.stat_region or t.region_label or "<none>"
        return self.stats.region(name)

    def _per_cycle_stats(self) -> None:
        # ``order`` holds exactly the active (RUNNING/HALTED) threadlets:
        # spawn appends, and every recycle is followed by a _refresh_order
        # or an order.pop — so its length IS the active count.
        stats = self.stats
        active = len(self.order)
        cycles = stats.active_threadlet_cycles
        cycles[active] = cycles.get(active, 0) + 1
        region = self.order[0].stat_region
        if region is not None:
            stats.region(region).arch_cycles += 1

    def _flush_cycle_stats(self) -> None:
        # The episode loops batch the per-cycle histogram/region
        # increments: they are run-length encoded on the (active count,
        # region) key and flushed here when the key changes, at _finish,
        # and at run()/run_window() end.
        count = self._pcs_count
        if not count:
            return
        stats = self.stats
        active = self._pcs_active
        cycles = stats.active_threadlet_cycles
        cycles[active] = cycles.get(active, 0) + count
        region = self._pcs_region
        if region is not None:
            stats.region(region).arch_cycles += count
        self._pcs_count = 0

    # ------------------------------------------------------------------
    # Compiled fetch for the episode loops.  Mirrors the reference
    # _fetch_threadlet/_fetch_one gate-for-gate (the parity suite proves
    # bit-identical cycles and stats); the differences are pure
    # mechanics — hoisted attributes, compiled per-PC handlers from
    # fastpath.py — plus ``_progress`` accounting feeding the
    # multi-threadlet episode's idle-cycle skip.
    # ------------------------------------------------------------------

    def _fast_fetch_threadlet(self, t: Threadlet, budget: int) -> int:
        cycle = self.cycle
        program_len = self._program_len
        access_instruction = self.hierarchy.access_instruction
        running = ThreadletState.RUNNING
        fetch_queue = t.fetch_queue
        queue_size = t.fetch_queue_size
        lf_enabled = self.lf.enabled
        fp = self._fast_prog
        handlers = fp.handlers
        flags = fp.flags
        instructions = self._instructions
        stats = self.stats
        out = self._exec_out
        regs = t.regs
        regs_written = t.regs_written
        read_before_write = t.regs_read_before_write
        pcs_tracked = t.pcs_tracked
        is_arch = t.is_arch
        cached_view = t.mem_view
        if cached_view is not None and cached_view[0] is is_arch:
            view = cached_view[1]
        else:
            view = self._view_for(t)
        slot = t.slot
        # Per-instruction counters batched into locals; written back at
        # loop exit (and flushed before hint handling, which reads
        # ``seq``/``epoch_fetched`` through spawn decisions).
        seq = self.seq
        epoch_fetched = t.epoch_fetched
        fetched = 0
        # Same-cycle same-line L1I memo: consecutive fetches on one line
        # within this call reuse the ready cycle.  Exact: between two such
        # accesses nothing else touches the L1I/L2 (fetch-time memory ops
        # go to the SSB/SparseMemory, data-cache traffic happens at
        # issue), and skipping the redundant LRU stamp bump preserves the
        # relative stamp order that replacement decisions depend on.
        line_size = self.machine.memory.line_size
        last_line = -1
        last_ready = 0
        while budget > 0:
            if t.fetch_done or t.state is not running:
                break
            if len(fetch_queue) >= queue_size:
                break
            branch = t.fetch_stall_branch
            if branch is not None:
                if branch.squashed:
                    t.fetch_stall_branch = None
                elif (branch.ready_cycle <= cycle):
                    t.fetch_stall_branch = None
                    t.fetch_stall_until = (
                        branch.ready_cycle + self.core.mispredict_penalty
                    )
                else:
                    break
            if t.fetch_stall_until > cycle:
                break
            pc = t.pc
            if not 0 <= pc < program_len:
                t.faulted = f"pc {pc} out of range"
                t.fetch_done = True
                break

            line = (pc * 4) // line_size
            if line == last_line:
                ready = last_ready
            else:
                ready = access_instruction(pc, cycle)
                last_line = line
                last_ready = ready
            if ready > cycle + 1:
                t.fetch_stall_until = ready
                break

            fl = flags[pc]
            instr = instructions[pc]

            if fl & FLAG_STORE and not is_arch and lf_enabled:
                addr = int(regs[instr.srcs[1]]) + int(instr.imm or 0)
                if not self._ssb_can_accept(t, addr, instr.size):
                    t.ssb_stalled = True
                    self._region_stats(t).ssb_stall_cycles += 1
                    break
            t.ssb_stalled = False

            # Inlined _fetch_one on compiled handlers.
            pi = PipelineInstr(seq, slot, pc, instr)
            seq += 1

            # First execution of a pc this epoch folds its register sets
            # into the epoch trackers; re-executions are provably no-ops
            # (see Threadlet.pcs_tracked) and skip both updates.
            if pc in pcs_tracked:
                track = False
            else:
                pcs_tracked.add(pc)
                track = True
                for reg in instr._reads:
                    if reg not in regs_written:
                        read_before_write.add(reg)

            if fl & FLAG_HALT:
                t.fetch_done = True
                fetch_queue.append(pi)
                epoch_fetched += 1
                fetched += 1
                budget -= 1
                continue

            try:
                if fl & FLAG_MEM:
                    self._current_pi = pi
                    if fl & FLAG_LOAD:
                        self._last_writers = []
                        next_pc = handlers[pc](regs, view, out)
                        pi.mem_dep_writers = self._last_writers
                    else:
                        next_pc = handlers[pc](regs, view, out)
                    pi.mem_addr = out[0]
                    pi.mem_size = instr.size
                else:
                    next_pc = handlers[pc](regs, view, out)
            except ExecutionError as exc:
                t.faulted = str(exc)
                t.fetch_done = True
                budget -= 1
                break
            if track:
                regs_written.update(instr._writes)

            taken = False
            if fl & FLAG_BRANCH:
                taken = out[1]
                pi.taken = taken
                stats.branches += 1
                correct, target_known = self.predictor.predict_instruction(
                    pc, instr, taken, next_pc, slot
                )
                if not correct:
                    stats.branch_mispredicts += 1
                    pi.mispredicted = True
                    t.fetch_stall_branch = pi
                elif taken and not target_known:
                    stats.btb_misses += 1
                    t.fetch_stall_until = cycle + self.core.btb_miss_penalty

            fetch_queue.append(pi)
            epoch_fetched += 1
            fetched += 1
            t.pc = next_pc

            if fl & FLAG_HINT:
                self.seq = seq
                t.epoch_fetched = epoch_fetched
                self._handle_hint(t, instr)
            budget -= 1
            if taken:
                break  # at most one taken branch per threadlet per cycle
        # ``seq`` advances even on a faulting instruction (matching the
        # reference _fetch_one), so write it back unconditionally.
        self.seq = seq
        if fetched:
            t.epoch_fetched = epoch_fetched
            stats.fetched_instructions += fetched
            self._progress += fetched
        return budget

    # Current PipelineInstr whose functional execution is in progress; used
    # by the memory views to attribute SSB writes to instructions.
    _current_pi: Optional[PipelineInstr] = None


# ---------------------------------------------------------------------------
# Metrics catalog for the core pipeline (SimStats stays the storage; the
# registry is the documented observation schema — see repro.obs.metrics).
# ---------------------------------------------------------------------------

register(
    MetricSpec("uarch.core.cycles", COUNTER, "uarch.core",
               "Simulated cycles to program completion",
               unit="cycles", source="cycles"),
    MetricSpec("uarch.core.arch_instructions", COUNTER, "uarch.core",
               "Instructions committed by the architectural threadlet",
               unit="instructions", source="arch_instructions"),
    MetricSpec("uarch.core.spec_committed_instructions", COUNTER,
               "uarch.core",
               "Instructions committed while speculative whose threadlet "
               "later committed",
               unit="instructions", source="spec_committed_instructions"),
    MetricSpec("uarch.core.failed_spec_instructions", COUNTER, "uarch.core",
               "Instructions committed to threadlets that were squashed",
               unit="instructions", source="failed_spec_instructions"),
    MetricSpec("uarch.core.fetched_instructions", COUNTER, "uarch.core",
               "Instructions fetched (all threadlets, all paths)",
               unit="instructions", source="fetched_instructions"),
    MetricSpec("uarch.core.dispatched_instructions", COUNTER, "uarch.core",
               "Instructions allocated into the shared back end",
               unit="instructions", source="dispatched_instructions"),
    MetricSpec("uarch.core.issued_instructions", COUNTER, "uarch.core",
               "Instructions issued to functional units",
               unit="instructions", source="issued_instructions"),
    MetricSpec("uarch.core.branches", COUNTER, "uarch.core",
               "Conditional and indirect branches fetched",
               unit="instructions", source="branches"),
    MetricSpec("uarch.core.branch_mispredicts", COUNTER, "uarch.core",
               "Direction or target mispredictions",
               unit="instructions", source="branch_mispredicts"),
    MetricSpec("uarch.core.btb_misses", COUNTER, "uarch.core",
               "Taken branches whose target was unknown to the BTB",
               unit="instructions", source="btb_misses"),
    MetricSpec("uarch.core.threadlets_spawned", COUNTER, "uarch.core",
               "Speculative threadlet epochs spawned at detach hints",
               unit="epochs", source="threadlets_spawned"),
    MetricSpec("uarch.core.threadlets_committed", COUNTER, "uarch.core",
               "Epochs that became architectural and merged their slice",
               unit="epochs", source="threadlets_committed"),
    MetricSpec("uarch.core.threadlets_squashed", COUNTER, "uarch.core",
               "Epochs squashed for any reason",
               unit="epochs", source="threadlets_squashed"),
    MetricSpec("uarch.core.active_threadlets", HISTOGRAM, "uarch.core",
               "Cycles with exactly k threadlets active (figure 7)",
               unit="cycles", source="active_threadlet_cycles"),
    MetricSpec("uarch.core.ipc", GAUGE, "uarch.core",
               "Architectural instructions per cycle",
               derive=lambda s: s.ipc),
    MetricSpec("uarch.core.total_committed_ipc", GAUGE, "uarch.core",
               "All commit activity per cycle (arch + spec + failed)",
               derive=lambda s: s.total_committed_ipc),
    MetricSpec("uarch.core.branch_mpki", GAUGE, "uarch.core",
               "Branch mispredictions per 1000 architectural instructions",
               derive=lambda s: s.branch_mpki),
)
