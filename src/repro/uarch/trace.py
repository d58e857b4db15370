"""Pipeline tracing: capture per-instruction stage timing and render a
classic pipeline diagram.

Attach a :class:`Tracer` to an :class:`~repro.uarch.core.Engine` before
running::

    engine = Engine(machine, program, memory, regs)
    tracer = Tracer.attach(engine, max_instructions=200)
    engine.run()
    print(tracer.render_pipeline())

The diagram has one row per dynamic instruction (``F`` fetch, ``D``
dispatch, ``I`` issue, ``=`` executing, ``C`` commit, with squashed
instructions marked ``x``), grouped so threadlet interleaving is visible —
a direct view of the paper's "window split across multiple
quasi-independent regions".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .core import Engine, PipelineInstr


@dataclass
class TraceRecord:
    """Stage timing for one dynamic instruction."""

    seq: int
    slot: int
    epoch: int
    pc: int
    text: str
    fetch: Optional[int] = None
    dispatch: Optional[int] = None
    issue: Optional[int] = None
    ready: Optional[int] = None
    commit: Optional[int] = None
    squashed: bool = False


@dataclass
class TraceEvent:
    """A non-instruction event (spawn, squash, threadlet commit)."""

    cycle: int
    kind: str
    detail: str


class Tracer:
    """Records engine activity; see module docstring for usage."""

    def __init__(self, max_instructions: int = 2000):
        self.max_instructions = max_instructions
        self.records: Dict[int, TraceRecord] = {}
        self.events: List[TraceEvent] = []
        self._engine: Optional[Engine] = None

    # -- attachment ----------------------------------------------------------

    @classmethod
    def attach(cls, engine: Engine, max_instructions: int = 2000) -> "Tracer":
        """Wrap the engine's stage methods to record activity."""
        tracer = cls(max_instructions)
        tracer._engine = engine
        # The episode loops inline the per-stage helpers hooked below, so a
        # traced engine must run the reference pipeline (bit-identical
        # timing, just observable stage calls).
        engine.use_reference_path()

        fetch_one = engine._fetch_one
        dispatch_one = engine._dispatch_one
        issue_one = engine._issue_one
        release_entry = engine._release_entry
        try_spawn = engine._try_spawn
        drop_threadlet = engine._drop_threadlet

        def fetch_hook(t, instr):
            consumed = fetch_one(t, instr)
            if consumed and t.fetch_queue:
                tracer._on_fetch(engine.cycle, t, t.fetch_queue[-1])
            return consumed

        def dispatch_hook(t, pi):
            dispatch_one(t, pi)
            tracer._touch(pi).dispatch = engine.cycle

        def issue_hook(pi, cycle):
            issue_one(pi, cycle)
            record = tracer._touch(pi)
            record.issue = cycle
            record.ready = pi.ready_cycle

        def release_hook(pi, committed):
            release_entry(pi, committed)
            if committed:
                tracer._touch(pi).commit = engine.cycle

        def spawn_hook(t, region, label):
            before = t.successor
            try_spawn(t, region, label)
            if t.successor is not before and t.successor is not None:
                tracer.events.append(TraceEvent(
                    engine.cycle, "spawn",
                    f"threadlet slot {t.successor.slot} epoch "
                    f"{t.successor.epoch} (region {label})",
                ))

        def drop_hook(t, reason):
            for pi in list(t.inflight) + list(t.fetch_queue):
                record = tracer.records.get(pi.seq)
                if record is not None:
                    record.squashed = True
            tracer.events.append(TraceEvent(
                engine.cycle, "squash",
                f"threadlet slot {t.slot} epoch {t.epoch} ({reason})",
            ))
            drop_threadlet(t, reason)

        engine._fetch_one = fetch_hook
        engine._dispatch_one = dispatch_hook
        engine._issue_one = issue_hook
        engine._release_entry = release_hook
        engine._try_spawn = spawn_hook
        engine._drop_threadlet = drop_hook
        return tracer

    # -- recording -----------------------------------------------------------

    def _on_fetch(self, cycle: int, threadlet, pi: PipelineInstr) -> None:
        if len(self.records) >= self.max_instructions:
            return
        self.records[pi.seq] = TraceRecord(
            seq=pi.seq, slot=pi.slot, epoch=threadlet.epoch, pc=pi.pc,
            text=str(pi.instr), fetch=cycle,
        )

    def _touch(self, pi: PipelineInstr) -> TraceRecord:
        record = self.records.get(pi.seq)
        if record is None:
            record = TraceRecord(pi.seq, pi.slot, -1, pi.pc, str(pi.instr))
            if len(self.records) < self.max_instructions:
                self.records[pi.seq] = record
        return record

    # -- rendering -----------------------------------------------------------

    def render_pipeline(self, first: int = 0, count: int = 48,
                        width: int = 64) -> str:
        """An ASCII pipeline diagram for ``count`` instructions."""
        records = sorted(self.records.values(), key=lambda r: r.seq)
        records = records[first:first + count]
        if not records:
            return "(no trace records)"
        start = min(r.fetch for r in records if r.fetch is not None)
        lines = [
            f"cycle offset from {start}; F=fetch D=dispatch I=issue "
            f"==execute C=commit x=squashed"
        ]
        for r in records:
            row = [" "] * width
            def put(cycle, char):
                if cycle is None:
                    return
                pos = cycle - start
                if 0 <= pos < width:
                    row[pos] = char
            if r.issue is not None and r.ready is not None:
                for c in range(r.issue + 1, min(r.ready, start + width)):
                    put(c, "=")
            put(r.fetch, "F")
            put(r.dispatch, "D")
            put(r.issue, "I")
            put(r.commit, "C")
            flag = "x" if r.squashed else " "
            lines.append(
                f"T{r.slot}.e{r.epoch:<3d} {r.pc:4d} {flag}|{''.join(row)}| "
                f"{r.text[:32]}"
            )
        return "\n".join(lines)

    def render_events(self) -> str:
        if not self.events:
            return "(no threadlet events)"
        return "\n".join(
            f"cycle {e.cycle:6d}  {e.kind:7s} {e.detail}" for e in self.events
        )

    def stage_latencies(self) -> Dict[str, float]:
        """Mean fetch->dispatch, dispatch->issue and issue->commit gaps."""
        gaps = {"fetch_to_dispatch": [], "dispatch_to_issue": [],
                "issue_to_commit": []}
        for r in self.records.values():
            if r.fetch is not None and r.dispatch is not None:
                gaps["fetch_to_dispatch"].append(r.dispatch - r.fetch)
            if r.dispatch is not None and r.issue is not None:
                gaps["dispatch_to_issue"].append(r.issue - r.dispatch)
            if r.issue is not None and r.commit is not None:
                gaps["issue_to_commit"].append(r.commit - r.issue)
        return {
            key: (sum(vals) / len(vals) if vals else 0.0)
            for key, vals in gaps.items()
        }
