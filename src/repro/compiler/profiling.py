"""Profile-guided loop selection (paper section 5.1).

The paper's prototype uses profiling information to annotate the most
profitable loops, "simulating perfect static loop selection", and notes
that unprofitable loops must be excluded statically or dynamically.  This
module implements that workflow over compiled programs:

1. compile with every loop marked (``CompileOptions(mark_all_loops=True)``
   or a source with pragmas everywhere);
2. :func:`profile_program` — one functional run counting, per region,
   dynamic instructions, region entries, iterations and body sizes;
3. :func:`select_profitable` — static selection heuristics in the spirit
   of section 5.1: drop loops with tiny bodies, low trip counts or low
   coverage;
4. :func:`apply_selection` — rewrite the binary with unselected hints
   turned into nops (the two-nops-per-iteration cost the paper quotes for
   dynamically deselected loops disappears entirely for statically
   deselected ones).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set

from ..isa.instructions import Instruction, Opcode
from ..isa.program import Program
from ..sampling.fastforward import FastForwardExecutor
from ..uarch.memory_state import SparseMemory


@dataclass
class LoopProfile:
    """Dynamic statistics for one annotated region."""

    region: str
    entries: int = 0
    iterations: int = 0
    instructions: int = 0   # dynamic instructions inside the region
    coverage: float = 0.0   # fraction of total dynamic instructions

    @property
    def mean_trip_count(self) -> float:
        return self.iterations / self.entries if self.entries else 0.0

    @property
    def mean_iteration_size(self) -> float:
        return self.instructions / self.iterations if self.iterations else 0.0


def profile_program(
    program: Program,
    memory: Optional[SparseMemory] = None,
    initial_regs: Optional[dict] = None,
    max_instructions: int = 5_000_000,
) -> List[LoopProfile]:
    """One functional run; returns per-region loop profiles.

    The run is the fast-forward executor's hint-stepped run.  A region's
    instructions are those after its entering ``detach`` up to and
    including its ``sync`` (or the last one before ``halt``); coverage
    divides by the whole run, ``halt`` included.
    """
    ff = FastForwardExecutor(program, memory, initial_regs)
    profiles: Dict[str, LoopProfile] = {}
    active: Optional[str] = None
    active_index: Optional[int] = None
    entered = 0  # instruction count at the active region's entry

    def on_hint(instr, icount):
        nonlocal active, active_index, entered
        op = instr.opcode
        if op is Opcode.DETACH and active is None:
            active = instr.region
            active_index = instr.region_index
            entered = icount
            profile = profiles.setdefault(active, LoopProfile(active))
            profile.entries += 1
            profile.iterations += 1
        elif op is Opcode.DETACH and active_index == instr.region_index:
            # Falling through a reattach into the continuation starts the
            # next iteration; it is counted here, at the next detach.
            profiles[active].iterations += 1
        elif op is Opcode.SYNC and active_index == instr.region_index:
            profiles[active].instructions += icount - entered
            active = None
            active_index = None

    last = ff.run_hints(on_hint, max_instructions)
    if active is not None:
        profiles[active].instructions += last - entered

    total = ff.icount
    result = list(profiles.values())
    for profile in result:
        profile.coverage = profile.instructions / total if total else 0.0
    return result


def select_profitable(
    profiles: Iterable[LoopProfile],
    min_coverage: float = 0.02,
    min_trip_count: float = 4.0,
    min_iteration_size: float = 6.0,
    max_iteration_size: float = 2000.0,
) -> Set[str]:
    """Static selection (section 5.1): keep loops likely to profit.

    The defaults encode the paper's observed failure modes: very small
    loops, low trip counts, and extremely large iterations are excluded;
    so are loops that cover a negligible share of run time.
    """
    keep: Set[str] = set()
    for profile in profiles:
        if profile.coverage < min_coverage:
            continue
        if profile.mean_trip_count < min_trip_count:
            continue
        if not (min_iteration_size <= profile.mean_iteration_size
                <= max_iteration_size):
            continue
        keep.add(profile.region)
    return keep


def apply_selection(program: Program, keep: Set[str]) -> Program:
    """A copy of ``program`` with hints of unselected regions as nops."""
    instructions = []
    for instr in program:
        if instr.is_hint and instr.region not in keep:
            instructions.append(
                Instruction(Opcode.NOP, label=instr.label, comment=str(instr))
            )
        else:
            instructions.append(
                Instruction(
                    opcode=instr.opcode,
                    dest=instr.dest,
                    srcs=instr.srcs,
                    imm=instr.imm,
                    size=instr.size,
                    target=instr.target,
                    region=instr.region,
                    label=instr.label,
                )
            )
    return Program(instructions, dict(program.labels),
                   name=program.name + ":selected")


def profile_and_select(
    program: Program,
    memory: Optional[SparseMemory] = None,
    initial_regs: Optional[dict] = None,
    **selection_kwargs,
) -> Program:
    """The full section-5.1 pipeline: profile, select, rewrite."""
    mem_copy = memory.copy() if memory is not None else None
    profiles = profile_program(program, mem_copy, initial_regs)
    keep = select_profitable(profiles, **selection_kwargs)
    return apply_selection(program, keep)
