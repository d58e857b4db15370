"""Common infrastructure for the classic-TLS comparison models (table 3).

The Multiscalar-like and STAMPede-like models operate at *task* (epoch)
granularity: the program is executed functionally once and its dynamic
instruction stream is segmented at the LoopFrog hint boundaries into
ordered tasks, each carrying its instruction count and read/write sets.
The scheme models then schedule those tasks onto their processing units
with the scheme's own overheads and conflict rules.

This granularity is exactly what table 3 compares (speedup, core count,
area, task sizes); pipeline-level detail of 1995/2005-era cores is out of
scope and would not change the comparison axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

from ..isa.instructions import Opcode
from ..isa.program import Program
from ..sampling.fastforward import FastForwardExecutor
from ..uarch.memory_state import SparseMemory


@dataclass
class Task:
    """One ordered unit of speculative work."""

    index: int
    instructions: int
    reads: Set[int] = field(default_factory=set)    # granule IDs
    writes: Set[int] = field(default_factory=set)
    parallel: bool = False  # inside an annotated loop?


@dataclass
class TaskTrace:
    tasks: List[Task]

    @property
    def total_instructions(self) -> int:
        return sum(t.instructions for t in self.tasks)

    @property
    def parallel_tasks(self) -> List[Task]:
        return [t for t in self.tasks if t.parallel]

    def mean_parallel_task_size(self) -> float:
        tasks = self.parallel_tasks
        if not tasks:
            return 0.0
        return sum(t.instructions for t in tasks) / len(tasks)


def extract_tasks(
    program: Program,
    memory: Optional[SparseMemory] = None,
    initial_regs: Optional[dict] = None,
    granule_bytes: int = 8,
    max_instructions: int = 5_000_000,
) -> TaskTrace:
    """Segment one functional run of ``program`` into ordered tasks.

    Task boundaries follow the LoopFrog region semantics: inside an
    annotated loop each iteration (ending at its ``reattach``) is one
    parallel task; code outside annotated loops accumulates into serial
    tasks.  A hint belongs to the task it ends; ``halt`` belongs to none.

    The run is the fast-forward executor's hint-stepped run: task sizes
    are differences of the instruction count at the hints, and the
    read/write sets are filled by wrapped ``load``/``store`` callables.
    """
    ff = FastForwardExecutor(program, memory, initial_regs)
    tasks: List[Task] = []
    current = Task(0, 0)
    start = 0  # instruction count at which ``current`` began
    region: Optional[int] = None

    def close(icount: int, parallel_next: bool) -> None:
        nonlocal current, start
        current.instructions = icount - start
        if current.instructions:
            tasks.append(current)
        current = Task(len(tasks), 0, parallel=parallel_next)
        start = icount

    base_load = ff.memory.load
    base_store = ff.memory.store

    def load(addr, size):
        current.reads.update(range(addr // granule_bytes,
                                   (addr + size - 1) // granule_bytes + 1))
        return base_load(addr, size)

    def store(addr, size, value):
        current.writes.update(range(addr // granule_bytes,
                                    (addr + size - 1) // granule_bytes + 1))
        base_store(addr, size, value)

    def on_hint(instr, icount):
        nonlocal region
        op = instr.opcode
        if op is Opcode.DETACH and region is None:
            region = instr.region_index
            close(icount, parallel_next=True)
        elif op is Opcode.REATTACH and region == instr.region_index:
            close(icount, parallel_next=True)
        elif op is Opcode.SYNC and region == instr.region_index:
            region = None
            close(icount, parallel_next=False)

    close(ff.run_hints(on_hint, max_instructions, load, store),
          parallel_next=False)
    return TaskTrace(tasks)


def conflicts_with(task: Task, older: Task) -> bool:
    """True RAW dependence: ``task`` reads a granule ``older`` writes."""
    return not task.reads.isdisjoint(older.writes)


def coarsen(trace: TaskTrace, target_size: int) -> TaskTrace:
    """Merge consecutive parallel tasks into coarser epochs of roughly
    ``target_size`` instructions.

    Classic multicore TLS (STAMPede) compiles for much coarser epochs than
    LoopFrog's iteration granularity to amortise cross-core communication
    (table 3: ~1,400-instruction tasks); this models that compiler choice
    on the same dynamic work.
    """
    merged: List[Task] = []
    current: Optional[Task] = None
    for task in trace.tasks:
        if not task.parallel:
            if current is not None:
                merged.append(current)
                current = None
            merged.append(
                Task(len(merged), task.instructions, set(task.reads),
                     set(task.writes), parallel=False)
            )
            continue
        if current is None:
            current = Task(len(merged), 0, set(), set(), parallel=True)
        current.instructions += task.instructions
        current.reads |= task.reads
        current.writes |= task.writes
        if current.instructions >= target_size:
            merged.append(current)
            current = None
    if current is not None:
        merged.append(current)
    for i, task in enumerate(merged):
        task.index = i
    return TaskTrace(merged)
