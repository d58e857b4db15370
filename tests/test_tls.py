"""Tests for the classic-TLS models used in the table-3 comparison."""

import random

import pytest

from repro.compiler import CompileOptions, compile_frog
from repro.errors import ExecutionError
from repro.fuzz.model import STMT_CARRIED, STMT_SHARED, generate_program
from repro.isa.assembler import assemble
from repro.isa.instructions import Opcode
from repro.tls import (
    MultiscalarConfig,
    StampedeConfig,
    Task,
    TaskTrace,
    conflicts_with,
    extract_tasks,
    simulate_multiscalar,
    simulate_stampede,
)
from repro.uarch import SparseMemory
from repro.uarch.executor import Executor
from repro.workloads.suites import suite


PARALLEL = """
fn main(dst: ptr<int>, src: ptr<int>, n: int) {
    #pragma loopfrog
    for (var i: int = 0; i < n; i = i + 1) {
        dst[i] = src[i] * 2;
    }
}
"""


def parallel_input(n):
    mem = SparseMemory()
    mem.store_int_array(2000, list(range(n)))
    return mem, {"r1": 1000, "r2": 2000, "r3": n}


def parallel_trace(n=32):
    program = compile_frog(PARALLEL).program
    return extract_tasks(program, *parallel_input(n))


def test_extract_tasks_segments_iterations():
    trace = parallel_trace(32)
    parallel = trace.parallel_tasks
    # One task per iteration (roughly), plus serial head/tail.
    assert 30 <= len(parallel) <= 34
    assert trace.total_instructions > 0
    assert trace.mean_parallel_task_size() > 3


def test_tasks_carry_read_write_sets():
    trace = parallel_trace(8)
    body_tasks = [t for t in trace.parallel_tasks if t.writes]
    assert body_tasks
    for task in body_tasks:
        assert task.reads  # reads src and possibly the induction spill


def test_conflicts_with():
    a = Task(0, 5, reads={1, 2}, writes={3})
    b = Task(1, 5, reads={3}, writes={9})
    assert conflicts_with(b, a)       # b reads what a writes
    assert not conflicts_with(a, b)   # a does not read 9


def test_conflicts_with_is_raw_only():
    # WAW and WAR never conflict in this model: speculative buffering
    # renames writes, so only true (read-after-write) dependences count.
    older = Task(0, 5, reads={7}, writes={3})
    waw = Task(1, 5, reads=set(), writes={3})
    war = Task(2, 5, reads=set(), writes={7})
    assert not conflicts_with(waw, older)
    assert not conflicts_with(war, older)


def test_granule_aliasing_same_base_different_stride():
    # Writer touches even elements, reader touches element 6: distinct
    # addresses but byte ranges fall into the same 8-byte granules.
    g = 8
    writes = set()
    for i in range(0, 16, 2):
        addr = 1000 + 8 * i
        writes.update(range(addr // g, (addr + 7) // g + 1))
    older = Task(0, 16, writes=writes)
    addr = 1000 + 8 * 6
    reader = Task(1, 4, reads=set(range(addr // g, (addr + 7) // g + 1)))
    assert conflicts_with(reader, older)
    # An odd element is written by nobody: no granule overlap.
    addr = 1000 + 8 * 7
    clean = Task(2, 4, reads=set(range(addr // g, (addr + 7) // g + 1)))
    assert not conflicts_with(clean, older)


def test_multibyte_access_crossing_granule_boundary():
    # An 8-byte store at offset 4 straddles two 8-byte granules; a read
    # of either neighbouring granule must be seen as a conflict.
    g = 8
    addr, size = 1004, 8
    touched = set(range(addr // g, (addr + size - 1) // g + 1))
    assert touched == {125, 126}  # crosses the 1008 boundary
    older = Task(0, 1, writes=touched)
    low = Task(1, 1, reads={125})
    high = Task(2, 1, reads={126})
    far = Task(3, 1, reads={127})
    assert conflicts_with(low, older)
    assert conflicts_with(high, older)
    assert not conflicts_with(far, older)


def test_extracted_tasks_alias_through_granules():
    # End-to-end: a kernel whose iterations read the previous iteration's
    # element produces real RAW conflicts between extracted tasks.
    source = """
    fn main(a: ptr<int>, n: int) {
        #pragma loopfrog
        for (var i: int = 1; i < n; i = i + 1) {
            a[i] = a[i - 1] + 1;
        }
    }
    """
    program = compile_frog(source).program
    mem = SparseMemory()
    mem.store_int_array(1000, list(range(16)))
    trace = extract_tasks(program, mem, {"r1": 1000, "r2": 16})
    body = [t for t in trace.parallel_tasks if t.writes]
    assert len(body) >= 2
    raw_pairs = [
        (y.index, o.index)
        for i, o in enumerate(body)
        for y in body[i + 1:]
        if conflicts_with(y, o)
    ]
    assert raw_pairs  # neighbouring iterations alias through memory


def test_multiscalar_speeds_up_parallel_tasks():
    trace = parallel_trace(64)
    result = simulate_multiscalar(trace)
    assert result.speedup > 1.5
    assert result.tasks == len(trace.tasks)


def test_stampede_coarsens_tasks():
    # With coarsening, STAMPede forms few large epochs out of our small
    # iterations; the speedup is modest but not a collapse.
    trace = parallel_trace(64)
    result = simulate_stampede(trace)
    assert result.speedup > 0.8


def test_stampede_wins_on_coarse_work():
    config = StampedeConfig(target_task_size=200)
    trace = parallel_trace(256)
    result = simulate_stampede(trace, config)
    assert result.speedup > 1.1


def test_multiscalar_outpaces_stampede_on_small_tasks():
    # Small tasks suffer under STAMPede's cross-core spawn latency; the
    # ring's cheap forwarding wins (the granularity contrast of table 3).
    trace = parallel_trace(64)
    assert simulate_multiscalar(trace).speedup > simulate_stampede(trace).speedup


def test_serial_trace_gets_no_speedup():
    source = """
    fn main(a: ptr<int>, n: int) -> int {
        var s: int = 0;
        for (var i: int = 0; i < n; i = i + 1) { s = s + a[i]; }
        return s;
    }
    """
    program = compile_frog(source).program
    mem = SparseMemory()
    mem.store_int_array(1000, list(range(50)))
    trace = extract_tasks(program, mem, {"r1": 1000, "r2": 50})
    assert not trace.parallel_tasks
    assert simulate_multiscalar(trace).speedup <= 1.01
    assert simulate_stampede(trace).speedup <= 1.01


def test_dependent_tasks_squash_and_serialise():
    source = """
    fn main(data: ptr<int>, n: int) {
        #pragma loopfrog
        for (var i: int = 0; i < n; i = i + 1) {
            var v: int = data[0];
            data[0] = v + 1;
        }
    }
    """
    program = compile_frog(source).program
    mem = SparseMemory()
    trace = extract_tasks(program, mem, {"r1": 1000, "r2": 40})
    ms = simulate_multiscalar(trace)
    assert ms.squashes > 0
    assert ms.speedup < 1.2


def test_scheme_configs_match_table3_rows():
    assert MultiscalarConfig().num_units == 8
    assert MultiscalarConfig().area_factor == 8.0
    assert StampedeConfig().num_cores == 4
    assert StampedeConfig().area_factor > 4.0


# ---------------------------------------------------------------------------
# Differential tests: extract_tasks against a golden-executor segmentation
# ---------------------------------------------------------------------------


def reference_extract(program, memory=None, initial_regs=None,
                      granule_bytes=8, max_instructions=5_000_000):
    """The segmentation algorithm as a per-instruction ``trace_hook`` on
    the golden :class:`Executor` — the oracle ``extract_tasks`` must
    reproduce task for task."""
    executor = Executor(program, memory)
    if initial_regs:
        executor.regs.update(initial_regs)
    tasks = []
    current = Task(0, 0)
    region = None

    def close(parallel_next):
        nonlocal current
        if current.instructions:
            tasks.append(current)
        current = Task(len(tasks), 0, parallel=parallel_next)

    def hook(pc, instr, result):
        nonlocal region
        current.instructions += 1
        if result.mem_addr is not None:
            g0 = result.mem_addr // granule_bytes
            g1 = (result.mem_addr + result.mem_size - 1) // granule_bytes
            target = current.writes if instr.is_store else current.reads
            target.update(range(g0, g1 + 1))
        op = instr.opcode
        if op is Opcode.DETACH and region is None:
            region = instr.region_index
            close(parallel_next=True)
        elif op is Opcode.REATTACH and region == instr.region_index:
            close(parallel_next=True)
        elif op is Opcode.SYNC and region == instr.region_index:
            region = None
            close(parallel_next=False)

    executor._trace_hook = hook
    executor.run(max_instructions=max_instructions)
    close(parallel_next=False)
    return TaskTrace(tasks)


def assert_same_trace(program, make_input, **kwargs):
    """Both segmentations of one run; returns the fast one."""
    memory, regs = make_input()
    expected = reference_extract(program, memory, regs, **kwargs)
    memory, regs = make_input()
    actual = extract_tasks(program, memory, regs, **kwargs)
    assert actual.tasks == expected.tasks, program.name
    return actual


@pytest.mark.parametrize("suite_name", ["spec2017", "spec2006"])
def test_extract_matches_reference_on_every_spec_phase(suite_name):
    for benchmark in suite(suite_name):
        for workload, _ in benchmark.phases:
            trace = assert_same_trace(workload.program, workload.fresh_input)
            assert trace.tasks


FUZZ_SEEDS = range(12)


def fuzz_specs():
    return [generate_program(random.Random(seed)) for seed in FUZZ_SEEDS]


def test_fuzz_seeds_cover_nested_carried_and_shared_loops():
    loops = [loop for spec in fuzz_specs() for loop in spec.loops]
    kinds = {stmt.kind for loop in loops for stmt in loop.stmts}
    assert any(loop.nested_trip for loop in loops)
    assert {STMT_CARRIED, STMT_SHARED} <= kinds


@pytest.mark.parametrize("mark_all", [False, True],
                         ids=["pragmas", "all-loops"])
def test_extract_matches_reference_on_fuzz_programs(mark_all):
    # Marking every loop also annotates the inner loops of nests, whose
    # hints the enclosing region must ignore.
    options = CompileOptions(mark_all_loops=mark_all)
    for spec in fuzz_specs():
        program = compile_frog(spec.render(), options).program
        assert_same_trace(program, spec.fresh_input)


def test_inner_region_hints_do_not_split_outer_tasks():
    source = """
    fn main(a: ptr<int>, n: int) {
        #pragma loopfrog
        for (var i: int = 0; i < n; i = i + 1) {
            for (var j: int = 0; j < 4; j = j + 1) {
                a[i * 4 + j] = i + j;
            }
        }
    }
    """

    def make_input():
        return SparseMemory(), {"r1": 1000, "r2": 6}

    outer_only = compile_frog(source).program
    marked = compile_frog(source, CompileOptions(mark_all_loops=True)).program
    regions = {i.region_index for i in marked if i.is_hint}
    assert len(regions) == 2
    plain = assert_same_trace(outer_only, make_input)
    nested = assert_same_trace(marked, make_input)
    assert len(nested.parallel_tasks) == len(plain.parallel_tasks)


def test_extract_matches_reference_on_straddling_accesses():
    # 8-byte accesses against 4-byte granules: every access spans two.
    program = compile_frog(PARALLEL).program
    trace = assert_same_trace(program, lambda: parallel_input(16),
                              granule_bytes=4)
    body = [t for t in trace.parallel_tasks if t.writes]
    assert body and all(len(t.writes) % 2 == 0 for t in body)

    # Unaligned 8-byte accesses straddle two 8-byte granules.
    unaligned = assemble("""
        li r5, 0
        li r6, 6
        li r7, 4096
        loop:
        slt r8, r5, r6
        beqz r8, exit
        detach cont
        shl r9, r5, 4
        add r9, r9, r7
        load r10, r9, 3
        store r10, r9, 12
        reattach cont
        cont:
        add r5, r5, 1
        jmp loop
        exit:
        sync cont
        halt
    """)
    trace = assert_same_trace(unaligned, lambda: (SparseMemory(), {}))
    body = [t for t in trace.parallel_tasks if t.writes]
    assert len(body) == 6
    for k, task in enumerate(body):
        base = (4096 + 16 * k) // 8
        assert {base, base + 1} <= task.reads
        assert task.writes == {base + 1, base + 2}


def test_halt_is_not_counted():
    program = assemble("li r1, 1\nli r2, 2\nhalt\n")
    trace = assert_same_trace(program, lambda: (SparseMemory(), {}))
    assert trace.total_instructions == 2
    assert Executor(program).run().instructions == 3

    # A region still open at halt ends there, halt excluded.
    open_region = assemble("detach cont\nli r1, 1\ncont:\nhalt\n")
    trace = assert_same_trace(open_region, lambda: (SparseMemory(), {}))
    assert [(t.instructions, t.parallel) for t in trace.tasks] == [
        (1, False), (1, True)]


def test_instruction_budget_overflow_matches_reference():
    program = compile_frog(PARALLEL).program

    def run(extract, budget):
        return extract(program, *parallel_input(8), max_instructions=budget)

    memory, regs = parallel_input(8)
    executor = Executor(program, memory)
    executor.regs.update(regs)
    budget = executor.run().instructions   # halt included
    assert (run(extract_tasks, budget).tasks
            == run(reference_extract, budget).tasks)
    for short in (budget - 1, budget // 2):
        with pytest.raises(ExecutionError) as golden:
            run(reference_extract, short)
        with pytest.raises(ExecutionError) as fast:
            run(extract_tasks, short)
        assert str(fast.value) == str(golden.value)
        assert f"exceeded {short} instructions" in str(fast.value)
