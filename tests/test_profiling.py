"""Tests for profiling-based loop selection (paper section 5.1)."""

import random

import pytest

from repro.compiler import (
    CompileOptions,
    LoopProfile,
    apply_selection,
    compile_frog,
    profile_and_select,
    profile_program,
    select_profitable,
)
from repro.errors import ExecutionError
from repro.fuzz.model import generate_program
from repro.isa.assembler import assemble
from repro.isa.instructions import Opcode
from repro.uarch import LoopFrogCore, SparseMemory
from repro.uarch.executor import Executor
from repro.workloads.suites import suite

SOURCE = """
fn main(a: ptr<int>, b: ptr<int>, n: int) {
    // A worthwhile loop: decent trips and body.
    for (var i: int = 0; i < n; i = i + 1) {
        var x: int = a[i];
        b[i] = x * x + x * 3 + (x >> 2) + 1;
    }
    // A tiny loop with a 2-instruction body: not worth annotating.
    for (var j: int = 0; j < 3; j = j + 1) {
        b[n + j] = j;
    }
}
"""


def compiled_all_marked():
    return compile_frog(SOURCE, CompileOptions(mark_all_loops=True))


def inputs(n=64):
    mem = SparseMemory()
    mem.store_int_array(0x8000, [(3 * i) % 17 for i in range(n)])
    return mem, {"r1": 0x8000, "r2": 0x1000, "r3": n}


def test_mark_all_loops_annotates_unpragmaed():
    result = compiled_all_marked()
    assert len(result.annotated_loops) == 2


def test_profile_counts_regions():
    result = compiled_all_marked()
    mem, regs = inputs()
    profiles = profile_program(result.program, mem, regs)
    assert len(profiles) == 2
    big = max(profiles, key=lambda p: p.instructions)
    small = min(profiles, key=lambda p: p.instructions)
    assert big.entries == 1
    assert big.iterations == 64
    assert big.mean_trip_count == pytest.approx(64)
    assert small.iterations == 3
    assert big.coverage > small.coverage


def test_select_profitable_drops_tiny_loops():
    result = compiled_all_marked()
    mem, regs = inputs()
    profiles = profile_program(result.program, mem, regs)
    keep = select_profitable(profiles)
    assert len(keep) == 1
    kept = next(p for p in profiles if p.region in keep)
    assert kept.mean_trip_count > 10


def test_apply_selection_nops_unselected_hints():
    result = compiled_all_marked()
    mem, regs = inputs()
    selected = profile_and_select(result.program, mem, regs)
    kept_regions = {i.region for i in selected if i.is_hint}
    assert len(kept_regions) == 1
    # The unselected loop's hints are nops but the layout is unchanged.
    assert len(selected) == len(result.program)


def test_selected_program_still_correct():
    result = compiled_all_marked()
    mem, regs = inputs()
    selected = profile_and_select(result.program, mem, regs)

    mem_ref, regs_ref = inputs()
    ex = Executor(result.program, mem_ref)
    ex.regs.update(regs_ref)
    ex.run()

    mem_sim, regs_sim = inputs()
    LoopFrogCore().run(selected, mem_sim, regs_sim)
    n = 64
    assert mem_sim.load_int_array(0x1000, n + 3) == mem_ref.load_int_array(
        0x1000, n + 3
    )


def test_selection_thresholds_configurable():
    result = compiled_all_marked()
    mem, regs = inputs()
    profiles = profile_program(result.program, mem, regs)
    keep_all = select_profitable(
        profiles, min_coverage=0.0, min_trip_count=0, min_iteration_size=0
    )
    assert len(keep_all) == 2
    keep_none = select_profitable(profiles, min_coverage=0.99)
    assert not keep_none


# ---------------------------------------------------------------------------
# Differential tests: profile_program against a golden-executor profile
# ---------------------------------------------------------------------------


def reference_profile(program, memory=None, initial_regs=None,
                      max_instructions=5_000_000):
    """Region profiling as a per-instruction ``trace_hook`` on the golden
    :class:`Executor` — the oracle ``profile_program`` must reproduce."""
    executor = Executor(program, memory)
    if initial_regs:
        executor.regs.update(initial_regs)
    profiles = {}
    active = None
    active_index = None

    def hook(pc, instr, result):
        nonlocal active, active_index
        if active is not None:
            profiles[active].instructions += 1
        op = instr.opcode
        if op is Opcode.DETACH and active is None:
            active = instr.region
            active_index = instr.region_index
            profile = profiles.setdefault(active, LoopProfile(active))
            profile.entries += 1
            profile.iterations += 1
        elif op is Opcode.DETACH and active_index == instr.region_index:
            profiles[active].iterations += 1
        elif op is Opcode.SYNC and active_index == instr.region_index:
            active = None
            active_index = None

    executor._trace_hook = hook
    executor.run(max_instructions=max_instructions)
    total = executor.instruction_count
    for profile in profiles.values():
        profile.coverage = profile.instructions / total if total else 0.0
    return list(profiles.values())


def assert_same_profiles(program, make_input, **kwargs):
    memory, regs = make_input()
    expected = reference_profile(program, memory, regs, **kwargs)
    memory, regs = make_input()
    actual = profile_program(program, memory, regs, **kwargs)
    assert actual == expected, program.name
    return actual


@pytest.mark.parametrize("suite_name", ["spec2017", "spec2006"])
def test_profile_matches_reference_on_every_spec_phase(suite_name):
    for benchmark in suite(suite_name):
        for workload, _ in benchmark.phases:
            assert assert_same_profiles(workload.program, workload.fresh_input)


@pytest.mark.parametrize("mark_all", [False, True],
                         ids=["pragmas", "all-loops"])
def test_profile_matches_reference_on_fuzz_programs(mark_all):
    options = CompileOptions(mark_all_loops=mark_all)
    for seed in range(12):
        spec = generate_program(random.Random(seed))
        program = compile_frog(spec.render(), options).program
        assert_same_profiles(program, spec.fresh_input)


def test_profile_coverage_counts_halt():
    # A region still open at halt ends there; halt stays in the
    # denominator, as in the golden executor's instruction count.
    program = assemble("detach cont\nli r1, 1\ncont:\nhalt\n")
    (profile,) = assert_same_profiles(program, lambda: (SparseMemory(), {}))
    assert profile.instructions == 1
    assert profile.coverage == pytest.approx(1 / 3)


def test_profile_budget_overflow_matches_reference():
    result = compiled_all_marked()
    with pytest.raises(ExecutionError) as golden:
        reference_profile(result.program, *inputs(), max_instructions=100)
    with pytest.raises(ExecutionError) as fast:
        profile_program(result.program, *inputs(), max_instructions=100)
    assert str(fast.value) == str(golden.value)
