"""Integration tests for the timing models (baseline and LoopFrog).

The key invariants:
* both timing models produce the same architectural memory/registers as the
  functional executor (speculation never changes semantics);
* LoopFrog actually spawns/commits threadlets on hinted parallel loops;
* conflict detection catches真 cross-threadlet violations and recovers.
"""

import gc
import weakref

import pytest

from repro.compiler import CompileOptions, compile_frog
from repro.uarch import BaselineCore, LoopFrogCore, SparseMemory
from repro.uarch.config import default_machine
from repro.uarch.core import ENGINE_MODES, Engine, set_engine_mode
from repro.uarch.executor import Executor


PARALLEL_KERNEL = """
fn main(dst: ptr<int>, src: ptr<int>, n: int) {
    #pragma loopfrog
    for (var i: int = 0; i < n; i = i + 1) {
        var x: int = src[i];
        dst[i] = x * x + 3;
    }
}
"""


def make_mem(n=64, src=2000):
    mem = SparseMemory()
    mem.store_int_array(src, [(7 * i) % 23 - 5 for i in range(n)])
    return mem


def functional_reference(program, mem, args):
    ex = Executor(program, mem)
    for reg, value in zip(("r1", "r2", "r3", "r4"), args):
        ex.regs[reg] = value
    ex.run()
    return ex


def test_baseline_matches_functional():
    result = compile_frog(PARALLEL_KERNEL)
    n = 64
    ref_mem = make_mem(n)
    functional_reference(result.program, ref_mem, (1000, 2000, n))

    sim_mem = make_mem(n)
    sim = BaselineCore().run(
        result.program, sim_mem, {"r1": 1000, "r2": 2000, "r3": n}
    )
    assert sim_mem.load_int_array(1000, n) == ref_mem.load_int_array(1000, n)
    assert sim.stats.cycles > 0
    assert sim.stats.arch_instructions > n  # at least one instr per element


def test_loopfrog_matches_functional():
    result = compile_frog(PARALLEL_KERNEL)
    n = 64
    ref_mem = make_mem(n)
    functional_reference(result.program, ref_mem, (1000, 2000, n))

    sim_mem = make_mem(n)
    sim = LoopFrogCore().run(
        result.program, sim_mem, {"r1": 1000, "r2": 2000, "r3": n}
    )
    assert sim_mem.load_int_array(1000, n) == ref_mem.load_int_array(1000, n)


def test_loopfrog_spawns_and_commits_threadlets():
    result = compile_frog(PARALLEL_KERNEL)
    n = 64
    sim = LoopFrogCore().run(
        result.program, make_mem(n), {"r1": 1000, "r2": 2000, "r3": n}
    )
    assert sim.stats.threadlets_spawned > 0
    assert sim.stats.threadlets_committed > 0
    assert sim.stats.threadlet_utilization(2) > 0.0


def test_loopfrog_faster_than_baseline_on_parallel_loop():
    result = compile_frog(PARALLEL_KERNEL)
    n = 256
    base = BaselineCore().run(
        result.program, make_mem(n), {"r1": 1000, "r2": 2000, "r3": n}
    )
    frog = LoopFrogCore().run(
        result.program, make_mem(n), {"r1": 1000, "r2": 2000, "r3": n}
    )
    assert frog.stats.cycles < base.stats.cycles


def test_same_dynamic_instruction_count():
    # Baseline arch commits == LoopFrog (arch + successful spec) commits.
    result = compile_frog(PARALLEL_KERNEL)
    n = 48
    base = BaselineCore().run(
        result.program, make_mem(n), {"r1": 1000, "r2": 2000, "r3": n}
    )
    frog = LoopFrogCore().run(
        result.program, make_mem(n), {"r1": 1000, "r2": 2000, "r3": n}
    )
    base_total = base.stats.arch_instructions
    frog_total = (
        frog.stats.arch_instructions + frog.stats.spec_committed_instructions
    )
    assert frog_total == base_total


CONFLICT_KERNEL = """
fn main(data: ptr<int>, idx: ptr<int>, n: int) {
    #pragma loopfrog
    for (var i: int = 0; i < n; i = i + 1) {
        var j: int = idx[i];
        data[j] = data[j] + 1;
    }
}
"""


def test_cross_iteration_memory_conflicts_are_detected_and_repaired():
    # Every iteration read-modify-writes the same location, with an
    # unpredictable branch between read and write so older threadlets
    # stall mid-iteration while younger ones race ahead and read stale
    # data.  Conflicts must be detected and the final value exact.
    source = """
    fn main(data: ptr<int>, noise: ptr<int>, n: int) {
        #pragma loopfrog
        for (var i: int = 0; i < n; i = i + 1) {
            var v: int = data[0];
            if (noise[i] % 3 == 0) {
                data[0] = v + 2;
            } else {
                data[0] = v + 1;
            }
        }
    }
    """
    result = compile_frog(source)
    n = 60
    import random

    rng = random.Random(11)
    noise = [rng.randrange(1 << 20) for _ in range(n)]
    mem = SparseMemory()
    mem.store_int_array(3000, noise)
    sim = LoopFrogCore().run(
        result.program, mem, {"r1": 1000, "r2": 3000, "r3": n}
    )
    expected = sum(2 if v % 3 == 0 else 1 for v in noise)
    assert mem.load_int(1000) == expected
    assert sim.stats.squash_conflicts > 0


def test_same_location_increments_stay_exact():
    # The simplest possible through-memory LCD: all iterations increment
    # data[0].  Whether or not conflicts fire (forwarding may win), the
    # result must equal the sequential one.
    result = compile_frog(CONFLICT_KERNEL)
    n = 40
    mem = SparseMemory()
    mem.store_int_array(3000, [0] * n)           # idx: all zeros -> data[0]
    mem.store_int_array(1000, [0] * 8)
    LoopFrogCore().run(result.program, mem, {"r1": 1000, "r2": 3000, "r3": n})
    assert mem.load_int(1000) == n


def test_disjoint_indices_cause_no_conflicts():
    result = compile_frog(CONFLICT_KERNEL)
    n = 40
    mem = SparseMemory()
    mem.store_int_array(3000, list(range(n)))    # idx: disjoint
    sim = LoopFrogCore().run(
        result.program, mem, {"r1": 1000, "r2": 3000, "r3": n}
    )
    assert mem.load_int_array(1000, n) == [1] * n
    assert sim.stats.squash_conflicts == 0


BREAK_KERNEL = """
fn main(a: ptr<int>, n: int, out: ptr<int>) {
    #pragma loopfrog
    for (var i: int = 0; i < n; i = i + 1) {
        if (a[i] < 0) { break; }
        out[i] = a[i] + 1;
    }
}
"""


def test_early_exit_sync_squashes_successors():
    result = compile_frog(BREAK_KERNEL)
    n = 64
    mem = SparseMemory()
    values = [5] * n
    values[20] = -1  # loop breaks at i == 20
    mem.store_int_array(2000, values)
    sim = LoopFrogCore().run(
        result.program, mem, {"r1": 2000, "r2": n, "r3": 4000}
    )
    assert mem.load_int_array(4000, 20) == [6] * 20
    assert mem.load_int(4000 + 20 * 8) == 0  # untouched past the break
    assert sim.stats.squash_syncs > 0


def test_pointer_chase_loop_runs_correctly_under_speculation():
    source = """
    fn main(next: ptr<int>, data: ptr<int>, out: ptr<int>, node: int) {
        var k: int = 0;
        #pragma loopfrog
        while (node != 0) {
            out[k] = data[node] * 2;
            k = k + 1;
            node = next[node];
        }
    }
    """
    result = compile_frog(source)
    n = 50
    mem = SparseMemory()
    order = list(range(1, n + 1))
    for pos, node in enumerate(order):
        nxt = order[pos + 1] if pos + 1 < n else 0
        mem.store_int(1000 + 8 * node, nxt)
        mem.store_int(3000 + 8 * node, node * 7)
    sim = LoopFrogCore().run(
        result.program, mem,
        {"r1": 1000, "r2": 3000, "r3": 6000, "r4": order[0]},
    )
    expected = [node * 14 for node in order]
    assert mem.load_int_array(6000, n) == expected


def test_baseline_ignores_hints_single_threadlet():
    result = compile_frog(PARALLEL_KERNEL)
    sim = BaselineCore().run(
        result.program, make_mem(16), {"r1": 1000, "r2": 2000, "r3": 16}
    )
    assert sim.stats.threadlets_spawned == 0
    assert sim.stats.active_threadlet_cycles.keys() == {1}


def test_region_stats_collected():
    result = compile_frog(PARALLEL_KERNEL)
    sim = LoopFrogCore().run(
        result.program, make_mem(32), {"r1": 1000, "r2": 2000, "r3": 32}
    )
    regions = {k: v for k, v in sim.stats.regions.items() if k != "<none>"}
    assert regions
    region = next(iter(regions.values()))
    assert region.arch_cycles > 0
    assert region.epochs_spawned > 0


def test_unhinted_program_identical_between_cores_semantics():
    source = """
    fn main(dst: ptr<int>, n: int) -> int {
        var acc: int = 0;
        for (var i: int = 0; i < n; i = i + 1) {
            dst[i] = i * i;
            acc = acc + i;
        }
        return acc;
    }
    """
    result = compile_frog(source, CompileOptions(insert_hints=False))
    mem_a, mem_b = SparseMemory(), SparseMemory()
    a = BaselineCore().run(result.program, mem_a, {"r1": 500, "r2": 20})
    b = LoopFrogCore().run(result.program, mem_b, {"r1": 500, "r2": 20})
    assert a.registers["r1"] == b.registers["r1"] == sum(range(20))
    assert mem_a.load_int_array(500, 20) == mem_b.load_int_array(500, 20)


def test_speedup_requires_enough_iterations():
    # A 2-trip loop cannot fill 4 threadlets; it must still be correct.
    result = compile_frog(PARALLEL_KERNEL)
    mem = make_mem(2)
    sim = LoopFrogCore().run(result.program, mem, {"r1": 1000, "r2": 2000, "r3": 2})
    ref_mem = make_mem(2)
    functional_reference(result.program, ref_mem, (1000, 2000, 2))
    assert mem.load_int_array(1000, 2) == ref_mem.load_int_array(1000, 2)


def test_zero_trip_loop():
    result = compile_frog(PARALLEL_KERNEL)
    sim = LoopFrogCore().run(
        result.program, SparseMemory(), {"r1": 1000, "r2": 2000, "r3": 0}
    )
    assert sim.stats.arch_instructions > 0


@pytest.mark.parametrize("mode", ENGINE_MODES)
@pytest.mark.parametrize("entry", ["run", "run_window"])
def test_finished_engine_is_freed_without_gc(mode, entry):
    """A finished engine holds no reference cycle: once run() or
    run_window() returns, dropping the last outside reference frees it
    by reference counting alone (sampled runs rely on this to hold one
    engine at a time)."""
    program = compile_frog(PARALLEL_KERNEL).program
    regs = {"r1": 1000, "r2": 2000, "r3": 64}
    set_engine_mode(mode)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        engine = Engine(default_machine(), program, make_mem(64), regs)
        if entry == "run":
            engine.run()
        else:
            engine.run_window(200)
        # The run exercised both memory views: architectural and
        # speculative threadlets.
        assert engine.stats.threadlets_spawned > 0
        alive = weakref.ref(engine)
        del engine
        assert alive() is None
    finally:
        if gc_was_enabled:
            gc.enable()
        set_engine_mode(None)
