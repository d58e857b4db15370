"""Differential tests of the sampled-simulation fast-forward path.

The fast-forward executor is the functional model sampled simulation
(docs/sampling.md) uses to skip between detailed windows, and its
checkpoints are where mid-program windows start.  Both must be
*architecturally invisible*:

* fast-forwarding a program to completion must reproduce the reference
  :class:`~repro.uarch.executor.Executor`'s final state exactly, and
* resuming the detailed engine from a mid-program checkpoint must land
  in exactly the architectural state a detailed run from instruction
  zero reaches.

Exercised over the same seed-pinned random Frog corpus as
``test_differential`` — cross-iteration memory dependencies,
data-dependent branches and speculation pressure included.
"""

import gc
import weakref

import pytest

from repro.compiler import compile_frog
from repro.errors import ExecutionError
from repro.isa.assembler import assemble
from repro.sampling.fastforward import (
    FastForwardExecutor,
    collect_checkpoints,
)
from repro.uarch.config import default_machine
from repro.uarch.core import ENGINE_MODES, Engine, set_engine_mode
from repro.uarch.executor import Executor

from tests.test_differential import (
    _fresh_memory,
    _initial_regs,
    _memory_image,
    generate_program,
)

NUM_SEEDS = 12


def _compiled(seed):
    return compile_frog(generate_program(seed)).program


@pytest.mark.parametrize("seed", range(NUM_SEEDS))
def test_fast_forward_matches_functional_executor(seed):
    program = _compiled(seed)

    ex = Executor(program, _fresh_memory(seed))
    ex.regs.update(_initial_regs(seed))
    ex.run()

    ff = FastForwardExecutor(program, _fresh_memory(seed), _initial_regs(seed))
    executed = ff.run_to_halt()

    assert ff.halted, f"seed {seed}: fast-forward did not reach halt"
    assert executed > 0
    assert _memory_image(ff.memory) == _memory_image(ex.memory), (
        f"seed {seed}: fast-forward memory state diverged from the "
        f"functional executor"
    )
    assert ff.regs == ex.regs, (
        f"seed {seed}: fast-forward registers diverged from the "
        f"functional executor"
    )


@pytest.mark.parametrize("seed", range(NUM_SEEDS))
def test_detail_from_checkpoint_matches_detail_from_zero(seed):
    """FF to a mid-program boundary + detailed engine from the checkpoint
    must finish in the same architectural state as a detailed run from
    instruction zero (with full speculation enabled)."""
    program = _compiled(seed)
    machine = default_machine()

    reference = Engine(
        machine, program, _fresh_memory(seed), _initial_regs(seed)
    )
    reference.run()
    ref_memory = _memory_image(reference.memory)
    ref_regs = dict(reference.order[0].regs)

    total = FastForwardExecutor(
        program, _fresh_memory(seed), _initial_regs(seed)
    ).run_to_halt()
    assert total > 3
    boundaries = sorted({total // 3, (2 * total) // 3})
    checkpoints = dict(collect_checkpoints(
        program, _fresh_memory(seed), _initial_regs(seed), boundaries
    ))

    for boundary, cp in checkpoints.items():
        assert cp.icount == boundary
        resumed = Engine(
            machine, program, cp.engine_memory(), dict(cp.regs),
            warm_caches=False, initial_pc=cp.pc,
        )
        resumed.run()
        assert _memory_image(resumed.memory) == ref_memory, (
            f"seed {seed}, boundary {boundary}: resumed memory state "
            f"diverged from the detailed run from zero"
        )
        assert dict(resumed.order[0].regs) == ref_regs, (
            f"seed {seed}, boundary {boundary}: resumed registers "
            f"diverged from the detailed run from zero"
        )


def test_checkpoint_memory_is_isolated_per_window():
    """Engines started from the same checkpoint must not see each other's
    stores — ``engine_memory`` hands out independent copies."""
    program = _compiled(0)
    total = FastForwardExecutor(
        program, _fresh_memory(0), _initial_regs(0)
    ).run_to_halt()
    cp = dict(collect_checkpoints(
        program, _fresh_memory(0), _initial_regs(0), [total // 2]
    ))[total // 2]

    snapshot = _memory_image(cp.memory)
    first = Engine(default_machine(), program, cp.engine_memory(),
                   dict(cp.regs), warm_caches=False, initial_pc=cp.pc)
    first.run()
    assert _memory_image(cp.memory) == snapshot, (
        "running a window mutated the checkpoint's private snapshot"
    )


def test_fast_forward_run_to_is_exact():
    """``run_to`` must stop at exactly the requested icount so checkpoint
    boundaries line up with BBV interval boundaries."""
    program = _compiled(1)
    ff = FastForwardExecutor(program, _fresh_memory(1), _initial_regs(1))
    total = FastForwardExecutor(
        program, _fresh_memory(1), _initial_regs(1)
    ).run_to_halt()
    target = total // 2
    ff.run_to(target)
    assert ff.icount == target
    assert not ff.halted


@pytest.mark.parametrize("fault", [
    "li r1, 7\nli r2, 0\ndiv r3, r1, r2",
    "li r1, 7\nrem r3, r1, 0",
    "fli f1, 1.5\nfli f2, 0.0\nfdiv f3, f1, f2",
    "fli f1, -4.0\nfsqrt f2, f1",
], ids=["div", "rem", "fdiv", "fsqrt"])
def test_fault_messages_match_functional_executor(fault):
    """A faulting workload gives the same one-line typed error whichever
    functional interpreter runs it."""
    program = assemble(f"nop\n{fault}\nhalt\n")
    with pytest.raises(ExecutionError) as golden:
        Executor(program).run()
    with pytest.raises(ExecutionError) as fast:
        FastForwardExecutor(program).run_to_halt()
    assert str(fast.value) == str(golden.value)
    assert str(golden.value).endswith(f": {program.instructions[-2]}")


def _engine_outcome(program, mode):
    """Final registers of a detailed run in ``mode``, or its fault text."""
    set_engine_mode(mode)
    try:
        engine = Engine(default_machine(), program, None, None)
    finally:
        set_engine_mode(None)
    try:
        engine.run()
    except ExecutionError as exc:
        return str(exc)
    return dict(engine.order[0].regs)


@pytest.mark.parametrize("op", ["and", "or", "xor", "shl", "shr"])
@pytest.mark.parametrize("form", ["imm", "reg"])
def test_bitwise_ops_truncate_float_valued_int_register(op, form):
    """An integer register holding a float (``mov`` from an FP register)
    is truncated with ``int`` by every interpreter before the bitwise op."""
    operand = "3" if form == "imm" else "r3"
    program = assemble(
        f"fli f1, 2.5\nmov r1, f1\nli r3, 3\n{op} r2, r1, {operand}\nhalt\n"
    )
    golden = Executor(program).run().registers
    ff = FastForwardExecutor(program)
    ff.run_to_halt()
    hinted = FastForwardExecutor(program)
    hinted.run_hints(lambda instr, icount: None, 1000)
    assert ff.regs == golden
    assert hinted.regs == golden
    for mode in ENGINE_MODES:
        assert _engine_outcome(program, mode) == golden, mode


@pytest.mark.parametrize("ra", [-3, 99], ids=["negative", "past_end"])
def test_ret_out_of_range_faults_match_functional_executor(ra):
    """A ``ret`` to an address outside the program faults with the golden
    executor's text in both fast-forward runs."""
    program = assemble(f"li ra, {ra}\nret\nhalt\n")
    with pytest.raises(ExecutionError) as golden:
        Executor(program).run()
    assert str(golden.value) == f"pc {ra} out of range in <asm>"
    with pytest.raises(ExecutionError) as fast:
        FastForwardExecutor(program).run_to_halt()
    with pytest.raises(ExecutionError) as hinted:
        FastForwardExecutor(program).run_hints(lambda i, c: None, 1000)
    assert str(fast.value) == str(golden.value)
    assert str(hinted.value) == str(golden.value)


@pytest.mark.parametrize("make", [
    "fmul f2, f1, f1",
    "fmul f2, f1, -1e308",
    "fmul f3, f1, f1\nfsub f2, f3, f3",
], ids=["inf", "-inf", "nan"])
def test_icvt_of_non_finite_is_a_typed_fault(make):
    """``icvt`` of NaN or +/-inf raises the same typed one-line fault in
    every interpreter, and the detailed engine reports it as an
    architectural fault instead of crashing."""
    program = assemble(f"fli f1, 1e308\n{make}\nicvt r1, f2\nhalt\n")
    with pytest.raises(ExecutionError) as golden:
        Executor(program).run()
    message = str(golden.value)
    assert message.endswith(f": {program.instructions[-2]}")
    assert message.startswith("icvt of non-finite ")
    with pytest.raises(ExecutionError) as fast:
        FastForwardExecutor(program).run_to_halt()
    with pytest.raises(ExecutionError) as hinted:
        FastForwardExecutor(program).run_hints(lambda i, c: None, 1000)
    assert str(fast.value) == message
    assert str(hinted.value) == message
    for mode in ENGINE_MODES:
        outcome = _engine_outcome(program, mode)
        assert outcome.endswith(f"architectural fault: {message}"), mode


def test_halted_executor_is_freed():
    """Nothing compiled per program keeps a halted run alive: the stop
    raised at ``halt`` is not a cached exception whose traceback would
    pin the last executor's frames, registers and memory for as long as
    the program lives."""
    program = _compiled(0)
    ff = FastForwardExecutor(program, _fresh_memory(0), _initial_regs(0))
    ff.run_to_halt()
    memory = weakref.ref(ff.memory)
    del ff
    gc.collect()
    assert memory() is None
