"""Opcode x edge-operand differential test of the ISA's two implementations.

The golden :class:`~repro.uarch.executor.Executor` (dispatch table) and
the closures :mod:`repro.uarch.fastpath` compiles for both fast
interpreters must agree on every computational opcode, in register and
immediate form, at the operands where wrap, truncation and IEEE corner
cases live: +/-2^63 wrap, ``INT_MIN / -1``, negative div/rem operands,
shift counts 0/63/64/negative, divide-by-zero, NaN, +/-inf and -0.0.
The closures are driven through :class:`FastForwardExecutor`.  A result
is the final register file (floats compared by bit pattern, so -0.0 and
NaN payloads count) or the exact text of the typed fault.
"""

import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ExecutionError
from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import Program
from repro.sampling.fastforward import FastForwardExecutor
from repro.uarch.executor import Executor

INT_MIN = -(1 << 63)
INT_MAX = (1 << 63) - 1

_INT_EDGES = [0, 1, -1, 2, -2, 7, -7, 63, 64, -64, INT_MIN, INT_MAX,
              INT_MIN + 1, 1 << 32]
_FLOAT_EDGES = [0.0, -0.0, 1.5, -2.5, math.inf, -math.inf, math.nan,
                1e308, -1e308, 5e-324]

ints = st.one_of(
    st.sampled_from(_INT_EDGES),
    st.integers(min_value=INT_MIN, max_value=INT_MAX),
)
finite_floats = st.one_of(
    st.sampled_from([f for f in _FLOAT_EDGES if math.isfinite(f)]),
    st.floats(min_value=-1e20, max_value=1e20),
)
floats = st.one_of(st.sampled_from(_FLOAT_EDGES), st.floats())
# Integer ops that truncate their sources with ``int`` also accept a
# float-valued integer register (``mov r1, f1``).
truncated = st.one_of(ints, finite_floats)
numbers = st.one_of(ints, floats)

# opcode -> (source strategy, dest register, source registers)
_BINARY = {
    Opcode.ADD: ints, Opcode.SUB: ints, Opcode.MUL: ints,
    Opcode.DIV: truncated, Opcode.REM: truncated,
    Opcode.AND: truncated, Opcode.OR: truncated, Opcode.XOR: truncated,
    Opcode.SHL: truncated, Opcode.SHR: truncated,
    Opcode.SLT: numbers, Opcode.SLE: numbers, Opcode.SEQ: numbers,
    Opcode.SNE: numbers, Opcode.MIN: numbers, Opcode.MAX: numbers,
    Opcode.FADD: floats, Opcode.FSUB: floats, Opcode.FMUL: floats,
    Opcode.FDIV: floats, Opcode.FMIN: numbers, Opcode.FMAX: numbers,
    Opcode.FSLT: numbers, Opcode.FSLE: numbers, Opcode.FSEQ: numbers,
}
_UNARY = {
    Opcode.MOV: numbers, Opcode.FMOV: numbers, Opcode.FSQRT: floats,
    Opcode.FABS: floats, Opcode.FCVT: ints, Opcode.ICVT: floats,
}
_IMMEDIATE = {Opcode.LI: truncated, Opcode.FLI: floats}


def _canonical(regs):
    """Registers with floats as bit patterns (NaN != NaN, -0.0 == 0.0)."""
    return {
        name: struct.pack("<d", v) if isinstance(v, float) else v
        for name, v in regs.items()
    }


def _outcomes(instr, regs):
    """(golden, fast) final registers or fault text for one instruction."""
    program = Program([instr, Instruction(Opcode.HALT)], name="<edge>")
    golden = Executor(program)
    golden.regs.update(regs)
    fast = FastForwardExecutor(program, None, regs)
    results = []
    for run in (golden.run, fast.run_to_halt):
        try:
            run()
        except ExecutionError as exc:
            results.append(str(exc))
        else:
            results.append(None)
    golden_out, fast_out = results
    if golden_out is None and fast_out is None:
        return _canonical(golden.regs), _canonical(fast.regs)
    return golden_out, fast_out


def _assert_same(instr, regs):
    golden, fast = _outcomes(instr, regs)
    assert fast == golden, f"{instr} with {regs}"


@pytest.mark.parametrize("op", sorted(_BINARY, key=lambda o: o.value),
                         ids=lambda o: o.value)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_binary_opcode_register_and_immediate_forms(op, data):
    strategy = _BINARY[op]
    a = data.draw(strategy, label="a")
    b = data.draw(strategy, label="b")
    regs = {"r1": a, "r2": b}
    _assert_same(Instruction(op, dest="r3", srcs=("r1", "r2")), regs)
    _assert_same(Instruction(op, dest="r3", srcs=("r1",), imm=b), regs)


@pytest.mark.parametrize("op", sorted(_UNARY, key=lambda o: o.value),
                         ids=lambda o: o.value)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_unary_opcode(op, data):
    a = data.draw(_UNARY[op], label="a")
    _assert_same(Instruction(op, dest="r3", srcs=("r1",)), {"r1": a})


@pytest.mark.parametrize("op", sorted(_IMMEDIATE, key=lambda o: o.value),
                         ids=lambda o: o.value)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_immediate_opcode(op, data):
    imm = data.draw(_IMMEDIATE[op], label="imm")
    _assert_same(Instruction(op, dest="r3", imm=imm), {})


@pytest.mark.parametrize("op, a, b", [
    (Opcode.ADD, INT_MAX, 1),
    (Opcode.SUB, INT_MIN, 1),
    (Opcode.MUL, INT_MIN, -1),
    (Opcode.DIV, INT_MIN, -1),
    (Opcode.REM, INT_MIN, -1),
    (Opcode.DIV, -7, 2),
    (Opcode.REM, -7, 2),
    (Opcode.REM, 7, -2),
    (Opcode.DIV, 5, 0),
    (Opcode.REM, 5, 0),
    (Opcode.SHL, 1, 63),
    (Opcode.SHL, 1, 64),
    (Opcode.SHR, -1, 0),
    (Opcode.SHR, -1, -1),
    (Opcode.FDIV, 1.0, -0.0),
    (Opcode.FMIN, math.nan, 1.0),
    (Opcode.FMAX, 1.0, math.nan),
    (Opcode.FMIN, -0.0, 0.0),
    (Opcode.FSLE, math.nan, math.nan),
    (Opcode.FSEQ, -0.0, 0.0),
], ids=lambda v: getattr(v, "value", repr(v)))
def test_pinned_edge_cases(op, a, b):
    """The named edges run on every test, not only when drawn."""
    regs = {"r1": a, "r2": b}
    _assert_same(Instruction(op, dest="r3", srcs=("r1", "r2")), regs)
    _assert_same(Instruction(op, dest="r3", srcs=("r1",), imm=b), regs)
