"""Differential parity: the optimized engine vs the reference engine.

The engine has two execution modes (``repro.uarch.core.ENGINE_MODES``):
the per-phase ``reference`` pipeline and the optimized ``epoch-parallel``
mode (episode execution: cross-cycle monolithic loops with compiled
per-instruction closures, slot-order caches, epoch-granularity batched
hazard and statistics bookkeeping, and idle-cycle skipping).  The
optimized mode claims to be *bit-identical* to the reference pipeline.
This suite is that claim, mechanised as a reference x epoch-parallel
parity matrix over

* the 50 seeded fuzz programs from :mod:`tests.test_differential`, and
* every workload of every registered suite (spec2017, spec2006, longrun),

each run through both engine modes on both machine configurations,
with the full :class:`~repro.uarch.statistics.SimStats` record — cycles,
every counter, per-region breakdowns — plus the observability metric
snapshot asserted equal field-for-field.  Separate cases prove
:meth:`Engine.run_window` (the sampled-simulation entry point) and a
whole sampled run agree on warmup/measured boundaries too.

Every leg pins its mode explicitly with ``set_engine_mode``, so the
suite still compares both modes when CI runs the whole test tier
under ``REPRO_ENGINE_MODE=reference``.
"""

import dataclasses
import functools

import pytest

from repro.compiler import compile_frog
from repro.obs.metrics import load_all
from repro.sampling.runner import run_workload_sampled
from repro.uarch.config import baseline_machine, default_machine
from repro.uarch.core import ENGINE_MODES, Engine, set_engine_mode
from repro.workloads.suites import SUITE_NAMES, get_workload, suite

from tests.test_differential import (
    NUM_PROGRAMS,
    _fresh_memory,
    _initial_regs,
    generate_program,
)

MACHINES = {
    "baseline": baseline_machine,
    "loopfrog": default_machine,
}

# The optimized mode, compared field-for-field to "reference".
OPTIMIZED_MODES = tuple(m for m in ENGINE_MODES if m != "reference")

_METRICS = load_all()


@functools.lru_cache(maxsize=None)
def _fuzz_program(seed: int):
    return compile_frog(generate_program(seed)).program


def _run_stats(program, memory, regs, machine, *, mode, max_cycles=None):
    """Construct and run one engine with the mode pinned explicitly."""
    set_engine_mode(mode)
    try:
        engine = Engine(machine, program, memory, regs)
    finally:
        set_engine_mode(None)
    assert engine.engine_mode == mode
    if max_cycles is None:
        return engine.run()
    return engine.run(max_cycles=max_cycles)


def _assert_parity(ref_stats, mode_stats, mode, label):
    assert mode_stats.cycles == ref_stats.cycles, (
        f"{label}: cycles diverged "
        f"(reference {ref_stats.cycles}, {mode} {mode_stats.cycles})"
    )
    ref_record = dataclasses.asdict(ref_stats)
    mode_record = dataclasses.asdict(mode_stats)
    if mode_record != ref_record:
        diverged = sorted(
            key for key in ref_record
            if mode_record.get(key) != ref_record[key]
        )
        raise AssertionError(
            f"{label}: SimStats diverged from reference in mode {mode} "
            f"in fields {diverged}"
        )
    assert _METRICS.collect(mode_stats) == _METRICS.collect(ref_stats), (
        f"{label}: obs metric snapshot diverged in mode {mode}"
    )


def _assert_matrix(runs, label):
    """``runs`` maps mode name -> SimStats for one (program, machine)."""
    for mode in OPTIMIZED_MODES:
        _assert_parity(runs["reference"], runs[mode], mode, label)


# ---------------------------------------------------------------------------
# Fuzz corpus parity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("machine_name", sorted(MACHINES))
@pytest.mark.parametrize("seed", range(NUM_PROGRAMS))
def test_fuzz_program_parity(seed, machine_name):
    program = _fuzz_program(seed)
    machine = MACHINES[machine_name]
    runs = {
        mode: _run_stats(
            program, _fresh_memory(seed), _initial_regs(seed), machine(),
            mode=mode,
        )
        for mode in ENGINE_MODES
    }
    _assert_matrix(runs, f"fuzz seed {seed} on {machine_name}")


# ---------------------------------------------------------------------------
# Suite workload parity
# ---------------------------------------------------------------------------

def _suite_cases():
    for suite_name in SUITE_NAMES:
        for benchmark in suite(suite_name):
            yield pytest.param(
                suite_name, benchmark.name,
                id=f"{suite_name}-{benchmark.name}",
            )


@pytest.mark.parametrize("machine_name", sorted(MACHINES))
@pytest.mark.parametrize("suite_name,bench_name", list(_suite_cases()))
def test_suite_workload_parity(suite_name, bench_name, machine_name):
    benchmark = next(
        b for b in suite(suite_name) if b.name == bench_name
    )
    machine = MACHINES[machine_name]
    for workload, _weight in benchmark.phases:
        runs = {}
        for mode in ENGINE_MODES:
            memory, regs = workload.fresh_input()
            runs[mode] = _run_stats(
                workload.program, memory, regs, machine(),
                mode=mode, max_cycles=workload.max_cycles,
            )
        _assert_matrix(
            runs, f"{suite_name}:{workload.name} on {machine_name}"
        )


# ---------------------------------------------------------------------------
# Sampled-window entry point parity
# ---------------------------------------------------------------------------

def _engine(workload, machine, mode):
    memory, regs = workload.fresh_input()
    set_engine_mode(mode)
    try:
        engine = Engine(machine, workload.program, memory, regs)
    finally:
        set_engine_mode(None)
    assert engine.engine_mode == mode
    return engine


# Window cases on imagick_conv, the first spec2017 workload: a warm-up
# boundary in the serial prologue on both machines, and on LoopFrog one
# that lands while four threadlets are live.
MULTI_EPISODE_WARMUP = 1558
WINDOW_CASES = [
    pytest.param("baseline", 500, id="baseline"),
    pytest.param("loopfrog", 500, id="loopfrog"),
    pytest.param("loopfrog", MULTI_EPISODE_WARMUP,
                 id="loopfrog-warmup-in-multi-episode"),
]


@pytest.mark.parametrize("machine_name,warmup", WINDOW_CASES)
def test_run_window_parity(machine_name, warmup):
    workload = suite("spec2017")[0].phases[0][0]
    machine = MACHINES[machine_name]
    windows = {}
    for mode in ENGINE_MODES:
        engine = _engine(workload, machine(), mode)
        windows[mode] = engine.run_window(2_000, warmup_instructions=warmup)
        if mode != "reference":
            # The window ran on the episode loops, not per-cycle steps.
            assert engine.ep_episodes_single + engine.ep_episodes_multi > 0
    ref = windows["reference"]
    for mode in OPTIMIZED_MODES:
        cur = windows[mode]
        for field in (
            "warmup_instructions", "warmup_cycles",
            "measured_instructions", "measured_cycles", "finished",
        ):
            assert getattr(cur, field) == getattr(ref, field), (
                f"run_window {field} diverged on {machine_name} "
                f"in mode {mode}"
            )
        _assert_parity(
            ref.stats, cur.stats, mode,
            f"run_window stats on {machine_name}",
        )


def test_window_warmup_boundary_inside_multi_threadlet_episode():
    """The multi-episode window case really cuts a live episode: the
    optimized engine stops on the warm-up target with several threadlets
    still active."""
    workload = suite("spec2017")[0].phases[0][0]
    engine = _engine(workload, default_machine(), "epoch-parallel")
    window = engine.run_window(0, warmup_instructions=MULTI_EPISODE_WARMUP)
    assert not window.finished
    assert len(engine.order) > 1
    assert engine.ep_episodes_multi > 0


def test_sampled_run_parity():
    """A whole sampled run of one longrun phase: every window measurement
    and the extrapolated estimate agree between the modes."""
    workload = get_workload("longrun_conv")
    results = {}
    for mode in ENGINE_MODES:
        set_engine_mode(mode)
        try:
            results[mode] = run_workload_sampled(
                workload, default_machine(), use_cache=False, jobs=1,
            )
        finally:
            set_engine_mode(None)
    ref = results["reference"]
    assert len(ref.windows) > 1
    for mode in OPTIMIZED_MODES:
        cur = results[mode]
        assert len(cur.windows) == len(ref.windows)
        for ref_w, cur_w in zip(ref.windows, cur.windows):
            label = f"sampled window {ref_w.interval_index} in mode {mode}"
            assert dataclasses.replace(cur_w, stats=None) == (
                dataclasses.replace(ref_w, stats=None)
            ), label
            _assert_parity(ref_w.stats, cur_w.stats, mode, label)
        # The estimate: every field but the windows (compared above)
        # and the fast-forward wall-clock rate.
        assert dataclasses.replace(
            cur, windows=[], ff_instructions_per_second=0.0
        ) == dataclasses.replace(
            ref, windows=[], ff_instructions_per_second=0.0
        ), f"sampled estimate diverged in mode {mode}"
