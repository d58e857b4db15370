"""Sampled-simulation orchestration: profile, cluster, window, extrapolate.

The pipeline (docs/sampling.md) for one (program, machine) pair:

1. **Profile** (fast-forward pass 1): BBV per ``interval_length``
   instructions over the whole program.
2. **Cluster**: seed-pinned k-means picks ``k <= max_clusters``
   representative intervals and instruction-share weights.
3. **Checkpoint** (fast-forward pass 2): architectural snapshots at each
   representative's *window start* — ``warmup_intervals`` intervals
   before the representative, so the detailed engine warms up through
   real preceding work before measurement begins — plus functional
   warmup history (last-touch data addresses, recent branch outcomes).
4. **Windows**: the detailed :class:`~repro.uarch.core.Engine` replays
   each window from its checkpoint via :meth:`Engine.run_window`.  Steps
   3 and 4 are one streamed pass: each checkpoint's windows start as
   soon as it is taken — inline, or with ``jobs > 1`` on a
   :class:`~concurrent.futures.ProcessPoolExecutor` with at most ``jobs``
   windows in flight — and the checkpoint is dropped before
   fast-forward resumes.
5. **Extrapolate**: weighted CPI combination with an error bound.

Sampled estimates are cached in the persistent result store under
:func:`~repro.results.digest.sampled_run_digest` — a digest dimension
disjoint from exact results by construction, so an estimate can never
shadow a detailed simulation (or vice versa).
"""

from __future__ import annotations

import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..obs import metrics as _metrics
from ..obs.tracing import span as _span
from ..isa.program import Program
from ..uarch.config import MachineConfig, default_machine
from ..uarch.core import Engine
from ..uarch.memory_state import SparseMemory
from .extrapolate import SampledRunResult, WindowMeasurement, extrapolate
from .fastforward import collect_checkpoints, profile_intervals
from .kmeans import cluster_intervals

# Version of the *sampling methodology*.  Part of the sampled run digest:
# bump on any change to profiling, clustering, warmup policy or
# extrapolation that can alter estimates, so stale estimates are never
# served from the store.  (The engine's own timing semantics are covered
# by ENGINE_SCHEMA_VERSION, which the digest also includes.)
SAMPLING_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SamplingConfig:
    """Tunables of the sampled-simulation methodology.

    Every field is part of the sampled run digest.  Defaults are tuned on
    the long-run suite (see docs/sampling.md for the validation data):
    intervals must be long relative to the engine's speculative *runahead*
    — threadlets complete whole future iterations before the merge credits
    them, so short windows see lumpy, unrepresentative slices — and
    windows are measured whole from a clean (unspeculated) checkpoint
    start rather than split into a timed warmup prefix, because a
    mid-speculation cut cannot be attributed cleanly to either side.
    """

    interval_length: int = 8000
    max_clusters: int = 8
    seed: int = 42
    # Programs at or below this many dynamic instructions are "too short
    # to sample" (the classic SimPoint guard): the runner simulates them
    # as ONE exact detailed run covering the whole program, reproducing
    # the continuous engine's cycle count bit-for-bit.  Sampling proper
    # only pays off once windows are much smaller than the program.
    full_detail_threshold: int = 100_000
    # Detailed warmup: how many preceding intervals to simulate (unmeasured)
    # before each representative.  The default of 0 is deliberate: the
    # engine's speculative runahead makes the warmup/measured cycle split
    # unattributable (see class docstring); microarchitectural state is
    # instead reconstructed from the functional warmup record below.
    warmup_intervals: int = 0
    # Branch-history depth recorded at each checkpoint and replayed into
    # the predictor.  Any positive depth also keeps the full last-touch
    # record that cache contents are reconstructed from.  0 records
    # nothing: windows get no warmup replay and fall back to the
    # constructor's whole-working-set cache warming.
    functional_warmup: int = 4096
    # Fast-forward instruction budget (safety net against runaway kernels).
    max_instructions: int = 500_000_000


def _window_plan(
    intervals, cluster, warmup_intervals: int
) -> List[Tuple[int, float, int, int, int]]:
    """Per representative: (interval_index, weight, window_start_icount,
    warmup_instructions, n_instructions)."""
    plan = []
    for rep, weight in zip(cluster.representatives, cluster.weights):
        start_interval = max(0, rep - warmup_intervals)
        window_start = intervals[start_interval].start_icount
        warmup = intervals[rep].start_icount - window_start
        plan.append((rep, weight, window_start, warmup, intervals[rep].length))
    return plan


def _run_window_job(payload) -> WindowMeasurement:
    """Worker-side entry point: one detailed window from a checkpoint.

    The payload is plain picklable state (the parallel path ships it to a
    worker process; the serial path calls this directly, and the engine
    mutates the payload's memory).
    """
    (machine, program, memory, regs, pc, warmup_state,
     interval_index, weight, warmup_instructions, n_instructions,
     max_cycles) = payload
    # With a recorded warmup the caches are reconstructed from last-touch
    # order (apply_warmup); the constructor's whole-working-set warming
    # models program entry and would leave mid-program windows too warm.
    engine = Engine(
        machine, program, memory, regs,
        warm_caches=warmup_state is None, initial_pc=pc,
    )
    if warmup_state is not None:
        engine.apply_warmup(warmup_state)
    window = engine.run_window(
        n_instructions,
        warmup_instructions=warmup_instructions,
        max_cycles=max_cycles,
    )
    return WindowMeasurement(
        interval_index=interval_index,
        weight=weight,
        warmup_instructions=window.warmup_instructions,
        measured_instructions=window.measured_instructions,
        measured_cycles=window.measured_cycles,
        stats=window.stats,
    )


def _stream_windows(
    program: Program,
    memory: SparseMemory,
    initial_regs: Dict[str, float],
    machine: MachineConfig,
    config: SamplingConfig,
    plan: List[Tuple[int, float, int, int, int]],
    max_cycles: int,
    jobs: int,
) -> List[WindowMeasurement]:
    """Checkpoint pass feeding the detailed windows; returns the
    measurements in plan order.

    Each checkpoint's windows start as soon as it is taken: inline with
    ``jobs == 1``, else on a process pool with at most ``jobs`` windows
    in flight.  A window runs on the checkpoint's own memory snapshot
    (only a second window from the same start gets a copy), and the
    checkpoint is dropped before fast-forward resumes, so the parent
    holds one checkpoint and one engine at a time.
    """
    by_start: Dict[int, List[int]] = {}
    for i, (_, _, window_start, _, _) in enumerate(plan):
        by_start.setdefault(window_start, []).append(i)
    windows: List[Optional[WindowMeasurement]] = [None] * len(plan)
    pool = None
    if jobs > 1 and len(plan) > 1:
        pool = ProcessPoolExecutor(max_workers=min(jobs, len(plan)))
    in_flight: Dict[Future, int] = {}

    def drain(limit: int) -> None:
        while len(in_flight) > limit:
            done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
            for future in done:
                windows[in_flight.pop(future)] = future.result()

    try:
        checkpoints = collect_checkpoints(
            program, memory.copy(), initial_regs, list(by_start),
            record_warmup=config.functional_warmup,
        )
        while True:
            with _span("sample.checkpoint"):
                taken = next(checkpoints, None)
            if taken is None:
                break
            window_start, cp = taken
            users = by_start[window_start]
            for n, i in enumerate(users):
                rep, weight, _, warmup, length = plan[i]
                payload = (
                    machine, program,
                    cp.memory if n == len(users) - 1 else cp.engine_memory(),
                    cp.regs, cp.pc,
                    cp.warmup if config.functional_warmup > 0 else None,
                    rep, weight, warmup, length, max_cycles,
                )
                if pool is None:
                    windows[i] = _run_window_job(payload)
                else:
                    drain(jobs - 1)
                    in_flight[pool.submit(_run_window_job, payload)] = i
                del payload
            # No reference to this checkpoint may survive into the next
            # fast-forward step.
            del taken, cp
        drain(0)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return windows


def run_program_sampled(
    program: Program,
    memory: SparseMemory,
    initial_regs: Dict[str, float],
    machine: Optional[MachineConfig] = None,
    config: Optional[SamplingConfig] = None,
    max_cycles: int = 50_000_000,
    jobs: int = 1,
) -> SampledRunResult:
    """Sampled-simulate one program; returns the extrapolated estimate.

    ``memory``/``initial_regs`` are the program-entry state (they are
    copied per pass, never mutated).  ``jobs > 1`` parallelises the
    detailed windows.
    """
    machine = machine or default_machine()
    config = config or SamplingConfig()

    with _span("sample.profile", program=program.name,
               interval_length=config.interval_length):
        start = time.perf_counter()
        intervals, total_instructions = profile_intervals(
            program, memory.copy(), initial_regs,
            config.interval_length, config.max_instructions,
        )
        profile_wall = time.perf_counter() - start
    ff_rate = total_instructions / profile_wall if profile_wall > 0 else 0.0

    if total_instructions <= config.full_detail_threshold:
        # Too short to sample (the classic SimPoint guard, see
        # docs/sampling.md): one detailed run over the whole program,
        # weight 1.  The estimate IS the detailed result — every counter
        # exact, error bound zero.
        with _span("sample.windows", windows=1, jobs=1):
            engine = Engine(machine, program, memory.copy(), initial_regs)
            stats = engine.run(max_cycles=max_cycles)
        window = WindowMeasurement(
            interval_index=0, weight=1.0, warmup_instructions=0,
            measured_instructions=total_instructions,
            measured_cycles=stats.cycles, stats=stats,
        )
        return SampledRunResult(
            stats=stats,
            estimated_cpi=(
                stats.cycles / stats.arch_instructions
                if stats.arch_instructions else 0.0
            ),
            estimated_cycles=stats.cycles,
            error_bound=0.0,
            total_instructions=total_instructions,
            num_intervals=len(intervals),
            num_clusters=1,
            interval_length=config.interval_length,
            detailed_instructions=total_instructions,
            ff_instructions_per_second=ff_rate,
            windows=[window],
        )

    with _span("sample.cluster", intervals=len(intervals)):
        cluster = cluster_intervals(intervals, config.max_clusters, config.seed)
    plan = _window_plan(intervals, cluster, config.warmup_intervals)

    with _span("sample.windows", windows=len(plan), jobs=jobs):
        windows = _stream_windows(
            program, memory, initial_regs, machine, config, plan,
            max_cycles, jobs,
        )

    result = extrapolate(
        windows,
        total_instructions=total_instructions,
        num_intervals=len(intervals),
        interval_length=config.interval_length,
        ff_instructions_per_second=ff_rate,
    )
    return result


# ---------------------------------------------------------------------------
# Workload-level entry point with store caching
# ---------------------------------------------------------------------------

# In-process estimate cache, keyed by the sampled run digest (which covers
# workload content, machine config, engine schema and sampling config).
_CACHE: Dict[str, SampledRunResult] = {}


def _extra_payload(result: SampledRunResult) -> dict:
    return {
        "sampled": True,
        "sampling_schema": SAMPLING_SCHEMA_VERSION,
        "estimated_cpi": result.estimated_cpi,
        "error_bound": result.error_bound,
        "total_instructions": result.total_instructions,
        "num_intervals": result.num_intervals,
        "num_clusters": result.num_clusters,
        "interval_length": result.interval_length,
        "detailed_instructions": result.detailed_instructions,
    }


def _from_store(stats, extra: dict) -> SampledRunResult:
    fallback_cpi = (
        stats.cycles / stats.arch_instructions if stats.arch_instructions else 0.0
    )
    return SampledRunResult(
        stats=stats,
        estimated_cpi=float(extra.get("estimated_cpi", fallback_cpi)),
        estimated_cycles=stats.cycles,
        error_bound=float(extra.get("error_bound", 0.0)),
        total_instructions=int(extra.get("total_instructions", stats.arch_instructions)),
        num_intervals=int(extra.get("num_intervals", 0)),
        num_clusters=int(extra.get("num_clusters", 0)),
        interval_length=int(extra.get("interval_length", 0)),
        detailed_instructions=int(extra.get("detailed_instructions", 0)),
        cached=True,
    )


def run_workload_sampled(
    workload,
    machine: Optional[MachineConfig] = None,
    config: Optional[SamplingConfig] = None,
    use_cache: bool = True,
    jobs: Optional[int] = None,
) -> SampledRunResult:
    """Sampled-simulate one workload (cached like the exact runner).

    The cache key is :func:`sampled_run_digest` — disjoint from exact run
    digests, so sampled and exact results never collide in either cache
    layer or the persistent store.
    """
    from ..experiments.runner import default_jobs
    from ..results.digest import sampled_run_digest
    from ..results.store import get_default_store

    machine = machine or default_machine()
    config = config or SamplingConfig()
    if jobs is None:
        jobs = default_jobs()

    digest = None
    store = None
    if use_cache:
        digest = sampled_run_digest(workload, machine, config)
        cached = _CACHE.get(digest)
        if cached is not None:
            return cached
        store = get_default_store()
        if store is not None:
            stats = store.load(digest)
            if stats is not None:
                result = _from_store(stats, store.load_extra(digest) or {})
                _CACHE[digest] = result
                return result

    memory, regs = workload.fresh_input()
    result = run_program_sampled(
        workload.program, memory, regs, machine, config,
        max_cycles=workload.max_cycles, jobs=jobs,
    )
    if use_cache:
        _CACHE[digest] = result
        if store is not None:
            from ..results.digest import machine_digest

            store.save(
                digest, result.stats,
                workload=workload.name,
                machine=machine_digest(machine)[:12],
                extra=_extra_payload(result),
            )
    return result


def clear_cache() -> None:
    _CACHE.clear()


# ---------------------------------------------------------------------------
# Metrics catalog for the sampling subsystem (collected off
# SampledRunResult; see docs/observability.md).
# ---------------------------------------------------------------------------

_metrics.register(
    _metrics.MetricSpec(
        "sampling.total_instructions", _metrics.COUNTER, "sampling",
        "Dynamic instructions in the fast-forwarded whole program",
        unit="instructions", source="total_instructions"),
    _metrics.MetricSpec(
        "sampling.intervals", _metrics.GAUGE, "sampling",
        "Profiled fixed-length instruction intervals",
        unit="intervals", source="num_intervals"),
    _metrics.MetricSpec(
        "sampling.clusters", _metrics.GAUGE, "sampling",
        "k-means clusters (= detailed windows simulated)",
        unit="clusters", source="num_clusters"),
    _metrics.MetricSpec(
        "sampling.detailed_instructions", _metrics.COUNTER, "sampling",
        "Instructions simulated in detail (warmup + measured windows)",
        unit="instructions", source="detailed_instructions"),
    _metrics.MetricSpec(
        "sampling.detailed_fraction", _metrics.GAUGE, "sampling",
        "Detailed instructions / total instructions (sampling savings)",
        derive=lambda r: r.detailed_fraction),
    _metrics.MetricSpec(
        "sampling.estimated_cpi", _metrics.GAUGE, "sampling",
        "Extrapolated whole-program cycles per instruction",
        unit="cpi", source="estimated_cpi"),
    _metrics.MetricSpec(
        "sampling.error_bound", _metrics.GAUGE, "sampling",
        "Relative 95% half-width of the CPI estimate (cluster dispersion)",
        source="error_bound"),
    _metrics.MetricSpec(
        "sampling.fast_forward_rate", _metrics.GAUGE, "sampling",
        "Fast-forward profiling throughput",
        unit="instr/s", source="ff_instructions_per_second"),
)
