"""Per-layer tracing for the benchmark's traced runs.

The traced run wraps the public entry points of each ``repro`` layer from
the benchmark's own files (nothing under ``src/`` changes), records one
span per call and sums self time per layer.  A span's self time is its
duration minus the time its child spans cover.  Spans opened on the job
service's worker thread, whose own stack is empty, become children of
the innermost span open on the main thread (the CLI waiting in
``JobManager.run``), so the handoff between the two threads is not
counted twice.

Spans are kept in memory and written at the end in the record format of
:mod:`repro.obs.tracing`, so ``repro trace FILE.jsonl`` summarises a
benchmark timeline like any other.

Engine runs inside pool worker processes are invisible to the parent:
the wrappers are disabled in forked children, and the SimStats those
runs return are picked up where the parent saves them to the store.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

# Layer of each span name.  ``cli.main`` has no layer: its self time is
# what no instrumented layer accounts for (``trace.unattributed_s``).
SPAN_LAYERS = {
    "service.job": "service",
    "service.execute": "service",
    "experiments.run": "experiments",
    "experiments.sweep": "experiments",
    "experiments.derive": "experiments",
    "experiments.render": "experiments",
    "experiments.write_artifacts": "experiments",
    "experiments.runner": "experiments",
    "pool.ensure": "pool",
    "pool.prefetch": "pool",
    "results.digest": "results",
    "results.store_load": "results",
    "results.store_save": "results",
    "workloads.suite": "workloads",
    "workloads.fresh_input": "workloads",
    "compiler.compile": "compiler",
    "uarch.init": "uarch",
    "uarch.run": "uarch",
    "uarch.run_window": "uarch",
    "uarch.apply_warmup": "uarch",
    "sampling.workload": "sampling",
    "sampling.profile": "sampling",
    "sampling.checkpoint": "sampling",
    "sampling.cluster": "sampling",
    "sampling.extrapolate": "sampling",
    "tls.extract": "tls",
    "tls.model": "tls",
}
LAYERS = tuple(dict.fromkeys(SPAN_LAYERS.values()))

# SimStats fields summed into the uarch.sim_* counts.
SIM_FIELDS = ("arch_instructions", "cycles", "threadlets_spawned",
              "threadlets_committed", "branch_mispredicts", "l1d_misses")


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "child", "attrs")

    def __init__(self, span_id: int, parent: Optional["Span"], name: str,
                 start: float):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.child = 0.0
        self.attrs: Dict[str, Any] = {}

    @property
    def duration(self) -> float:
        return (self.end or self.start) - self.start

    def ancestor(self, *names: str) -> Optional["Span"]:
        span = self.parent
        while span is not None and span.name not in names:
            span = span.parent
        return span


class Recorder:
    """Spans and counters of one traced CLI invocation."""

    def __init__(self) -> None:
        self._clock = time.perf_counter
        self._t0 = self._clock()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: List[Span] = []
        self.enabled = True
        self.spans: List[Span] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.total_time: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.sim = dict.fromkeys(SIM_FIELDS, 0)
        self.local_instructions = 0
        # SimStats produced by in-process engine runs, kept alive so their
        # ids stay unique; any other SimStats the parent saves came from a
        # pool worker.
        self._local_stats: List[Any] = []
        self._local_ids: set = set()

    def after_fork_in_child(self) -> None:
        self.enabled = False
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if main else []
            self._local.stack = stack
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        with self._lock:
            parent = stack[-1] if stack else (
                self._main_stack[-1] if self._main_stack else None)
            span = Span(len(self.spans) + 1, parent, name,
                        self._clock() - self._t0)
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        self._stack().pop()
        span.end = self._clock() - self._t0
        duration = span.duration
        with self._lock:
            if span.parent is not None:
                span.parent.child += duration
            self.calls[span.name] += 1
            self.total_time[span.name] += duration
            self.self_time[span.name] += duration - span.child

    def add_stats(self, stats, local: bool) -> None:
        with self._lock:
            for name in SIM_FIELDS:
                self.sim[name] += getattr(stats, name)
            if local:
                self._local_stats.append(stats)
                self._local_ids.add(id(stats))
                self.local_instructions += stats.arch_instructions

    def is_local(self, stats) -> bool:
        with self._lock:
            return id(stats) in self._local_ids

    # -- export ---------------------------------------------------------------

    def write_jsonl(self, path: str) -> int:
        """Write the spans as repro.obs.tracing span records."""
        from repro.obs.tracing import SpanRecord

        with open(path, "w") as fh:
            for span in self.spans:
                attrs = dict(span.attrs)
                layer = SPAN_LAYERS.get(span.name)
                if layer:
                    attrs["layer"] = layer
                record = SpanRecord(
                    span.id, span.parent.id if span.parent else None,
                    span.name, span.start, span.end, attrs).to_record()
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        return len(self.spans)


def _traced(rec: Recorder, name: str, fn: Callable,
            after: Optional[Callable[[Span, tuple, dict, Any], None]] = None
            ) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        span = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if after is not None:
            after(span, args, kwargs, result)
        return result

    return wrapper


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every ``repro`` module global bound to ``original`` (including
    names imported with ``from ... import``) at ``replacement``."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def _wrap_function(rec: Recorder, module, attr: str, name: str,
                   after=None) -> None:
    original = getattr(module, attr)
    _rebind(original, _traced(rec, name, original, after))


def _wrap_method(rec: Recorder, cls, attr: str, name: str,
                 after=None) -> None:
    setattr(cls, attr, _traced(rec, name, getattr(cls, attr), after))


def install(rec: Recorder) -> None:
    """Wrap every layer's public entry points; call before ``cli.main``."""
    # Loaded first so that names it imports (compile_frog) are rebound too.
    from repro import cli  # noqa: F401
    from repro import compiler, tls
    from repro.experiments import registry, runner, spec as exp_spec
    from repro.results import digest, store
    from repro.sampling import runner as sampling_runner
    from repro.service import executors, manager, pool
    from repro.tls import multiscalar, stampede
    from repro.uarch import core
    from repro.workloads import base, suites

    os.register_at_fork(after_in_child=rec.after_fork_in_child)

    # service: the CLI's hand-off to the job manager, and the job bodies.
    _wrap_method(rec, manager.JobManager, "run", "service.job")
    for kind, fn in list(executors.EXECUTORS.items()):
        executors.EXECUTORS[kind] = _traced(rec, "service.execute", fn)

    # experiments: registry, sweep engine, derive/render hooks, runner.
    _wrap_function(rec, registry, "run_experiment", "experiments.run")
    _wrap_function(rec, exp_spec, "execute_spec", "experiments.sweep")
    _wrap_function(rec, registry, "write_artifacts",
                   "experiments.write_artifacts")
    _wrap_method(rec, registry.ExperimentRun, "render", "experiments.render")
    # ExperimentSpec is frozen: register a copy whose derive is traced.
    for name, spec in list(registry._SPECS.items()):
        registry._SPECS[name] = dataclasses.replace(
            spec, derive=_traced(rec, "experiments.derive", spec.derive))
    for attr in ("run_suite", "run_benchmark", "run_workload"):
        _wrap_function(rec, runner, attr, "experiments.runner")

    # service.pool: cell cache, single-flight claims, process fan-out.
    _wrap_function(rec, pool, "ensure", "pool.ensure")
    _wrap_function(rec, pool, "prefetch", "pool.prefetch")

    # results: content digests and the persistent store.
    for attr in ("workload_digest", "machine_digest", "program_digest",
                 "run_digest", "sampled_run_digest"):
        _wrap_function(rec, digest, attr, "results.digest")

    def after_load(span, args, kwargs, result):
        rec.counts["store_loads"] += 1
        rec.counts["store_hits"] += result is not None

    def after_save(span, args, kwargs, result):
        rec.counts["store_saves"] += 1
        rec.counts["store_bytes"] += os.path.getsize(result)
        stats = args[2] if len(args) > 2 else kwargs["stats"]
        extra = args[5] if len(args) > 5 else kwargs.get("extra")
        if not extra and not rec.is_local(stats):
            # An exact result computed by a pool worker process.
            rec.counts["dispatched"] += 1
            rec.add_stats(stats, local=False)

    _wrap_method(rec, store.ResultStore, "load", "results.store_load",
                 after_load)
    _wrap_method(rec, store.ResultStore, "load_extra", "results.store_load")
    _wrap_method(rec, store.ResultStore, "save", "results.store_save",
                 after_save)

    # workloads and compiler.
    _wrap_function(rec, suites, "suite", "workloads.suite")
    _wrap_method(rec, base.Workload, "fresh_input", "workloads.fresh_input")
    _wrap_function(rec, compiler, "compile_frog", "compiler.compile")

    # uarch, host side.
    def after_run(span, args, kwargs, stats):
        rec.add_stats(stats, local=True)
        # A cell simulated in this process: under ensure, or by prefetch
        # when it runs misses serially (--jobs 1, or one pending cell).
        if span.ancestor("pool.ensure", "pool.prefetch") is not None:
            rec.counts["cell_engine_runs"] += 1

    def after_window(span, args, kwargs, window):
        rec.add_stats(window.stats, local=True)

    _wrap_method(rec, core.Engine, "__init__", "uarch.init")
    _wrap_method(rec, core.Engine, "run", "uarch.run", after_run)
    _wrap_method(rec, core.Engine, "run_window", "uarch.run_window",
                 after_window)
    _wrap_method(rec, core.Engine, "apply_warmup", "uarch.apply_warmup")

    # sampling: fast-forward passes, clustering, extrapolation.
    def after_profile(span, args, kwargs, result):
        rec.counts["ff_instructions"] += result[1]

    def after_checkpoint(span, args, kwargs, result):
        boundaries = args[3] if len(args) > 3 else kwargs["boundaries"]
        rec.counts["ff_instructions"] += max(boundaries, default=0)

    def after_sampled(span, args, kwargs, result):
        if not result.cached:
            rec.counts["detailed_instructions"] += result.detailed_instructions
            rec.counts["sampled_instructions"] += result.total_instructions

    _wrap_function(rec, sampling_runner, "run_workload_sampled",
                   "sampling.workload", after_sampled)
    _wrap_function(rec, sampling_runner, "profile_intervals",
                   "sampling.profile", after_profile)
    _wrap_function(rec, sampling_runner, "collect_checkpoints",
                   "sampling.checkpoint", after_checkpoint)
    _wrap_function(rec, sampling_runner, "cluster_intervals",
                   "sampling.cluster")
    _wrap_function(rec, sampling_runner, "extrapolate",
                   "sampling.extrapolate")

    # tls: task extraction on the golden executor, and the epoch models.
    _wrap_function(rec, tls, "extract_tasks", "tls.extract")
    _wrap_function(rec, stampede, "simulate_stampede", "tls.model")
    _wrap_function(rec, multiscalar, "simulate_multiscalar", "tls.model")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(rec: Recorder, wall_s: float, cell_requests: int
            ) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, str]]:
    """Per-layer metrics, per-layer self times and n/a reasons.

    A metric whose layer the workload never entered is reported as 0 and
    listed in the n/a reasons.
    """
    calls, own, total, counts = (rec.calls, rec.self_time, rec.total_time,
                                 rec.counts)
    # Engine runs that answered a cell request, wherever they ran.
    cell_engine_runs = counts["cell_engine_runs"] + counts["dispatched"]

    # cli.main minus the calls the CLI and the job service make into the
    # layers below them (the registry and runner, or the sampler): the
    # outermost spans of every layer but the service.
    below_service = 0.0
    for span in rec.spans:
        layer = SPAN_LAYERS.get(span.name)
        if layer in (None, "service"):
            continue
        parent = span.parent
        while parent is not None and SPAN_LAYERS.get(parent.name) in (
                None, "service"):
            parent = parent.parent
        if parent is None:
            below_service += span.duration

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, seconds in own.items():
        layer = SPAN_LAYERS.get(name)
        if layer:
            layer_self[layer] += seconds

    engine_s = total["uarch.run"]
    ff_s = total["sampling.profile"] + total["sampling.checkpoint"]
    sampled = counts["sampled_instructions"]
    m = {
        "service.overhead_s": wall_s - below_service,
        "service.jobs": calls["service.job"],
        "experiments.sweep_self_s": own["experiments.sweep"],
        "experiments.derive_s": own["experiments.derive"],
        "experiments.render_s": own["experiments.render"],
        "experiments.render_calls": calls["experiments.render"],
        "experiments.write_artifacts_s": own["experiments.write_artifacts"],
        "experiments.cell_requests": cell_requests,
        "pool.ensure_calls": calls["pool.ensure"],
        "pool.ensure_self_s": own["pool.ensure"],
        "pool.prefetch_s": total["pool.prefetch"],
        "pool.dispatched": counts["dispatched"],
        "pool.served_ratio": _ratio(calls["pool.ensure"] - cell_engine_runs,
                                    calls["pool.ensure"]),
        "results.digest_s": own["results.digest"],
        "results.digest_calls": calls["results.digest"],
        "results.store_load_s": own["results.store_load"],
        "results.store_loads": counts["store_loads"],
        "results.store_hit_ratio": _ratio(counts["store_hits"],
                                          counts["store_loads"]),
        "results.store_save_s": own["results.store_save"],
        "results.store_saves": counts["store_saves"],
        "results.store_bytes": counts["store_bytes"],
        "workloads.fresh_input_s": own["workloads.fresh_input"],
        "workloads.fresh_input_calls": calls["workloads.fresh_input"],
        "compiler.compile_s": own["compiler.compile"],
        "compiler.programs": calls["compiler.compile"],
        "uarch.engine_s": engine_s,
        "uarch.engine_init_s": total["uarch.init"],
        "uarch.engine_runs": calls["uarch.run"],
        "uarch.instr_per_s": _ratio(rec.local_instructions, engine_s),
        "uarch.window_s": total["uarch.run_window"],
        "uarch.windows": calls["uarch.run_window"],
        "uarch.warmup_s": total["uarch.apply_warmup"],
        "uarch.sim_instructions": rec.sim["arch_instructions"],
        "uarch.sim_cycles": rec.sim["cycles"],
        "uarch.threadlets_spawned": rec.sim["threadlets_spawned"],
        "uarch.threadlet_commit_ratio": _ratio(
            rec.sim["threadlets_committed"], rec.sim["threadlets_spawned"]),
        "uarch.branch_mispredicts": rec.sim["branch_mispredicts"],
        "uarch.l1d_misses": rec.sim["l1d_misses"],
        "sampling.profile_s": total["sampling.profile"],
        "sampling.checkpoint_s": total["sampling.checkpoint"],
        "sampling.cluster_s": total["sampling.cluster"],
        "sampling.extrapolate_s": total["sampling.extrapolate"],
        "sampling.ff_instructions": counts["ff_instructions"],
        "sampling.ff_instr_per_s": _ratio(counts["ff_instructions"], ff_s),
        "sampling.detailed_fraction": _ratio(
            counts["detailed_instructions"], sampled),
        "tls.extract_s": own["tls.extract"],
        "tls.extract_calls": calls["tls.extract"],
        "tls.model_s": own["tls.model"],
        "trace.unattributed_s": wall_s - sum(layer_self.values()),
    }

    na: Dict[str, str] = {}

    def mark(prefixes, reason):
        for name in m:
            if name.startswith(prefixes):
                na.setdefault(name, reason)

    if not calls["sampling.workload"]:
        mark(("sampling.", "uarch.window", "uarch.warmup"),
             "the workload never enters repro.sampling")
    if not calls["experiments.run"]:
        mark(("experiments.sweep", "experiments.derive", "experiments.render",
              "experiments.write", "experiments.cell"),
             "the workload does not go through the experiment registry")
    if not calls["tls.extract"]:
        mark(("tls.",), "no Table 3 derive in this workload")
    if not calls["pool.ensure"]:
        mark(("pool.ensure", "pool.served"),
             "sampled cells bypass the exact-cell pool")
    if not calls["pool.prefetch"]:
        mark(("pool.prefetch", "pool.dispatched"),
             "--jobs 1: no process fan-out")
    if not calls["uarch.run"]:
        mark(("uarch.engine_s", "uarch.engine_runs", "uarch.instr_per_s"),
             "no Engine.run in this process")
    if not calls["uarch.init"]:
        mark(("uarch.engine_init_s",), "no engine built in this process")
    if not counts["store_saves"]:
        mark(("results.store_save", "results.store_bytes"),
             "every cell is a store hit")
    if not (calls["uarch.run"] or calls["uarch.run_window"]
            or counts["dispatched"]):
        mark(("uarch.sim_", "uarch.threadlet", "uarch.branch", "uarch.l1d"),
             "the engine never runs (every cell is a store hit)")
    if counts["dispatched"]:
        for name in ("uarch.engine_s", "uarch.engine_init_s",
                     "uarch.engine_runs", "uarch.instr_per_s",
                     "workloads.fresh_input_s"):
            na.setdefault(
                name, f"parent process only; {int(counts['dispatched'])} "
                "engine runs happened in pool workers (see pool.prefetch_s)")
    return m, layer_self, na
