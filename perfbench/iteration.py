"""One measured iteration, run by ``run.py`` in a fresh interpreter.

Measure mode calls ``repro.cli.main(argv)`` once and writes a JSON
record: exit code, time in ``cli.main``, peak memory of this process and
of its pool workers, and the registry's cell counters.  With ``--trace``
the layers are wrapped first (see layers.py), the spans are written as
JSONL and the record carries the per-layer metrics.

Probe mode (``--probe``) does only the set-up a run of the workload
needs: import ``repro``, build the suites and compile every phase the
workload touches.  ``run.py`` times the whole process from spawn to exit.

Both modes import the same modules before doing anything else, so the
module imports that ``cli.main`` would otherwise do lazily are set-up,
counted in ``setup_s`` and in neither run's ``wall_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import repro.cli  # noqa: E402
import repro.experiments  # noqa: E402,F401  (registers every experiment)
import repro.sampling.runner  # noqa: E402,F401
import repro.service  # noqa: E402,F401
import repro.tls  # noqa: E402,F401
from repro.experiments import registry  # noqa: E402
from repro.experiments.spec import global_counters  # noqa: E402

import workloads  # noqa: E402


def _benchmarks(workload: str):
    """Every benchmark a run of ``workload`` touches."""
    from repro.workloads import suite

    if workload == "sampled_longrun":
        return [b for b in suite("longrun")
                if any(phase.name == workloads.LONGRUN_PHASE
                       for phase, _weight in b.phases)]
    if workload == "exact_artefacts":
        specs = [registry.get(name) for name in workloads.ARTEFACTS]
    else:
        specs = registry.specs()
    only = {"exact_artefacts": set(workloads.MID_BENCHMARKS),
            "registry_sweep": set(workloads.SMALL_BENCHMARKS)}.get(workload)
    seen = {}
    for spec in specs:
        for suite_name in spec.suites:
            for benchmark in suite(suite_name):
                if only is None or benchmark.name in only:
                    seen[(suite_name, benchmark.name)] = benchmark
    return list(seen.values())


def probe(workload: str) -> None:
    for benchmark in _benchmarks(workload):
        for phase, _weight in benchmark.phases:
            phase.compiled()


def measure(args: argparse.Namespace) -> dict:
    argv = workloads.cli_argv(args.workload, args.seed, args.out,
                              args.store, registry.names())
    rec = None
    if args.trace:
        import layers

        rec = layers.Recorder()
        layers.install(rec)
        root = rec.open("cli.main")
    start = time.perf_counter()
    rc = repro.cli.main(argv)
    wall = time.perf_counter() - start
    record = {"rc": rc, "wall_s": wall}
    if rec is not None:
        rec.close(root)
        wall = root.duration
        record["wall_s"] = wall
        record["spans"] = rec.write_jsonl(args.trace)
        metrics, layer_self, na = layers.metrics(
            rec, wall, global_counters().cells_total)
        record.update(layers=metrics, layer_self=layer_self, na=na)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    record["peak_rss_mb"] = (own + workers) / 1024.0
    counters = global_counters()
    record["reported_cells"] = {
        "total": counters.cells_total,
        "cached": counters.cells_cached,
        "simulated": counters.cells_simulated,
    }
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--store")
    parser.add_argument("--result")
    parser.add_argument("--trace", help="write the spans to this JSONL file")
    args = parser.parse_args()
    if args.probe:
        probe(args.workload)
        return 0
    record = measure(args)
    with open(args.result, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
