"""Benchmark entry point for the LoopFrog reproduction.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload exact_artefacts --seed 0 \
        --seconds 25 --trace 0

Each iteration is a fresh interpreter calling ``repro.cli.main(argv)``
(iteration.py); the workloads are defined in workloads.py.  With
``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` the per-layer ones from a traced run (layers.py)
beside an untraced one.  Every iteration's outputs are checked against
goldens.json; a mismatch fails all of that iteration's operations.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it are a
human-readable table, and a full record with host facts is written under
``.perfbench/results/``.  State (the warm store, traces, scratch stores)
lives in ``.perfbench/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# Fewest fresh-interpreter set-up probes per run; setup_s is their median.
SETUP_PROBES = 5
# No single child may outlive the run's own 180 s limit.
CHILD_TIMEOUT_S = 150
# Filling the warm store is a cold `exp all --jobs 2`, done by the first
# warm_replay run of a source tree; with the 25 s run after it, the run
# must still end within 180 s.
WARM_TIMEOUT_S = 130
# Warm stores kept, one per source tree, most recently used first: a
# checkout that alternates two trees fills each store once.
WARM_KEEP = 2


class BenchError(Exception):
    """The benchmark cannot run here (not a failed measurement)."""


# -- host facts ----------------------------------------------------------------

def calibration_score() -> float:
    """Fixed pure-Python work per second (best of 5), in M loop steps/s.

    Lets numbers from different machines be read side by side; gates
    compare only runs from the same machine.
    """
    steps = 200_000
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(steps):
            acc = (acc + i * i) % 1_000_003
        best = min(best, time.perf_counter() - start)
    return steps / best / 1e6


def host_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "calibration_msteps_per_s": calibration_score(),
    }


# -- children ------------------------------------------------------------------

def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONPATH"}
    return env


def run_child(args, timeout: float, log_path: str) -> float:
    """Run ``iteration.py args``; returns its wall time.  Raises
    ``subprocess.TimeoutExpired`` after killing a child that overruns."""
    cmd = [sys.executable, os.path.join(HERE, "iteration.py")] + args
    start = time.perf_counter()
    with open(log_path, "w") as log:
        # Own process group, so a timeout also kills the pool workers.
        # The watchdog keeps wait() a blocking waitpid: wait(timeout=)
        # polls in sleeps of up to 50 ms, which would quantise setup_s.
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=log,
                                start_new_session=True)
        watchdog = threading.Timer(
            timeout, os.killpg, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            proc.wait()
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            watchdog.join()
    if proc.returncode == -signal.SIGKILL:
        raise subprocess.TimeoutExpired(cmd, timeout)
    if proc.returncode != 0:
        with open(log_path) as fh:
            tail = fh.read()[-2000:]
        raise RuntimeError(f"iteration.py exited {proc.returncode}:\n{tail}")
    return time.perf_counter() - start


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"),
                                 recursive=True)):
        h.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


# -- output checks -------------------------------------------------------------

def artefact_digest(path: str) -> str:
    """sha256 of an experiment's JSON artefact without its ``cells``
    block, which records the order experiments ran in, not results."""
    with open(path) as fh:
        payload = json.load(fh)
    payload.pop("cells", None)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def read_store(store_dir: str) -> dict:
    """Totals over exact records and every sampled estimate."""
    exact = {"records": 0, "cycles": 0, "instructions": 0}
    estimates = {}
    for path in sorted(glob.glob(os.path.join(store_dir, "*", "*.json"))):
        with open(path) as fh:
            record = json.load(fh)
        stats, extra = record["stats"], record.get("extra") or {}
        if extra.get("sampled"):
            estimates[f"{record['workload']}@{record['machine']}"] = {
                "estimated_cpi": extra["estimated_cpi"],
                "estimated_cycles": stats["cycles"],
                "total_instructions": extra["total_instructions"],
                "error_bound": extra["error_bound"],
            }
        else:
            exact["records"] += 1
            exact["cycles"] += stats["cycles"]
            exact["instructions"] += stats["arch_instructions"]
    return {"exact": exact, "estimates": estimates}


def check_outputs(golden: dict, out_dir: str,
                  store: dict) -> list:
    """Mismatches against the pinned goldens (empty when correct)."""
    problems = []
    for name, want in golden.get("artefacts", {}).items():
        path = os.path.join(out_dir, f"{name}.json")
        got = artefact_digest(path) if os.path.exists(path) else "missing"
        if got != want:
            problems.append(f"artefact {name}: {got[:12]} != {want[:12]}")
    if "cells" in golden:
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            cells = json.load(fh)["cells"]
        if cells != golden["cells"]:
            problems.append(f"manifest cells {cells} != {golden['cells']}")
    if store["exact"] != golden["store"]:
        problems.append(f"store {store['exact']} != {golden['store']}")
    if store["estimates"] != golden.get("estimates", {}):
        problems.append("sampled estimates differ from the pinned ones")
    return problems


def delivered_instructions(workload: str, store: dict) -> int:
    """Architectural instructions in the timing results the run
    produced: every distinct cell once; for sampled runs, the
    whole-program instructions estimated."""
    if workload == "sampled_longrun":
        return sum(e["total_instructions"]
                   for e in store["estimates"].values())
    return store["exact"]["instructions"]


def cpi_error_pct(goldens: dict, store: dict) -> float:
    ref = goldens["reference_cpi"]
    errors = [
        abs(est["estimated_cpi"] - ref["cpi"][key]) / ref["cpi"][key]
        for key, est in store["estimates"].items() if key in ref["cpi"]
    ]
    return 100.0 * sum(errors) / len(errors) if errors else 0.0


# -- the warm store ------------------------------------------------------------

def warm_store(goldens: dict) -> tuple:
    """The store ``warm_replay`` reads, filled once per source tree by an
    untimed cold ``exp all``; returns its path and the fill time in
    seconds (0 when the store was already there)."""
    final = os.path.join(STATE, f"warm-{source_digest()}")
    if os.path.isdir(final):
        os.utime(final)
        return os.path.join(final, "store"), 0.0
    build = os.path.join(STATE, f"build-{os.getpid()}")
    shutil.rmtree(build, ignore_errors=True)
    os.makedirs(build)
    print("perfbench: filling the warm store (once per source tree)...",
          file=sys.stderr, flush=True)
    try:
        fill_s = run_child(
            ["--workload", "warm_replay", "--seed", "0",
             "--out", os.path.join(build, "out"),
             "--store", os.path.join(build, "store"),
             "--result", os.path.join(build, "result.json")],
            WARM_TIMEOUT_S, os.path.join(build, "stderr.txt"))
        store = read_store(os.path.join(build, "store"))
        problems = check_outputs(goldens["warm_replay"],
                                 os.path.join(build, "out"), store)
        if problems:
            raise RuntimeError("warm store fill: " + "; ".join(problems))
        shutil.rmtree(os.path.join(build, "out"))
        os.replace(build, final)
    finally:
        shutil.rmtree(build, ignore_errors=True)
    stores = sorted(glob.glob(os.path.join(STATE, "warm-*")),
                    key=os.path.getmtime, reverse=True)
    for stale in stores[WARM_KEEP:]:
        shutil.rmtree(stale, ignore_errors=True)
    return os.path.join(final, "store"), fill_s


# -- one iteration -------------------------------------------------------------

def iteration(workload: str, seed: int, index: int, goldens: dict,
              warm: str, trace_path: str = "") -> dict:
    """Run and check one iteration; returns its record."""
    scratch = os.path.join(STATE, "tmp", f"{os.getpid()}-{index}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    golden = goldens[workload]
    store_dir = warm if workload in workloads.WARM else os.path.join(
        scratch, "store")
    result_path = os.path.join(scratch, "result.json")
    args = ["--workload", workload, "--seed", str(seed),
            "--out", os.path.join(scratch, "out"), "--store", store_dir,
            "--result", result_path]
    if trace_path:
        args += ["--trace", trace_path]
    # A calibration probe beside every iteration, so host drift during a
    # run shows in its record.
    record = {"ok": False, "ops": golden["operations"], "problems": [],
              "calibration_msteps_per_s": calibration_score()}
    try:
        run_child(args, CHILD_TIMEOUT_S, os.path.join(scratch, "stderr.txt"))
        with open(result_path) as fh:
            record.update(json.load(fh))
        store = read_store(store_dir)
        record["problems"] = check_outputs(
            golden, os.path.join(scratch, "out"), store)
        if record["rc"] != 0:
            record["problems"].append(f"repro exited {record['rc']}")
        record["instructions"] = delivered_instructions(workload, store)
        if workload == "sampled_longrun":
            record["cpi_error_pct"] = cpi_error_pct(goldens, store)
        record["ok"] = not record["problems"]
    except (RuntimeError, subprocess.TimeoutExpired, OSError,
            ValueError, KeyError) as exc:
        record["problems"].append(f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return record


# -- aggregation and output ----------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def spread(values) -> str:
    if len(values) < 2:
        return "-"
    return f"{min(values):.4g}..{max(values):.4g}"


def end_to_end(iters: list, setups: list) -> dict:
    good = [r for r in iters if r["ok"]]
    return {
        "wall_s": [r["wall_s"] for r in good],
        "setup_s": setups,
        "peak_rss_mb": [r["peak_rss_mb"] for r in good],
    }


def instr_per_s(workload: str, iters: list) -> list:
    """Architectural instructions simulated per wall second.  Not gated:
    the goldens pin the instruction count, so it is that constant over
    wall_s.  None on warm_replay, where nothing is simulated."""
    if workload in workloads.WARM:
        return []
    return [r["instructions"] / r["wall_s"] for r in iters if r["ok"]]


def print_table(title: str, rows: list) -> None:
    print(title)
    print(f"  {'metric':34s} {'unit':8s} {'median':>14s} {'n':>3s}  range")
    for name, unit, values, note in rows:
        print(f"  {name:34s} {unit:8s} {median(values):14.6g} "
              f"{len(values):3d}  {spread(values)}"
              + (f"  n/a: {note}" if note else ""))


def print_layer_table(untraced: list, traced: list, metrics: dict) -> None:
    import layers

    good = [r for r in traced if r["ok"]]
    wall = median([r["wall_s"] for r in good])
    print(f"layer self time (median of {len(good)} traced run(s), "
          f"wall {wall:.3f} s)")
    for layer in layers.LAYERS:
        seconds = median([r["layer_self"][layer] for r in good])
        share = 100.0 * seconds / wall if wall else 0.0
        print(f"  {layer:12s} {seconds:10.4f} s  {share:5.1f}%")
    unattributed = metrics["trace.unattributed_s"]
    print(f"  {'unattributed':12s} {unattributed:10.4f} s  "
          f"{100.0 * unattributed / wall if wall else 0.0:5.1f}%")
    print(f"  trace overhead {metrics['trace.overhead_pct']:+.2f}% "
          f"(traced wall vs {len(untraced)} untraced run(s))")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        raise BenchError(f"no repro sources under {SRC}; run from a "
                         "checkout of the repository")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "goldens.json")) as fh:
        goldens = json.load(fh)
    os.makedirs(STATE, exist_ok=True)
    host = host_facts()
    warm, fill_s = "", 0.0
    if args.workload in workloads.WARM:
        try:
            warm, fill_s = warm_store(goldens)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            raise BenchError(f"warm store not built: {exc}") from exc

    setups = []
    probe_log = os.path.join(STATE, f"probe-{os.getpid()}.txt")

    def setup_probe() -> None:
        setups.append(run_child(["--workload", args.workload, "--probe"],
                                CHILD_TIMEOUT_S, probe_log))

    # Iterate until the next iteration would end past --seconds; at least
    # one (one untraced plus one traced with --trace 1).
    untraced, traced = [], []
    trace_dir = os.path.join(STATE, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_path = os.path.join(
        trace_dir, f"{args.workload}-seed{args.seed}.jsonl")
    start = time.perf_counter()
    index = 0
    while True:
        # With --trace 0, a set-up probe before every iteration, so
        # setup_s and wall_s sample the host alike.
        if not args.trace:
            setup_probe()
        record = iteration(args.workload, args.seed, index, goldens, warm)
        untraced.append(record)
        index += 1
        if args.trace:
            traced.append(iteration(args.workload, args.seed, index,
                                    goldens, warm, trace_path))
            index += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(untraced) > args.seconds:
            break
    while not args.trace and len(setups) < SETUP_PROBES:
        setup_probe()
    if os.path.exists(probe_log):
        os.remove(probe_log)

    iters = untraced + traced
    attempted = sum(r["ops"] for r in iters)
    failed = sum(r["ops"] for r in iters if not r["ok"])
    for r in iters:
        for problem in r["problems"]:
            print(f"FAILED iteration: {problem}")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"-- {workloads.WHY[args.workload]}")
    calibration = [r["calibration_msteps_per_s"] for r in iters]
    print(f"host: nproc={host['nproc']} python={host['python']} "
          f"calibration={host['calibration_msteps_per_s']:.3f} Msteps/s, "
          f"{spread(calibration)} beside the iterations")
    if fill_s:
        print(f"warm store filled in {fill_s:.1f} s (untimed)")
    print(f"operations: {attempted} attempted, {failed} failed "
          f"(failed_ratio {failed / attempted if attempted else 1:.4f})")

    values = {}
    if args.trace:
        good = [r for r in traced if r["ok"]]
        plain = [r["wall_s"] for r in untraced if r["ok"]]
        na = good[-1]["na"] if good else {}
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "trace.overhead_pct":
                wall = median([r["wall_s"] for r in good])
                vals = ([100.0 * (wall / median(plain) - 1.0)]
                        if good and plain else [])
            elif name == "sampling.cpi_error_pct":
                vals = [r["cpi_error_pct"] for r in good
                        if "cpi_error_pct" in r]
                if not vals:
                    na.setdefault(name, "no sampled estimates in this workload")
            else:
                vals = [r["layers"][name] for r in good]
            values[name] = vals
        metrics_now = {k: median(v) for k, v in values.items()}
        if good:
            print_layer_table(untraced, traced, metrics_now)
        print_table("per-layer metrics (traced run)", [
            (name, units[name], vals, na.get(name, ""))
            for name, vals in values.items()])
        print(f"trace: {trace_path} (summarise with "
              f"`PYTHONPATH=src python -m repro trace <file>`)")
        if metrics_now.get("experiments.cell_requests"):
            # exp.cells_simulated counts store hits as simulations.
            reported = good[-1]["reported_cells"]["simulated"]
            print(f"note: exp.cells_simulated reports {reported}; engine "
                  f"runs counted here: {int(metrics_now['uarch.engine_runs'])}"
                  f" in-process + {int(metrics_now['pool.dispatched'])} in "
                  "pool workers")
    else:
        values = end_to_end(untraced, setups)
        rate = instr_per_s(args.workload, untraced)
        print_table("end-to-end metrics", [
            (name, units[name], vals, "") for name, vals in values.items()]
            + [("sim_instr_per_s (derived)", "1/s", rate,
                "" if rate else "nothing is simulated")])

    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "host": host, "source": source_digest(),
        "warm_fill_s": fill_s, "attempted": attempted, "failed": failed,
        "iterations": [
            {key: r.get(key) for key in
             ("ok", "wall_s", "peak_rss_mb", "calibration_msteps_per_s")}
            for r in iters],
        "metrics": {k: {"median": median(v), "n": len(v), "values": v}
                    for k, v in values.items()},
    }
    results_dir = os.path.join(STATE, "results")
    os.makedirs(results_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(
            results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}"
            f"-{stamp}-{os.getpid()}.json"), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": median(vals), "unit": units[name]}
                    for name, vals in values.items()},
    }))
    return 0


if __name__ == "__main__":
    # A terminated run still kills its child (see run_child).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
