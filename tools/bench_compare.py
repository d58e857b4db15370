#!/usr/bin/env python3
"""Perf-regression gate: diff a fresh engine benchmark against a baseline.

Run:  PYTHONPATH=src python tools/bench_compare.py [options]

Compares two ``bench_engine.py`` result records — by default the committed
``BENCH_engine.json`` baseline against a freshly-measured run — and exits
nonzero when either gate fails:

* **Semantics gate (exact).**  When both records were produced by the same
  ``ENGINE_SCHEMA_VERSION``, total simulated cycles and instructions over
  the pinned workload subset must match *bit-identically*.  Any drift
  means the engine's timing semantics changed without a schema bump —
  which silently poisons the persistent result store.  This check is
  machine-independent, so it gates hard everywhere (including CI).
* **Throughput gate (noise-tolerant).**  Cold instructions/second must be
  at least ``(1 - tolerance)`` of the baseline.  The default tolerance of
  15% absorbs ordinary machine noise while still catching a 20% slowdown;
  ``--runs N`` measures N times and keeps the best, squeezing noise
  further.  Raise ``--tolerance`` on shared/virtualized hardware.
* **Experiment-dispatch gate.**  The declarative experiment registry's
  warm-cache dispatch pass (``exp_dispatch_seconds``) must stay below a
  fixed fraction of the subset's cold simulation wall time, so the
  spec/registry layer can never silently regress suite throughput.
  Skipped when either record predates the field.

``--current FILE`` compares two existing records without simulating
(useful for tests and offline analysis); ``--output FILE`` saves the fresh
measurement for artifact upload.
"""

import argparse
import json
import sys

DEFAULT_BASELINE = "BENCH_engine.json"
DEFAULT_TOLERANCE = 0.15
# Warm registry dispatch must stay below this fraction of the subset's
# cold simulation wall time (see measure_exp_dispatch in bench_engine.py).
EXP_DISPATCH_CEILING = 0.10


def load_record(path):
    with open(path) as fh:
        record = json.load(fh)
    if not isinstance(record, dict) or "instructions_per_second" not in record:
        raise ValueError(f"{path}: not a bench_engine result record")
    return record


def measure_current(runs):
    """Run the engine benchmark ``runs`` times; keep the fastest.

    Cycle/instruction totals must agree across repeats (same engine, same
    pinned inputs) — a mismatch is reported as a nondeterminism failure.
    """
    from bench_engine import run_bench

    best = None
    for i in range(runs):
        result = run_bench()
        print(
            f"run {i + 1}/{runs}: "
            f"{result['instructions_per_second']:.0f} instr/s "
            f"({result['wall_seconds']}s)"
        )
        if best is not None and (
            result["cycles"] != best["cycles"]
            or result["instructions"] != best["instructions"]
        ):
            raise SystemExit(
                "FAIL: repeated runs disagree on cycles/instructions — "
                "the engine is nondeterministic"
            )
        if best is None or (
            result["instructions_per_second"]
            > best["instructions_per_second"]
        ):
            best = result
    return best


def compare(baseline, current, tolerance=DEFAULT_TOLERANCE):
    """Returns ``(ok, lines)``: the verdict plus a human-readable report."""
    lines = []
    ok = True

    # -- semantics gate ------------------------------------------------------
    base_schema = baseline.get("engine_schema")
    cur_schema = current.get("engine_schema")
    comparable = (
        base_schema is not None
        and base_schema == cur_schema
        and baseline.get("suite") == current.get("suite")
        and baseline.get("benchmarks") == current.get("benchmarks")
    )
    if comparable:
        for field in ("cycles", "instructions", "simulations"):
            base_v, cur_v = baseline.get(field), current.get(field)
            if base_v != cur_v:
                ok = False
                lines.append(
                    f"FAIL semantics: {field} changed "
                    f"{base_v} -> {cur_v} without an ENGINE_SCHEMA_VERSION "
                    f"bump (stored results are now silently stale)"
                )
        if ok:
            lines.append(
                f"semantics: cycles/instructions bit-identical "
                f"({baseline.get('cycles')} cycles, "
                f"{baseline.get('instructions')} instructions, "
                f"schema {base_schema})"
            )
    else:
        lines.append(
            "semantics: skipped (engine schema or workload subset differs: "
            f"baseline schema {base_schema}, current schema {cur_schema})"
        )

    # -- throughput gate -----------------------------------------------------
    base_ips = baseline["instructions_per_second"]
    cur_ips = current["instructions_per_second"]
    ratio = cur_ips / base_ips if base_ips else 0.0
    floor = 1.0 - tolerance
    lines.append(
        f"throughput: baseline {base_ips:.0f} instr/s, "
        f"current {cur_ips:.0f} instr/s, ratio {ratio:.3f} "
        f"(floor {floor:.3f})"
    )
    if ratio < floor:
        ok = False
        lines.append(
            f"FAIL throughput: {(1 - ratio) * 100:.1f}% slower than "
            f"baseline, exceeds the {tolerance * 100:.0f}% tolerance"
        )
        worst = _worst_regressor(baseline, current)
        if worst is not None:
            name, base_b, cur_b, b_ratio = worst
            lines.append(
                f"  worst regressor: {name} "
                f"({base_b:.0f} -> {cur_b:.0f} instr/s, "
                f"ratio {b_ratio:.3f})"
            )

    # -- engine-mode speedups (informational; parity is gated by tests) ------
    cur_ref = current.get("reference_instructions_per_second")
    if cur_ref:
        lines.append(
            f"default mode: {cur_ips / cur_ref:.2f}x the reference engine "
            f"({cur_ref:.0f} instr/s reference)"
        )
    cur_ep = current.get("epoch_parallel_instructions_per_second")
    if cur_ep:
        lines.append(f"epoch-parallel: {cur_ep:.0f} instr/s")

    # -- fuzz throughput (informational; no gate — the fuzz session mixes
    # compile, differential execution and minimization, so its programs/s
    # moves with all of them and a dedicated floor would double-gate) -------
    cur_fuzz = current.get("fuzz_programs_per_second")
    if cur_fuzz:
        base_fuzz = baseline.get("fuzz_programs_per_second")
        baseline_note = (
            f" (baseline {base_fuzz:.0f})" if base_fuzz else ""
        )
        lines.append(
            f"fuzz: {cur_fuzz:.0f} programs/s over "
            f"{current.get('fuzz_programs', '?')} executions"
            f"{baseline_note}"
        )

    # -- lint-throughput gate (skipped for records predating the field) ------
    base_lint = baseline.get("lint_loops_per_second")
    cur_lint = current.get("lint_loops_per_second")
    if base_lint and cur_lint:
        lint_ratio = cur_lint / base_lint
        lines.append(
            f"lint: baseline {base_lint:.0f} loops/s, "
            f"current {cur_lint:.0f} loops/s, ratio {lint_ratio:.3f} "
            f"(floor {floor:.3f})"
        )
        if lint_ratio < floor:
            ok = False
            lines.append(
                f"FAIL lint throughput: {(1 - lint_ratio) * 100:.1f}% "
                f"slower than baseline, exceeds the "
                f"{tolerance * 100:.0f}% tolerance"
            )

    # -- advise-throughput gate (skipped for records predating the field) ----
    base_advise = baseline.get("advise_loops_per_second")
    cur_advise = current.get("advise_loops_per_second")
    if base_advise and cur_advise:
        advise_ratio = cur_advise / base_advise
        lines.append(
            f"advise: baseline {base_advise:.0f} loops/s, "
            f"current {cur_advise:.0f} loops/s, ratio {advise_ratio:.3f} "
            f"(floor {floor:.3f})"
        )
        if advise_ratio < floor:
            ok = False
            lines.append(
                f"FAIL advise throughput: {(1 - advise_ratio) * 100:.1f}% "
                f"slower than baseline, exceeds the "
                f"{tolerance * 100:.0f}% tolerance"
            )

    # -- experiment-dispatch gate (skipped for records predating the field) --
    # The declarative registry (docs/experiments.md) is bookkeeping on top
    # of the runner: its warm-cache dispatch pass must stay a small
    # fraction of the subset's cold simulation wall time, or spec dispatch
    # has started to eat into suite throughput.
    cur_dispatch = current.get("exp_dispatch_seconds")
    cur_wall = current.get("wall_seconds")
    if cur_dispatch is not None and cur_wall:
        dispatch_ratio = cur_dispatch / cur_wall
        lines.append(
            f"exp dispatch: {cur_dispatch:.4f}s for "
            f"{current.get('exp_dispatch_cells', '?')} warm cells, "
            f"{dispatch_ratio:.1%} of simulation wall time "
            f"(ceiling {EXP_DISPATCH_CEILING:.0%})"
        )
        if dispatch_ratio > EXP_DISPATCH_CEILING:
            ok = False
            lines.append(
                f"FAIL exp dispatch: registry overhead is "
                f"{dispatch_ratio:.1%} of suite wall time, exceeds the "
                f"{EXP_DISPATCH_CEILING:.0%} ceiling"
            )
    return ok, lines


def _worst_regressor(baseline, current):
    """Lowest per-benchmark throughput ratio, or ``None`` when either
    record predates the ``per_benchmark`` breakdown."""
    base_pb = baseline.get("per_benchmark")
    cur_pb = current.get("per_benchmark")
    if not isinstance(base_pb, dict) or not isinstance(cur_pb, dict):
        return None
    worst = None
    for name in base_pb:
        if name not in cur_pb:
            continue
        base_ips = base_pb[name].get("instructions_per_second") or 0.0
        cur_ips = cur_pb[name].get("instructions_per_second") or 0.0
        if not base_ips:
            continue
        ratio = cur_ips / base_ips
        if worst is None or ratio < worst[3]:
            worst = (name, base_ips, cur_ips, ratio)
    return worst


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help="committed baseline record "
                             f"(default: {DEFAULT_BASELINE})")
    parser.add_argument("--current", metavar="FILE",
                        help="compare this record instead of measuring")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed fractional throughput drop "
                             f"(default: {DEFAULT_TOLERANCE})")
    parser.add_argument("--runs", type=int, default=1,
                        help="measurements to take; the fastest is compared")
    parser.add_argument("--output", metavar="FILE",
                        help="also save the fresh measurement to FILE")
    args = parser.parse_args(argv)

    if not 0.0 <= args.tolerance < 1.0:
        parser.error(f"--tolerance must be in [0, 1), got {args.tolerance}")
    if args.runs < 1:
        parser.error(f"--runs must be >= 1, got {args.runs}")

    baseline = load_record(args.baseline)
    if args.current:
        current = load_record(args.current)
    else:
        current = measure_current(args.runs)
        if args.output:
            with open(args.output, "w") as fh:
                json.dump(current, fh, indent=2)
                fh.write("\n")
            print(f"wrote {args.output}")

    ok, lines = compare(baseline, current, args.tolerance)
    for line in lines:
        print(line)
    print("OK" if ok else "REGRESSION DETECTED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
