"""Re-pin goldens.json from the current sources.

    python3 perfbench/pin.py

Runs every workload once at seed 0 and records what run.py checks: the
sha256 of each experiment artefact (without its ``cells`` block), the
manifest's cell totals, the exact-record totals of the store (records,
simulated cycles, architectural instructions) and, for
``sampled_longrun``, every phase estimate read back from the fresh
store.  It also pins the reference for ``sampling.cpi_error_pct``: exact
CPIs of the longrun phases on the LoopFrog machine, from full detailed
runs, cross-checked against the true CPIs docs/sampling.md gives.

Re-pin only when a change is meant to alter results; a speed-only change
must pass against the goldens it found.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run

# True CPIs of the longrun phases on the LoopFrog machine, from the
# accuracy table of docs/sampling.md (4 decimals).
DOC_CPI = {"longrun_conv": 0.7347, "longrun_stencil": 0.1771,
           "longrun_stream": 0.9797, "longrun_hash": 0.5267}


def pin_workload(workload: str, scratch: str) -> dict:
    out, store_dir = os.path.join(scratch, "out"), os.path.join(scratch, "store")
    run.run_child(["--workload", workload, "--seed", "0", "--out", out,
                   "--store", store_dir,
                   "--result", os.path.join(scratch, "result.json")],
                  run.WARM_TIMEOUT_S, os.path.join(scratch, "stderr.txt"))
    store = run.read_store(store_dir)
    golden = {"store": store["exact"]}
    if workload == "sampled_longrun":
        golden["estimates"] = store["estimates"]
        golden["operations"] = len(store["estimates"])
        return golden
    with open(os.path.join(out, "manifest.json")) as fh:
        manifest = json.load(fh)
    golden["cells"] = manifest["cells"]
    golden["operations"] = manifest["cells"]["total"]
    golden["artefacts"] = {
        entry["experiment"]: run.artefact_digest(
            os.path.join(out, entry["artifacts"]["json"]))
        for entry in manifest["experiments"]
    }
    return golden


def reference_cpi() -> dict:
    sys.path.insert(0, run.SRC)
    from repro.results.digest import machine_digest
    from repro.uarch.config import default_machine
    from repro.uarch.core import Engine
    from repro.workloads import suite

    machine = default_machine()
    label = machine_digest(machine)[:12]
    cpi, docs = {}, {}
    for benchmark in suite("longrun"):
        for workload, _weight in benchmark.phases:
            memory, regs = workload.fresh_input()
            stats = Engine(machine, workload.program, memory, regs).run(
                max_cycles=workload.max_cycles)
            value = stats.cycles / stats.arch_instructions
            cpi[f"{workload.name}@{label}"] = value
            want = DOC_CPI[workload.name]
            docs[workload.name] = {
                "docs": want, "exact": round(value, 6),
                "agrees": abs(value - want) <= 5e-5,
            }
            print(f"{workload.name}: exact CPI {value:.6f}, docs {want}",
                  file=sys.stderr)
    return {"machine": label, "cpi": cpi, "docs_cross_check": docs}


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args()
    path = os.path.join(run.HERE, "goldens.json")
    goldens = {}
    scratch = os.path.join(run.STATE, "pin")
    for workload in run.workloads.WORKLOADS:
        shutil.rmtree(scratch, ignore_errors=True)
        os.makedirs(scratch)
        print(f"pinning {workload}...", file=sys.stderr, flush=True)
        goldens[workload] = pin_workload(workload, scratch)
    shutil.rmtree(scratch, ignore_errors=True)
    goldens["reference_cpi"] = reference_cpi()
    with open(path, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
