"""The benchmark's workloads: which ``repro`` CLI invocation each one is.

Every workload is one call of ``repro.cli.main(argv)`` in a fresh
interpreter, so the in-process cell, sampling and compile caches start
empty, as they do for a user.  Why each workload exists, and why it uses
the subset it does, is recorded in ``WHY`` and in README.md.

The seed permutes the order in which the CLI is asked for the
experiments (``exp run`` with the registry's names shuffled; seed 0 is
the canonical ``exp all`` / ``exp run fig6 table3``).  It never changes
a program's data: every artefact, store record and simulated count is
pinned in ``goldens.json``, and data-level seeds would need a reference
simulation per seed.  ``sampled_longrun`` has no ordering to permute (it
estimates one phase), so its seed only names the run.
"""

from __future__ import annotations

import random
from typing import List, Sequence

# Every benchmark under 10k dynamic instructions, from both suites.
SMALL_BENCHMARKS = ("omnetpp", "nab", "deepsjeng", "leela", "xz", "bzip2",
                    "gobmk", "sjeng", "omnetpp06")

# Every benchmark with 10k-20k dynamic instructions, from both suites:
# about 4 s of fig6 + table3 per iteration on a 2-core host, so a 25 s
# run holds several iterations.  The full suites take 14-21 s, one
# iteration per run, and their run-to-run spread on that host (0.37 of
# the median over 5 seeds) was wider than any bound the benchmark may set.
MID_BENCHMARKS = ("namd", "blender", "xalancbmk", "namd06", "libquantum",
                  "astar", "milc", "xalancbmk06", "mcf06")

# The sampled pipeline on one longrun phase, on the LoopFrog machine:
# about 3-4 s per iteration, so a 25 s run holds several.  `suite
# longrun --sampled` on all four benchmarks takes 17-31 s, and on
# longrun_imagick alone (both machines) about 6 s; with two or three
# iterations per run its spread over 10 seeds reached 0.30 of the median.
# longrun_conv is the convolution, the hardest case for short sampling
# windows (docs/sampling.md).
LONGRUN_PHASE = "longrun_conv"

# The paper's headline figure and its TLS comparison.
ARTEFACTS = ("fig6", "table3")

# Workers for the process fan-out: the CLI default (os.cpu_count()) on
# the 2-core machine the goldens were pinned on, fixed so that the
# workload does not change with the host.
FANOUT_JOBS = "2"

WHY = {
    "exact_artefacts": (
        "fig6 + table3 cold at --jobs 1 on the 10k-20k-instruction "
        "benchmarks: the headline artefacts through the in-process exact "
        "engine, Table 3's TLS extraction and store writes"),
    "sampled_longrun": (
        "sample longrun_conv on a cold store: the only path through "
        "repro.sampling (fast-forward, checkpoints, windows)"),
    "registry_sweep": (
        "all 14 experiments on the sub-10k-instruction benchmarks at "
        "--jobs 2: pool fan-out to workers, _ep_run_multi-heavy sweeps"),
    "warm_replay": (
        "exp all --jobs 2 on a pre-filled store: 1664 cell requests answered "
        "by 563 store hits and the in-process cache, zero engine runs; the "
        "derive/render/TLS re-render loop"),
}

WORKLOADS = tuple(WHY)

# Workloads whose store is filled once per source tree, untimed.
WARM = ("warm_replay",)


def _experiments(seed: int, canonical: Sequence[str]) -> List[str]:
    names = list(canonical)
    random.Random(seed).shuffle(names)
    return names


def cli_argv(workload: str, seed: int, out_dir: str, store_dir: str,
             experiment_names: Sequence[str]) -> List[str]:
    """The ``repro`` argv of one run of ``workload``."""
    store = ["--store-dir", store_dir]
    if workload == "sampled_longrun":
        return ["sample", LONGRUN_PHASE, "--jobs", "1"] + store
    out = ["--out", out_dir]
    if workload == "exact_artefacts":
        names = _experiments(seed, ARTEFACTS) if seed else list(ARTEFACTS)
        return (["exp", "run", *names, "--only", ",".join(MID_BENCHMARKS),
                 "--jobs", "1"] + out + store)
    if workload in ("registry_sweep", "warm_replay"):
        only = (["--only", ",".join(SMALL_BENCHMARKS)]
                if workload == "registry_sweep" else [])
        head = (["exp", "run", *_experiments(seed, experiment_names)]
                if seed else ["exp", "all"])
        return head + only + ["--jobs", FANOUT_JOBS] + out + store
    raise ValueError(f"unknown workload {workload!r}")
