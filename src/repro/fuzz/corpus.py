"""The fuzz corpus: minimized survivors frozen as permanent workloads.

Each survivor is one YAML file (deterministic sorted-key emission via
:mod:`repro.workloads.specyaml`) naming the oracle that flagged it, the
session case that found it, and the full minimized program tree.  The
regression suite (``tests/test_fuzz_regressions.py``) loads the directory
and replays every entry as a named :class:`~repro.workloads.base.Workload`
on both engine modes — so a fuzzing run can only ever *grow* the
regression suite.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..errors import FuzzError, SpecError
from ..workloads import specyaml
from ..workloads.base import Workload
from .engine import Survivor
from .model import (
    A_BASE,
    B_BASE,
    INPUT_ELEMS,
    OUT_BASE,
    ProgramSpec,
)

# Default checked-in corpus location, relative to the repo root.
DEFAULT_CORPUS_DIR = os.path.join("tests", "fuzz_corpus")


# Replay expectations (the ``expect`` corpus key):
#
# * ``oracle-fires`` (default) — the recorded oracle must still fire; the
#   entry pins an *open* engine defect or a deliberate severity signal.
# * ``states-match`` — the entry pinned a since-fixed defect: the oracle
#   must NOT fire any more, the LoopFrog core must commit exactly the
#   functional executor's memory, and the program must still *exercise*
#   the fixed path (see :func:`fixed_path_trigger`), so a regression
#   flips the replay red again.
EXPECT_ORACLE_FIRES = "oracle-fires"
EXPECT_STATES_MATCH = "states-match"
_EXPECTATIONS = (EXPECT_ORACLE_FIRES, EXPECT_STATES_MATCH)


@dataclass(frozen=True)
class CorpusEntry:
    """One corpus file, parsed."""

    name: str
    oracle: str
    detail: str
    case_seed: int
    mutations: Tuple[str, ...]
    program: ProgramSpec
    expect: str = EXPECT_ORACLE_FIRES

    @classmethod
    def from_dict(cls, data: object, path: str = "") -> "CorpusEntry":
        where = f"{path}: " if path else ""
        if not isinstance(data, dict):
            raise FuzzError(f"{where}corpus entry must be a mapping")
        for key in ("name", "oracle", "program"):
            if key not in data:
                raise FuzzError(f"{where}corpus entry needs a {key!r} key")
        try:
            program = ProgramSpec.from_dict(data["program"])
        except FuzzError as exc:
            raise FuzzError(f"{where}{exc}") from exc
        expect = str(data.get("expect", EXPECT_ORACLE_FIRES))
        if expect not in _EXPECTATIONS:
            raise FuzzError(
                f"{where}unknown expect {expect!r} "
                f"(choose from {', '.join(_EXPECTATIONS)})"
            )
        return cls(
            name=str(data["name"]),
            oracle=str(data["oracle"]),
            detail=str(data.get("detail", "")),
            case_seed=int(data.get("case_seed", 0)),
            mutations=tuple(data.get("mutations") or ()),
            program=program,
            expect=expect,
        )


def write_corpus(survivors: List[Survivor], directory: str) -> List[str]:
    """Write one deterministic YAML file per survivor; returns the paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for survivor in survivors:
        path = os.path.join(directory, f"{survivor.name}.yaml")
        with open(path, "w") as fh:
            fh.write(specyaml.dump(survivor.to_dict()))
        paths.append(path)
    return paths


def load_corpus(directory: str) -> List[CorpusEntry]:
    """Parse every ``*.yaml`` of a corpus directory, sorted by file name."""
    if not os.path.isdir(directory):
        raise FuzzError(f"corpus directory {directory!r} does not exist")
    names = sorted(
        n for n in os.listdir(directory) if n.endswith(".yaml")
    )
    if not names:
        raise FuzzError(f"corpus directory {directory!r} has no .yaml entries")
    entries = []
    for file_name in names:
        path = os.path.join(directory, file_name)
        with open(path) as fh:
            text = fh.read()
        try:
            data = specyaml.load(text)
        except SpecError as exc:
            raise FuzzError(f"{path}: {exc}") from exc
        entries.append(CorpusEntry.from_dict(data, path=path))
    return entries


def entry_workload(entry: CorpusEntry) -> Workload:
    """Freeze a corpus entry as a named workload.

    The workload seed is the program's input seed and the setup draws in
    the same order as :meth:`ProgramSpec.fresh_input`, so the ordinary
    ``Workload.fresh_input`` path reproduces the exact fuzz-time input.
    """
    spec = entry.program

    def setup(mem, rng):
        mem.store_int_array(
            A_BASE, [rng.randrange(1 << 16) for _ in range(INPUT_ELEMS)]
        )
        mem.store_int_array(
            B_BASE, [rng.randrange(1 << 16) for _ in range(INPUT_ELEMS)]
        )
        return {"r1": A_BASE, "r2": B_BASE, "r3": OUT_BASE}

    return Workload(
        name=entry.name,
        source=spec.render(),
        setup=setup,
        description=f"fuzz survivor ({entry.oracle}): {entry.detail}",
        seed=spec.input_seed,
        max_cycles=4_000_000,
    )


def corpus_workloads(directory: Optional[str] = None) -> List[Workload]:
    """Every corpus entry of ``directory`` as a replayable workload."""
    entries = load_corpus(directory or DEFAULT_CORPUS_DIR)
    return [entry_workload(entry) for entry in entries]


def fixed_path_trigger(case) -> Optional[str]:
    """Does a case exercise the since-fixed cross-region packing path?

    The schema-v2 fix cancels pending packed-iteration skips when an
    epoch exits its region at SYNC; a ``states-match`` survivor must
    still reach that cancellation (and commit clean state), or it has
    stopped covering the defect it pins.  Returns a detail string when
    the trigger holds, like an oracle, so the minimizer can descend on
    it; ``None`` otherwise.
    """
    if case.frog_image != case.exec_image:
        return None
    cancelled = case.stats.packing_skips_cancelled
    if cancelled <= 0:
        return None
    return (
        f"{cancelled} pending packed skip(s) cancelled at region exit; "
        f"committed state matches the functional executor"
    )


def replay_entry(entry: CorpusEntry) -> Tuple[bool, str]:
    """Re-execute a corpus entry on both engine modes.

    The contract depends on the entry's expectation.  ``oracle-fires``:
    the oracle that flagged the entry must fire again on the
    epoch-parallel (default) *and* the reference engine.
    ``states-match``: the oracle must fire on neither, the LoopFrog core
    must commit the functional executor's exact memory, and
    :func:`fixed_path_trigger` must still hold.  In both cases the two
    engine modes must agree on every statistic (the bit-identical parity
    invariant).  Returns ``(ok, message)``.
    """
    import dataclasses

    from ..errors import ReproError
    from ..uarch.core import set_engine_mode
    from .engine import execute_spec
    from .oracles import ORACLES

    oracle = ORACLES.get(entry.oracle)
    if oracle is None:
        return False, f"unknown oracle {entry.oracle!r}"
    runs = {}
    try:
        for mode in ("epoch-parallel", "reference"):
            set_engine_mode(mode)
            try:
                runs[mode] = execute_spec(entry.program)
            finally:
                set_engine_mode(None)
    except ReproError as exc:
        return False, f"crashed: {exc}"
    optimized = runs["epoch-parallel"]
    reference = runs["reference"]
    if dataclasses.asdict(optimized.stats) != dataclasses.asdict(
        reference.stats
    ):
        return False, "epoch-parallel/reference engine stats diverged"
    if optimized.frog_image != reference.frog_image:
        return False, "epoch-parallel/reference engine memory diverged"
    if entry.expect == EXPECT_STATES_MATCH:
        if oracle(optimized) is not None:
            return False, f"{entry.oracle} fires again (fix regressed)"
        detail = fixed_path_trigger(optimized)
        if detail is None:
            if optimized.frog_image != optimized.exec_image:
                return False, "committed state diverged (fix regressed)"
            return False, "entry no longer exercises the fixed path"
        return True, detail
    detail = oracle(optimized)
    if detail is None:
        return False, "oracle no longer fires on the epoch-parallel engine"
    if oracle(reference) is None:
        return False, "oracle no longer fires on the reference engine"
    return True, detail
