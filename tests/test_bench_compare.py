"""Tests for the perf-regression gate (tools/bench_compare.py).

ISSUE acceptance criterion: the gate must exit nonzero on an artificially
injected 20% slowdown. These tests exercise that end-to-end through
``main()`` with fabricated result records (no simulation), plus the
semantics gate and its schema-mismatch skip path.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

import bench_compare  # noqa: E402


BASE_RECORD = {
    "suite": "spec2017",
    "engine_schema": 1,
    "benchmarks": ["imagick", "omnetpp", "nab"],
    "simulations": 24,
    "instructions": 67662,
    "cycles": 68535,
    "wall_seconds": 1.358,
    "instructions_per_second": 49818.8,
    "cycles_per_second": 50461.5,
}


@pytest.fixture
def records(tmp_path):
    def write(name, **overrides):
        record = copy.deepcopy(BASE_RECORD)
        record.update(overrides)
        path = tmp_path / name
        path.write_text(json.dumps(record))
        return str(path)

    return write


def _main(baseline, current, *extra):
    return bench_compare.main(
        ["--baseline", baseline, "--current", current, *extra]
    )


def test_identical_records_pass(records, capsys):
    assert _main(records("base.json"), records("cur.json")) == 0
    out = capsys.readouterr().out
    assert "bit-identical" in out
    assert out.strip().endswith("OK")


def test_injected_20pct_slowdown_fails(records, capsys):
    """The ISSUE's acceptance criterion, verbatim."""
    slow = BASE_RECORD["instructions_per_second"] * 0.80
    rc = _main(records("base.json"),
               records("cur.json", instructions_per_second=slow))
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL throughput" in out
    assert out.strip().endswith("REGRESSION DETECTED")


def test_slowdown_within_tolerance_passes(records):
    ok_ips = BASE_RECORD["instructions_per_second"] * 0.90  # 10% < 15%
    assert _main(records("base.json"),
                 records("cur.json", instructions_per_second=ok_ips)) == 0


def test_speedup_passes(records):
    fast = BASE_RECORD["instructions_per_second"] * 1.5
    assert _main(records("base.json"),
                 records("cur.json", instructions_per_second=fast)) == 0


def test_custom_tolerance_is_respected(records):
    slow = BASE_RECORD["instructions_per_second"] * 0.80
    current = records("cur.json", instructions_per_second=slow)
    baseline = records("base.json")
    assert _main(baseline, current, "--tolerance", "0.25") == 0
    assert _main(baseline, current, "--tolerance", "0.10") == 1


def test_cycle_drift_fails_even_when_fast(records, capsys):
    """Timing-semantics drift without a schema bump is a hard failure no
    matter how fast the run was — it silently stales the result store."""
    rc = _main(
        records("base.json"),
        records("cur.json", cycles=BASE_RECORD["cycles"] + 1,
                instructions_per_second=1e9),
    )
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL semantics" in out and "cycles" in out
    assert "ENGINE_SCHEMA_VERSION" in out


def test_instruction_drift_fails(records):
    assert _main(
        records("base.json"),
        records("cur.json", instructions=BASE_RECORD["instructions"] - 5),
    ) == 1


def test_throughput_failure_names_worst_regressing_benchmark(records, capsys):
    per_benchmark = {
        "imagick": {"instructions": 45000, "cycles": 36000,
                    "wall_seconds": 0.8, "instructions_per_second": 55000.0},
        "omnetpp": {"instructions": 11000, "cycles": 20000,
                    "wall_seconds": 0.2, "instructions_per_second": 46000.0},
    }
    regressed = copy.deepcopy(per_benchmark)
    regressed["omnetpp"]["instructions_per_second"] = 10000.0
    rc = _main(
        records("base.json", per_benchmark=per_benchmark),
        records("cur.json", per_benchmark=regressed,
                instructions_per_second=(
                    BASE_RECORD["instructions_per_second"] * 0.5
                )),
    )
    assert rc == 1
    out = capsys.readouterr().out
    assert "worst regressor: omnetpp" in out


def test_throughput_failure_without_breakdown_still_reports(records, capsys):
    """Records that predate ``per_benchmark`` must not crash the gate."""
    slow = BASE_RECORD["instructions_per_second"] * 0.5
    rc = _main(records("base.json"),
               records("cur.json", instructions_per_second=slow))
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL throughput" in out
    assert "worst regressor" not in out


def test_committed_baseline_has_fast_forward_rate():
    """The sampled-simulation speed claim (docs/sampling.md) is recorded
    next to the detailed rate: fast-forward must be >= 20x detailed."""
    record = bench_compare.load_record(str(TOOLS.parent / "BENCH_engine.json"))
    ff = record["fast_forward_instructions_per_second"]
    assert ff >= 20 * record["instructions_per_second"]
    assert set(record["per_benchmark"]) == set(record["benchmarks"])


def test_fast_forward_rate_is_reported_not_gated(records, capsys):
    """Fast-forward throughput is an informational line: a rate at half
    the baseline is printed with its ratio but does not fail the run."""
    rc = _main(
        records("base.json", fast_forward_instructions_per_second=1_880_000),
        records("cur.json", fast_forward_instructions_per_second=1_000_000),
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert ("fast-forward: baseline 1880000 instr/s, "
            "current 1000000 instr/s, ratio 0.532") in out


def test_fast_forward_rate_without_baseline(records, capsys):
    rc = _main(
        records("base.json"),
        records("cur.json", fast_forward_instructions_per_second=1_000_000),
    )
    assert rc == 0
    assert "fast-forward: 1000000 instr/s" in capsys.readouterr().out


def test_schema_bump_skips_semantics_gate(records, capsys):
    """A deliberate schema bump makes cycle totals incomparable — the gate
    must skip the exact check (but still enforce throughput)."""
    rc = _main(
        records("base.json"),
        records("cur.json", engine_schema=2,
                cycles=BASE_RECORD["cycles"] + 999),
    )
    assert rc == 0
    assert "semantics: skipped" in capsys.readouterr().out


def test_different_benchmark_subset_skips_semantics_gate(records, capsys):
    rc = _main(
        records("base.json"),
        records("cur.json", benchmarks=["imagick"], cycles=1,
                instructions=1),
    )
    assert rc == 0
    assert "semantics: skipped" in capsys.readouterr().out


def test_committed_baseline_is_loadable_and_current_schema():
    """BENCH_engine.json at the repo root must parse and carry the same
    ENGINE_SCHEMA_VERSION the code declares, or the semantics gate would
    silently skip on every CI run."""
    from repro.uarch.core import ENGINE_SCHEMA_VERSION

    record = bench_compare.load_record(
        Path(__file__).resolve().parent.parent / "BENCH_engine.json"
    )
    assert record["engine_schema"] == ENGINE_SCHEMA_VERSION
    assert record["instructions_per_second"] > 0


def test_exp_dispatch_within_ceiling_passes(records, capsys):
    rc = _main(
        records("base.json"),
        records("cur.json", exp_dispatch_seconds=0.01,
                exp_dispatch_cells=32),
    )
    assert rc == 0
    assert "exp dispatch" in capsys.readouterr().out


def test_exp_dispatch_over_ceiling_fails(records, capsys):
    ceiling = bench_compare.EXP_DISPATCH_CEILING
    too_slow = BASE_RECORD["wall_seconds"] * ceiling * 2
    rc = _main(
        records("base.json"),
        records("cur.json", exp_dispatch_seconds=too_slow,
                exp_dispatch_cells=32),
    )
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL exp dispatch" in out


def test_exp_dispatch_skipped_for_old_records(records, capsys):
    """Records that predate ``exp_dispatch_seconds`` must not crash or
    fail the gate."""
    rc = _main(records("base.json"), records("cur.json"))
    assert rc == 0
    assert "exp dispatch" not in capsys.readouterr().out


def test_committed_baseline_has_exp_dispatch_fields():
    """The committed record must carry the registry-overhead measurement
    (and sit comfortably under the ceiling), or the CI gate would
    silently skip it."""
    record = bench_compare.load_record(str(TOOLS.parent / "BENCH_engine.json"))
    assert record["exp_dispatch_cells"] > 0
    assert (
        record["exp_dispatch_seconds"]
        <= bench_compare.EXP_DISPATCH_CEILING * record["wall_seconds"]
    )


def test_advise_regression_fails(records, capsys):
    base = records("base.json", advise_loops_per_second=200.0)
    slow = records("cur.json", advise_loops_per_second=200.0 * 0.80)
    rc = _main(base, slow)
    assert rc == 1
    assert "FAIL advise throughput" in capsys.readouterr().out


def test_advise_within_tolerance_passes(records, capsys):
    base = records("base.json", advise_loops_per_second=200.0)
    ok = records("cur.json", advise_loops_per_second=200.0 * 0.90)
    rc = _main(base, ok)
    assert rc == 0
    assert "advise:" in capsys.readouterr().out


def test_advise_gate_skipped_for_old_records(records, capsys):
    """Records that predate ``advise_loops_per_second`` must not crash or
    fail the gate."""
    rc = _main(records("base.json"), records("cur.json"))
    assert rc == 0
    assert "advise:" not in capsys.readouterr().out


def test_committed_baseline_has_advise_fields():
    """The committed record must carry the advise-throughput measurement,
    or the CI gate would silently skip it."""
    record = bench_compare.load_record(str(TOOLS.parent / "BENCH_engine.json"))
    assert record["advise_loops"] > 0
    assert record["advise_loops_per_second"] > 0


def test_invalid_record_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"hello": "world"}))
    with pytest.raises(ValueError, match="not a bench_engine result"):
        bench_compare.load_record(str(bad))


def test_bad_tolerance_and_runs_rejected(records):
    baseline = records("base.json")
    current = records("cur.json")
    with pytest.raises(SystemExit):
        _main(baseline, current, "--tolerance", "1.5")
    with pytest.raises(SystemExit):
        _main(baseline, current, "--runs", "0")
