"""Unit tests for the CI perf-regression gate's comparison logic.

Pure report-vs-report checks -- no timing is performed, so these run in
the default (tier-1) suite.  The timing-sensitive end of the gate runs
under ``-m perf`` via the benchmark smoke test.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GATE_PATH = (
    Path(__file__).parent.parent / "benchmarks" / "perf" / "check_regression.py"
)


def _load_gate():
    spec = importlib.util.spec_from_file_location("check_regression", GATE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(**timings):
    return {
        "meta": {"scale": "quick"},
        "benchmarks": {
            name: {"fast_s": t} if not isinstance(t, dict) else t
            for name, t in timings.items()
        },
    }


def _full_report(**overrides):
    """A report carrying every required scenario (all healthy) by default."""
    gate = _load_gate()
    rows = {
        name: {"fast_s": 0.010, "speedup": 10.0}
        for name in gate.REQUIRED_SCENARIOS
    }
    # Goodput-gated scenarios carry goodput, not a speedup ratio; the
    # sharded scenarios gate on the shard_speedup column instead.
    for name in gate.GOODPUT_SCENARIOS:
        rows[name] = {"seconds": 0.010, "goodput": 0.667}
    for name in gate.SHARD_SPEEDUP_SCENARIOS:
        rows[name] = {"fast_s": 0.010, "shard_speedup": 2.0}
    rows.update(overrides)
    return {"meta": {"scale": "quick"}, "benchmarks": rows}


def test_compare_reports_flags_slowdowns_only():
    gate = _load_gate()
    baseline = _report(forward=0.010, training_step=0.020)
    fresh = _report(forward=0.015, training_step=0.055)
    rows = {r["scenario"]: r for r in gate.compare_reports(baseline, fresh, 2.0)}
    assert not rows["forward"]["regressed"]  # 1.5x is within the 2x bar
    assert rows["training_step"]["regressed"]  # 2.75x trips it
    assert rows["training_step"]["ratio"] == pytest.approx(2.75)


def test_compare_reports_handles_seconds_key_and_schema_drift():
    gate = _load_gate()
    baseline = _report(
        end_to_end={"seconds": 1.0},
        removed_scenario=0.5,
    )
    fresh = _report(
        end_to_end={"seconds": 1.2},
        brand_new_scenario=0.1,
    )
    rows = gate.compare_reports(baseline, fresh, 2.0)
    # Scenarios present on only one side are skipped, not errors.
    assert [r["scenario"] for r in rows] == ["end_to_end"]
    assert not rows[0]["regressed"]


def test_compare_reports_flags_speedup_collapse_across_machines():
    """The machine-independent signal: same-host speedup collapsing is
    the hard criterion even when absolute wall-clock looks fine (fast
    machine); a uniformly slower machine trips only the advisory
    absolute signal when speedups hold."""
    gate = _load_gate()
    baseline = _report(forward={"fast_s": 0.010, "speedup": 10.0})
    # Faster machine masks a real regression in absolute time...
    fresh = _report(forward={"fast_s": 0.008, "speedup": 2.0})
    (row,) = gate.compare_reports(baseline, fresh, 2.0)
    assert row["regressed"] and row["regressed_speedup"]
    assert not row["regressed_absolute"]
    # 3x slower machine, speedup intact: only the advisory absolute
    # signal trips -- the hard criterion stays green.
    fresh_slow = _report(forward={"fast_s": 0.030, "speedup": 9.5})
    (row_slow,) = gate.compare_reports(baseline, fresh_slow, 2.0)
    assert row_slow["regressed_absolute"] and not row_slow["regressed_speedup"]
    assert row_slow["fresh_speedup"] == 9.5


def test_compare_reports_rejects_meaningless_threshold():
    gate = _load_gate()
    with pytest.raises(ValueError):
        gate.compare_reports(_report(), _report(), threshold=1.0)


def test_gate_cli_speedup_collapse_fails_hard_soft_warns(tmp_path, capsys):
    gate = _load_gate()
    baseline = tmp_path / "baseline.json"
    fresh = tmp_path / "fresh.json"
    baseline.write_text(json.dumps(_full_report()))
    fresh.write_text(json.dumps(_full_report(
        forward={"fast_s": 0.010, "speedup": 2.0}  # 10x -> 2x collapse
    )))
    hard = gate.main(
        ["--baseline", str(baseline), "--fresh", str(fresh)]
    )
    soft = gate.main(
        ["--baseline", str(baseline), "--fresh", str(fresh), "--soft"]
    )
    assert hard == 1
    assert soft == 0
    out = capsys.readouterr().out
    assert "REGRESSED" in out
    assert "warning (soft mode)" in out


def test_gate_cli_absolute_slowdown_is_advisory_only(tmp_path, capsys):
    """Wall-clock regressions warn but never fail: raw timings are
    machine-dependent, the speedup column is the hard criterion."""
    gate = _load_gate()
    baseline = tmp_path / "baseline.json"
    fresh = tmp_path / "fresh.json"
    baseline.write_text(json.dumps(_full_report()))
    fresh.write_text(json.dumps(_full_report(
        forward={"fast_s": 0.100, "speedup": 9.8}  # 10x slower host
    )))
    assert gate.main(["--baseline", str(baseline), "--fresh", str(fresh)]) == 0
    out = capsys.readouterr().out
    assert "slow (advisory)" in out
    assert "warning" in out


def test_gate_cli_dropped_speedup_key_fails(tmp_path, capsys):
    """Losing the speedup column removes the hard criterion entirely --
    the gate must treat that as schema breakage, not a pass."""
    gate = _load_gate()
    baseline = tmp_path / "baseline.json"
    fresh = tmp_path / "fresh.json"
    baseline.write_text(json.dumps(_full_report()))
    fresh.write_text(json.dumps(_full_report(
        density_inference={"fast_s": 0.010}  # speedup key gone
    )))
    args = ["--baseline", str(baseline), "--fresh", str(fresh)]
    assert gate.main(args) == 1
    assert gate.main(args + ["--soft"]) == 1
    assert "density_inference" in capsys.readouterr().err


def test_gate_cli_missing_required_scenario_fails(tmp_path, capsys):
    """Dropping a recorded scenario is schema breakage, not noise."""
    gate = _load_gate()
    baseline = tmp_path / "baseline.json"
    fresh = tmp_path / "fresh.json"
    incomplete = _full_report()
    del incomplete["benchmarks"]["density_inference"]
    baseline.write_text(json.dumps(_full_report()))
    fresh.write_text(json.dumps(incomplete))
    args = ["--baseline", str(baseline), "--fresh", str(fresh)]
    assert gate.main(args) == 1
    assert gate.main(args + ["--soft"]) == 1
    assert "density_inference" in capsys.readouterr().err


def test_compare_reports_flags_goodput_drop_with_zero_tolerance():
    """Chaos goodput is deterministic under its pinned seed, so *any*
    drop below the committed baseline is a hard regression, while a
    gain is fine."""
    gate = _load_gate()
    baseline = _report(serve_chaos_goodput={"seconds": 0.01, "goodput": 0.667})
    worse = _report(serve_chaos_goodput={"seconds": 0.01, "goodput": 0.666})
    (row,) = gate.compare_reports(baseline, worse, 2.0)
    assert row["regressed"] and row["regressed_goodput"]
    better = _report(serve_chaos_goodput={"seconds": 0.01, "goodput": 0.7})
    (row_up,) = gate.compare_reports(baseline, better, 2.0)
    assert not row_up["regressed_goodput"]


def test_gate_cli_goodput_drop_fails_hard_soft_warns(tmp_path, capsys):
    gate = _load_gate()
    baseline = tmp_path / "baseline.json"
    fresh = tmp_path / "fresh.json"
    baseline.write_text(json.dumps(_full_report()))
    fresh.write_text(json.dumps(_full_report(
        serve_chaos_goodput={"seconds": 0.010, "goodput": 0.5}
    )))
    args = ["--baseline", str(baseline), "--fresh", str(fresh)]
    assert gate.main(args) == 1
    assert gate.main(args + ["--soft"]) == 0
    out = capsys.readouterr().out
    assert "goodput 0.667 -> 0.500" in out
    assert "REGRESSED" in out


def test_gate_cli_dropped_goodput_key_fails(tmp_path, capsys):
    """Losing the goodput column de-fangs the chaos gate -- schema
    breakage, exactly like a dropped speedup column."""
    gate = _load_gate()
    baseline = tmp_path / "baseline.json"
    fresh = tmp_path / "fresh.json"
    baseline.write_text(json.dumps(_full_report()))
    fresh.write_text(json.dumps(_full_report(
        serve_chaos_goodput={"seconds": 0.010}  # goodput key gone
    )))
    args = ["--baseline", str(baseline), "--fresh", str(fresh)]
    assert gate.main(args) == 1
    assert gate.main(args + ["--soft"]) == 1
    assert "serve_chaos_goodput" in capsys.readouterr().err


def test_compare_reports_gates_shard_speedup_column():
    """Sharded scenarios carry shard_speedup (vs serial); the collapse
    check must read that column, not the absent fast-vs-reference one."""
    gate = _load_gate()
    baseline = _report(
        sharded_trajectory={"fast_s": 0.010, "shard_speedup": 2.0}
    )
    collapsed = _report(
        sharded_trajectory={"fast_s": 0.010, "shard_speedup": 0.8}
    )
    (row,) = gate.compare_reports(baseline, collapsed, 2.0)
    assert row["regressed"] and row["regressed_speedup"]
    held = _report(
        sharded_trajectory={"fast_s": 0.010, "shard_speedup": 1.9}
    )
    (row_ok,) = gate.compare_reports(baseline, held, 2.0)
    assert not row_ok["regressed"]


def test_compare_reports_enforces_recorded_floor():
    """A fresh row recording a core-aware floor fails hard below it,
    even when the collapse-vs-baseline check alone would pass."""
    gate = _load_gate()
    baseline = _report(
        sharded_scaling={"fast_s": 0.010, "speedup": 2.2},
        sharded_trajectory={"fast_s": 0.010, "shard_speedup": 1.6},
    )
    fresh = _report(
        # 1.4x is within 2x of the baseline's 2.2x, but under the 2.0
        # floor the fresh harness computed for this host.
        sharded_scaling={"fast_s": 0.010, "speedup": 1.4, "floor": 2.0},
        sharded_trajectory={
            "fast_s": 0.010, "shard_speedup": 1.2, "floor": 1.5,
        },
    )
    rows = {r["scenario"]: r for r in gate.compare_reports(baseline, fresh, 2.0)}
    assert rows["sharded_scaling"]["regressed_floor"]
    assert rows["sharded_trajectory"]["regressed_floor"]
    assert not rows["sharded_scaling"]["regressed_speedup"]
    # At or above the floor: green.
    fresh_ok = _report(
        sharded_scaling={"fast_s": 0.010, "speedup": 2.0, "floor": 2.0},
        sharded_trajectory={
            "fast_s": 0.010, "shard_speedup": 1.5, "floor": 1.5,
        },
    )
    rows_ok = gate.compare_reports(baseline, fresh_ok, 2.0)
    assert not any(r["regressed_floor"] for r in rows_ok)


def test_gate_cli_floor_miss_fails_hard_soft_warns(tmp_path, capsys):
    gate = _load_gate()
    baseline = tmp_path / "baseline.json"
    fresh = tmp_path / "fresh.json"
    baseline.write_text(json.dumps(_full_report()))
    fresh.write_text(json.dumps(_full_report(
        sharded_trajectory={
            "fast_s": 0.010, "shard_speedup": 1.2, "floor": 1.5,
        }
    )))
    args = ["--baseline", str(baseline), "--fresh", str(fresh)]
    assert gate.main(args) == 1
    assert gate.main(args + ["--soft"]) == 0
    out = capsys.readouterr().out
    assert "below floor 1.50x" in out
    assert "REGRESSED" in out


def test_gate_cli_dropped_shard_speedup_key_fails(tmp_path, capsys):
    """Losing shard_speedup de-fangs the sharded gate -- schema
    breakage, exactly like a dropped speedup column."""
    gate = _load_gate()
    baseline = tmp_path / "baseline.json"
    fresh = tmp_path / "fresh.json"
    baseline.write_text(json.dumps(_full_report()))
    fresh.write_text(json.dumps(_full_report(
        sharded_trajectory={"fast_s": 0.010}  # shard_speedup key gone
    )))
    args = ["--baseline", str(baseline), "--fresh", str(fresh)]
    assert gate.main(args) == 1
    assert gate.main(args + ["--soft"]) == 1
    assert "sharded_trajectory" in capsys.readouterr().err


def test_gate_requires_and_floors_the_wide_sharded_row(tmp_path, capsys):
    """sharded_trajectory_wide (the 10-qubit leg, whose chunks sweep
    several tiles) is a required shard_speedup row: dropping it is
    schema breakage, and missing its recorded floor fails hard."""
    gate = _load_gate()
    assert "sharded_trajectory_wide" in gate.REQUIRED_SCENARIOS
    baseline = tmp_path / "baseline.json"
    fresh = tmp_path / "fresh.json"
    baseline.write_text(json.dumps(_full_report()))
    args = ["--baseline", str(baseline), "--fresh", str(fresh)]
    dropped = _full_report()
    del dropped["benchmarks"]["sharded_trajectory_wide"]
    fresh.write_text(json.dumps(dropped))
    assert gate.main(args + ["--soft"]) == 1
    assert "sharded_trajectory_wide" in capsys.readouterr().err
    fresh.write_text(json.dumps(_full_report(
        sharded_trajectory_wide={
            "fast_s": 0.010, "shard_speedup": 1.0, "floor": 1.1,
        }
    )))
    assert gate.main(args) == 1
    assert "below floor 1.10x" in capsys.readouterr().out


def test_gate_cli_passes_within_threshold(tmp_path, capsys):
    gate = _load_gate()
    baseline = tmp_path / "baseline.json"
    fresh = tmp_path / "fresh.json"
    baseline.write_text(json.dumps(_full_report()))
    fresh.write_text(json.dumps(_full_report(
        forward={"fast_s": 0.012, "speedup": 8.5}
    )))
    assert gate.main(["--baseline", str(baseline), "--fresh", str(fresh)]) == 0
    assert "perf gate passed" in capsys.readouterr().out


def test_gate_cli_missing_baseline_is_a_noop(tmp_path):
    gate = _load_gate()
    missing = tmp_path / "nope.json"
    assert gate.main(["--baseline", str(missing)]) == 0


def test_gate_cli_fails_when_nothing_is_comparable(tmp_path):
    """Schema drift that matches zero scenarios must not pass silently --
    even in --soft mode, since that is breakage, not timing noise."""
    gate = _load_gate()
    baseline = tmp_path / "baseline.json"
    fresh = tmp_path / "fresh.json"
    baseline.write_text(json.dumps(_report(old_name=0.010)))
    fresh.write_text(json.dumps(_report(new_name=0.010)))
    args = ["--baseline", str(baseline), "--fresh", str(fresh)]
    assert gate.main(args) == 1
    assert gate.main(args + ["--soft"]) == 1


def test_committed_baseline_has_gateable_scenarios():
    """The committed BENCH_engine.json must keep feeding the CI gate."""
    gate = _load_gate()
    committed = Path(__file__).parent.parent / "BENCH_engine.json"
    report = json.loads(committed.read_text())
    rows = gate.compare_reports(report, report, 2.0)
    names = {r["scenario"] for r in rows}
    assert gate.REQUIRED_SCENARIOS <= names
    assert not gate.missing_required(report, report)
    assert not any(r["regressed"] for r in rows)
