"""The perf harness: measurement plumbing, persistence and the CI gate."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import main
from repro.perf.harness import (
    BenchReport,
    ScenarioMeasurement,
    compare_to_baseline,
    format_report,
    load_report,
    run_scenario,
    run_suite,
    write_report,
)
from repro.perf.scenarios import SCALES, SCENARIOS, scenario_names

# Every test drives full perf scenarios (timed repeats): the slow lane.
pytestmark = pytest.mark.slow

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def make_measurement(name, wall, fingerprint=None):
    return ScenarioMeasurement(name=name, wall_seconds=wall, repeats=1,
                               all_wall_seconds=[wall], peak_alloc_bytes=4096,
                               live_alloc_bytes=1024,
                               fingerprint=fingerprint or {"m": 1.0})


def make_report(walls, scale="smoke", fingerprints=None):
    report = BenchReport(scale=scale, python_version="3.x", label="test")
    for name, wall in walls.items():
        fp = (fingerprints or {}).get(name)
        report.scenarios[name] = make_measurement(name, wall, fp)
    return report


def test_scenario_registry_names():
    assert scenario_names() == list(SCENARIOS)
    assert {"fig6_models", "fleet_rush_hour", "cache_pressure",
            "sharded_fleet"} <= set(SCENARIOS)
    assert set(SCALES) == {"default", "smoke"}


def test_scenario_descriptions_cover_the_registry():
    from repro.perf import scenario_descriptions
    descriptions = scenario_descriptions()
    assert list(descriptions) == scenario_names()
    assert all(description for description in descriptions.values())
    assert all("\n" not in description
               for description in descriptions.values())


def test_sharded_fleet_scenario_pins_result_equivalence():
    """The scenario's own correctness bit must hold at smoke scale."""
    fingerprint = SCENARIOS["sharded_fleet"](SCALES["smoke"])
    assert fingerprint["results_match"] == 1.0
    assert fingerprint["shards"] == float(SCALES["smoke"]["shard_count"])
    routed = sum(value for key, value in fingerprint.items()
                 if key.endswith(".queries_routed"))
    assert routed > 0


def test_hotspot_cache_scenario_pins_skips_and_equivalence():
    """Cache-on must answer identically AND actually skip shards."""
    fingerprint = SCENARIOS["hotspot_cache"](SCALES["smoke"])
    assert fingerprint["results_match"] == 1.0
    assert fingerprint["shards_skipped"] > 0
    assert 0.0 < fingerprint["cache_hit_rate"] <= 1.0
    assert fingerprint["pages_read_on"] < fingerprint["pages_read_off"]


def test_report_round_trip(tmp_path):
    current = make_report({"a": 1.0, "b": 2.0})
    baseline = make_report({"a": 2.0, "b": 2.0})
    path = tmp_path / "BENCH_test.json"
    payload = write_report(str(path), current, baseline=baseline,
                           meta={"note": "round trip"})
    assert payload["speedup"] == {"a": 2.0, "b": 1.0}
    loaded_current = load_report(str(path), section="current")
    loaded_baseline = load_report(str(path), section="baseline")
    assert loaded_current.scenarios["a"].wall_seconds == 1.0
    assert loaded_baseline.scenarios["a"].wall_seconds == 2.0
    assert loaded_current.scenarios["a"].fingerprint == {"m": 1.0}
    with pytest.raises(ValueError):
        load_report(str(path), section="nope")
    raw = json.loads(path.read_text())
    assert raw["meta"]["note"] == "round trip"


def test_compare_flags_wall_clock_regression():
    baseline = make_report({"a": 1.0, "b": 1.0})
    current = make_report({"a": 1.30, "b": 1.10})
    entries = {e.name: e for e in compare_to_baseline(current, baseline,
                                                      max_regression=0.25)}
    assert entries["a"].regressed
    assert not entries["b"].regressed
    assert entries["a"].ratio == pytest.approx(1.30)
    assert entries["b"].speedup == pytest.approx(1 / 1.10)


def test_compare_flags_fingerprint_mismatch():
    baseline = make_report({"a": 1.0}, fingerprints={"a": {"m": 1.0}})
    current = make_report({"a": 0.5}, fingerprints={"a": {"m": 2.0}})
    (entry,) = compare_to_baseline(current, baseline)
    assert not entry.regressed          # it is faster ...
    assert entry.fingerprint_matches is False  # ... but it changed behaviour


def test_compare_rejects_scale_mismatch():
    with pytest.raises(ValueError, match="scale mismatch"):
        compare_to_baseline(make_report({"a": 1.0}, scale="smoke"),
                            make_report({"a": 1.0}, scale="default"))


def test_compare_refuses_scenarios_missing_from_baseline():
    """A renamed/added scenario must not silently fall out of the gate."""
    baseline = make_report({"a": 1.0})
    current = make_report({"a": 1.0, "brand_new": 1.0})
    with pytest.raises(ValueError, match="brand_new"):
        compare_to_baseline(current, baseline)
    entries = compare_to_baseline(current, baseline, allow_missing=True)
    assert [e.name for e in entries] == ["a"]
    # The baseline having *extra* scenarios (a subset run) is fine.
    subset = make_report({"a": 1.0})
    full_baseline = make_report({"a": 1.0, "b": 1.0})
    assert len(compare_to_baseline(subset, full_baseline)) == 1


def test_check_without_baseline_is_an_error(capsys):
    with pytest.raises(SystemExit, match="--check requires --baseline"):
        main(["bench", "--scenario", "fig6_models", "--scale", "smoke",
              "--repeats", "1", "--no-alloc", "--check"])
    capsys.readouterr()


def _unusable_baselines(tmp_path):
    wrong_scale = tmp_path / "default_scale.json"
    write_report(str(wrong_scale), make_report({"storage_paged": 1.0},
                                               scale="default"))
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"current": {"scenarios": {"storage_paged": {}}}')
    fieldless = tmp_path / "fieldless.json"
    fieldless.write_text('{"current": {"scale": "smoke", '
                         '"scenarios": {"storage_paged": {}}}}')
    return {
        # The committed PR-2 baseline predates the storage scenarios.
        str(REPO_ROOT / "BENCH_PR2_smoke.json"): "scenarios missing from the baseline",
        str(tmp_path / "nonexistent.json"): "No such file",
        str(wrong_scale): "scale mismatch",
        str(truncated): "repro bench: error: ",
        str(fieldless): "lacks field 'wall_seconds'",
    }


def test_unusable_baseline_is_refused_before_anything_runs(tmp_path):
    """A real ``repro bench`` process: one error line, no run, no output."""
    environment = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    output = tmp_path / "out.json"
    for baseline, message in _unusable_baselines(tmp_path).items():
        outcome = subprocess.run(
            [sys.executable, "-m", "repro.cli", "bench", "--scenario",
             "storage_paged", "--scale", "smoke", "--baseline", baseline,
             "--output", str(output)],
            env=environment, capture_output=True, text=True, timeout=120)
        assert outcome.returncode != 0, baseline
        assert "repro bench: error: " in outcome.stderr, baseline
        assert message in outcome.stderr, baseline
        assert "Traceback" not in outcome.stderr, baseline
        assert "running " not in outcome.stdout, baseline
        assert not output.exists(), baseline


def test_run_suite_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown scenario"):
        run_suite(["not_a_scenario"], scale="smoke")
    with pytest.raises(ValueError, match="unknown scale"):
        run_suite(scale="galactic")


def test_run_scenario_smoke_produces_fingerprint():
    measurement = run_scenario("cache_pressure", scale_name="smoke", repeats=1,
                               measure_allocations=True)
    assert measurement.wall_seconds > 0
    assert measurement.peak_alloc_bytes > 0
    assert 0 <= measurement.live_alloc_bytes <= measurement.peak_alloc_bytes
    assert measurement.fingerprint  # deterministic metrics recorded
    # Determinism: a second run reproduces the fingerprint exactly.
    again = run_scenario("cache_pressure", scale_name="smoke", repeats=1,
                         measure_allocations=False)
    assert again.fingerprint == measurement.fingerprint


def test_format_report_marks_regressions():
    baseline = make_report({"a": 1.0})
    current = make_report({"a": 2.0})
    comparison = compare_to_baseline(current, baseline)
    text = format_report(current, comparison)
    assert "REGRESSED" in text
    assert "a" in text


def test_bench_cli_writes_report_and_gates(tmp_path, capsys):
    output = tmp_path / "BENCH_ci.json"
    assert main(["bench", "--scenario", "fig6_models", "--scale", "smoke",
                 "--repeats", "1", "--no-alloc", "--output", str(output)]) == 0
    capsys.readouterr()
    payload = json.loads(output.read_text())
    assert "fig6_models" in payload["current"]["scenarios"]

    # Gate against itself: fingerprints must match.  Wall-clock noise between
    # two single-repeat runs on a loaded test machine is real, so this case
    # disarms the timing threshold and exercises the behaviour gate only.
    assert main(["bench", "--scenario", "fig6_models", "--scale", "smoke",
                 "--repeats", "1", "--no-alloc", "--baseline", str(output),
                 "--max-regression", "1000", "--check"]) == 0
    capsys.readouterr()

    # Fabricate an absurdly fast baseline: the gate must fail.
    payload["current"]["scenarios"]["fig6_models"]["wall_seconds"] = 1e-9
    fast = tmp_path / "BENCH_fast.json"
    fast.write_text(json.dumps(payload))
    with pytest.raises(SystemExit, match="wall-clock regression"):
        main(["bench", "--scenario", "fig6_models", "--scale", "smoke",
              "--repeats", "1", "--no-alloc", "--baseline", str(fast), "--check"])
    capsys.readouterr()


def test_storage_scenarios_registered():
    assert {"storage_paged", "warm_restart"} <= set(SCENARIOS)


def test_storage_paged_scenario_asserts_backend_match():
    measurement = run_scenario("storage_paged", scale_name="smoke", repeats=1,
                               measure_allocations=False)
    assert measurement.fingerprint["backend_match"] == 1.0
    assert measurement.fingerprint["logical_page_reads"] > 0
    assert measurement.fingerprint["file_reads"] > 0
    # Deterministic (the fingerprint must be gateable):
    again = run_scenario("storage_paged", scale_name="smoke", repeats=1,
                         measure_allocations=False)
    assert again.fingerprint == measurement.fingerprint


def test_warm_restart_scenario_asserts_digest_match():
    measurement = run_scenario("warm_restart", scale_name="smoke", repeats=1,
                               measure_allocations=False)
    assert measurement.fingerprint["digest_match"] == 1.0
    again = run_scenario("warm_restart", scale_name="smoke", repeats=1,
                         measure_allocations=False)
    assert again.fingerprint == measurement.fingerprint


def test_update_churn_scenario_fingerprint():
    assert "update_churn" in SCENARIOS
    measurement = run_scenario("update_churn", scale_name="smoke", repeats=1,
                               measure_allocations=False)
    fingerprint = measurement.fingerprint
    for mode in ("versioned", "ttl", "none"):
        assert fingerprint[f"{mode}.applied_updates"] > 0
    # Only the versioned protocol pays handshake bytes; only the baselines
    # never refresh in place.
    assert fingerprint["versioned.sync_uplink_bytes"] > 0
    assert fingerprint["ttl.sync_uplink_bytes"] == 0
    assert fingerprint["none.sync_uplink_bytes"] == 0
    assert fingerprint["none.refreshed_items"] == 0
    # Deterministic (the fingerprint must be gateable):
    again = run_scenario("update_churn", scale_name="smoke", repeats=1,
                         measure_allocations=False)
    assert again.fingerprint == measurement.fingerprint
