"""The metrics registry: families, labels, snapshots, exposition."""

from __future__ import annotations

import json

import pytest

from repro.obs.registry import Counter, MetricsRegistry


def deterministic_blob(registry):
    """Canonical JSON bytes of a registry's deterministic snapshot section:
    what two identical seeded runs must agree on byte for byte."""
    return json.dumps(registry.snapshot()["deterministic"], sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


# --------------------------------------------------------------------------- #
# families and labels
# --------------------------------------------------------------------------- #
def test_counter_accumulates_per_label_set():
    counter = Counter("repro_queries_total")
    counter.inc(1.0, kind="range")
    counter.inc(2.0, kind="range")
    counter.inc(5.0, kind="knn")
    assert counter.value(kind="range") == 3.0
    assert counter.value(kind="knn") == 5.0
    assert counter.value(kind="join") == 0.0


def test_counter_rejects_negative_increments():
    counter = Counter("c_total")
    with pytest.raises(ValueError):
        counter.inc(-1.0)


def test_label_order_does_not_split_series():
    counter = Counter("c_total")
    counter.inc(1.0, a="x", b="y")
    counter.inc(1.0, b="y", a="x")
    assert counter.value(a="x", b="y") == 2.0
    assert len(counter.series_items()) == 1


def test_metric_and_label_names_are_validated():
    with pytest.raises(ValueError):
        Counter("bad name")
    counter = Counter("ok_total")
    with pytest.raises(ValueError):
        counter.inc(1.0, **{"bad-label": "x"})


# --------------------------------------------------------------------------- #
# the registry
# --------------------------------------------------------------------------- #
def test_registry_get_or_create_returns_same_family():
    registry = MetricsRegistry()
    first = registry.counter("repro_queries_total", "Queries.")
    second = registry.counter("repro_queries_total")
    assert first is second


def test_registry_rejects_determinism_conflicts():
    registry = MetricsRegistry()
    registry.counter("x_total")
    with pytest.raises(ValueError):
        registry.counter("x_total", deterministic=False)


def test_snapshot_splits_deterministic_from_wall_clock():
    registry = MetricsRegistry()
    registry.counter("det_total").inc(3.0)
    registry.counter("latency_ms", deterministic=False).inc(12.5)
    snapshot = registry.snapshot()
    assert "det_total" in snapshot["deterministic"]
    assert "latency_ms" in snapshot["wall_clock"]
    assert "latency_ms" not in snapshot["deterministic"]


def test_deterministic_blob_ignores_wall_clock_series():
    def build(latency):
        registry = MetricsRegistry()
        registry.counter("det_total").inc(3.0, kind="range")
        registry.counter("latency_ms", deterministic=False).inc(latency)
        return registry

    assert deterministic_blob(build(1.0)) == deterministic_blob(build(999.0))


def test_deterministic_blob_is_canonical_json():
    registry = MetricsRegistry()
    registry.counter("b_total").inc(1.0)
    registry.counter("a_total").inc(2.0)
    blob = deterministic_blob(registry)
    document = json.loads(blob)
    assert list(document) == sorted(document)
    assert blob == deterministic_blob(registry)


# --------------------------------------------------------------------------- #
# Prometheus exposition
# --------------------------------------------------------------------------- #
def test_counter_exposition_format():
    registry = MetricsRegistry()
    registry.counter("repro_queries_total", "Queries.").inc(3.0, kind="range")
    text = registry.render_prometheus()
    assert "# HELP repro_queries_total Queries." in text
    assert "# TYPE repro_queries_total counter" in text
    assert 'repro_queries_total{kind="range"} 3' in text
    assert text.endswith("\n")


def test_exposition_orders_families_and_series():
    registry = MetricsRegistry()
    registry.counter("z_total").inc(1.0, shard="1")
    registry.counter("z_total").inc(1.0, shard="0")
    registry.counter("a_total").inc(1.0)
    text = registry.render_prometheus()
    assert text.index("a_total") < text.index("z_total")
    assert text.index('shard="0"') < text.index('shard="1"')
