"""Metrics registry: named counters with label sets.

Two contracts matter here:

* **Determinism.**  Every metric declares whether it is a pure function of
  the run's seeds (``deterministic=True``, the default) or carries
  wall-clock readings (``deterministic=False``).  :meth:`MetricsRegistry.snapshot`
  splits the two into separate sections, so the seeded section of two
  identical seeded runs is identical no matter how the wall clock behaved.
* **Exposition.**  :meth:`MetricsRegistry.render_prometheus` emits the
  Prometheus text format (``# HELP`` / ``# TYPE`` headers) for the status
  server's ``/metrics`` endpoint.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Mapping, Tuple

__all__ = ["Counter", "Metric", "MetricsRegistry"]

#: Canonical, sorted ``(label, value)`` series key.
LabelKey = Tuple[Tuple[str, str], ...]

_NAME = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_LABEL = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    for name in labels:
        if _LABEL.match(name) is None:
            raise ValueError(f"invalid label name {name!r}")
    return tuple(sorted((name, str(value)) for name, value in labels.items()))


def _render_labels(key: LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(f'{name}="{value}"' for name, value in key)
    return "{" + inner + "}"


class Metric:
    """Base class: a named family of series keyed by their label sets."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str = "",
                 deterministic: bool = True) -> None:
        if _NAME.match(name) is None:
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help_text = help_text
        self.deterministic = deterministic
        self._series: Dict[LabelKey, float] = {}

    def value(self, **labels: object) -> float:
        """Current value of the series addressed by ``labels`` (0 if unset)."""
        return self._series.get(_label_key(labels), 0.0)

    def series_items(self) -> List[Tuple[LabelKey, float]]:
        """All series, sorted by label key for stable iteration."""
        return sorted(self._series.items())

    def snapshot_series(self) -> Dict[str, object]:
        """JSON-friendly ``{rendered labels: value}`` map, sorted."""
        return {_render_labels(key): value for key, value in self.series_items()}

    def expose(self) -> List[str]:
        """Prometheus text-format lines for this family."""
        lines = []
        if self.help_text:
            lines.append(f"# HELP {self.name} {self.help_text}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        for key, value in self.series_items():
            lines.append(f"{self.name}{_render_labels(key)} {_format(value)}")
        return lines


def _format(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class Counter(Metric):
    """Monotonically increasing count."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Add ``amount`` (>= 0) to the series addressed by ``labels``."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease "
                             f"(inc({amount}))")
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount


class MetricsRegistry:
    """Get-or-create home for every metric family of one run."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Counter] = {}

    def counter(self, name: str, help_text: str = "",
                deterministic: bool = True) -> Counter:
        """Get or create the counter family ``name``."""
        existing = self._metrics.get(name)
        if existing is None:
            existing = self._metrics[name] = Counter(name, help_text,
                                                     deterministic)
        elif existing.deterministic != deterministic:
            raise ValueError(f"metric {name!r} already registered with "
                             f"deterministic={existing.deterministic}")
        return existing

    def families(self) -> List[Counter]:
        """Every registered family, sorted by name."""
        return [self._metrics[name] for name in sorted(self._metrics)]

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Sorted, JSON-friendly state split by determinism class.

        The ``"deterministic"`` section is a pure function of the run's
        seeds; the ``"wall_clock"`` section holds everything timing-tainted
        and must never feed a fingerprint.
        """
        sections: Dict[str, Dict[str, object]] = {
            "deterministic": {}, "wall_clock": {}}
        for metric in self.families():
            section = ("deterministic" if metric.deterministic
                       else "wall_clock")
            sections[section][metric.name] = {
                "kind": metric.kind,
                "series": metric.snapshot_series(),
            }
        return sections

    def render_prometheus(self) -> str:
        """The whole registry in the Prometheus text exposition format."""
        lines: List[str] = []
        for metric in self.families():
            lines.extend(metric.expose())
        return "\n".join(lines) + ("\n" if lines else "")
