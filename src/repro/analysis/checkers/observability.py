"""Observability checker OBS01.

The obs layer (``repro.obs.instrument.perf_clock``) is the single audited
funnel for wall-clock reads in the instrumented packages.  A direct
``time.perf_counter()`` next to it re-opens the very hole the funnel
closed: timing that silently bypasses the instrument cannot be switched
off for determinism audits and never shows up in traces.  OBS01 rides
the same resolver as DET02, scoped to the instrumented packages: DET02
says "this read must not feed a decision", OBS01 says "and it must go
through ``perf_clock``", so a measurement site waives each on its own.
"""

from __future__ import annotations

import ast

from repro.analysis.base import Checker, register
from repro.analysis.checkers.determinism import _WALL_CLOCKS


@register
class DirectClockChecker(Checker):
    """OBS01 — raw wall-clock read bypassing the obs funnel.

    In packages wired for instrumentation, every wall-clock read must go
    through :func:`repro.obs.instrument.perf_clock` so the obs layer stays
    the one place timing enters the system.  Measurement sites that truly
    cannot use the funnel (e.g. timing the funnel itself) carry a
    ``# repro: allow[OBS01]`` waiver saying why.
    """

    rule = "OBS01"
    title = "direct wall-clock read bypassing repro.obs.instrument.perf_clock"

    def visit_Call(self, node: ast.Call) -> None:
        resolved = self.context.imports.resolve(node.func)
        if resolved in _WALL_CLOCKS:
            self.report(node, f"direct wall-clock read ({resolved}); route "
                              "timing through repro.obs.instrument.perf_clock")
        self.generic_visit(node)
