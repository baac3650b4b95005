"""Adaptation of the compact-form depth ``d`` from the false-miss rate.

The client periodically reports its recent false-miss rate (fmr) to the
server.  If the reported value exceeds the previously recorded one by more
than the sensitivity ``s`` (relatively), the recent queries evidently need
finer entry information around the cached objects, so ``d`` is increased by
one; if it dropped by more than ``s`` the cached index is over-provisioned
and ``d`` is decreased by one (Section 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.supporting_index import IndexForm, SupportingIndexPolicy


@dataclass(slots=True)
class AdaptiveDepthController:
    """Client-side fmr bookkeeping plus the server-side ``d`` update rule.

    Parameters
    ----------
    policy:
        The supporting-index policy whose ``depth`` this controller adjusts.
        Only :attr:`IndexForm.ADAPTIVE` policies are ever modified.
    sensitivity:
        The paper's ``s`` (default 20 %).
    report_period:
        Number of queries between two fmr reports to the server.
    max_depth / min_depth:
        Clamp for ``d``.
    """

    policy: SupportingIndexPolicy
    sensitivity: float = 0.2
    report_period: int = 50
    min_depth: int = 0
    max_depth: int = 16
    last_reported_fmr: Optional[float] = None
    _window_false: float = 0.0
    _window_cached: float = 0.0
    _queries_in_window: int = 0
    history: List[float] = field(default_factory=list)

    def record_query(self, cached_result_bytes: float, saved_result_bytes: float) -> None:
        """Record one query's contribution to the running fmr window.

        ``cached_result_bytes`` is ``|R ∩ C|`` and ``saved_result_bytes`` is
        ``|Rs ∩ C| = |Rs|`` (saved objects are by construction cached).
        """
        self._window_cached += cached_result_bytes
        self._window_false += max(0.0, cached_result_bytes - saved_result_bytes)
        self._queries_in_window += 1
        if self._queries_in_window >= self.report_period:
            self.report()

    def window_fmr(self) -> float:
        """The fmr accumulated in the current window."""
        if self._window_cached <= 0:
            return 0.0
        return self._window_false / self._window_cached

    def report(self) -> float:
        """Close the window, report the fmr to the server and adapt ``d``."""
        fmr = self.window_fmr()
        self.history.append(fmr)
        self._apply(fmr)
        self._window_false = 0.0
        self._window_cached = 0.0
        self._queries_in_window = 0
        return fmr

    def _apply(self, fmr: float) -> None:
        if self.policy.form is not IndexForm.ADAPTIVE:
            self.last_reported_fmr = fmr
            return
        last = self.last_reported_fmr
        if last is None:
            self.last_reported_fmr = fmr
            return
        threshold = abs(last) * self.sensitivity
        if fmr > last + max(threshold, 1e-9):
            self.policy.depth = min(self.max_depth, self.policy.depth + 1)
        elif fmr < last - max(threshold, 1e-9):
            self.policy.depth = max(self.min_depth, self.policy.depth - 1)
        self.last_reported_fmr = fmr

    @property
    def depth(self) -> int:
        """The current compact-form expansion depth ``d``."""
        return self.policy.depth

    # ------------------------------------------------------------------ #
    # snapshot / restore (warm-restart persistence)
    # ------------------------------------------------------------------ #
    # repro: allow[STM01] policy/sensitivity/report_period/min_depth/max_depth
    # are constructor configuration, re-injected by from_state_dict's caller.
    def state_dict(self) -> dict:
        """The controller's mutable state as JSON-serialisable primitives."""
        return {
            "last_reported_fmr": self.last_reported_fmr,
            "window_false": self._window_false,
            "window_cached": self._window_cached,
            "queries_in_window": self._queries_in_window,
            "history": list(self.history),
            "depth": self.policy.depth,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output (including the policy's depth)."""
        self.last_reported_fmr = state["last_reported_fmr"]
        self._window_false = state["window_false"]
        self._window_cached = state["window_cached"]
        self._queries_in_window = state["queries_in_window"]
        self.history = list(state["history"])
        self.policy.depth = state["depth"]
