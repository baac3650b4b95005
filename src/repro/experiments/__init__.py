"""Experiments that regenerate every table and figure of the paper.

Each module corresponds to one figure (or table) of Section 6 and exposes a
``run(config)`` function returning a structured result plus a ``render``
helper that prints the same rows / series the paper reports.  The shape
claims in ``tests/experiments/test_paper_claims.py`` call these functions;
the one command-line runner is ``repro figure`` (:mod:`repro.cli`)::

    repro figure 6
"""

from repro.experiments import fig6, fig7, fig8, fig9, fig10, fig11, overheads, table61
from repro.experiments.report import format_table, normalise

__all__ = ["fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "overheads", "table61",
           "format_table", "normalise"]
