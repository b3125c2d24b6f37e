"""Experiment harness: one module per table/figure of the paper.

Each ``figN``/``table1`` module exposes

* a ``run(config) -> <FigNResult>`` function that performs the experiment,
* a result dataclass with the exact series/rows the paper reports plus
  ``format_table()`` (and, where a figure is a curve, ``format_chart()``).

``repro experiment NAME`` (:mod:`repro.cli`) is each module's one command
line: it runs ``run()`` and prints the table, then the chart.

Scale is controlled by :class:`repro.experiments.config.ExperimentConfig`:
the default trace length keeps every experiment laptop-fast; pass
``ExperimentConfig.full()`` to rerun on the full 122k-job trace.

Experiment index (DESIGN.md §4):

====== ======================================================================
FIG1   over-provisioning histogram + log-linear fit        (fig1)
FIG3   similarity-group size distribution                  (fig3)
FIG4   potential gain vs similarity range                  (fig4)
FIG5   utilization vs load, with/without estimation        (fig5)
FIG6   slowdown ratio vs load                              (fig6)
FIG7   per-group estimate trajectory                       (fig7)
FIG8   utilization ratio vs second-tier memory size        (fig8)
TAB1   estimator taxonomy comparison                       (table1)
====== ======================================================================

Exports load on first access (:func:`repro._lazy.lazy_exports`): ``from
repro.experiments import ExperimentConfig`` imports
:mod:`repro.experiments.config` and what it needs, not the whole package.
Library code imports a name from the submodule that defines it.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "config": ("ExperimentConfig",),
})

__all__ = ["ExperimentConfig"]
