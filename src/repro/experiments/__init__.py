"""Engine tasks behind the built-in specs, and text rendering of results.

:mod:`repro.experiments.tasks` holds the per-job functions the built-in
:class:`~repro.api.spec.ExperimentSpec` objects (:mod:`repro.api.builtin`)
compile to — Section 7's Experiments 1-3, Section 8.2's Experiment 4,
the Theorem 5.2 check and the ablations.  Run a figure with
:func:`~repro.api.runner.run_spec`, e.g.
``run_spec(figure1_spec(), engine=engine).to_series()``;
:mod:`repro.experiments.reporting` and :mod:`repro.experiments.ascii_plot`
render the resulting :class:`~repro.api.config.ExperimentSeries` as the
text tables and plots the CLI prints.
"""

from repro.experiments.ascii_plot import plot_series
from repro.experiments.reporting import render_series, series_to_rows

__all__ = ["plot_series", "render_series", "series_to_rows"]
