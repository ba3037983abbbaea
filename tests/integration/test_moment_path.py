"""The figure jobs in moment space agree with the table path in law.

The figure tasks draw each job's joint mean and scatter of ``(X, R)``
(:func:`~repro.data.synthetic.sample_moments`) instead of the two
``(n, m)`` tables the paper's Section 7.1 procedure draws
(``tests/table_path.py``).  For attacks affine in ``Y`` the two give
every score the same distribution, but not the same bits.  At two sweep
points of each figure, at the default ``n = 2000``, 40 independent seeds
per path give each attack's mean RMSE; a two-sample z statistic must stay
within 3.  Within the moment path, a 2-worker pool still returns the
serial run's bits.
"""

import numpy as np
import pytest

from repro.api import SweepConfig, build_engine, builtin_spec, run_spec
from repro.engine.jobs import derive_rng, resolve_task

from tests.table_path import run_on_tables

pytestmark = pytest.mark.slow

TRIALS = 40
#: Two sweep points per figure: its first and its last.
FIGURES = ("figure1", "figure2", "figure3", "figure4")


def _jobs(name, seed):
    spec = builtin_spec(name, SweepConfig(n_trials=TRIALS, seed=seed))
    jobs = spec.compile_jobs()
    last = max(job.seed_path[0] for job in jobs)
    return [job for job in jobs if job.seed_path[0] in (0, last)]


def _rmse_by_point(jobs, run):
    """``{(point, attack): [rmse per trial]}``."""
    values = {}
    for job in jobs:
        for attack, rmse in run(job)["rmse"].items():
            values.setdefault((job.seed_path[0], attack), []).append(rmse)
    return values


def _moments(job):
    return resolve_task(job.task)(job.params, derive_rng(job))


@pytest.mark.parametrize("name", FIGURES)
def test_mean_rmse_agrees_with_the_table_path(name):
    moments = _rmse_by_point(_jobs(name, seed=2005), _moments)
    tables = _rmse_by_point(_jobs(name, seed=2006), run_on_tables)
    assert moments.keys() == tables.keys()
    assert len(moments) >= 2 * 3
    for key, values in moments.items():
        a, b = np.asarray(values), np.asarray(tables[key])
        assert a.size == b.size == TRIALS
        spread = np.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
        z = (a.mean() - b.mean()) / spread
        assert abs(z) <= 3.0, (key, a.mean(), b.mean(), z)


def test_pool_matches_serial_bits():
    spec = builtin_spec("figure4", SweepConfig(n_records=400, n_trials=2))
    serial = run_spec(spec, engine=build_engine(jobs=1, cache=False))
    pooled = run_spec(spec, engine=build_engine(jobs=2, cache=False))
    assert pooled.payloads == serial.payloads
