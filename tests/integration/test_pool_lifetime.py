"""One pooled engine across many runs: figures back to back, traced and
untraced runs in turn, and an interpreter that exits with its pool open.

The engine forks its pool on its first pooled run and keeps the workers
until it is closed, so every later run reuses processes that an earlier
run started.  None of that may change a result bit, leak an earlier
run's tracing into a later one, or leave a worker behind.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import textwrap

from repro.api import SweepConfig, build_engine, builtin_spec, run_spec
from repro.telemetry import traced_run

from tests.unit.test_engine_executor import _alive

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"
CONFIG = SweepConfig(n_records=300)


def _serial(spec):
    return run_spec(spec, engine=build_engine(jobs=1)).payloads


def test_figures_back_to_back_on_one_pool_match_serial():
    specs = [builtin_spec(name, CONFIG) for name in ("figure1", "figure2")]
    with build_engine(jobs=2) as engine:
        pooled = [run_spec(spec, engine=engine).payloads for spec in specs]
        workers = set(engine.executor._pool._processes)
        pooled.append(run_spec(specs[0], engine=engine).payloads)
        assert set(engine.executor._pool._processes) == workers
    assert pooled == [_serial(specs[0]), _serial(specs[1]), _serial(specs[0])]


def test_traced_and_untraced_runs_alternate_on_one_pool(tmp_path):
    spec = builtin_spec("figure2", CONFIG)
    expected = _serial(spec)
    first = tmp_path / "first.jsonl"
    with build_engine(jobs=2) as engine:
        # The pool forks inside a traced run, so its workers start with
        # that run's recorder active.
        with traced_run(first):
            assert run_spec(spec, engine=engine).payloads == expected
        recorded = first.read_text()
        assert run_spec(spec, engine=engine).payloads == expected
        with traced_run(tmp_path / "second.jsonl") as recorder:
            assert run_spec(spec, engine=engine).payloads == expected
        assert run_spec(spec, engine=engine).payloads == expected
    # No worker wrote into the first run's stream after it ended, and
    # the second run's spans all came back to its own recorder.
    assert first.read_text() == recorded
    [run] = recorder.to_document()["spans"]
    assert len(run["children"]) == len(spec.compile_jobs())


def test_interpreter_exit_without_close_leaves_no_worker():
    code = """
        import json
        from repro.api import SweepConfig, build_engine, builtin_spec, run_spec

        engine = build_engine(jobs=2)
        run_spec(builtin_spec("figure1", SweepConfig(n_records=200)), engine=engine)
        print(json.dumps(sorted(engine.executor._pool._processes)))
    """
    env_path = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=dict(os.environ, PYTHONPATH=env_path),
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    workers = json.loads(completed.stdout.strip().splitlines()[-1])
    assert len(workers) == 2
    assert not [pid for pid in workers if _alive(pid)]
