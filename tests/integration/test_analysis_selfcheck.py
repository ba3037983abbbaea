"""The checker applied to this repository itself.

The merge contract of the static-analysis subsystem: ``repro check``
over ``src/`` and ``examples/`` is clean — every real
violation is either fixed or carries a justified inline suppression.
"""

import pathlib
import shutil
import subprocess
import sys

import pytest

from repro.analysis import run_check

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def _tree(*names):
    paths = [REPO_ROOT / name for name in names]
    missing = [str(path) for path in paths if not path.exists()]
    if missing:
        pytest.skip(f"tree(s) not present: {missing}")
    return paths


class TestSelfCheck:
    def test_src_is_clean(self):
        report = run_check(_tree("src"))
        assert report.files, "no files discovered under src/"
        assert not report.errors, report.errors
        offenders = [f.location() for f in report.active]
        assert report.ok, f"repro check src/ found: {offenders}"

    def test_examples_are_clean(self):
        report = run_check(_tree("examples"))
        offenders = [f.location() for f in report.active]
        assert report.ok, f"repro check found: {offenders}"

    def test_suppressions_in_src_carry_justifications(self):
        # Every inline suppression must have free-form text after the
        # bracket explaining why the exact construct is safe.
        report = run_check(_tree("src"))
        for finding in report.suppressed:
            line = pathlib.Path(finding.path).read_text().splitlines()[
                finding.line - 1
            ]
            marker = line.split("repro: ignore", 1)[1]
            justification = marker.split("]", 1)[1].strip()
            assert justification, (
                f"{finding.location()}: suppression of {finding.rule} "
                "has no justification text"
            )

    def test_cli_self_check_exits_zero(self):
        _tree("src")
        completed = subprocess.run(
            [sys.executable, "-m", "repro.cli", "check", "src"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
            timeout=120,
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr
        assert "repro check: clean" in completed.stdout


class TestTypedCore:
    def test_py_typed_marker_ships(self):
        assert (REPO_ROOT / "src" / "repro" / "py.typed").exists()

    def test_mypy_strict_config_is_committed(self):
        pyproject = (REPO_ROOT / "pyproject.toml").read_text()
        assert "[tool.mypy]" in pyproject
        assert "strict = true" in pyproject
        for seam in ("repro.api", "repro.engine", "repro.telemetry"):
            assert seam in pyproject

    def test_mypy_strict_on_the_seam(self):
        # mypy is a CI dependency, not a runtime one; skip when absent.
        if shutil.which("mypy") is None:
            pytest.importorskip("mypy", reason="mypy not installed")
        completed = subprocess.run(
            [sys.executable, "-m", "mypy", "--config-file", "pyproject.toml"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr
