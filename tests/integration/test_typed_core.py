"""The typed core: the ``py.typed`` marker and the ``mypy --strict`` seam."""

import pathlib
import shutil
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


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
