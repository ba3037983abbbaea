"""Every example script imports cleanly.

Running the examples takes about half a minute, so CI runs them in a
step of their own.  Loading each one as a module is cheap and catches
the breakage a module deletion or rename causes: an example that still
imports a removed name.  The scripts keep their work behind
``if __name__ == "__main__"``, so loading one runs only its imports and
definitions.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parents[2] / "examples").glob("*.py")
)


def test_examples_exist():
    assert EXAMPLES, "no examples/*.py found"


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(
        f"example_{path.stem}", path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(getattr(module, "main", None)), (
        f"{path.name} defines no main()"
    )
