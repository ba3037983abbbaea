"""Offline checks on the documentation site's references.

``mkdocs build --strict`` is the site's real gate, but it needs the
docs toolchain.  These checks catch the breakages a module deletion
or rename causes without it: a ``nav`` entry whose page is gone, and a
``::: dotted.name`` API-reference directive that no longer imports.
Each reference is its own test case, so a failure names the page or
directive that broke.  ``nav`` is read with a regex on its
``- Title: path.md`` lines rather than with a YAML parser, so the check
needs nothing beyond the test dependencies.
"""

from __future__ import annotations

import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
DOCS = ROOT / "docs"

_NAV_PAGE = re.compile(r"^\s*-\s+[^\n]*?:\s+(\S+\.md)\s*$", re.MULTILINE)
_DIRECTIVE = re.compile(r"^:::\s+([\w.]+)", re.MULTILINE)

NAV_PAGES = _NAV_PAGE.findall((ROOT / "mkdocs.yml").read_text())
DIRECTIVES = [
    (path.relative_to(ROOT).as_posix(), name)
    for path in sorted(DOCS.rglob("*.md"))
    for name in _DIRECTIVE.findall(path.read_text())
]


def test_nav_lists_pages():
    assert NAV_PAGES, "no '- Title: path.md' entries found in mkdocs.yml"


def test_docs_have_api_directives():
    assert DIRECTIVES, "no '::: dotted.name' directives found under docs/"


@pytest.mark.parametrize("page", NAV_PAGES)
def test_nav_page_exists(page):
    assert (DOCS / page).is_file(), f"mkdocs.yml nav names missing page {page}"


@pytest.mark.parametrize(
    ("path", "name"), DIRECTIVES, ids=[f"{p}::{n}" for p, n in DIRECTIVES]
)
def test_api_directive_imports(path, name):
    try:
        importlib.import_module(name)
    except ImportError as exc:
        pytest.fail(f"{path}: ::: {name} does not import: {exc}")
