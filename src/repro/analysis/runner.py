"""File discovery, parsing, and rule execution for ``repro check``.

:func:`run_check` is the programmatic entry point: it expands the given
paths into ``*.py`` files, derives each file's dotted module name (so
scoped rules know where they are), parses once, runs every selected
rule, and applies inline suppressions.  The result is a
:class:`CheckReport` that the reporters in :mod:`repro.analysis.report`
render as text or JSON.
"""

from __future__ import annotations

import ast
import pathlib
from dataclasses import dataclass, field

from repro.analysis.base import RULES, Finding, ModuleContext, Rule
from repro.analysis.suppressions import is_suppressed, parse_suppressions
from repro.exceptions import ValidationError

__all__ = ["CheckReport", "discover_files", "module_name_for", "run_check"]

#: Directory names never descended into.
_SKIP_DIRS = frozenset(
    {"__pycache__", ".git", ".venv", "node_modules", "build", "dist"}
)


@dataclass
class CheckReport:
    """Everything one ``repro check`` invocation produced.

    Attributes
    ----------
    findings:
        Every finding, including suppressed ones (reporters separate
        them); sorted by path, line, column, rule.
    files:
        Files checked, in the order they were scanned.
    rules:
        Keys of the rules that ran.
    errors:
        ``(path, message)`` pairs for files that could not be parsed;
        any entry fails the check.
    """

    findings: list[Finding] = field(default_factory=list)
    files: list[str] = field(default_factory=list)
    rules: list[str] = field(default_factory=list)
    errors: list[tuple[str, str]] = field(default_factory=list)

    @property
    def active(self) -> list[Finding]:
        """Findings not silenced by an inline suppression."""
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> list[Finding]:
        """Findings covered by ``# repro: ignore[...]`` comments."""
        return [f for f in self.findings if f.suppressed]

    @property
    def ok(self) -> bool:
        """True when nothing (active findings or parse errors) fired."""
        return not self.active and not self.errors


def discover_files(paths) -> list[pathlib.Path]:
    """Expand files/directories into a sorted, deduplicated file list."""
    files: list[pathlib.Path] = []
    seen: set[pathlib.Path] = set()
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            candidates = sorted(
                candidate
                for candidate in path.rglob("*.py")
                if not any(
                    part in _SKIP_DIRS or part.startswith(".")
                    for part in candidate.parts
                )
            )
        elif path.is_file():
            candidates = [path]
        else:
            raise ValidationError(f"no such file or directory: {raw}")
        for candidate in candidates:
            marker = candidate.resolve()
            if marker not in seen:
                seen.add(marker)
                files.append(candidate)
    return files


def module_name_for(path: pathlib.Path) -> str:
    """Dotted module name, walking up through ``__init__.py`` parents.

    ``src/repro/stats/mvn.py`` maps to ``"repro.stats.mvn"``; a script
    outside any package maps to its bare stem, which keeps it out of
    every scoped rule.
    """
    resolved = path.resolve()
    parts = [resolved.stem] if resolved.stem != "__init__" else []
    parent = resolved.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else resolved.stem


def run_check(paths, rules=None) -> CheckReport:
    """Run the selected rules over the given paths.

    Parameters
    ----------
    paths:
        Files and/or directories to scan.
    rules:
        Iterable of rule keys, or ``None`` for the full catalog.
        Unknown keys raise :class:`~repro.exceptions.ValidationError`.
    """
    selected: list[Rule] = RULES.select(rules)
    report = CheckReport(rules=[rule.key for rule in selected])
    for path in discover_files(paths):
        display = str(path)
        report.files.append(display)
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=display)
        except (OSError, SyntaxError, ValueError) as exc:
            report.errors.append((display, f"{type(exc).__name__}: {exc}"))
            continue
        context = ModuleContext(
            path=display,
            module=module_name_for(path),
            source=source,
            tree=tree,
        )
        suppressions = parse_suppressions(source)
        for rule in selected:
            if not rule.applies(context):
                continue
            for finding in rule.check(context):
                if is_suppressed(suppressions, finding.line, finding.rule):
                    finding = Finding(
                        rule=finding.rule,
                        severity=finding.severity,
                        path=finding.path,
                        line=finding.line,
                        col=finding.col,
                        message=finding.message,
                        suppressed=True,
                    )
                report.findings.append(finding)
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return report
