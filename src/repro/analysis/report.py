"""Text and JSON reporters for :class:`~repro.analysis.runner.CheckReport`.

The text form is the classic one-finding-per-line linter format
(``path:line:col: severity[rule] message``), grep- and editor-friendly.
The JSON form is a versioned ``repro-check/v1`` document mirroring the
other machine-readable artifacts in this repository (``repro-trace/v2``,
``repro-manifest/v1``) so CI can archive and diff it.
"""

from __future__ import annotations

from repro.analysis.base import RULES
from repro.analysis.runner import CheckReport

__all__ = ["REPORT_VERSION", "render_report", "report_payload", "render_rules"]

#: Schema tag of the JSON report.
REPORT_VERSION = "repro-check/v1"


def render_report(report: CheckReport, *, fix_hints: bool = False) -> str:
    """Human-readable findings plus a one-line summary."""
    lines: list[str] = []
    hinted: set[str] = set()
    for path, message in report.errors:
        lines.append(f"{path}:1:1: error[parse] {message}")
    for finding in report.active:
        lines.append(
            f"{finding.location()}: {finding.severity}[{finding.rule}] "
            f"{finding.message}"
        )
        if fix_hints and finding.rule not in hinted:
            hinted.add(finding.rule)
            lines.append(f"    hint: {RULES.get(finding.rule).hint}")
    active = len(report.active)
    suppressed = len(report.suppressed)
    status = "clean" if report.ok else "FAILED"
    lines.append(
        f"repro check: {status} — {len(report.files)} files, "
        f"{active} finding{'s' if active != 1 else ''}"
        f" ({suppressed} suppressed)"
        + (f", {len(report.errors)} parse errors" if report.errors else "")
    )
    return "\n".join(lines)


def report_payload(report: CheckReport) -> dict:
    """The ``repro-check/v1`` JSON document."""
    return {
        "version": REPORT_VERSION,
        "rules": [
            {
                "key": rule.key,
                "title": rule.title,
                "severity": rule.severity,
                "scope": list(rule.scope),
            }
            for rule in RULES.select(report.rules)
        ],
        "files": list(report.files),
        "findings": [
            {
                "rule": finding.rule,
                "severity": finding.severity,
                "path": finding.path,
                "line": finding.line,
                "col": finding.col + 1,
                "message": finding.message,
                "suppressed": finding.suppressed,
            }
            for finding in report.findings
        ],
        "errors": [
            {"path": path, "message": message}
            for path, message in report.errors
        ],
        "summary": {
            "files": len(report.files),
            "findings": len(report.active),
            "suppressed": len(report.suppressed),
            "errors": len(report.errors),
            "ok": report.ok,
        },
    }


def render_rules() -> str:
    """The rule catalog as an aligned text table (``--list-rules``)."""
    rows = []
    for key in RULES.names():
        rule = RULES.get(key)
        scope = ", ".join(rule.scope) if rule.scope else "all files"
        rows.append((key, rule.severity, rule.title, scope))
    key_width = max(len(row[0]) for row in rows)
    sev_width = max(len(row[1]) for row in rows)
    lines = [
        f"{key:<{key_width}}  {severity:<{sev_width}}  {title}\n"
        f"{'':<{key_width}}  {'':<{sev_width}}  scope: {scope}"
        for key, severity, title, scope in rows
    ]
    return "\n".join(lines)
