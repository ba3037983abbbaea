"""Cross-run trace diffing: where did the time go *between* two runs.

``repro trace diff A.json B.json`` aligns the span trees of two
``repro-trace/v1`` documents and reports, per aligned span, the change
in duration with self-time attribution — so "the sweep got 40% slower"
decomposes into "EM iterations in these three jobs" instead of a
number.  Alignment is structural, not positional: a span's identity is
its ancestry path where each step prefers the engine cache key
(``attrs.key`` — worker- and schedule-independent), then the bench
case name (``attrs.case``), and only falls back to name + occurrence
index among same-name siblings.  Two runs of the same spec therefore
align job-for-job even when a worker pool completed them in a
different order.

The manifest delta answers the *why* half: spec hash, seed lineage,
git revision, and package versions are compared field by field, so a
slowdown co-arriving with a numpy bump or a changed spec hash is
visible in the same report.
"""

from __future__ import annotations

import math
from typing import Any

from repro.exceptions import ValidationError
from repro.telemetry.convergence import payload_scalar
from repro.telemetry.spans import Span
from repro.telemetry.viewer import format_seconds

__all__ = ["diff_traces", "render_diff"]

#: Manifest scalar fields compared by :func:`_manifest_delta`.
_MANIFEST_FIELDS = ("git_revision",)

#: Spec-block fields compared by :func:`_manifest_delta`.
_SPEC_FIELDS = ("name", "hash", "task", "n_points", "trials", "seed",
                "seed_mode")


def _span_stats(roots: list[Span]) -> dict[str, dict[str, Any]]:
    """Aggregate spans by identity path.

    Returns ``path -> {name, count, duration, self, cached,
    convergence}`` where ``path`` encodes the span's ancestry (see
    module docstring for the identity rules) and ``convergence`` folds
    any ``repro-convergence/*`` payloads found along the path (``None``
    when the path carries none — pre-convergence traces aggregate
    exactly as before).
    """
    stats: dict[str, dict[str, Any]] = {}

    def ident(span: Span, counts: dict[str, int]) -> str:
        key = span.attrs.get("key")
        if isinstance(key, str) and key:
            return f"{span.name}[{key}]"
        case = span.attrs.get("case")
        if isinstance(case, str) and case:
            return f"{span.name}[{case}]"
        index = counts.get(span.name, 0)
        counts[span.name] = index + 1
        return f"{span.name}#{index}"

    def visit(span: Span, prefix: str, counts: dict[str, int]) -> None:
        path = prefix + "/" + ident(span, counts)
        entry = stats.setdefault(
            path,
            {
                "name": span.name,
                "count": 0,
                "duration": 0.0,
                "self": 0.0,
                "cached": 0,
                "convergence": None,
            },
        )
        entry["count"] += 1
        entry["duration"] += span.duration
        entry["self"] += span.self_time()
        if span.attrs.get("cached"):
            entry["cached"] += 1
        payload = span.attrs.get("convergence")
        if isinstance(payload, dict) and str(
            payload.get("schema", "")
        ).startswith("repro-convergence/"):
            folded = entry["convergence"]
            if folded is None:
                folded = {
                    "kernel": str(payload.get("kernel", "?")),
                    "fits": 0,
                    "iterations": 0,
                    "nonconverged": 0,
                    "nonfinite": 0,
                    "final_objective": None,
                }
                entry["convergence"] = folded
            folded["fits"] += 1
            for field in ("iterations", "nonfinite"):
                value = payload.get(field)
                if isinstance(value, int) and not isinstance(value, bool):
                    folded[field] += value
            if payload.get("converged") is False:
                folded["nonconverged"] += 1
            final = payload_scalar(payload, "final_objective")
            if final is not None:
                folded["final_objective"] = final
        child_counts: dict[str, int] = {}
        for child in span.children:
            visit(child, path, child_counts)

    root_counts: dict[str, int] = {}
    for root in roots:
        visit(root, "", root_counts)
    return stats


def _manifest_delta(
    a: dict[str, Any] | None, b: dict[str, Any] | None
) -> list[dict[str, Any]]:
    """Field-by-field provenance changes between two run manifests."""
    changes: list[dict[str, Any]] = []
    a = a if isinstance(a, dict) else {}
    b = b if isinstance(b, dict) else {}

    def compare(field: str, left: Any, right: Any) -> None:
        if left != right:
            changes.append({"field": field, "a": left, "b": right})

    for field in _MANIFEST_FIELDS:
        compare(field, a.get(field), b.get(field))
    spec_a = a.get("spec") if isinstance(a.get("spec"), dict) else {}
    spec_b = b.get("spec") if isinstance(b.get("spec"), dict) else {}
    for field in _SPEC_FIELDS:
        compare(f"spec.{field}", spec_a.get(field), spec_b.get(field))
    packages_a = (
        a.get("packages") if isinstance(a.get("packages"), dict) else {}
    )
    packages_b = (
        b.get("packages") if isinstance(b.get("packages"), dict) else {}
    )
    for name in sorted(set(packages_a) | set(packages_b)):
        compare(
            f"packages.{name}", packages_a.get(name), packages_b.get(name)
        )
    return changes


def diff_traces(
    a_payload: dict[str, Any], b_payload: dict[str, Any]
) -> dict[str, Any]:
    """Structured diff of two ``repro-trace/v1`` documents.

    Parameters
    ----------
    a_payload, b_payload:
        The baseline (A) and comparison (B) trace documents, already
        validated.

    Returns
    -------
    dict
        ``{"a", "b", "spans", "counters", "convergence", "manifest"}``
        where each span row carries the aligned path, per-run
        duration/self-time, the deltas, a ``status`` of
        ``common``/``added``/``removed`` (relative to A), and whether
        its cached state flipped.  ``convergence`` holds one row per
        aligned path carrying convergence payloads on either side:
        iteration-count delta, final-objective delta (``None`` when
        either side is missing or non-finite), and the ``diverged`` /
        ``nonfinite_introduced`` flags marking a run that stopped
        converging or started producing NaNs relative to A.
    """
    for label, payload in (("A", a_payload), ("B", b_payload)):
        if not isinstance(payload, dict):
            raise ValidationError(
                f"trace {label} must be a dict, got "
                f"{type(payload).__name__}"
            )
    a_roots = [Span.from_dict(s) for s in a_payload.get("spans", [])]
    b_roots = [Span.from_dict(s) for s in b_payload.get("spans", [])]
    a_stats = _span_stats(a_roots)
    b_stats = _span_stats(b_roots)

    rows: list[dict[str, Any]] = []
    for path in sorted(set(a_stats) | set(b_stats)):
        left = a_stats.get(path)
        right = b_stats.get(path)
        status = (
            "common" if left and right else "removed" if left else "added"
        )
        a_duration = left["duration"] if left else 0.0
        b_duration = right["duration"] if right else 0.0
        a_self = left["self"] if left else 0.0
        b_self = right["self"] if right else 0.0
        rows.append(
            {
                "path": path,
                "name": (left or right or {}).get("name", ""),
                "status": status,
                "a_duration": a_duration,
                "b_duration": b_duration,
                "delta": b_duration - a_duration,
                "a_self": a_self,
                "b_self": b_self,
                "delta_self": b_self - a_self,
                "cached_changed": bool(left) and bool(right)
                and bool(left["cached"]) != bool(right["cached"]),
            }
        )

    convergence_rows: list[dict[str, Any]] = []
    for path in sorted(set(a_stats) | set(b_stats)):
        conv_a = (a_stats.get(path) or {}).get("convergence")
        conv_b = (b_stats.get(path) or {}).get("convergence")
        if conv_a is None and conv_b is None:
            continue
        a_iterations = conv_a["iterations"] if conv_a else 0
        b_iterations = conv_b["iterations"] if conv_b else 0
        a_final = conv_a["final_objective"] if conv_a else None
        b_final = conv_b["final_objective"] if conv_b else None
        comparable = (
            a_final is not None
            and b_final is not None
            and math.isfinite(a_final)
            and math.isfinite(b_final)
        )
        convergence_rows.append(
            {
                "path": path,
                "kernel": (conv_b or conv_a or {}).get("kernel", "?"),
                "a_iterations": a_iterations,
                "b_iterations": b_iterations,
                "delta_iterations": b_iterations - a_iterations,
                "a_final_objective": a_final,
                "b_final_objective": b_final,
                "delta_final_objective": (
                    b_final - a_final if comparable else None
                ),
                "diverged": bool(conv_b and conv_b["nonconverged"])
                and not bool(conv_a and conv_a["nonconverged"]),
                "nonfinite_introduced": bool(
                    conv_b and conv_b["nonfinite"]
                )
                and not bool(conv_a and conv_a["nonfinite"]),
            }
        )

    counter_rows: list[dict[str, Any]] = []
    a_counters = a_payload.get("counters") or {}
    b_counters = b_payload.get("counters") or {}
    for name in sorted(set(a_counters) | set(b_counters)):
        left_value = float(a_counters.get(name, 0.0))
        right_value = float(b_counters.get(name, 0.0))
        if left_value != right_value:
            counter_rows.append(
                {
                    "name": name,
                    "a": left_value,
                    "b": right_value,
                    "delta": right_value - left_value,
                }
            )

    def summary(
        payload: dict[str, Any], roots: list[Span]
    ) -> dict[str, Any]:
        return {
            "created_unix": payload.get("created_unix"),
            "total_s": sum(root.duration for root in roots),
            "spans": sum(
                1 for root in roots for _ in root.iter_spans()
            ),
        }

    return {
        "a": summary(a_payload, a_roots),
        "b": summary(b_payload, b_roots),
        "spans": rows,
        "counters": counter_rows,
        "convergence": convergence_rows,
        "manifest": _manifest_delta(
            a_payload.get("manifest"), b_payload.get("manifest")
        ),
    }


def _signed(seconds: float) -> str:
    sign = "+" if seconds >= 0 else "-"
    return sign + format_seconds(abs(seconds))


def render_diff(diff: dict[str, Any], *, top: int = 20) -> str:
    """Render a :func:`diff_traces` result as an ASCII report.

    Parameters
    ----------
    diff:
        The structured diff.
    top:
        How many changed common spans to list (largest absolute
        self-time delta first).
    """
    a, b = diff["a"], diff["b"]
    lines = [
        "trace diff (B - A)",
        f"  A: {a['spans']} spans, total {format_seconds(a['total_s'])}",
        f"  B: {b['spans']} spans, total {format_seconds(b['total_s'])}",
        f"  total delta: {_signed(b['total_s'] - a['total_s'])}",
    ]

    manifest = diff["manifest"]
    if manifest:
        lines.append("")
        lines.append("manifest changes:")
        for change in manifest:
            lines.append(
                f"  {change['field']:<22} {change['a']!r} -> {change['b']!r}"
            )

    rows = diff["spans"]
    common = sorted(
        (row for row in rows if row["status"] == "common"),
        key=lambda row: abs(row["delta_self"]),
        reverse=True,
    )
    changed = [
        row
        for row in common
        if row["delta_self"] != 0.0  # repro: ignore[float-eq] exact zero means the span pair is literally identical (cached both sides); any real timing differs in the last bit
        or row["cached_changed"]
    ]
    if changed:
        lines.append("")
        lines.append(
            f"top span deltas by self-time ({min(top, len(changed))} of "
            f"{len(changed)} changed):"
        )
        lines.append(
            f"  {'span':<40} {'A self':>9} {'B self':>9} {'delta':>10}"
        )
        for row in changed[:top]:
            label = row["path"].lstrip("/")
            if len(label) > 40:
                label = "..." + label[-37:]
            note = "  [cache flip]" if row["cached_changed"] else ""
            lines.append(
                f"  {label:<40} {format_seconds(row['a_self']):>9} "
                f"{format_seconds(row['b_self']):>9} "
                f"{_signed(row['delta_self']):>10}{note}"
            )

    added = [row for row in rows if row["status"] == "added"]
    removed = [row for row in rows if row["status"] == "removed"]
    for label, subset in (("only in B", added), ("only in A", removed)):
        if subset:
            total = sum(row["b_duration"] + row["a_duration"]
                        for row in subset)
            lines.append("")
            lines.append(
                f"{label}: {len(subset)} span(s), "
                f"{format_seconds(total)} total"
            )
            for row in subset[:top]:
                seconds = row["b_duration"] + row["a_duration"]
                lines.append(
                    f"  {row['path'].lstrip('/'):<52} "
                    f"{format_seconds(seconds):>9}"
                )

    convergence = [
        row
        for row in diff.get("convergence", [])
        if row["delta_iterations"] != 0
        or row["diverged"]
        or row["nonfinite_introduced"]
        or (
            row["delta_final_objective"] is not None
            and row["delta_final_objective"] != 0.0  # repro: ignore[float-eq] exact zero means both runs landed on the bit-identical objective; any real drift differs in the last bit
        )
    ]
    if convergence:
        lines.append("")
        lines.append("convergence deltas:")
        lines.append(
            f"  {'span':<40} {'A iter':>7} {'B iter':>7} {'delta':>7} "
            f"{'final obj delta':>16}"
        )
        for row in convergence[:top]:
            label = row["path"].lstrip("/")
            if len(label) > 40:
                label = "..." + label[-37:]
            obj_delta = row["delta_final_objective"]
            obj_text = f"{obj_delta:+.6g}" if obj_delta is not None else "-"
            flags = ""
            if row["diverged"]:
                flags += "  [diverged]"
            if row["nonfinite_introduced"]:
                flags += "  [nonfinite]"
            lines.append(
                f"  {label:<40} {row['a_iterations']:>7} "
                f"{row['b_iterations']:>7} "
                f"{row['delta_iterations']:>+7} {obj_text:>16}{flags}"
            )

    counters = diff["counters"]
    if counters:
        lines.append("")
        lines.append("counter changes:")
        for row in counters:
            lines.append(
                f"  {row['name']:<28} {row['a']:g} -> {row['b']:g} "
                f"({row['delta']:+g})"
            )
    if len(lines) == 4 and not manifest:
        lines.append("  (no differences)")
    return "\n".join(lines)
