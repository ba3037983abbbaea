"""ASCII rendering of ``repro-trace/v2`` documents.

The ``repro trace <file>`` viewer: a span tree with durations and key
attributes, a where-did-the-time-go aggregate per span name, the
top-N slowest jobs as a horizontal bar chart (drawn with the
:mod:`repro.experiments.ascii_plot` machinery), and a manifest summary
when the document carries one.
"""

from __future__ import annotations

import time
from typing import Any

from repro.exceptions import ValidationError
from repro.telemetry.spans import Span

__all__ = [
    "render_trace",
    "render_resources",
    "format_seconds",
    "format_bytes",
]

#: Span attributes surfaced inline in the tree view, in display order.
_TREE_ATTRS = (
    "task",
    "attack",
    "cached",
    "worker",
    "queue_wait",
    "iterations",
    "error",
)


def format_seconds(seconds: float) -> str:
    """Human-scaled duration: ``1.23s`` / ``45.6ms`` / ``789us``."""
    seconds = float(seconds)
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds * 1e6:.0f}us"


def format_bytes(count: float) -> str:
    """Human-scaled byte count: ``1.5GiB`` / ``23.4MiB`` / ``512B``."""
    count = float(count)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(count) < 1024.0 or unit == "TiB":
            if unit == "B":
                return f"{count:.0f}B"
            return f"{count:.1f}{unit}"
        count /= 1024.0
    raise AssertionError("unreachable")


def render_resources(gauges: dict[str, Any]) -> list[str]:
    """The ``resources:`` section from ``resource.*`` gauges, if any.

    Lines: the parent's peak RSS and CPU, then the workers' when the
    run reaped any.  Other ``resource.*`` gauges, such as the
    per-worker ones older builds wrote, are not shown.
    """
    resource = {
        name[len("resource."):]: value
        for name, value in gauges.items()
        if name.startswith("resource.")
    }
    if not resource:
        return []
    lines = ["", "resources:"]
    if "rss_peak_bytes" in resource:
        cpu = resource.get("cpu_seconds")
        lines.append(
            f"  parent   rss peak {format_bytes(resource['rss_peak_bytes'])}"
            + (f"  cpu {format_seconds(cpu)}" if cpu is not None else "")
        )
    if "workers.rss_peak_bytes" in resource:
        cpu = resource.get("workers.cpu_seconds")
        lines.append(
            "  workers  rss peak "
            f"{format_bytes(resource['workers.rss_peak_bytes'])}"
            + (f"  cpu {format_seconds(cpu)}" if cpu is not None else "")
        )
    return lines


def _format_attr(key: str, value: Any) -> str:
    if key == "queue_wait" and isinstance(value, float):
        return f"queue_wait={format_seconds(value)}"
    if key == "task" and isinstance(value, str):
        return f"task={value.rsplit(':', 1)[-1]}"
    return f"{key}={value}"


def _render_span(
    span: Span,
    lines: list[str],
    depth: int,
    total: float,
    max_depth: int | None,
) -> None:
    if max_depth is not None and depth > max_depth:
        return
    share = f" {span.duration / total * 100.0:5.1f}%" if total > 0 else ""
    attrs = "  ".join(
        _format_attr(key, span.attrs[key])
        for key in _TREE_ATTRS
        if key in span.attrs
    )
    hidden = (
        max_depth is not None and depth == max_depth and span.children
    )
    suffix = f"  (+{len(list(span.iter_spans())) - 1} hidden)" if hidden else ""
    lines.append(
        f"  {'  ' * depth}{span.name:<{max(30 - 2 * depth, 8)}} "
        f"{format_seconds(span.duration):>9}{share}"
        + (f"  [{attrs}]" if attrs else "")
        + suffix
    )
    if not hidden:
        for child in span.children:
            _render_span(child, lines, depth + 1, total, max_depth)


def _aggregate_by_name(roots: list[Span]) -> list[tuple[str, int, float]]:
    """``(name, call count, total self-time)`` rows, slowest first."""
    totals: dict[str, list[float]] = {}
    for root in roots:
        for span in root.iter_spans():
            entry = totals.setdefault(span.name, [0, 0.0])
            entry[0] += 1
            entry[1] += span.self_time()
    return sorted(
        ((name, int(count), total) for name, (count, total) in totals.items()),
        key=lambda row: row[2],
        reverse=True,
    )


def _job_label(span: Span) -> str:
    task = span.attrs.get("task", "")
    task = task.rsplit(":", 1)[-1] if isinstance(task, str) else "job"
    path = span.attrs.get("seed_path")
    key = span.attrs.get("key", "")
    suffix = f"{tuple(path)}" if isinstance(path, list) else str(key)[:8]
    return f"{task}{suffix}"


def render_trace(
    payload: dict[str, Any],
    *,
    top: int = 10,
    max_depth: int | None = None,
    width: int = 48,
) -> str:
    """Render a trace document as a multi-section ASCII report.

    Parameters
    ----------
    payload:
        A (validated) ``repro-trace/v2`` document.
    top:
        How many slowest jobs the bar chart shows.
    max_depth:
        Truncate the span tree below this depth (``None`` = full tree).
    width:
        Bar-chart width in characters.
    """
    # Imported here, not at module level: ascii_plot pulls in the
    # experiment-series stack, which telemetry must not require.
    from repro.experiments.ascii_plot import bar_chart

    if not isinstance(payload, dict):
        raise ValidationError(
            f"trace payload must be a dict, got {type(payload).__name__}"
        )
    roots = [Span.from_dict(span) for span in payload.get("spans", [])]
    created = payload.get("created_unix")
    lines = [f"trace {payload.get('schema', '?')}"]
    if isinstance(created, (int, float)):
        stamp = time.strftime(
            "%Y-%m-%d %H:%M:%S", time.localtime(float(created))
        )
        lines[0] += f"  (recorded {stamp})"

    counters = payload.get("counters") or {}
    if counters:
        lines.append(
            "counters: "
            + "  ".join(
                f"{name}={value:g}" for name, value in sorted(counters.items())
            )
        )
    gauges = payload.get("gauges") or {}
    # resource.* gauges get their own formatted section below; dumping
    # dozens of raw byte counts onto the gauges line would drown it.
    plain_gauges = {
        name: value
        for name, value in gauges.items()
        if not name.startswith("resource.")
    }
    if plain_gauges:
        lines.append(
            "gauges:   "
            + "  ".join(
                f"{name}={value:g}"
                for name, value in sorted(plain_gauges.items())
            )
        )
    lines.extend(render_resources(gauges))

    if not roots:
        lines.append("")
        lines.append("(no spans recorded)")
    for root in roots:
        lines.append("")
        _render_span(root, lines, 0, root.duration, max_depth)

    aggregate = _aggregate_by_name(roots)
    if aggregate:
        lines.append("")
        lines.append("self-time by span name:")
        lines.append(f"  {'span':<28} {'calls':>6} {'total':>10}")
        for name, count, total in aggregate:
            lines.append(
                f"  {name:<28} {count:>6} {format_seconds(total):>10}"
            )

    jobs = [
        span
        for root in roots
        for span in root.iter_spans()
        if span.name == "engine.job"
    ]
    if jobs and top > 0:
        slowest = sorted(jobs, key=lambda s: s.duration, reverse=True)[:top]
        lines.append("")
        lines.append(f"top {len(slowest)} slowest jobs:")
        lines.append(
            bar_chart(
                [_job_label(span) for span in slowest],
                [span.duration for span in slowest],
                width=width,
                value_format=format_seconds,
            )
        )

    manifest = payload.get("manifest")
    if isinstance(manifest, dict):
        lines.append("")
        lines.append("manifest:")
        spec = manifest.get("spec") or {}
        if spec:
            lines.append(
                f"  spec {spec.get('name')!r}  hash {str(spec.get('hash'))[:12]}  "
                f"points={spec.get('n_points')} trials={spec.get('trials')} "
                f"seed={spec.get('seed')}"
            )
        revision = manifest.get("git_revision")
        packages = manifest.get("packages") or {}
        lines.append(
            f"  git {str(revision)[:12] if revision else '(none)'}  "
            + "  ".join(
                f"{name} {version}"
                for name, version in sorted(packages.items())
            )
        )
        table = manifest.get("jobs") or []
        timed = [job for job in table if "duration" in job]
        if table:
            cached = sum(1 for job in timed if job.get("cached"))
            lines.append(
                f"  jobs: {len(table)} total, {len(timed)} timed, "
                f"{cached} served from cache"
            )
    return "\n".join(lines)
