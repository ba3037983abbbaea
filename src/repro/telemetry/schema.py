"""The ``repro-trace/v2`` document format and its validator.

A trace document is what :meth:`~repro.telemetry.recorder.Recorder.
to_document` returns and what :func:`~repro.telemetry.stream.read_trace`
folds a ``repro run --trace out.jsonl`` stream back into (the line
format is described in :mod:`repro.telemetry.recorder`)::

    {
      "schema": "repro-trace/v2",
      "created_unix": 1753800000.0,
      "spans": [ {name, start_unix, duration, attrs, children}, ... ],
      "counters": {"cache.hit": 3, ...},
      "gauges": {"engine.workers": 4, ...},
      "manifest": { ... run provenance ... } | null
    }

:func:`validate_trace` checks the whole document structurally and
raises a single :class:`~repro.exceptions.ValidationError` listing
*every* problem found, so CI's schema gate reports all breakage at
once instead of one field per run.

Forward compatibility: a document declaring a *newer* version of the
schema family — e.g. ``repro-trace/v3`` read by a ``v2`` build — is not
a structural failure.  The validator records a named warning
(``unknown-schema-version``) into the caller-supplied ``warnings``
sink, skips the structural checks, and accepts the document, so old
tooling degrades gracefully on new artifacts instead of failing CI
with a generic error.
"""

from __future__ import annotations

import numbers
from typing import Any

from repro.exceptions import ValidationError

__all__ = [
    "TRACE_SCHEMA",
    "validate_trace",
]

#: Version tag of the trace document format.  Bump on incompatible
#: layout changes; the validator only accepts this exact value.
TRACE_SCHEMA = "repro-trace/v2"

#: Span fields beyond these are rejected so typos ("durration") cannot
#: silently ride along in a "valid" document.
_SPAN_FIELDS = {"name", "start_unix", "duration", "attrs", "children"}

def _is_number(value: Any) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _unknown_family_version(
    schema: Any, family: str, expected: str
) -> bool:
    """True for a recognized schema family at an unrecognized version."""
    return (
        isinstance(schema, str)
        and schema != expected
        and schema.startswith(family + "/")
    )


def _check_span(
    span: Any,
    path: str,
    problems: list[str],
    depth: int = 0,
) -> None:
    if depth > 64:
        problems.append(f"{path}: span tree deeper than 64 levels")
        return
    if not isinstance(span, dict):
        problems.append(f"{path}: span must be a dict, got "
                        f"{type(span).__name__}")
        return
    unknown = sorted(set(span) - _SPAN_FIELDS)
    if unknown:
        problems.append(f"{path}: unknown span field(s) {unknown}")
    name = span.get("name")
    if not isinstance(name, str) or not name:
        problems.append(f"{path}: 'name' must be a non-empty string")
    if not _is_number(span.get("start_unix")):
        problems.append(f"{path}: 'start_unix' must be a number")
    duration = span.get("duration")
    if not _is_number(duration) or duration < 0.0:
        problems.append(f"{path}: 'duration' must be a non-negative number")
    attrs = span.get("attrs", {})
    if not isinstance(attrs, dict) or any(
        not isinstance(key, str) for key in attrs
    ):
        problems.append(f"{path}: 'attrs' must be a string-keyed dict")
    children = span.get("children", [])
    if not isinstance(children, list):
        problems.append(f"{path}: 'children' must be a list")
        return
    for index, child in enumerate(children):
        _check_span(child, f"{path}.children[{index}]", problems, depth + 1)


def _check_metrics(
    payload: dict[str, Any], key: str, problems: list[str]
) -> None:
    metrics = payload.get(key)
    if not isinstance(metrics, dict):
        problems.append(f"'{key}' must be a dict")
        return
    for name, value in metrics.items():
        if not isinstance(name, str) or not name:
            problems.append(f"{key}: keys must be non-empty strings")
        elif not _is_number(value):
            problems.append(f"{key}[{name!r}]: value must be a number")


def _check_manifest(manifest: Any, problems: list[str]) -> None:
    if manifest is None:
        return
    if not isinstance(manifest, dict):
        problems.append("'manifest' must be a dict or null")
        return
    jobs = manifest.get("jobs")
    if jobs is None:
        return
    if not isinstance(jobs, list):
        problems.append("manifest 'jobs' must be a list")
        return
    for index, job in enumerate(jobs):
        path = f"manifest.jobs[{index}]"
        if not isinstance(job, dict):
            problems.append(f"{path}: must be a dict")
            continue
        if not isinstance(job.get("key"), str):
            problems.append(f"{path}: 'key' must be a string")
        if "duration" in job and not _is_number(job["duration"]):
            problems.append(f"{path}: 'duration' must be a number")
        if "cached" in job and not isinstance(job["cached"], bool):
            problems.append(f"{path}: 'cached' must be a bool")


def validate_trace(
    payload: Any, *, warnings: list[str] | None = None
) -> dict[str, Any]:
    """Structurally validate a ``repro-trace/v2`` document.

    Parameters
    ----------
    payload:
        The parsed JSON document.
    warnings:
        Optional sink for non-fatal findings.  A document declaring an
        unknown ``repro-trace/*`` version appends an
        ``unknown-schema-version`` entry here (and skips structural
        checks) instead of failing.

    Returns
    -------
    dict
        The payload itself, when valid.

    Raises
    ------
    ValidationError
        Listing every structural problem found.
    """
    problems: list[str] = []
    warn_sink = warnings if warnings is not None else []
    if not isinstance(payload, dict):
        raise ValidationError(
            f"trace document must be a dict, got {type(payload).__name__}"
        )
    schema = payload.get("schema")
    if schema != TRACE_SCHEMA:
        if _unknown_family_version(schema, "repro-trace", TRACE_SCHEMA):
            warn_sink.append(
                f"unknown-schema-version: document declares {schema!r}; "
                f"this build validates {TRACE_SCHEMA!r}, structural "
                "checks skipped"
            )
            return payload
        problems.append(
            f"'schema' must be {TRACE_SCHEMA!r}, got {schema!r}"
        )
    if not _is_number(payload.get("created_unix")):
        problems.append("'created_unix' must be a number")
    spans = payload.get("spans")
    if not isinstance(spans, list):
        problems.append("'spans' must be a list")
    else:
        for index, span in enumerate(spans):
            _check_span(span, f"spans[{index}]", problems)
    _check_metrics(payload, "counters", problems)
    _check_metrics(payload, "gauges", problems)
    _check_manifest(payload.get("manifest"), problems)
    if problems:
        raise ValidationError(
            f"invalid {TRACE_SCHEMA} document: " + "; ".join(problems)
        )
    return payload
