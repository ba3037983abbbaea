"""Run manifests: machine-readable provenance for a spec/engine run.

A manifest answers "what exactly ran, where, and how long did each
piece take" — the record a tournament report or a regression hunt needs
to be trustworthy.  It carries the spec identity (name + content hash),
the full seed lineage (root seed, seed mode, and every job's spawn
key), the environment (git revision, platform, package versions), and
a per-job timing table joined from the engine's progress stream.

Everything except the timing columns is deterministic for a fixed spec
and checkout, so two manifests of the same run differ only in measured
durations — the property the manifest tests pin.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
from typing import Any

from repro.exceptions import ValidationError

__all__ = [
    "MANIFEST_KIND",
    "spec_fingerprint",
    "git_revision",
    "platform_info",
    "package_versions",
    "build_manifest",
]

#: Format tag stored under the manifest's ``kind`` key.
MANIFEST_KIND = "repro-manifest/v1"


def spec_fingerprint(spec: Any) -> str:
    """SHA-256 of the spec's canonical JSON form.

    Two specs share a fingerprint iff their :meth:`to_dict` payloads are
    identical, mirroring the engine cache's content-addressing idea at
    the whole-experiment level.
    """
    try:
        blob = json.dumps(
            spec.to_dict(),
            sort_keys=True,
            separators=(",", ":"),
            allow_nan=False,
        )
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            f"spec is not canonically JSON-serializable: {exc}"
        ) from exc
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def git_revision(cwd: str | None = None) -> str | None:
    """The checkout's ``HEAD`` commit, or ``None`` outside a repository."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if completed.returncode != 0:
        return None
    revision = completed.stdout.strip()
    return revision or None


def platform_info() -> dict[str, Any]:
    """Host facts that contextualize timings."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux platforms
        cpus = os.cpu_count() or 1
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpus": cpus,
    }


def package_versions() -> dict[str, str]:
    """Versions of the packages whose numerics shape the results."""
    # Deferred import: instrumented modules (stats, engine) import the
    # telemetry package, so pulling ``repro`` in at module scope would
    # close an import cycle during package initialization.  Versions come
    # from the installed metadata, not the modules: importing scipy only
    # to read its version would add ~0.2 s to every traced run.
    import importlib.metadata

    import repro

    versions = {"repro": getattr(repro, "__version__", "unknown")}
    for name in ("numpy", "scipy"):
        try:
            versions[name] = importlib.metadata.version(name)
        except importlib.metadata.PackageNotFoundError:
            versions[name] = "unknown"
    return versions


def build_manifest(
    *,
    spec: Any = None,
    rows: Any = None,
    extra: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble a run manifest.

    Parameters
    ----------
    spec:
        Optional :class:`~repro.api.spec.ExperimentSpec` (duck-typed:
        anything with ``name``/``to_dict``/``compile_jobs`` works).
        Adds the spec identity block and the per-job seed-lineage table.
    rows:
        Optional per-job timing rows — typically
        :attr:`~repro.engine.progress.TraceReporter.rows` — each a dict
        with ``key``, ``duration``, and ``cached``.  Joined onto the
        spec's job table by cache key, so they are read only with
        ``spec``; jobs without a row keep lineage only.
    extra:
        Free-form annotations stored under ``"extra"``.

    Returns
    -------
    dict
        A JSON-serializable manifest; deterministic for a fixed spec
        and checkout except for the joined timing columns.
    """
    manifest: dict[str, Any] = {
        "kind": MANIFEST_KIND,
        "git_revision": git_revision(),
        "platform": platform_info(),
        "packages": package_versions(),
    }
    if spec is not None:
        jobs = spec.compile_jobs()
        manifest["spec"] = {
            "name": spec.name,
            "hash": spec_fingerprint(spec),
            "task": spec.task_ref,
            "n_points": len(spec.expand_points()),
            "trials": spec.trials,
            "seed": spec.seed,
            "seed_mode": spec.seed_mode,
        }
        timing_by_key: dict[str, dict[str, Any]] = {}
        for row in rows or ():
            timing_by_key[row["key"]] = row
        table: list[dict[str, Any]] = []
        for job in jobs:
            entry: dict[str, Any] = {
                "key": job.key(),
                "task": job.task,
                "seed_root": job.seed_root,
                "seed_path": list(job.seed_path),
            }
            row = timing_by_key.get(entry["key"])
            if row is not None:
                entry["duration"] = float(row["duration"])
                entry["cached"] = bool(row["cached"])
            table.append(entry)
        manifest["jobs"] = table
    if extra:
        manifest["extra"] = dict(extra)
    return manifest
