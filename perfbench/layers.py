"""Self-time accounting for the traced run.

:class:`LayerTimer` replaces named public functions of ``repro`` with
timing wrappers for the duration of a ``with`` block and restores them
afterwards.  Several of these functions are imported by name into the
module that calls them, so each is patched where it is called (for
example ``random_orthogonal`` in ``repro.data.covariance_builder``), not
where it is defined.

A layer's self time is the time spent inside its wrapped calls minus the
time spent inside wrapped calls nested in them, so the layers of one
repeat add up to the time they cover without double counting.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from typing import Any, Callable, Iterator, Sequence

#: ``(owner, attribute, layer)``: ``owner`` is a module or class and
#: ``layer`` a name, or a function of the call's arguments returning one.
Target = tuple[Any, str, Any]

#: Every layer :func:`in_job_targets` can report.
IN_JOB_LAYERS = (
    "data.random_orthogonal",
    "data.sample",
    "data.generate",
    "randomization.disguise",
    "reconstruction.udr",
    "reconstruction.sf",
    "reconstruction.pca-dr",
    "reconstruction.be-dr",
    "metrics.score",
    "core.defense.design",
)


def _attack_layer(reconstructor: Any, *args: Any, **kwargs: Any) -> str:
    return f"reconstruction.{reconstructor.name.lower()}"


def in_job_targets() -> list[Target]:
    """Layers that run inside an engine job (a worker, when pooled)."""
    from repro.core import pipeline
    from repro.core.defense import NoiseDesigner
    from repro.data import covariance_builder
    from repro.experiments import tasks
    from repro.randomization.base import RandomizationScheme
    from repro.reconstruction.base import Reconstructor
    from repro.stats.mvn import MultivariateNormal

    return [
        (covariance_builder, "random_orthogonal", "data.random_orthogonal"),
        (MultivariateNormal, "sample", "data.sample"),
        (tasks, "generate_dataset", "data.generate"),
        (RandomizationScheme, "disguise", "randomization.disguise"),
        (Reconstructor, "reconstruct", _attack_layer),
        (pipeline, "root_mean_square_error", "metrics.score"),
        (pipeline, "per_attribute_rmse", "metrics.score"),
        (NoiseDesigner, "design", "core.defense.design"),
    ]


def parent_targets() -> list[Target]:
    """Layers that always run in the calling process."""
    from repro.api.result import ExperimentResult
    from repro.api.spec import ExperimentSpec
    from repro.engine.cache import ResultCache

    return [
        (ExperimentSpec, "compile_jobs", "api.compile"),
        (ExperimentResult, "from_job_results", "api.aggregate"),
        (ResultCache, "put", "engine.cache.put"),
    ]


class LayerTimer:
    """Per-layer self time (seconds) and call counts."""

    def __init__(self) -> None:
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        # Time spent in wrapped children of each open wrapped call.
        self._child_time: list[float] = []

    def wrap(
        self, layer: str | Callable[..., str], function: Callable[..., Any]
    ) -> Callable[..., Any]:
        """``function`` with its calls charged to ``layer``."""

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            name = layer(*args, **kwargs) if callable(layer) else layer
            self._child_time.append(0.0)
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.self_time[name] += elapsed - self._child_time.pop()
                self.calls[name] += 1
                if self._child_time:
                    self._child_time[-1] += elapsed

        return wrapper

    @contextlib.contextmanager
    def patched(self, targets: Sequence[Target]) -> Iterator["LayerTimer"]:
        """Install a wrapper on every target; restore the originals on exit."""
        installed: list[tuple[Any, str, Any]] = []
        try:
            for owner, attribute, layer in targets:
                original = vars(owner)[attribute]
                if isinstance(original, classmethod):
                    replacement: Any = classmethod(
                        self.wrap(layer, original.__func__)
                    )
                else:
                    replacement = self.wrap(layer, original)
                setattr(owner, attribute, replacement)
                installed.append((owner, attribute, original))
            yield self
        finally:
            for owner, attribute, original in reversed(installed):
                setattr(owner, attribute, original)
