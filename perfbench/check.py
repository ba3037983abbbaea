"""Correctness check of one workload repeat.

A repeat passes when every job succeeded (the engine runs fail-fast, so
a failed job raises before this check), every RMSE a job returned is
finite, each attack's sweep-mean RMSE per figure lies within a relative
tolerance of the values in ``reference.json``, and the sweep means are
ordered BE-DR < PCA-DR < UDR on the figures that list it.

The check is statistical, not bitwise: the reference values moved by
less than 1.1% across seeds, so a change to the seed stream (a different
orthogonalisation, say) still passes, while a broken attack does not.
Ordering is checked on sweep means, never point by point, because the
curves meet at the degenerate p = m points.
"""

from __future__ import annotations

import json
import math
import pathlib
from statistics import fmean
from typing import Any, Iterable

REFERENCE_PATH = pathlib.Path(__file__).with_name("reference.json")


def load_reference() -> dict[str, Any]:
    """The stored reference values and tolerance."""
    return json.loads(REFERENCE_PATH.read_text())


def sweep_means(results: Iterable[Any]) -> dict[str, dict[str, float]]:
    """Each figure's per-attack mean RMSE over its sweep points.

    Keyed like ``reference.json``: figure and data size, ``figure2/n2000``.
    """
    return {
        f"{result.spec.name}/n{result.spec.params['n_records']}": {
            attack: fmean(float(value) for value in curve)
            for attack, curve in result.series.items()
        }
        for result in results
    }


def nonfinite_problems(results: Iterable[Any]) -> list[str]:
    """One message per job RMSE that is missing, NaN or infinite."""
    problems = []
    for result in results:
        for point, trials in enumerate(result.payloads):
            for payload in trials:
                for attack, value in payload["rmse"].items():
                    if not (
                        isinstance(value, (int, float))
                        and math.isfinite(value)
                    ):
                        problems.append(
                            f"{result.spec.name} point {point}: {attack} "
                            f"RMSE is {value!r}"
                        )
    return problems


def reference_problems(
    means: dict[str, dict[str, float]], reference: dict[str, Any]
) -> list[str]:
    """Sweep means that leave the tolerance band or the expected order."""
    problems = []
    tolerance = reference["tolerance"]
    order = reference["order"]
    for key, attacks in means.items():
        expected = reference["sweep_mean_rmse"].get(key)
        if expected is None:
            problems.append(f"{key}: no reference values")
            continue
        if set(attacks) != set(expected):
            problems.append(
                f"{key}: attacks {sorted(attacks)}, expected "
                f"{sorted(expected)}"
            )
            continue
        for attack, value in attacks.items():
            if not abs(value - expected[attack]) <= tolerance * expected[attack]:
                problems.append(
                    f"{key}: {attack} sweep-mean RMSE {value:.4f} is not "
                    f"within {tolerance:.0%} of {expected[attack]}"
                )
        if key in reference["order_on"]:
            ranked = [attacks[attack] for attack in order]
            if not all(a < b for a, b in zip(ranked, ranked[1:])):
                problems.append(
                    f"{key}: sweep means are not ordered "
                    f"{' < '.join(order)}: {ranked}"
                )
    return problems


def problems(results: list[Any], reference: dict[str, Any]) -> list[str]:
    """Every reason the repeat's results are wrong; empty when correct."""
    return nonfinite_problems(results) + reference_problems(
        sweep_means(results), reference
    )
