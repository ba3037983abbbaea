"""Medical-records scenario: attribute correlation plus a side channel.

The paper motivates its attacks with a disguised medical database
(Section 3): "Knowing that the patient Alice has diabetes and heart
problems, we might be able to estimate the other information about her."

This example plays both halves of that story on a synthetic census/
clinical table (10 correlated attributes driven by age/wealth/health
factors):

* a correlation-only adversary (BE-DR) against the published table, and
* an adversary who additionally learned two columns exactly (age and
  income leaked from a public registry), using the conditional BE-DR
  attack.

For each, we report per-attribute RMSE against the nominal noise
level sigma: the error the published table alone would leave.

Run:  python examples/medical_reidentification.py
"""

import numpy as np

import repro


def print_breakdown(title, table, outcome, sigma):
    print(f"\n{title}")
    print(f"{'attribute':<16} {'RMSE':>8} {'RMSE / sigma':>14}")
    print("-" * 42)
    for j, name in enumerate(table.column_names):
        rmse = outcome.attribute_rmse[j]
        print(f"{name:<16} {rmse:>8.2f} {rmse / sigma:>14.2f}")


def main() -> None:
    generator = repro.CensusLikeGenerator()
    table = generator.sample(5000, rng=0)

    # The hospital publishes the table with additive noise.  sigma = 15
    # is large against the clinical columns (bp std ~ 13) — nominally a
    # strong disguise.
    sigma = 15.0
    scheme = repro.AdditiveNoiseScheme(std=sigma)
    disguised = scheme.disguise(table.values, rng=1)

    # Nominal privacy: what the noise level alone promises.
    print(f"Nominal per-attribute RMSE (noise only): sigma = {sigma:.1f}")

    # --- Adversary 1: correlations only. --------------------------------
    outcome_be = repro.evaluate_attacks(
        disguised, {"BE-DR": repro.BayesEstimateReconstructor()}
    )["BE-DR"]
    print_breakdown(
        "Adversary with correlations only (BE-DR):",
        table,
        outcome_be,
        sigma,
    )

    # --- Adversary 2: age and income leaked. ----------------------------
    leaked = [
        table.column_names.index("age"),
        table.column_names.index("income"),
    ]
    threat = repro.ThreatModel(
        leaked_attributes=tuple(leaked),
        leaked_values=table.values[:, leaked],
    )
    outcomes = repro.evaluate_attacks(disguised, threat.build_attacks())
    outcome_leak = outcomes["BE-DR+leak"]
    print_breakdown(
        "Adversary who also knows age and income exactly (BE-DR+leak):",
        table,
        outcome_leak,
        sigma,
    )

    hidden = np.setdiff1d(np.arange(table.n_attributes), leaked)
    improvement = (
        outcome_be.attribute_rmse[hidden].mean()
        / outcome_leak.attribute_rmse[hidden].mean()
    )
    print(
        f"\nThe two leaked columns sharpen the remaining eight by "
        f"{improvement:.2f}x on average —"
    )
    print(
        "partial value disclosure compounds with attribute correlation, "
        "exactly as Section 3 warns."
    )


if __name__ == "__main__":
    main()
