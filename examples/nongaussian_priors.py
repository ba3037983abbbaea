"""Beyond Gaussian priors: attack with a reconstructed distribution.

Section 6 derives BE-DR in closed form for multivariate normal data and
leaves other distributions to future work.  UDR (Section 4.2) already
covers the univariate case without that assumption: its posterior mean
can use any prior ``f_X``, including one the adversary recovers from the
disguised data.  This example runs that path on a bimodal attribute
(e.g. a lab value with healthy and pathological clusters):

1. The adversary recovers the attribute's *distribution* from the
   disguised sample with the Agrawal-Srikant iterative reconstruction —
   the bimodality reappears even though the disguised histogram is mush.
2. UDR with that recovered prior beats UDR with a moment-matched
   Gaussian prior on per-record reconstruction.

Run:  python examples/nongaussian_priors.py
"""

import numpy as np

import repro


def main() -> None:
    rng = np.random.default_rng(0)
    sigma = 4.0
    n_records = 4000

    # Ground truth: 60/40 bimodal attribute (say, a biomarker).
    left = rng.random(n_records) < 0.6
    original = np.where(
        left,
        rng.normal(-10.0, 1.5, n_records),
        rng.normal(10.0, 1.5, n_records),
    ).reshape(-1, 1)
    scheme = repro.AdditiveNoiseScheme(std=sigma)
    disguised = scheme.disguise(original, rng=1)

    # -- Step 1: recover the distribution from the disguised column. -----
    recovered = repro.reconstruct_distribution(
        disguised.disguised[:, 0],
        scheme.marginal_density(),
        n_bins=80,
    )
    left_mass = recovered.probabilities[recovered.centers < 0].sum()
    print("Step 1 — Agrawal-Srikant distribution reconstruction:")
    print(
        f"  recovered mass left of 0: {left_mass:.2f}  (truth: 0.60) — "
        "the bimodal shape is back.\n"
    )

    # -- Step 2: per-record UDR with each prior. -------------------------
    attacks = {
        "UDR (Gaussian prior)": repro.UnivariateReconstructor(
            prior="gaussian"
        ),
        "UDR (recovered prior)": repro.UnivariateReconstructor(
            prior="reconstructed", n_bins=80
        ),
    }
    print("Step 2 — per-record reconstruction error:")
    for name, attack in attacks.items():
        rmse = repro.root_mean_square_error(
            original, attack.reconstruct(disguised)
        )
        print(f"  {name:<24} RMSE = {rmse:.3f}")

    print(
        "\nThe moment-matched Gaussian prior wastes the bimodal structure;"
    )
    print(
        "the recovered-distribution posterior mean exploits it, extending"
    )
    print("the attack beyond the multivariate-normal assumption.")


if __name__ == "__main__":
    main()
