"""Data-mining utility checks for randomized data.

Section 8.1's closing argument: the improved (correlated-noise) scheme
must still support data mining, because aggregate information — the
distribution — remains recoverable via Theorem 8.2 (``Sigma_x = Sigma_y -
Sigma_r``).  This package demonstrates that claim with a Gaussian naive
Bayes classifier trained on moments recovered from disguised data.
"""

from repro.mining.naive_bayes import GaussianNaiveBayes, utility_report

__all__ = [
    "GaussianNaiveBayes",
    "utility_report",
]
