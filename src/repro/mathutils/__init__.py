"""Mathematical kernel underpinning the caching scheme.

* :mod:`repro.mathutils.hypoexponential` — the distribution of a sum of
  independent exponential inter-contact times (paper Eq. 1–2).
* :mod:`repro.mathutils.zipf` — the query popularity distribution
  (paper Eq. 8, Fig. 9b).
* :mod:`repro.mathutils.poisson` — contact/request rate estimation.
* :mod:`repro.mathutils.ks` — Kolmogorov–Smirnov goodness-of-fit
  distance (model-fidelity diagnostics, inter-contact analysis).
* :mod:`repro.mathutils.sigmoid` — the probabilistic-response sigmoid
  (paper Eq. 4, Fig. 7).
"""

from repro.mathutils.hypoexponential import (
    hypoexponential_cdf,
    path_delivery_probability,
)
from repro.mathutils.ks import exponential_ks, ks_statistic
from repro.mathutils.poisson import RateEstimator, poisson_probability_at_least_one
from repro.mathutils.sigmoid import ResponseSigmoid
from repro.mathutils.zipf import ZipfDistribution

__all__ = [
    "hypoexponential_cdf",
    "path_delivery_probability",
    "RateEstimator",
    "poisson_probability_at_least_one",
    "ks_statistic",
    "exponential_ks",
    "ResponseSigmoid",
    "ZipfDistribution",
]
