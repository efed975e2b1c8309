"""Network contact graph G(V, E) and opportunistic paths (paper Sec. III-B, IV-A).

* :mod:`repro.graph.contact_graph` — the weighted undirected graph whose
  edge weights are pairwise Poisson contact rates λᵢⱼ.
* :mod:`repro.graph.estimator` — online, time-averaged estimation of the
  rates from observed contacts ("calculated at real-time from the
  cumulative contacts ... in a time-average manner").
* :mod:`repro.graph.paths` — opportunistic paths, their hypoexponential
  weights p_AB(T) (Eq. 2), and shortest-path computation (vectorized
  through scipy's C Dijkstra in expected-delay mode).
* :mod:`repro.graph.weight_cache` — the process-wide, content-keyed LRU
  over single-source path-weight sweeps shared by routers, NCL selection
  and calibration.
"""

from repro.graph.contact_graph import ContactGraph
from repro.graph.estimator import OnlineContactGraphEstimator
from repro.graph.paths import (
    OpportunisticPath,
    PathMode,
    hop_rate_tuples_from,
    shortest_path,
    shortest_path_weight_matrix,
    shortest_path_weights_from,
    shortest_paths_from,
)
from repro.graph.weight_cache import PathWeightCache, shared_weight_cache

__all__ = [
    "ContactGraph",
    "OnlineContactGraphEstimator",
    "OpportunisticPath",
    "PathMode",
    "PathWeightCache",
    "hop_rate_tuples_from",
    "shared_weight_cache",
    "shortest_path",
    "shortest_paths_from",
    "shortest_path_weight_matrix",
    "shortest_path_weights_from",
]
