"""Kernel equivalence: each vectorized hot kernel == its oracle.

Each hot kernel must agree with its retained ``_reference_*`` oracle —
to tight numeric tolerance where the vectorized path reorders float
reductions, and exactly where it does not.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ncl import _reference_ncl_metrics, ncl_metrics
from repro.graph.contact_graph import ContactGraph
from repro.graph.paths import _reference_weight_matrix, shortest_path_weight_matrix
from repro.graph.weight_cache import shared_weight_cache
from repro.mathutils.hypoexponential import (
    _reference_cdf_batch,
    hypoexponential_cdf_batch,
    pad_rate_rows,
)
from repro.traces.synthetic import SyntheticTraceConfig, generate_synthetic_trace
from repro.units import DAY, WEEK


def _graph(seed=2, num_nodes=16):
    return ContactGraph.from_trace(
        generate_synthetic_trace(
            SyntheticTraceConfig(
                name=f"equiv-{seed}",
                num_nodes=num_nodes,
                duration=4 * DAY,
                total_contacts=num_nodes * 60,
                granularity=60.0,
                seed=seed,
            )
        )
    )


rate_rows = st.lists(
    st.lists(
        st.floats(min_value=1e-6, max_value=1e-2, allow_nan=False),
        min_size=0,
        max_size=6,
    ),
    min_size=1,
    max_size=40,
)


# --- vectorized kernels vs oracles ---------------------------------------


@settings(max_examples=60, deadline=None)
@given(rows=rate_rows, t=st.floats(min_value=1.0, max_value=1e6))
def test_hypoexp_batch_matches_reference(rows, t):
    padded = pad_rate_rows(rows)
    fast = hypoexponential_cdf_batch(padded, t)
    slow = _reference_cdf_batch(rows, t)
    np.testing.assert_allclose(fast, slow, atol=1e-10, rtol=0)


@pytest.mark.parametrize("seed", [2, 5, 11])
def test_weight_matrix_matches_reference(seed):
    graph = _graph(seed)
    fast = shortest_path_weight_matrix(graph, 1 * WEEK)
    slow = _reference_weight_matrix(graph, 1 * WEEK)
    np.testing.assert_allclose(fast, slow, atol=1e-9, rtol=0)


@pytest.mark.parametrize("seed", [2, 5])
def test_ncl_metrics_match_reference(seed):
    graph = _graph(seed)
    shared_weight_cache().clear()
    fast = ncl_metrics(graph, 1 * WEEK)
    slow = _reference_ncl_metrics(graph, 1 * WEEK)
    np.testing.assert_allclose(fast, slow, atol=1e-9, rtol=0)
