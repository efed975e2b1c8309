"""Content-keyed LRU cache of path-weight computations.

Every consumer of the contact graph — NCL selection (Eq. 3), the
push/pull gradient routers, response strategies, and time-budget
calibration — reduces to the same two sweeps: a single-source path-weight
vector at a time budget T, or the hop-rate tuples of the shortest
opportunistic paths from a source.

This module gives all of them one shared, bounded cache.  On dense
graphs warm-up's all-pairs matrix is one entry, and a single-source
lookup on the same snapshot reads its row, so NCL selection's K central
vectors are hits.  The push and query gradient routers hold the vectors
of the current snapshot themselves: on their first decision after a
GRAPH_REFRESH each refills its table with one
:meth:`PathWeightCache.weight_rows` call.  The first router to ask
computes the missing vectors in one batched sweep; the second reads
them back.  Per-contact decisions then never touch the cache.

Keying contract
---------------
Entries are keyed on ``(graph.fingerprint(), source, time_budget, mode)``.
The fingerprint is a content digest of the rates, computed once per
graph.  Content keying (rather than instance keying) is what lets two
*different* snapshot instances with identical rates share one
computation.  Every snapshot divides the pairs' contact counts by the
elapsed time, so only snapshots built at the same simulated instant
share rates: a churn-triggered refresh landing on a periodic one, or
the runs of several schemes over one trace.  A graph never changes
after it is built and its rate matrix is read-only, so an entry can
never describe other rates than its key's; eviction is plain LRU.

Cached weight vectors, matrices and k-NN row arrays are returned
read-only (``ndarray.flags.writeable = False``); callers that need to
mutate must copy.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from time import perf_counter
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.contact_graph import ContactGraph
from repro.graph.paths import (
    PathMode,
    hop_rate_tuples_from,
    shortest_path_weight_matrix,
    shortest_path_weight_rows,
)
from repro.graph.sparse import KnnWeightRows, knn_weight_rows
from repro.obs.profile import active_profiler, maybe_span

__all__ = ["PathWeightCache", "shared_weight_cache", "cached_path_weights"]


def _entry_bytes(value: object) -> int:
    """Approximate heap footprint of a cached value (arrays only — the
    rate-tuple dicts are small and counted as entries, not bytes)."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, KnnWeightRows):
        return int(value.indptr.nbytes + value.indices.nbytes + value.weights.nbytes)
    return 0


class PathWeightCache:
    """Bounded LRU over single-source path-weight sweeps.

    One instance is process-wide (:func:`shared_weight_cache`); worker
    processes of the parallel runner each build their own on first use,
    so no cross-process coherency is needed.
    """

    def __init__(self, maxsize: int = 256, maxbytes: int = 512 * 1024 * 1024):
        if maxsize < 1:
            raise ValueError("cache maxsize must be >= 1")
        if maxbytes < 1:
            raise ValueError("cache maxbytes must be >= 1")
        self._maxsize = int(maxsize)
        # At trace scale every entry is tiny and the entry-count LRU is
        # the binding limit; at 10⁵ nodes a single k-NN row set or weight
        # vector is megabytes, so a byte budget keeps the resident cache
        # bounded no matter the graph size.
        self._maxbytes = int(maxbytes)
        self._bytes = 0
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    # --- bookkeeping ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        """Tracked bytes of array payloads currently cached."""
        return self._bytes

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self.hits = 0
            self.misses = 0

    def _lookup(self, key: Hashable) -> Optional[object]:
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                self.hits += 1
            else:
                self.misses += 1
        return value

    def _store(self, key: Hashable, value: object) -> None:
        with self._lock:
            old = self._entries.get(key)
            if old is not None:
                self._bytes -= _entry_bytes(old)
            self._entries[key] = value
            self._entries.move_to_end(key)
            self._bytes += _entry_bytes(value)
            while len(self._entries) > self._maxsize or (
                self._bytes > self._maxbytes and len(self._entries) > 1
            ):
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= _entry_bytes(evicted)

    # --- cached computations -------------------------------------------

    def weights(
        self,
        graph: ContactGraph,
        source: int,
        time_budget: float,
        mode: PathMode = PathMode.EXPECTED_DELAY,
    ) -> np.ndarray:
        """Cached :func:`shortest_path_weights_from` (read-only vector)."""
        return self.weight_rows(graph, [source], time_budget, mode)[0]

    def weight_rows(
        self,
        graph: ContactGraph,
        sources: Sequence[int],
        time_budget: float,
        mode: PathMode = PathMode.EXPECTED_DELAY,
    ) -> List[np.ndarray]:
        """Cached weight vectors from many sources (read-only, one per source).

        Every vector is a row of the cached :meth:`weight_matrix` when
        one exists for the same graph, budget and mode; otherwise cached
        single-source entries are served as they are and the missing
        ones are computed together in one
        :func:`shortest_path_weight_rows` sweep.  Counters are per
        vector: one hit per vector served from the cache, one miss per
        distinct vector computed.
        """
        # Hit latency is measured inline (a hit is too cheap for a span);
        # a miss wraps the recompute in a span so the kernel nests under it.
        prof = active_profiler()
        if prof.enabled:
            t0 = perf_counter()
        sources = [int(source) for source in sources]
        fingerprint = graph.fingerprint()
        budget = float(time_budget)
        found: Dict[int, np.ndarray] = {}
        missing: Dict[int, None] = {}  # insertion-ordered set
        with self._lock:
            matrix_key = ("W", fingerprint, budget, mode)
            matrix = self._entries.get(matrix_key)
            if matrix is not None:
                self._entries.move_to_end(matrix_key)
                self.hits += len(sources)
                found = {source: matrix[source] for source in sources}  # type: ignore[index]
            else:
                for source in sources:
                    key = ("w", fingerprint, source, budget, mode)
                    value = self._entries.get(key)
                    if value is not None:
                        self._entries.move_to_end(key)
                        self.hits += 1
                        found[source] = value  # type: ignore[assignment]
                    else:
                        missing[source] = None
                self.misses += len(missing)
        if missing:
            with maybe_span(prof, "weight_cache.weights.miss"):
                rows = shortest_path_weight_rows(graph, list(missing), budget, mode)
            for source, row in zip(missing, rows):
                row.flags.writeable = False
                self._store(("w", fingerprint, source, budget, mode), row)
                found[source] = row
        elif prof.enabled:
            prof.add("weight_cache.weights.hit", perf_counter() - t0)
        return [found[source] for source in sources]

    def weight_matrix(
        self,
        graph: ContactGraph,
        time_budget: float,
        mode: PathMode = PathMode.EXPECTED_DELAY,
    ) -> np.ndarray:
        """Cached all-pairs :func:`shortest_path_weight_matrix` (read-only).

        The matrix is one cache entry; :meth:`weight_rows` serves its
        rows, so a selection/refresh that computed the full matrix hands
        the routers their per-central vectors for free.
        """
        prof = active_profiler()
        if prof.enabled:
            t0 = perf_counter()
        key = ("W", graph.fingerprint(), float(time_budget), mode)
        cached = self._lookup(key)
        if cached is None:
            with maybe_span(prof, "weight_cache.matrix.miss"):
                cached = shortest_path_weight_matrix(graph, time_budget, mode)
            cached.flags.writeable = False
            self._store(key, cached)
        elif prof.enabled:
            prof.add("weight_cache.matrix.hit", perf_counter() - t0)
        return cached  # type: ignore[return-value]

    def knn_rows(
        self,
        graph: ContactGraph,
        time_budget: float,
        k: int,
        mode: PathMode = PathMode.EXPECTED_DELAY,
    ) -> KnnWeightRows:
        """Cached :func:`repro.graph.sparse.knn_weight_rows` (frozen rows).

        The CSR arrays inside the returned :class:`KnnWeightRows` are the
        cached payload and are read-only.
        """
        prof = active_profiler()
        if prof.enabled:
            t0 = perf_counter()
        key = ("k", graph.fingerprint(), float(time_budget), int(k), mode)
        cached = self._lookup(key)
        if cached is None:
            with maybe_span(prof, "weight_cache.knn_rows.miss"):
                cached = knn_weight_rows(graph, time_budget, k, mode)
            for array in (cached.indptr, cached.indices, cached.weights):
                array.flags.writeable = False
            self._store(key, cached)
        elif prof.enabled:
            prof.add("weight_cache.knn_rows.hit", perf_counter() - t0)
        return cached  # type: ignore[return-value]

    def rate_tuples(
        self,
        graph: ContactGraph,
        source: int,
        time_budget: float,
        mode: PathMode = PathMode.EXPECTED_DELAY,
    ) -> Dict[int, Tuple[float, ...]]:
        """Cached hop-rate tuples of the shortest paths from *source*.

        In expected-delay mode the tuples are independent of the budget,
        so the key collapses it; calibration probes at many budgets then
        hit one entry.
        """
        prof = active_profiler()
        if prof.enabled:
            t0 = perf_counter()
        budget_key = 0.0 if mode is PathMode.EXPECTED_DELAY else float(time_budget)
        key = ("r", graph.fingerprint(), int(source), budget_key, mode)
        cached = self._lookup(key)
        if cached is None:
            with maybe_span(prof, "weight_cache.rate_tuples.miss"):
                cached = hop_rate_tuples_from(graph, source, time_budget, mode)
            self._store(key, cached)
        elif prof.enabled:
            prof.add("weight_cache.rate_tuples.hit", perf_counter() - t0)
        return cached  # type: ignore[return-value]


_SHARED = PathWeightCache()


def shared_weight_cache() -> PathWeightCache:
    """The process-wide cache shared by routers, NCL selection and calibration."""
    return _SHARED


def cached_path_weights(
    graph: ContactGraph,
    source: int,
    time_budget: float,
    mode: PathMode = PathMode.EXPECTED_DELAY,
) -> np.ndarray:
    """Convenience wrapper over ``shared_weight_cache().weights(...)``."""
    return _SHARED.weights(graph, source, time_budget, mode)
