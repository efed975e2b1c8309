"""The network contact graph (paper Sec. III-B).

Nodes are mobile devices; an undirected edge (i, j) carries the rate λᵢⱼ
of the Poisson contact process between i and j.  The graph is the single
source of truth for every path-weight and NCL-metric computation.

Storage is dual-mode.  At the paper's scales (41–275 nodes) a dense
symmetric rate matrix is the right trade-off and keeps every historical
code path (and its bitwise-pinned results) unchanged.  Above
:data:`DENSE_NODE_THRESHOLD` nodes — or when forced with ``sparse=True``
— the graph stores adjacency dictionaries instead and never allocates
N×N: real DTN contact graphs are sparse (most pairs rarely or never
meet), and the 10⁵-node scale-out target makes a dense matrix (80 GB at
float64) a non-starter.  Both modes expose the same API; dense-only
views (``rates`` / ``rate_matrix``) stay available on sparse graphs up
to the threshold so small forced-sparse graphs remain comparable against
the dense oracles in tests.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Dict, Iterable, Iterator, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.traces.contact import ContactTrace

__all__ = ["ContactGraph", "DENSE_NODE_THRESHOLD"]

#: Node count at which auto storage selection switches to sparse
#: adjacency.  Below it a dense N×N matrix is both faster and exactly
#: the historical representation; above it the matrix alone would dwarf
#: every other allocation of a run.
DENSE_NODE_THRESHOLD = 2048

#: Global monotone version source: every mutation of any graph draws a new
#: value, so a ``(version, …)`` cache key can never alias two different
#: rate-matrix states, even across graph instances.
_VERSION_COUNTER = itertools.count(1)


class ContactGraph:
    """Undirected contact graph with Poisson contact rates as edge weights.

    The graph carries two cache-coherency handles consumed by the
    path-weight machinery (:mod:`repro.graph.weight_cache`):

    * :attr:`version` — a globally monotone counter bumped on every
      mutation; cheap identity for "has this instance changed?" checks
      (adjacency caching, router invalidation).
    * :meth:`fingerprint` — a lazy content digest of the rates, so two
      snapshots with identical rates share cached path computations
      regardless of which instance produced them.  Snapshots share
      rates only when built at the same simulated instant from the same
      contacts: each one divides the contact counts by a new elapsed
      time.

    Parameters
    ----------
    num_nodes:
        Network size.
    sparse:
        ``True`` forces adjacency-dict storage, ``False`` forces the
        dense matrix, ``None`` (default) picks dense below
        :data:`DENSE_NODE_THRESHOLD` nodes and sparse at or above it.
    """

    def __init__(self, num_nodes: int, sparse: Optional[bool] = None):
        if num_nodes < 1:
            raise ConfigurationError("contact graph needs at least one node")
        self._num_nodes = int(num_nodes)
        self._sparse = (
            bool(sparse) if sparse is not None else num_nodes >= DENSE_NODE_THRESHOLD
        )
        if self._sparse:
            self._rates: Optional[np.ndarray] = None
            self._adj: Dict[int, Dict[int, float]] = {}
        else:
            self._rates = np.zeros((num_nodes, num_nodes))
            # The rate matrix is non-writable at rest: every mutation must
            # go through set_rate/set_rates so the version bump (and
            # thereby the path-weight cache's fingerprint invalidation)
            # can never be skipped.  In-place writes like
            # ``graph.rates[i, j] = x`` raise immediately instead of
            # silently serving stale cached paths.
            self._rates.flags.writeable = False
            self._adj = {}
        self._version = next(_VERSION_COUNTER)
        self._fingerprint: Optional[bytes] = None
        self._adjacency_version = -1
        self._adjacency: Tuple[Tuple[int, ...], ...] = ()
        self._csr_version = -1
        self._csr: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._dense_version = -1
        self._dense_view: Optional[np.ndarray] = None

    # --- construction ------------------------------------------------------

    @classmethod
    def from_rate_matrix(
        cls, rates: np.ndarray, sparse: Optional[bool] = None
    ) -> "ContactGraph":
        """Build from a symmetric non-negative rate matrix."""
        rates = np.asarray(rates, dtype=float)
        if rates.ndim != 2 or rates.shape[0] != rates.shape[1]:
            raise ConfigurationError("rate matrix must be square")
        graph = cls(rates.shape[0], sparse=sparse)
        graph.set_rates(rates)
        return graph

    @classmethod
    def from_edges(
        cls,
        num_nodes: int,
        edges: Iterable[Tuple[int, int, float]],
        sparse: Optional[bool] = None,
    ) -> "ContactGraph":
        """Build from an edge list of ``(i, j, rate)`` triples.

        The natural constructor for sparse graphs: only the observed
        pairs are touched, so a 10⁵-node graph costs O(edges), not
        O(N²).
        """
        graph = cls(num_nodes, sparse=sparse)
        graph.set_edge_rates(edges)
        return graph

    @classmethod
    def from_trace(
        cls,
        trace: ContactTrace,
        until: Optional[float] = None,
        sparse: Optional[bool] = None,
    ) -> "ContactGraph":
        """Time-averaged rates from cumulative contact counts (Sec. III-B).

        λᵢⱼ = (number of contacts of the pair up to *until*) / elapsed
        time.
        """
        horizon = trace.end_time if until is None else float(until)
        elapsed = horizon - trace.start_time
        if elapsed <= 0:
            raise ConfigurationError("estimation horizon precedes trace start")
        graph = cls(trace.num_nodes, sparse=sparse)
        counts: Dict[Tuple[int, int], int] = {}
        for contact in trace:
            if contact.start > horizon:
                break
            counts[contact.pair] = counts.get(contact.pair, 0) + 1
        graph.set_edge_rates(
            (a, b, count / elapsed) for (a, b), count in counts.items()
        )
        return graph

    # --- mutation ------------------------------------------------------

    def set_rate(self, i: int, j: int, rate: float) -> None:
        if i == j:
            raise ConfigurationError("no self-loop contact rates")
        if rate < 0:
            raise ConfigurationError("contact rates must be non-negative")
        if not (0 <= i < self._num_nodes and 0 <= j < self._num_nodes):
            raise ConfigurationError(f"node ids out of range: ({i}, {j})")
        if self._sparse:
            i, j = int(i), int(j)
            if rate > 0:
                self._adj.setdefault(i, {})[j] = float(rate)
                self._adj.setdefault(j, {})[i] = float(rate)
            else:
                self._adj.get(i, {}).pop(j, None)
                self._adj.get(j, {}).pop(i, None)
        else:
            assert self._rates is not None
            self._rates.flags.writeable = True
            try:
                self._rates[i, j] = rate
                self._rates[j, i] = rate
            finally:
                self._rates.flags.writeable = False
        self._mark_mutated()

    def set_edge_rates(self, edges: Iterable[Tuple[int, int, float]]) -> None:
        """Apply many ``(i, j, rate)`` updates with one version bump.

        The bulk sibling of :meth:`set_rate` for edge lists — the sparse
        counterpart of :meth:`set_rates`, which requires a full N×N
        matrix.  One version bump regardless of edge count, so estimator
        snapshots of large graphs don't churn the global counter.
        """
        edges = list(edges)
        for i, j, rate in edges:
            if i == j:
                raise ConfigurationError("no self-loop contact rates")
            if rate < 0:
                raise ConfigurationError("contact rates must be non-negative")
            if not (0 <= i < self._num_nodes and 0 <= j < self._num_nodes):
                raise ConfigurationError(f"node ids out of range: ({i}, {j})")
        if self._sparse:
            for i, j, rate in edges:
                i, j = int(i), int(j)
                if rate > 0:
                    self._adj.setdefault(i, {})[j] = float(rate)
                    self._adj.setdefault(j, {})[i] = float(rate)
                else:
                    self._adj.get(i, {}).pop(j, None)
                    self._adj.get(j, {}).pop(i, None)
        else:
            assert self._rates is not None
            self._rates.flags.writeable = True
            try:
                for i, j, rate in edges:
                    self._rates[i, j] = rate
                    self._rates[j, i] = rate
            finally:
                self._rates.flags.writeable = False
        self._mark_mutated()

    def set_rates(self, rates: np.ndarray) -> None:
        """Replace the whole rate matrix atomically (bulk mutation path).

        This is the supported way to apply vectorised updates that would
        otherwise tempt callers into in-place ``numpy`` writes on the
        internal array — which the graph forbids (the matrix is
        non-writable at rest) precisely because such writes would skip
        the version bump and leave the shared path-weight cache serving
        stale entries.  Sparse graphs accept it too (the matrix is the
        caller's allocation); edges absent from the matrix are removed.
        """
        rates = np.array(rates, dtype=float)  # owned copy, decoupled from caller
        if rates.ndim != 2 or rates.shape != (self._num_nodes, self._num_nodes):
            raise ConfigurationError(
                f"rate matrix must be {self._num_nodes}x{self._num_nodes}, "
                f"got {rates.shape}"
            )
        if (rates < 0).any():
            raise ConfigurationError("contact rates must be non-negative")
        if not np.allclose(rates, rates.T):
            raise ConfigurationError("rate matrix must be symmetric")
        np.fill_diagonal(rates, 0.0)
        if self._sparse:
            self._adj = {}
            rows, cols = np.nonzero(rates)
            for i, j in zip(rows, cols):
                self._adj.setdefault(int(i), {})[int(j)] = float(rates[i, j])
        else:
            rates.flags.writeable = False
            self._rates = rates
        self._mark_mutated()

    def _mark_mutated(self) -> None:
        self._version = next(_VERSION_COUNTER)
        self._fingerprint = None
        self._csr = None
        self._dense_view = None

    # --- accessors -----------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def is_sparse(self) -> bool:
        """Whether this graph uses adjacency-dict (CSR-view) storage."""
        return self._sparse

    @property
    def version(self) -> int:
        """Globally monotone mutation counter (bumped on every ``set_rate``)."""
        return self._version

    def fingerprint(self) -> bytes:
        """Content digest of the rates (lazy, cached until mutation).

        Two graphs of the same storage mode with identical rates share a
        fingerprint, which is what the path-weight cache keys on: two
        snapshots built at the same simulated instant (a churn-triggered
        GRAPH_REFRESH landing on a periodic one, or the runs of several
        schemes over one trace) are distinct instances with the same
        rates.  Dense graphs hash
        the matrix bytes (the historical digest, so pre-existing cache
        behaviour is unchanged); sparse graphs hash the sorted COO
        triplets — O(edges), never O(N²).
        """
        if self._fingerprint is None:
            digest = hashlib.blake2b(digest_size=16)
            digest.update(self._num_nodes.to_bytes(8, "little"))
            if self._sparse:
                indptr, indices, data = self.csr_rates()
                digest.update(b"coo")
                digest.update(np.ascontiguousarray(indptr).tobytes())
                digest.update(np.ascontiguousarray(indices).tobytes())
                digest.update(np.ascontiguousarray(data).tobytes())
            else:
                digest.update(np.ascontiguousarray(self._rates).tobytes())
            self._fingerprint = digest.digest()
        return self._fingerprint

    def rate(self, i: int, j: int) -> float:
        """λᵢⱼ; zero when the pair has never been observed in contact."""
        if self._sparse:
            return self._adj.get(int(i), {}).get(int(j), 0.0)
        assert self._rates is not None
        return float(self._rates[i, j])

    def _dense(self) -> np.ndarray:
        """The dense rate matrix (materialised on demand for sparse graphs).

        Sparse graphs refuse to materialise above the dense threshold —
        that allocation is exactly what sparse storage exists to avoid —
        so consumers of large graphs must go through :meth:`csr_rates`.
        """
        if not self._sparse:
            assert self._rates is not None
            return self._rates
        if self._num_nodes > DENSE_NODE_THRESHOLD:
            raise ConfigurationError(
                f"refusing to materialise a dense {self._num_nodes}x"
                f"{self._num_nodes} matrix from a sparse graph; use "
                "csr_rates()/neighbors() instead"
            )
        if self._dense_version != self._version or self._dense_view is None:
            dense = np.zeros((self._num_nodes, self._num_nodes))
            for i, row in self._adj.items():
                for j, rate in row.items():
                    dense[i, j] = rate
            dense.flags.writeable = False
            self._dense_view = dense
            self._dense_version = self._version
        return self._dense_view

    def rate_matrix(self) -> np.ndarray:
        """A copy of the symmetric rate matrix (dense; see :meth:`_dense`)."""
        return self._dense().copy()

    def aggregate_rates(self) -> np.ndarray:
        """Per-node sum of incident contact rates (social hubness).

        Computed from the CSR structure, so it works in both storage
        modes without materialising N×N — and because both modes emit
        identical CSR entries in identical order, the sums are bitwise
        independent of the storage choice.
        """
        indptr, _indices, data = self.csr_rates()
        aggregate = np.zeros(self._num_nodes)
        if data.size:
            nonempty = np.diff(indptr) > 0
            aggregate[nonempty] = np.add.reduceat(data, indptr[:-1][nonempty])
        return aggregate

    @property
    def rates(self) -> np.ndarray:
        """Read-only view of the rate matrix (zero-copy on dense graphs).

        Direct writes (``graph.rates[i, j] = x``) raise ``ValueError``;
        mutate through :meth:`set_rate` / :meth:`set_rates`, which bump
        :attr:`version` and invalidate the content fingerprint the
        shared path-weight cache keys on.
        """
        view = self._dense().view()
        view.flags.writeable = False
        return view

    def csr_rates(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The symmetric rate structure as CSR arrays ``(indptr, indices,
        data)``.

        Column indices are ascending within each row — the same neighbor
        order :meth:`neighbors` reports and the reference Dijkstra
        iterates, so sparse sweeps relax edges in exactly the oracle's
        order.  Cached per :attr:`version`; works in both storage modes
        (dense graphs build it from the matrix).
        """
        if self._csr is not None and self._csr_version == self._version:
            return self._csr
        n = self._num_nodes
        if self._sparse:
            counts = np.zeros(n + 1, dtype=np.int64)
            for i, row in self._adj.items():
                counts[i + 1] = len(row)
            indptr = np.cumsum(counts)
            total = int(indptr[-1])
            indices = np.empty(total, dtype=np.int64)
            data = np.empty(total, dtype=np.float64)
            for i, row in self._adj.items():
                start = indptr[i]
                for offset, j in enumerate(sorted(row)):
                    indices[start + offset] = j
                    data[start + offset] = row[j]
        else:
            assert self._rates is not None
            rows, cols = np.nonzero(self._rates)
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.add.at(indptr, rows + 1, 1)
            indptr = np.cumsum(indptr)
            indices = cols.astype(np.int64)
            data = self._rates[rows, cols].astype(np.float64)
        self._csr = (indptr, indices, data)
        self._csr_version = self._version
        return self._csr

    def neighbors(self, i: int) -> Tuple[int, ...]:
        """Nodes with a positive contact rate to *i*, ascending.

        Returns the cached adjacency tuple itself (no per-call copy —
        this sits on the simulator's Dijkstra hot path); tuples are
        immutable, so sharing is safe.  The cache is invalidated by the
        :attr:`version` bump on mutation.
        """
        self._rebuild_adjacency()
        return self._adjacency[i]

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """All positive-rate edges as (i, j, λ) with i < j, ordered."""
        if self._sparse:
            for i in sorted(self._adj):
                row = self._adj[i]
                for j in sorted(row):
                    if i < j:
                        yield i, j, row[j]
            return
        assert self._rates is not None
        rows, cols = np.nonzero(np.triu(self._rates, k=1))
        for i, j in zip(rows, cols):
            yield int(i), int(j), float(self._rates[i, j])

    @property
    def num_edges(self) -> int:
        if self._sparse:
            return sum(len(row) for row in self._adj.values()) // 2
        assert self._rates is not None
        return int(np.count_nonzero(np.triu(self._rates, k=1)))

    def degree(self, i: int) -> int:
        if self._sparse:
            return len(self._adj.get(int(i), ()))
        self._rebuild_adjacency()
        return len(self._adjacency[i])

    def mean_degree(self) -> float:
        return 2.0 * self.num_edges / self._num_nodes if self._num_nodes else 0.0

    def expected_intercontact(self, i: int, j: int) -> float:
        """E[inter-contact time] = 1/λᵢⱼ, or +inf for unconnected pairs."""
        rate = self.rate(i, j)
        return 1.0 / rate if rate > 0 else float("inf")

    def _rebuild_adjacency(self) -> None:
        if self._adjacency_version == self._version:
            return
        if self._sparse:
            self._adjacency = tuple(
                tuple(sorted(self._adj.get(i, ())))
                for i in range(self._num_nodes)
            )
        else:
            assert self._rates is not None
            self._adjacency = tuple(
                tuple(int(j) for j in np.nonzero(self._rates[i])[0])
                for i in range(self._num_nodes)
            )
        self._adjacency_version = self._version

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        mode = "sparse" if self._sparse else "dense"
        return (
            f"ContactGraph(nodes={self._num_nodes}, edges={self.num_edges}, "
            f"storage={mode})"
        )
