"""The network contact graph (paper Sec. III-B).

Nodes are mobile devices; an undirected edge (i, j) carries the rate λᵢⱼ
of the Poisson contact process between i and j.  The graph is the single
source of truth for every path-weight and NCL-metric computation.

A graph is a value: it is built once from its edge triples and never
changes.  Each refresh of the rate estimates (Sec. III-B, VI-A) builds a
new snapshot, so every derived view — the CSR arrays, the adjacency
tuples, the dense view and the content fingerprint — is computed at most
once per graph and never goes stale.

Storage is dual-mode.  At the paper's scales (41–275 nodes) a dense
symmetric rate matrix is the right trade-off and keeps every historical
code path (and its bitwise-pinned results) unchanged.  Above
:data:`DENSE_NODE_THRESHOLD` nodes — or when forced with ``sparse=True``
— the graph stores adjacency dictionaries instead and never allocates
N×N: real DTN contact graphs are sparse (most pairs rarely or never
meet), and the 10⁵-node scale-out target makes a dense matrix (80 GB at
float64) a non-starter.  Both modes expose the same API; the dense
:attr:`~ContactGraph.rates` view stays available on sparse graphs up to
the threshold so small forced-sparse graphs remain comparable against
the dense oracles in tests.
"""

from __future__ import annotations

import hashlib
from functools import cached_property
from operator import index
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


class ContactGraph:
    """Undirected, immutable contact graph with Poisson contact rates as
    edge weights.

    :meth:`fingerprint` is a lazy content digest of the rates, so two
    snapshots with identical rates share cached path computations
    (:mod:`repro.graph.weight_cache`) regardless of which instance
    produced them.  Snapshots share rates only when built at the same
    simulated instant from the same contacts: each one divides the
    contact counts by a new elapsed time.

    Parameters
    ----------
    num_nodes:
        Network size.
    edges:
        ``(i, j, rate)`` triples.  Each triple sets both directions of
        the pair, so the graph is symmetric by construction; a later
        triple of the same pair (in either orientation) overrides an
        earlier one, and a zero rate leaves the pair unconnected.  Only
        the listed pairs are touched, so a 10⁵-node graph costs
        O(edges), not O(N²).
    sparse:
        ``True`` forces adjacency-dict storage, ``False`` forces the
        dense matrix, ``None`` (default) picks dense below
        :data:`DENSE_NODE_THRESHOLD` nodes and sparse at or above it.
    """

    def __init__(
        self,
        num_nodes: int,
        edges: Iterable[Tuple[int, int, float]] = (),
        sparse: Optional[bool] = None,
    ):
        if num_nodes < 1:
            raise ConfigurationError("contact graph needs at least one node")
        n = self._num_nodes = int(num_nodes)
        self._sparse = bool(sparse) if sparse is not None else n >= DENSE_NODE_THRESHOLD
        # Each pair under the flat index i·n + j of its upper-triangle
        # cell (i < j), so a later triple replaces an earlier one.
        pairs: Dict[int, float] = {}
        for i, j, rate in edges:
            try:
                i, j = index(i), index(j)
            except TypeError:
                raise ConfigurationError(
                    f"node ids must be integers: ({i!r}, {j!r})"
                ) from None
            if i == j:
                raise ConfigurationError("no self-loop contact rates")
            if rate < 0:
                raise ConfigurationError("contact rates must be non-negative")
            if not (0 <= i < n and 0 <= j < n):
                raise ConfigurationError(f"node ids out of range: ({i}, {j})")
            pairs[i * n + j if i < j else j * n + i] = rate
        self._adj: Dict[int, Dict[int, float]] = {}
        self._rates: Optional[np.ndarray] = None
        if self._sparse:
            for cell, rate in pairs.items():
                if rate > 0:
                    i, j = divmod(cell, n)
                    self._adj.setdefault(i, {})[j] = float(rate)
                    self._adj.setdefault(j, {})[i] = float(rate)
        else:
            rates = np.zeros((n, n))
            if pairs:
                cells = np.fromiter(pairs, dtype=np.int64, count=len(pairs))
                ii, jj = np.divmod(cells, n)
                values = np.fromiter(pairs.values(), dtype=float, count=len(pairs))
                rates[ii, jj] = values
                rates[jj, ii] = values
            # Read-only from construction: the path-weight cache keys on
            # the content fingerprint, which must describe the graph for
            # its whole life.
            rates.flags.writeable = False
            self._rates = rates

    # --- construction ------------------------------------------------------

    @classmethod
    def from_rate_matrix(
        cls, rates: np.ndarray, sparse: Optional[bool] = None
    ) -> "ContactGraph":
        """Build from a symmetric non-negative rate matrix.

        Symmetry is exact: a matrix whose two triangles differ anywhere,
        by however little, is refused.  The graph is built from the
        strict upper triangle (the diagonal is ignored), and the input
        stays the caller's.
        """
        rates = np.asarray(rates, dtype=float)
        if rates.ndim != 2 or rates.shape[0] != rates.shape[1]:
            raise ConfigurationError(f"rate matrix must be square, got {rates.shape}")
        if (rates < 0).any():
            raise ConfigurationError("contact rates must be non-negative")
        if not np.array_equal(rates, rates.T):
            raise ConfigurationError("rate matrix must be symmetric")
        ii, jj = np.nonzero(np.triu(rates, k=1))
        edges = zip(ii.tolist(), jj.tolist(), rates[ii, jj].tolist())
        return cls(rates.shape[0], edges, sparse=sparse)

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
        counts: Dict[Tuple[int, int], int] = {}
        for contact in trace:
            if contact.start > horizon:
                break
            counts[contact.pair] = counts.get(contact.pair, 0) + 1
        return cls(
            trace.num_nodes,
            ((a, b, count / elapsed) for (a, b), count in counts.items()),
            sparse=sparse,
        )

    # --- accessors -----------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def is_sparse(self) -> bool:
        """Whether this graph uses adjacency-dict (CSR-view) storage."""
        return self._sparse

    def fingerprint(self) -> bytes:
        """Content digest of the rates (computed once).

        Two graphs of the same storage mode with identical rates share a
        fingerprint, which is what the path-weight cache keys on: two
        snapshots built at the same simulated instant (a churn-triggered
        GRAPH_REFRESH landing on a periodic one, or the runs of several
        schemes over one trace) are distinct instances with the same
        rates.  Dense graphs hash the matrix bytes; sparse graphs hash
        the CSR arrays — O(edges), never O(N²).
        """
        return self._fingerprint

    @cached_property
    def _fingerprint(self) -> bytes:
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
        return digest.digest()

    def rate(self, i: int, j: int) -> float:
        """λᵢⱼ; zero when the pair has never been observed in contact."""
        if self._sparse:
            return self._adj.get(int(i), {}).get(int(j), 0.0)
        assert self._rates is not None
        return float(self._rates[i, j])

    @property
    def rates(self) -> np.ndarray:
        """Read-only view of the symmetric rate matrix (zero-copy on
        dense graphs).

        Writes (``graph.rates[i, j] = x``) raise ``ValueError``, and the
        view cannot be made writeable.  Sparse graphs materialise the
        matrix once, and refuse to above the dense threshold — that
        allocation is exactly what sparse storage exists to avoid — so
        consumers of large graphs must go through :meth:`csr_rates`.
        """
        if not self._sparse:
            assert self._rates is not None
            return self._rates.view()
        if self._num_nodes > DENSE_NODE_THRESHOLD:
            raise ConfigurationError(
                f"refusing to materialise a dense {self._num_nodes}x"
                f"{self._num_nodes} matrix from a sparse graph; use "
                "csr_rates()/neighbors() instead"
            )
        return self._dense_view.view()

    @cached_property
    def _dense_view(self) -> np.ndarray:
        dense = np.zeros((self._num_nodes, self._num_nodes))
        for i, row in self._adj.items():
            for j, rate in row.items():
                dense[i, j] = rate
        dense.flags.writeable = False
        return dense

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

    def csr_rates(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The symmetric rate structure as CSR arrays ``(indptr, indices,
        data)``.

        Column indices are ascending within each row — the same neighbor
        order :meth:`neighbors` reports and the reference Dijkstra
        iterates, so sparse sweeps relax edges in exactly the oracle's
        order.  Computed once and read-only; works in both storage modes
        (dense graphs build it from the matrix).
        """
        return self._csr

    @cached_property
    def _csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
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
        for array in (indptr, indices, data):
            array.flags.writeable = False
        return indptr, indices, data

    def neighbors(self, i: int) -> Tuple[int, ...]:
        """Nodes with a positive contact rate to *i*, ascending.

        Returns the adjacency tuple itself (no per-call copy — this sits
        on the simulator's Dijkstra hot path); tuples are immutable, so
        sharing is safe.
        """
        return self._adjacency[i]

    @cached_property
    def _adjacency(self) -> Tuple[Tuple[int, ...], ...]:
        if self._sparse:
            return tuple(
                tuple(sorted(self._adj.get(i, ()))) for i in range(self._num_nodes)
            )
        assert self._rates is not None
        return tuple(
            tuple(int(j) for j in np.nonzero(self._rates[i])[0])
            for i in range(self._num_nodes)
        )

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
        return len(self._adjacency[i])

    def mean_degree(self) -> float:
        return 2.0 * self.num_edges / self._num_nodes if self._num_nodes else 0.0

    def expected_intercontact(self, i: int, j: int) -> float:
        """E[inter-contact time] = 1/λᵢⱼ, or +inf for unconnected pairs."""
        rate = self.rate(i, j)
        return 1.0 / rate if rate > 0 else float("inf")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        mode = "sparse" if self._sparse else "dense"
        return (
            f"ContactGraph(nodes={self._num_nodes}, edges={self.num_edges}, "
            f"storage={mode})"
        )
