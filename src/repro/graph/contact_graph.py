"""The network contact graph (paper Sec. III-B).

Nodes are mobile devices; an undirected edge (i, j) carries the rate λᵢⱼ
of the Poisson contact process between i and j.  The graph is the single
source of truth for every path-weight and NCL-metric computation.

A graph is a value: it is built once from its edge triples and never
changes.  Each refresh of the rate estimates (Sec. III-B, VI-A) builds a
new snapshot, so every derived view — the neighbour tuples, the
aggregate rates and the content fingerprint — is computed at most once
per graph and never goes stale.

A graph *is* its symmetric rate table in CSR form: the read-only arrays
``(indptr, indices, data)`` that :meth:`ContactGraph.csr_rates` returns,
built straight from the edge triples in O(edges).  Real DTN contact
graphs are sparse (most pairs rarely or never meet), and the 10⁵-node
scale-out target rules out an N×N matrix (80 GB at float64), so no
storage grows with N².  The dense :attr:`~ContactGraph.rates` matrix is
a view for small graphs only, refused above :data:`DENSE_NODE_THRESHOLD`
nodes.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from functools import cached_property
from math import inf
from operator import index
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.traces.contact import ContactTrace

__all__ = ["ContactGraph", "DENSE_NODE_THRESHOLD"]

#: Node count at which a graph built with ``sparse=None`` routes NCL
#: selection to the k-NN metric, and above which :attr:`ContactGraph.rates`
#: refuses to materialise N×N: the matrix alone would dwarf every other
#: allocation of a run.
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
        earlier one, and a zero rate leaves the pair unconnected.  Every
        rate must be finite and non-negative.  Only the listed pairs are
        touched, so a 10⁵-node graph costs O(edges), not O(N²).
    sparse:
        Whether NCL selection on this graph takes the k-NN truncated
        metric (:attr:`is_sparse`): ``True``/``False`` force it,
        ``None`` (default) picks it at :data:`DENSE_NODE_THRESHOLD`
        nodes and above.  Storage is the same either way.
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
            if not 0 <= rate < inf:
                raise ConfigurationError(
                    f"contact rates must be finite and non-negative, got {rate!r}"
                )
            if not (0 <= i < n and 0 <= j < n):
                raise ConfigurationError(f"node ids out of range: ({i}, {j})")
            pairs[i * n + j if i < j else j * n + i] = rate
        cells = np.fromiter(pairs, dtype=np.int64, count=len(pairs))
        values = np.fromiter(pairs.values(), dtype=np.float64, count=len(pairs))
        positive = values > 0
        cells, values = cells[positive], values[positive]
        ii, jj = np.divmod(cells, n)
        # Both directions of every edge, sorted by flat cell (all
        # distinct): rows ascending, and columns ascending within a row.
        flat = np.concatenate((cells, jj * n + ii))
        order = np.argsort(flat, kind="stable")
        flat = flat[order]
        first_cells = np.arange(n + 1, dtype=np.int64) * n
        indptr = np.searchsorted(flat, first_cells).astype(np.int64, copy=False)
        indices = flat % n
        data = np.concatenate((values, values))[order]
        # Read-only from construction: the path-weight cache keys on
        # the content fingerprint, which must describe the graph for
        # its whole life.
        for array in (indptr, indices, data):
            array.flags.writeable = False
        self._csr = indptr, indices, data

    # --- construction ------------------------------------------------------

    @classmethod
    def from_rate_matrix(
        cls, rates: np.ndarray, sparse: Optional[bool] = None
    ) -> "ContactGraph":
        """Build from a symmetric, finite, non-negative rate matrix.

        Symmetry is exact: a matrix whose two triangles differ anywhere,
        by however little, is refused.  The graph is built from the
        strict upper triangle (the diagonal is ignored), and the input
        stays the caller's.
        """
        rates = np.asarray(rates, dtype=float)
        if rates.ndim != 2 or rates.shape[0] != rates.shape[1]:
            raise ConfigurationError(f"rate matrix must be square, got {rates.shape}")
        if not ((rates >= 0) & (rates < np.inf)).all():
            raise ConfigurationError("contact rates must be finite and non-negative")
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
        """Whether NCL selection on this graph takes the k-NN truncated
        metric (the ``sparse`` argument, or N ≥ :data:`DENSE_NODE_THRESHOLD`)."""
        return self._sparse

    def fingerprint(self) -> bytes:
        """Content digest of the rates (computed once).

        Two graphs with identical rates share a fingerprint, which is
        what the path-weight cache keys on: two snapshots built at the
        same simulated instant (a churn-triggered GRAPH_REFRESH landing
        on a periodic one, or the runs of several schemes over one
        trace) are distinct instances with the same rates.  It hashes
        the node count and the CSR arrays — O(edges), never O(N²).
        """
        return self._fingerprint

    @cached_property
    def _fingerprint(self) -> bytes:
        digest = hashlib.blake2b(digest_size=16)
        digest.update(self._num_nodes.to_bytes(8, "little"))
        for array in self._csr:
            digest.update(array.tobytes())
        return digest.digest()

    def rate(self, i: int, j: int) -> float:
        """λᵢⱼ; zero when the pair has never been observed in contact."""
        row = self._adjacency[i]
        k = bisect_left(row, j)
        if k < len(row) and row[k] == j:
            return self._csr[2].item(self._row_start[i] + k)
        return 0.0

    @property
    def rates(self) -> np.ndarray:
        """Read-only view of the symmetric rate matrix, for small graphs.

        Built from the CSR arrays on first use.  Writes
        (``graph.rates[i, j] = x``) raise ``ValueError``, and the view
        cannot be made writeable.  Refused above
        :data:`DENSE_NODE_THRESHOLD` nodes — consumers of large graphs
        go through :meth:`csr_rates`.
        """
        if self._num_nodes > DENSE_NODE_THRESHOLD:
            raise ConfigurationError(
                f"refusing to materialise a dense {self._num_nodes}x"
                f"{self._num_nodes} matrix; use csr_rates()/neighbors() instead"
            )
        return self._dense_view.view()

    @cached_property
    def _dense_view(self) -> np.ndarray:
        indptr, indices, data = self._csr
        dense = np.zeros((self._num_nodes, self._num_nodes))
        dense[np.repeat(np.arange(self._num_nodes), np.diff(indptr)), indices] = data
        dense.flags.writeable = False
        return dense

    def aggregate_rates(self) -> np.ndarray:
        """Per-node sum of incident contact rates (social hubness).

        One reduction over the CSR rows, computed once per graph and
        returned read-only.
        """
        return self._aggregate

    @cached_property
    def _aggregate(self) -> np.ndarray:
        indptr, _indices, data = self._csr
        aggregate = np.zeros(self._num_nodes)
        if data.size:
            nonempty = np.diff(indptr) > 0
            aggregate[nonempty] = np.add.reduceat(data, indptr[:-1][nonempty])
        aggregate.flags.writeable = False
        return aggregate

    def csr_rates(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The symmetric rate structure as read-only CSR arrays
        ``(indptr, indices, data)`` — the graph's own storage.

        Only positive rates are stored.  Column indices are ascending
        within each row — the same neighbor order :meth:`neighbors`
        reports and the reference Dijkstra iterates, so sparse sweeps
        relax edges in exactly the oracle's order.
        """
        return self._csr

    def neighbors(self, i: int) -> Tuple[int, ...]:
        """Nodes with a positive contact rate to *i*, ascending.

        Returns the adjacency tuple itself (no per-call copy — this sits
        on the simulator's Dijkstra hot path); tuples are immutable, so
        sharing is safe.
        """
        return self._adjacency[i]

    @cached_property
    def _adjacency(self) -> Tuple[Tuple[int, ...], ...]:
        columns = self._csr[1].tolist()
        bounds = self._row_start
        return tuple(
            tuple(columns[start:stop]) for start, stop in zip(bounds, bounds[1:])
        )

    @cached_property
    def _row_start(self) -> List[int]:
        return self._csr[0].tolist()

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """All positive-rate edges as (i, j, λ) with i < j, ordered."""
        indptr, indices, data = self._csr
        rows = np.repeat(np.arange(self._num_nodes), np.diff(indptr))
        upper = rows < indices
        return zip(rows[upper].tolist(), indices[upper].tolist(), data[upper].tolist())

    @property
    def num_edges(self) -> int:
        return self._csr[2].size // 2

    def degree(self, i: int) -> int:
        return len(self._adjacency[i])

    def mean_degree(self) -> float:
        return 2.0 * self.num_edges / self._num_nodes if self._num_nodes else 0.0

    def expected_intercontact(self, i: int, j: int) -> float:
        """E[inter-contact time] = 1/λᵢⱼ, or +inf for unconnected pairs."""
        rate = self.rate(i, j)
        return 1.0 / rate if rate > 0 else float("inf")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ContactGraph(nodes={self._num_nodes}, edges={self.num_edges}, "
            f"sparse={self.is_sparse})"
        )
