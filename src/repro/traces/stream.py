"""Bounded-memory contact streams (scale-out trace layer).

:class:`~repro.traces.contact.ContactTrace` materialises every contact
as a python object up front — fine for the paper's Table I traces
(tens of thousands of contacts), fatal at 10⁵ nodes where a trace holds
millions.  A :class:`ContactStream` is the lazy counterpart: declared
metadata (node count, time extent) plus a replayable, time-sorted
iterator of :class:`~repro.traces.contact.Contact` records.  The
simulator feeds itself one contact ahead from any trace, so with a
stream peak memory is one in-flight contact regardless of trace length,
and the event order — hence every result — is identical to the
materialised trace's (contacts arrive in the same sorted order; see
``Simulator._warmup``).

``materialize()`` is the explicit escape hatch back to a
:class:`ContactTrace` for consumers that genuinely need random access
(serve-mode replay, Table I reporting).  It is deliberately a method
call, not an implicit conversion, so an accidental O(contacts)
materialisation cannot hide in an innocent-looking expression.

:class:`StreamingTrace` adapts any replayable iterator factory and lazily
validates the stream contract (sorted starts, node ids in range) as
contacts flow; :func:`stream_synthetic_contacts` generates the sparse
large-scale synthetic workload window by window without ever holding
more than one window of contacts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Protocol, runtime_checkable

import numpy as np

from repro.errors import ConfigurationError, TraceConsistencyError
from repro.rng import SeedSequenceFactory
from repro.traces.contact import Contact, ContactTrace

__all__ = [
    "ContactStream",
    "StreamingTrace",
    "SparseSyntheticConfig",
    "stream_synthetic_contacts",
]


@runtime_checkable
class ContactStream(Protocol):
    """Time-sorted, replayable, bounded-memory source of contacts.

    Both :class:`ContactTrace` and :class:`StreamingTrace` satisfy this
    protocol; code that only replays (the simulator's main path) should
    accept it rather than the concrete trace class.
    """

    @property
    def name(self) -> str: ...

    @property
    def num_nodes(self) -> int: ...

    @property
    def granularity(self) -> float: ...

    @property
    def start_time(self) -> float: ...

    @property
    def end_time(self) -> float: ...

    def __iter__(self) -> Iterator[Contact]: ...

    def materialize(self) -> ContactTrace: ...


@dataclass(frozen=True)
class StreamingTrace:
    """A :class:`ContactStream` over a replayable iterator factory.

    ``factory`` must return a *fresh* iterator on every call (each
    simulator phase re-iterates from the start); generators themselves
    are single-shot, so pass the generator *function*, not a generator
    object.  Contacts must be yielded sorted by
    ``(start, end, node_a, node_b)`` — the iteration wrapper enforces
    non-decreasing start times and in-range node ids lazily, failing at
    the offending contact instead of pre-scanning.
    """

    name: str
    num_nodes: int
    start_time: float
    end_time: float
    factory: Callable[[], Iterable[Contact]]
    granularity: float = 0.0

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ConfigurationError("a stream needs at least one node")
        if self.end_time < self.start_time:
            raise ConfigurationError("stream ends before it starts")

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    def __iter__(self) -> Iterator[Contact]:
        previous = float("-inf")
        for contact in self.factory():
            if contact.start < previous:
                raise TraceConsistencyError(
                    f"stream {self.name!r} is not time-sorted: contact at "
                    f"{contact.start} after {previous}"
                )
            if contact.node_b >= self.num_nodes:
                raise TraceConsistencyError(
                    f"stream {self.name!r} references node {contact.node_b} "
                    f">= num_nodes {self.num_nodes}"
                )
            previous = contact.start
            yield contact

    def materialize(self) -> ContactTrace:
        """Collect the full stream into a :class:`ContactTrace`.

        O(contacts) memory — the one thing streams exist to avoid — so
        callers must opt in explicitly.
        """
        return ContactTrace(
            list(self),
            num_nodes=self.num_nodes,
            granularity=self.granularity,
            name=self.name,
            # Carry the declared window: rate estimation divides by the
            # trace extent, so deriving it from the contacts instead
            # would silently shift every λ versus the streamed run.
            start_time=self.start_time,
            end_time=self.end_time,
        )


# --- sparse large-scale synthetic stream ----------------------------------


@dataclass(frozen=True)
class SparseSyntheticConfig:
    """Sparse-topology synthetic workload for 10⁵-node runs.

    The dense generator draws a rate for all N(N−1)/2 pairs — quadratic
    work and memory that caps it near a few thousand nodes.  Here the
    contact topology is an explicit sparse graph: each node meets its
    ``ring_neighbors`` nearest ring neighbours (locality: labs, homes)
    plus ``shortcut_neighbors`` random long-range acquaintances, for an
    expected degree of ``ring_neighbors + 2·shortcut_neighbors``; edge
    count, and hence memory, is O(N · degree).  Per-edge Poisson contact
    processes then scale so the expected contact total matches
    ``total_contacts``, exactly like the dense generator.

    Attributes mirror :class:`~repro.traces.synthetic.SyntheticTraceConfig`
    where they overlap; ``window`` is the generation slice in seconds —
    contacts are drawn and sorted one window at a time, bounding live
    memory to one window's contacts plus the O(E) edge arrays.
    """

    name: str
    num_nodes: int
    duration: float
    total_contacts: int
    granularity: float
    ring_neighbors: int = 8
    shortcut_neighbors: int = 4
    mean_contact_duration: Optional[float] = None
    activity_sigma: float = 1.0
    window: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_nodes < 3:
            raise ConfigurationError("sparse stream needs at least three nodes")
        if self.duration <= 0:
            raise ConfigurationError("duration must be positive")
        if self.total_contacts < 1:
            raise ConfigurationError("total_contacts must be >= 1")
        if self.granularity <= 0:
            raise ConfigurationError("granularity must be positive")
        if self.ring_neighbors < 2 or self.ring_neighbors % 2:
            raise ConfigurationError("ring_neighbors must be even and >= 2")
        if self.shortcut_neighbors < 0:
            raise ConfigurationError("shortcut_neighbors must be >= 0")
        if self.activity_sigma <= 0:
            raise ConfigurationError("activity_sigma must be positive")
        if self.window is not None and self.window <= 0:
            raise ConfigurationError("window must be positive")
        if self.mean_contact_duration is not None and self.mean_contact_duration <= 0:
            raise ConfigurationError("mean_contact_duration must be positive")

    @property
    def effective_mean_contact_duration(self) -> float:
        if self.mean_contact_duration is not None:
            return self.mean_contact_duration
        return 2.5 * self.granularity

    @property
    def effective_window(self) -> float:
        """Default window: 1/64 of the trace (≥ one granularity tick)."""
        if self.window is not None:
            return self.window
        return max(self.duration / 64.0, self.granularity)


def _sparse_edges(config: SparseSyntheticConfig, rng: np.random.Generator):
    """Canonical (a, b, intensity) edge arrays of the sparse topology.

    Ring edges connect each node to its ``ring_neighbors/2`` successors;
    shortcuts are drawn uniformly (duplicates collapse — a repeat draw
    just leaves the edge count slightly below nominal).  Intensities are
    activity-weight products, like the dense generator's pair law.
    """
    n = config.num_nodes
    sigma = config.activity_sigma
    weights = rng.lognormal(mean=-0.5 * sigma * sigma, sigma=sigma, size=n)
    weights /= weights.mean()

    half = config.ring_neighbors // 2
    ring_a = np.repeat(np.arange(n, dtype=np.int64), half)
    ring_b = (ring_a + np.tile(np.arange(1, half + 1, dtype=np.int64), n)) % n
    pairs = {(min(int(a), int(b)), max(int(a), int(b))) for a, b in zip(ring_a, ring_b)}
    if config.shortcut_neighbors:
        src = np.repeat(np.arange(n, dtype=np.int64), config.shortcut_neighbors)
        dst = rng.integers(0, n, size=len(src), dtype=np.int64)
        for a, b in zip(src, dst):
            if a != b:
                pairs.add((min(int(a), int(b)), max(int(a), int(b))))
    edge_a = np.fromiter((p[0] for p in sorted(pairs)), dtype=np.int64, count=len(pairs))
    edge_b = np.fromiter((p[1] for p in sorted(pairs)), dtype=np.int64, count=len(pairs))
    intensity = weights[edge_a] * weights[edge_b]
    return edge_a, edge_b, intensity


def stream_synthetic_contacts(config: SparseSyntheticConfig) -> StreamingTrace:
    """Windowed bounded-memory stream of the sparse synthetic workload.

    Deterministic and replayable: the topology comes from one named RNG
    stream and every window draws from its own window-indexed stream, so
    re-iteration (or a resumed run) regenerates identical contacts
    without storing any.
    """
    factory = SeedSequenceFactory(config.seed)
    edge_a, edge_b, intensity = _sparse_edges(
        config, factory.generator("trace", config.name, "topology")
    )
    # Per-edge Poisson rate (contacts/second), scaled to the target total.
    edge_rate = intensity * (
        config.total_contacts / (intensity.sum() * config.duration)
    )
    window = config.effective_window
    num_windows = int(np.ceil(config.duration / window))
    mean_duration = config.effective_mean_contact_duration

    def generate() -> Iterator[Contact]:
        for w in range(num_windows):
            w_start = w * window
            w_end = min(w_start + window, config.duration)
            span = w_end - w_start
            if span <= 0:
                continue
            rng = factory.generator("trace", config.name, "window", str(w))
            counts = rng.poisson(edge_rate * span)
            hot = np.nonzero(counts)[0]
            if not len(hot):
                continue
            total = int(counts[hot].sum())
            starts = w_start + rng.uniform(0.0, span, size=total)
            durations = np.maximum(
                config.granularity, rng.exponential(mean_duration, size=total)
            )
            ends = np.minimum(starts + durations, config.duration)
            a = np.repeat(edge_a[hot], counts[hot])
            b = np.repeat(edge_b[hot], counts[hot])
            order = np.lexsort((b, a, ends, starts))
            for p in order:
                yield Contact(
                    float(starts[p]), float(ends[p]), int(a[p]), int(b[p])
                )

    return StreamingTrace(
        name=config.name,
        num_nodes=config.num_nodes,
        start_time=0.0,
        end_time=config.duration,
        factory=generate,
        granularity=config.granularity,
    )
