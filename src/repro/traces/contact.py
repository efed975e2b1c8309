"""In-memory model of a contact trace.

A *contact* is an interval during which two devices can exchange data
(paper Sec. IV-B: Bluetooth sightings, or association to the same WiFi
AP).  A *trace* is a time-sorted list of contacts over a fixed node set.

Node contacts are symmetric (paper Sec. III-B), so each contact is stored
once with ``node_a < node_b`` canonical ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import TraceConsistencyError

__all__ = ["Contact", "ContactTrace"]


@dataclass(frozen=True, order=True)
class Contact:
    """One pairwise contact interval.

    Ordering is by ``(start, end, node_a, node_b)``, which makes a sorted
    list of contacts replayable as a discrete-event stream.
    """

    start: float
    end: float
    node_a: int
    node_b: int

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise TraceConsistencyError(
                f"contact ends before it starts: [{self.start}, {self.end}]"
            )
        if self.node_a == self.node_b:
            raise TraceConsistencyError(f"self-contact at node {self.node_a}")
        if self.node_a > self.node_b:
            # Canonicalise so the undirected pair has one representation.
            low, high = self.node_b, self.node_a
            object.__setattr__(self, "node_a", low)
            object.__setattr__(self, "node_b", high)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def pair(self) -> Tuple[int, int]:
        return (self.node_a, self.node_b)

    def involves(self, node: int) -> bool:
        return node == self.node_a or node == self.node_b

    def peer_of(self, node: int) -> int:
        if node == self.node_a:
            return self.node_b
        if node == self.node_b:
            return self.node_a
        raise ValueError(f"node {node} is not part of contact {self}")


class ContactTrace:
    """A time-sorted collection of :class:`Contact` records.

    Parameters
    ----------
    contacts:
        Contact records in any order; stored sorted by start time.
    num_nodes:
        Total number of devices.  If omitted, inferred as
        ``max(node id) + 1``.
    granularity:
        Sampling period of the original collection (seconds); affects only
        reporting (Table I), not simulation.
    name:
        Human-readable trace name for reports.
    start_time / end_time:
        Declared observation window.  If omitted, derived from the first
        contact's start and the last contact's end — the historical
        behaviour for the Table I traces.  Streams declare their window
        up front, and ``materialize()`` passes it through so rate
        estimation sees the same elapsed time either way.
    """

    def __init__(
        self,
        contacts: Iterable[Contact],
        num_nodes: Optional[int] = None,
        granularity: float = 0.0,
        name: str = "unnamed",
        start_time: Optional[float] = None,
        end_time: Optional[float] = None,
    ):
        self._contacts: List[Contact] = sorted(contacts)
        derived_start = derived_end = 0.0
        if self._contacts:
            derived_start = self._contacts[0].start
            derived_end = max(c.end for c in self._contacts)
            if start_time is not None and start_time > derived_start:
                raise TraceConsistencyError(
                    f"declared start {start_time} is after the first "
                    f"contact at {derived_start}"
                )
            if end_time is not None and end_time < derived_end:
                raise TraceConsistencyError(
                    f"declared end {end_time} precedes the last contact "
                    f"ending at {derived_end}"
                )
        # The contact list never changes after construction, so the
        # window is fixed here.
        self._start_time = derived_start if start_time is None else float(start_time)
        self._end_time = derived_end if end_time is None else float(end_time)
        if num_nodes is None:
            if not self._contacts:
                raise TraceConsistencyError("empty trace requires explicit num_nodes")
            num_nodes = 1 + max(max(c.node_a, c.node_b) for c in self._contacts)
        for contact in self._contacts:
            if contact.node_b >= num_nodes:
                raise TraceConsistencyError(
                    f"contact references node {contact.node_b} "
                    f">= num_nodes {num_nodes}"
                )
        self._num_nodes = int(num_nodes)
        self._granularity = float(granularity)
        self._name = name

    # --- basic accessors ----------------------------------------------

    @property
    def name(self) -> str:
        return self._name

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def granularity(self) -> float:
        return self._granularity

    @property
    def num_contacts(self) -> int:
        return len(self._contacts)

    @property
    def contacts(self) -> Sequence[Contact]:
        return tuple(self._contacts)

    @property
    def start_time(self) -> float:
        return self._start_time

    @property
    def end_time(self) -> float:
        return self._end_time

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    def nodes(self) -> range:
        return range(self._num_nodes)

    def materialize(self) -> "ContactTrace":
        """Already materialised — self.  (:class:`repro.traces.stream.
        ContactStream` conformance, so trace and stream interchange.)"""
        return self

    def __len__(self) -> int:
        return len(self._contacts)

    def __iter__(self) -> Iterator[Contact]:
        return iter(self._contacts)

    # --- derived views ---------------------------------------------------

    def pair_contact_counts(self) -> Dict[Tuple[int, int], int]:
        """Number of contacts per (canonical) node pair."""
        counts: Dict[Tuple[int, int], int] = {}
        for contact in self._contacts:
            counts[contact.pair] = counts.get(contact.pair, 0) + 1
        return counts

    def contacts_in_window(self, start: float, end: float) -> List[Contact]:
        """Contacts whose start time lies in [start, end)."""
        return [c for c in self._contacts if start <= c.start < end]

    def slice(self, start: float, end: float, name: Optional[str] = None) -> "ContactTrace":
        """Sub-trace of contacts starting within [start, end)."""
        return ContactTrace(
            self.contacts_in_window(start, end),
            num_nodes=self._num_nodes,
            granularity=self._granularity,
            name=name or f"{self._name}[{start:.0f},{end:.0f})",
        )

    def split_halves(self) -> Tuple["ContactTrace", "ContactTrace"]:
        """Warm-up / evaluation halves, per the paper's setup (Sec. VI-A).

        The first half accumulates contact-rate information and drives NCL
        selection; data and queries are generated only in the second half.
        """
        midpoint = self.start_time + self.duration / 2.0
        return (
            self.slice(self.start_time, midpoint, name=f"{self._name}:warmup"),
            self.slice(midpoint, self.end_time + 1.0, name=f"{self._name}:eval"),
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ContactTrace(name={self._name!r}, nodes={self._num_nodes}, "
            f"contacts={len(self._contacts)}, duration={self.duration:.0f}s)"
        )
