"""Declarative run descriptions: one frozen, JSON-round-trippable spec.

A :class:`ScenarioSpec` names everything that determines a run — the
trace source, the workload, the scheme, the network-dynamics schedule,
and the run knobs — with each name resolving through the registries of
:mod:`repro.scenario.registry`.  A spec is:

* **frozen and picklable** — it travels into process-pool workers;
* **JSON-round-trippable** — ``ScenarioSpec.from_json(spec.to_json())``
  is the identity, so scenario files are first-class run inputs
  (``python -m repro simulate --scenario examples/churn.json``);
* **provenance-hashable** — :meth:`provenance_config` is the canonical
  dict fed to :func:`repro.obs.provenance.build_manifest`, with the
  per-invocation seed excluded so the hash identifies the experiment.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

from repro.errors import ConfigurationError
from repro.sim.dynamics import DynamicsConfig
from repro.workload.config import WorkloadConfig

__all__ = ["TraceSpec", "SchemeSpec", "RunSpec", "ScenarioSpec"]


def _clean(record: Dict[str, Any]) -> Dict[str, Any]:
    """Drop ``None`` values so serialized specs stay minimal."""
    return {key: value for key, value in record.items() if value is not None}


@dataclass(frozen=True)
class TraceSpec:
    """Which contact trace to run on, resolved via ``TRACE_SOURCES``.

    ``name`` is a registered trace-source name (the Table I presets by
    default); ``seed`` drives the synthetic generator, and the factors
    scale the trace down while preserving contact density.
    """

    name: str = "mit_reality"
    seed: int = 1
    node_factor: float = 1.0
    time_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.node_factor <= 0 or self.time_factor <= 0:
            raise ConfigurationError("trace scale factors must be positive")

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "TraceSpec":
        return cls(**dict(record))


@dataclass(frozen=True)
class SchemeSpec:
    """Which caching scheme to run, resolved via ``SCHEMES``.

    The NCL knobs only matter for the intentional scheme; baselines
    ignore them.  ``ncl_time_budget`` of ``None`` means "the trace
    preset's published T when running on a preset, otherwise the
    adaptive calibration of Sec. IV-B".
    """

    name: str = "intentional"
    num_ncls: int = 5
    ncl_time_budget: Optional[float] = None
    response_strategy: str = "sigmoid"
    selection_strategy: str = "metric"
    reelect: bool = False
    #: k for the sparse k-NN NCL metric; ``None`` keeps the exact dense
    #: metric on dense graphs (sparse graphs default to DEFAULT_KNN_K)
    knn_k: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_ncls < 1:
            raise ConfigurationError("num_ncls must be >= 1")
        if self.ncl_time_budget is not None and self.ncl_time_budget <= 0:
            raise ConfigurationError("ncl_time_budget must be positive")
        if self.knn_k is not None and self.knn_k < 1:
            raise ConfigurationError("knn_k must be >= 1")

    def to_dict(self) -> Dict[str, Any]:
        return _clean(dataclasses.asdict(self))

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "SchemeSpec":
        return cls(**dict(record))


@dataclass(frozen=True)
class RunSpec:
    """Run-level knobs: seeding, repetition, and simulator settings."""

    seed: int = 7
    repeat: int = 1
    graph_refresh_period: Optional[float] = None
    sample_period: Optional[float] = None
    profile: bool = False
    timeseries: bool = False
    validate_invariants: bool = False
    #: the contact graph's ``sparse`` flag (k-NN NCL metric): True/False
    #: force it, ``None`` sets it by node count (the scale-out path)
    sparse_graph: Optional[bool] = None
    #: sample RSS/heap/per-subsystem bytes at each telemetry boundary
    #: (measurement-only: excluded from the provenance hash)
    mem_profile: bool = False

    def __post_init__(self) -> None:
        if self.repeat < 1:
            raise ConfigurationError("repeat must be >= 1")

    @property
    def seeds(self) -> List[int]:
        """The root seeds of the repetitions: seed .. seed + repeat - 1."""
        return list(range(self.seed, self.seed + self.repeat))

    def to_dict(self) -> Dict[str, Any]:
        return _clean(dataclasses.asdict(self))

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "RunSpec":
        return cls(**dict(record))


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete, self-describing run configuration."""

    trace: TraceSpec = TraceSpec()
    scheme: SchemeSpec = SchemeSpec()
    workload: WorkloadConfig = WorkloadConfig()
    run: RunSpec = RunSpec()
    dynamics: DynamicsConfig = DynamicsConfig()
    name: Optional[str] = None

    # --- serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "trace": self.trace.to_dict(),
            "scheme": self.scheme.to_dict(),
            "workload": dataclasses.asdict(self.workload),
            "run": self.run.to_dict(),
        }
        if self.dynamics:
            record["dynamics"] = self.dynamics.to_dict()
        if self.name is not None:
            record["name"] = self.name
        return record

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "ScenarioSpec":
        return cls(
            trace=TraceSpec.from_dict(record.get("trace", {})),
            scheme=SchemeSpec.from_dict(record.get("scheme", {})),
            workload=WorkloadConfig(**record.get("workload", {})),
            run=RunSpec.from_dict(record.get("run", {})),
            dynamics=DynamicsConfig.from_dict(record.get("dynamics", {})),
            name=record.get("name"),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        try:
            record = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid scenario JSON: {exc}") from None
        if not isinstance(record, dict):
            raise ConfigurationError("scenario JSON must be an object")
        return cls.from_dict(record)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "ScenarioSpec":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    # --- provenance ------------------------------------------------------

    def provenance_config(self) -> Dict[str, Any]:
        """The hashable experiment identity: the spec minus invocation
        detail (the root seed and repetition count vary between
        invocations of the *same* experiment; the manifest records the
        actual seeds separately)."""
        record = self.to_dict()
        run = dict(record["run"])
        run.pop("seed", None)
        run.pop("repeat", None)
        # Memory profiling observes the process; it cannot change the
        # frozen results, so it is invocation detail, not identity.
        run.pop("mem_profile", None)
        record["run"] = run
        return {"scenario": record}
