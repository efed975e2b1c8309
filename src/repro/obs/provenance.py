"""Run provenance: which exact configuration produced a result.

A :func:`build_manifest` call captures everything needed to reproduce
or audit a run:

* ``config`` — the run's deterministic inputs (trace, workload, scheme,
  simulator settings) as passed in by the caller;
* ``config_hash`` — sha256 over the canonical JSON of that config, so
  two runs with identical inputs hash identically regardless of dict
  ordering, and any drift in inputs is immediately visible;
* ``seeds`` — the root seeds of every repetition;
* ``git`` — current revision and dirty flag (best-effort: absent when
  not in a git checkout);
* ``slo_rules`` — the live-health SLO rules a serve run monitored
  (observation detail: rules never influence the simulation, so they
  sit outside the hashed config; absent when none were set);
* ``packages`` — versions of the scientific stack actually imported;
* ``platform`` — python version, implementation, OS.

Output paths, timestamps and host identity are deliberately excluded
from the hashed config: the hash identifies the *experiment*, not the
invocation, so re-running the same experiment elsewhere (or writing its
outputs to a different directory) yields the same ``config_hash``.
"""

from __future__ import annotations

import hashlib
import json
import platform
import subprocess
import sys
from typing import Any, Dict, Iterable, Mapping, Optional

__all__ = [
    "canonical_json",
    "config_hash",
    "build_manifest",
    "write_manifest",
    "read_manifest",
]

#: packages whose versions materially affect numeric results
_TRACKED_PACKAGES = ("numpy", "scipy", "networkx")


def canonical_json(value: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, NaN rejected."""
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def config_hash(config: Mapping[str, Any]) -> str:
    """sha256 of the canonical JSON encoding of *config*."""
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()


def _git_info() -> Optional[Dict[str, Any]]:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True,
            text=True,
            timeout=5,
            check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    return {"revision": rev, "dirty": bool(status.strip())}


def _package_versions() -> Dict[str, str]:
    versions: Dict[str, str] = {}
    for name in _TRACKED_PACKAGES:
        module = sys.modules.get(name)
        if module is None:
            try:
                module = __import__(name)
            except ImportError:
                continue
        versions[name] = str(getattr(module, "__version__", "unknown"))
    return versions


def build_manifest(
    config: Mapping[str, Any],
    seeds: Iterable[int],
    slo_rules: Optional[Iterable[Any]] = None,
) -> Dict[str, Any]:
    """Assemble a run manifest (see module docstring for the fields)."""
    config = dict(config)
    manifest = {
        "config": config,
        "config_hash": config_hash(config),
        "seeds": sorted(int(seed) for seed in seeds),
        "git": _git_info(),
        "packages": _package_versions(),
        "platform": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "system": platform.system(),
            "machine": platform.machine(),
        },
    }
    if slo_rules:
        # Observation detail: SLO rules watch the run without touching
        # it, so — like packages and platform — they are stamped outside
        # the hashed config for auditability.
        manifest["slo_rules"] = [
            rule.to_dict() if hasattr(rule, "to_dict") else dict(rule)
            for rule in slo_rules
        ]
    return manifest


def write_manifest(manifest: Mapping[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def read_manifest(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
