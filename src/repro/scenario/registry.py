"""Name-based registries for the pluggable pieces of a scenario.

Every part of a run that a :class:`~repro.scenario.spec.ScenarioSpec`
names — the caching scheme, the trace source, a response strategy, a
router — resolves through one of these registries.  The registries are
the single source of truth for "what can a scenario file say": the CLI
lists them (``--list-schemes``), builders resolve through them, and
``tests/scenario/test_registry_lint.py`` asserts every registered name
is smoke tested and round-trips through scenario JSON.

Registration order is preserved (it defines CLI/compare ordering), and
extensions register their own entries::

    from repro.scenario import SCHEMES

    @SCHEMES.register("myscheme")
    def _build_myscheme(spec, ncl_time_budget, replacement):
        return MyScheme()
"""

from __future__ import annotations

from repro.core.response import AlwaysRespond, PathAwareResponse, SigmoidResponse
from repro.registry import Registry
from repro.routing import (
    DirectDeliveryRouter,
    EpidemicRouter,
    GradientRouter,
    ProphetRouter,
    RateGradientRouter,
    SprayAndWaitRouter,
)
from repro.traces.catalog import (
    STREAM_PRESETS,
    TRACE_PRESETS,
    load_preset_trace,
    load_stream_trace,
)

__all__ = [
    "Registry",
    "SCHEMES",
    "ROUTERS",
    "RESPONSE_STRATEGIES",
    "TRACE_SOURCES",
]


#: scheme name → builder ``(SchemeSpec, ncl_time_budget, replacement) -> CachingScheme``
#: (entries are registered by :mod:`repro.scenario.build` to avoid import cycles)
SCHEMES: Registry = Registry("scheme")

#: router name → router class (the DTN forwarding primitives)
ROUTERS: Registry = Registry("router")
ROUTERS.register("gradient", GradientRouter)
ROUTERS.register("rate_gradient", RateGradientRouter)
ROUTERS.register("epidemic", EpidemicRouter)
ROUTERS.register("direct", DirectDeliveryRouter)
ROUTERS.register("prophet", ProphetRouter)
ROUTERS.register("spray", SprayAndWaitRouter)

#: response-strategy name → class (Sec. V-C decision rules)
RESPONSE_STRATEGIES: Registry = Registry("response strategy")
RESPONSE_STRATEGIES.register("sigmoid", SigmoidResponse)
RESPONSE_STRATEGIES.register("path_aware", PathAwareResponse)
RESPONSE_STRATEGIES.register("always", AlwaysRespond)

#: trace-source name → loader ``(TraceSpec) -> ContactTrace``
TRACE_SOURCES: Registry = Registry("trace source")


def _register_presets() -> None:
    for key in TRACE_PRESETS:

        def _load(spec, _key: str = key):
            return load_preset_trace(
                _key,
                seed=spec.seed,
                node_factor=spec.node_factor,
                time_factor=spec.time_factor,
            )

        TRACE_SOURCES.register(key, _load)

    # Scale-out streaming sources: resolve to a lazy StreamingTrace
    # (bounded memory); the simulator feeds itself one contact ahead.
    for key in STREAM_PRESETS:

        def _load_stream(spec, _key: str = key):
            return load_stream_trace(
                _key,
                seed=spec.seed,
                node_factor=spec.node_factor,
                time_factor=spec.time_factor,
            )

        TRACE_SOURCES.register(key, _load_stream)


_register_presets()
