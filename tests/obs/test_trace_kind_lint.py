"""The trace-kind lint: naming grammar and replay coverage.

The lifecycle trace's event vocabulary grew in two eras: the original
kinds are bare ``snake_case`` values (``query_created``,
``response_delivered``, …) while every kind added since (network
dynamics, push custody) uses the dotted ``<namespace>.<event>`` grammar
(``node.failed``, ``cache.migrated``, ``push.forwarded``).  Both are
valid on disk forever — traces are archives — but the split must stay
*frozen*: no new bare snake_case kinds (the legacy set is closed), and
every dotted kind must follow the grammar with a matching member name.

The coverage rule protects the replay: :func:`repro.obs.causality.
build_causality` skips :data:`IGNORED_KINDS` and dispatches on
:data:`HANDLED_KINDS`, so a kind in neither set would fall through
every branch and be dropped silently — a chain with missing hops or a
metric with missing events, and no error.
"""

import re

from repro.obs.causality import HANDLED_KINDS, IGNORED_KINDS
from repro.obs.events import TraceEventKind

#: The closed set of pre-grammar kinds.  Frozen: additions to the enum
#: must use the dotted grammar, never extend this list.
LEGACY_SNAKE_KINDS = frozenset(
    {
        "data_generated",
        "push_completed",
        "data_expired",
        "query_created",
        "query_observed",
        "response_decided",
        "response_emitted",
        "response_forwarded",
        "response_delivered",
        "query_satisfied",
        "route_decision",
        "exchange",
        "sample",
    }
)

#: Dotted grammar for every newer kind: lowercase namespace, dot,
#: lowercase snake_case event (``node.failed``, ``push.forwarded``).
DOTTED_GRAMMAR = re.compile(r"^[a-z]+(\.[a-z]+(_[a-z]+)*)+$")

#: The registered first-segment namespaces of the dotted grammar.  A new
#: kind in an existing namespace just works; a new *namespace* must be
#: added here deliberately (one line, reviewed), so a typo'd prefix
#: (``slos.violated``) can't slip in as a fresh namespace unnoticed.
KNOWN_NAMESPACES = frozenset(
    {
        "push",        # custody of push copies
        "node",        # churn: joins, departures, failures
        "ncl",         # central-node re-election
        "cache",       # cached-copy migration
        "delivery",    # duplicate/late delivery classification
        "slo",         # live-health SLO state edges
        "health",      # anomaly detector firings
        "workload",    # workload announcements (flash-crowd window)
        "memory",      # footprint telemetry (RSS/heap/attribution samples)
    }
)


def test_new_kinds_use_the_dotted_grammar():
    offenders = [
        member.value
        for member in TraceEventKind
        if member.value not in LEGACY_SNAKE_KINDS
        and not DOTTED_GRAMMAR.match(member.value)
    ]
    assert offenders == [], (
        "new kinds must use the dotted grammar `namespace.event` "
        "(the legacy snake_case set is closed)"
    )


def test_member_names_mirror_values():
    # Member name = value upper-cased with dots as underscores.
    for member in TraceEventKind:
        assert member.name == member.value.replace(".", "_").upper(), member.value


def test_legacy_set_matches_the_enum():
    # The frozen list stays in sync with the enum: every legacy value is
    # a real kind, and no dotted kind snuck into the legacy set.
    values = {member.value for member in TraceEventKind}
    assert LEGACY_SNAKE_KINDS <= values
    assert all("." not in value for value in LEGACY_SNAKE_KINDS)


def test_dotted_grammar_accepts_and_rejects():
    assert DOTTED_GRAMMAR.match("node.failed")
    assert DOTTED_GRAMMAR.match("cache.migrated")
    assert DOTTED_GRAMMAR.match("push.forwarded_again")
    assert not DOTTED_GRAMMAR.match("bare_snake")
    assert not DOTTED_GRAMMAR.match("Upper.case")
    assert not DOTTED_GRAMMAR.match("trailing.")
    assert not DOTTED_GRAMMAR.match("double..dot")


def test_every_dotted_kind_uses_a_registered_namespace():
    for member in TraceEventKind:
        if "." not in member.value:
            continue
        namespace = member.value.split(".", 1)[0]
        assert namespace in KNOWN_NAMESPACES, member.value


def test_namespace_check_catches_unregistered_prefix():
    # Sanity: the checker would actually flag a typo'd namespace.
    assert "slos" not in KNOWN_NAMESPACES
    assert {"slo", "health", "workload"} <= KNOWN_NAMESPACES


def test_parser_coverage_is_exhaustive_and_disjoint():
    assert HANDLED_KINDS | IGNORED_KINDS == set(TraceEventKind)
    assert not HANDLED_KINDS & IGNORED_KINDS
