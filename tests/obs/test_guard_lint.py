"""The obs-guard AST lint: every observability hook site reads ``enabled``.

The zero-overhead contract (DESIGN.md Observability) demands that hot
code *never* constructs a :class:`TraceEvent`, opens a profiler span, or
records a time-series sample without first reading the instrument's
``enabled`` attribute — the disabled path must cost one attribute read.
The lint walks the AST of every module under ``src/repro`` (the
``repro.obs`` package itself excluded — it implements the instruments)
and flags hook sites with no reachable ``.enabled`` guard.

Hook sites checked:

* ``TraceEvent(...)`` constructions and ``<recv>.emit(...)`` calls,
* ``<prof>.span(...)`` / ``<prof>.add(...)`` / ``<prof>.start(...)``
  calls on profiler-named receivers,
* ``<...timeseries...>.record(...)`` sampler calls,
* ``<...memory...>.sample(...)`` memory-monitor calls.

A site counts as guarded when an ``if``/ternary test reading
``.enabled`` **on a receiver of the same instrument family** (trace
hooks want a recorder-ish receiver, profiler hooks a profiler-ish one,
sampler hooks a sampler-ish one) appears in its enclosing-function
chain at or before the site's line.  The family match prevents a
profiler guard from silently "covering" a trace emit in the same
function.  That deliberately accepts the *creation-time* guard pattern
(``route_observer`` returns ``None`` unless
``services.recorder.enabled``, so the closure it builds only ever runs
enabled) alongside the common inline ``if prof.enabled:`` form.

The rule is :func:`_unguarded_hooks`, so the tests below can also feed
it synthetic modules and prove it fires.
"""

import ast
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
SOURCE_ROOT = REPO_ROOT / "src" / "repro"

#: The instruments package defines the hooks; it cannot guard itself.
EXCLUDED_PARTS = ("obs",)

TRACE_HINTS = ("recorder", "trace", "recording")
PROFILER_HINTS = ("prof", "profiler")
SAMPLER_HINTS = ("timeseries", "sampler")
MEMORY_HINTS = ("memory",)

#: hook family → receiver hints an ``.enabled`` guard must match
FAMILY_HINTS = {
    "trace": TRACE_HINTS,
    "profiler": PROFILER_HINTS,
    "sampler": SAMPLER_HINTS,
    "memory": MEMORY_HINTS,
}


def _dotted(node):
    """Best-effort dotted source of a receiver expression, lowercased."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts)).lower()


def _hook_name(call):
    """``(hook, family)`` for a hook call site, or None if not one."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "TraceEvent":
        return "TraceEvent(...)", "trace"
    if not isinstance(func, ast.Attribute):
        return None
    receiver = _dotted(func.value)
    if func.attr == "emit":
        return f"{receiver}.emit(...)", "trace"
    if func.attr in ("span", "add", "start") and any(
        hint in receiver for hint in PROFILER_HINTS
    ):
        return f"{receiver}.{func.attr}(...)", "profiler"
    if func.attr == "record" and any(hint in receiver for hint in SAMPLER_HINTS):
        return f"{receiver}.record(...)", "sampler"
    if func.attr == "sample" and any(hint in receiver for hint in MEMORY_HINTS):
        return f"{receiver}.sample(...)", "memory"
    return None


def _reads_enabled(test, hints):
    """Does *test* read ``.enabled`` on a receiver matching *hints*?"""
    for node in ast.walk(test):
        if isinstance(node, ast.Attribute) and node.attr == "enabled":
            receiver = _dotted(node.value)
            if any(hint in receiver for hint in hints):
                return True
    return False


def _guard_lines(scope, hints):
    """Lines of every family-matching ``.enabled`` branch test in *scope*."""
    return [
        node.lineno
        for node in ast.walk(scope)
        if isinstance(node, (ast.If, ast.IfExp)) and _reads_enabled(node.test, hints)
    ]


def _unguarded_hooks(source):
    """``(line, hook)`` of every hook site in *source* with no guard."""
    tree = ast.parse(source)
    # Parent links let us recover each call's enclosing-function chain.
    parents = {
        child: parent
        for parent in ast.walk(tree)
        for child in ast.iter_child_nodes(parent)
    }
    unguarded = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        named = _hook_name(node)
        if named is None:
            continue
        hook, family = named
        # Outermost function enclosing the hook: guards anywhere inside
        # it (including outer creation-time guards before a closure's
        # ``def``) count, as long as they precede the hook's line.
        scope = node
        outermost = None
        while scope in parents:
            scope = parents[scope]
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                outermost = scope
        searched = outermost if outermost is not None else tree
        guards = _guard_lines(searched, FAMILY_HINTS[family])
        if not any(line <= node.lineno for line in guards):
            unguarded.append((node.lineno, hook))
    return unguarded


def _source_files():
    """Every module under ``src/repro`` outside the instruments package."""
    return [
        path
        for path in sorted(SOURCE_ROOT.rglob("*.py"))
        if path.relative_to(SOURCE_ROOT).parts[0] not in EXCLUDED_PARTS
    ]


def test_source_tree_is_clean():
    violations = [
        f"{path.relative_to(REPO_ROOT)}:{line}: unguarded obs hook `{hook}`"
        for path in _source_files()
        for line, hook in _unguarded_hooks(path.read_text(encoding="utf-8"))
    ]
    assert violations == [], "\n".join(violations)


def test_flags_unguarded_emit():
    source = (
        "def hot_path(services, event):\n"
        "    services.recorder.emit(event)\n"
    )
    hooks = _unguarded_hooks(source)
    assert len(hooks) == 1
    assert "emit" in hooks[0][1]


def test_flags_unguarded_trace_event_and_span():
    source = (
        "def hot_path(prof, recorder, now):\n"
        "    with prof.span('x'):\n"
        "        recorder.emit(TraceEvent(time=now))\n"
    )
    assert {hook for _line, hook in _unguarded_hooks(source)} == {
        "prof.span(...)",
        "recorder.emit(...)",
        "TraceEvent(...)",
    }


def test_accepts_inline_guard():
    source = (
        "def hot_path(prof, recorder, now):\n"
        "    if prof.enabled and recorder.enabled:\n"
        "        with prof.span('x'):\n"
        "            recorder.emit(TraceEvent(time=now))\n"
    )
    assert _unguarded_hooks(source) == []


def test_guard_family_must_match_hook_family():
    # A profiler guard does not cover trace hooks: the guard's receiver
    # must belong to the same instrument family as the hook it protects.
    source = (
        "def hot_path(prof, recorder, now):\n"
        "    if prof.enabled:\n"
        "        with prof.span('x'):\n"
        "            recorder.emit(TraceEvent(time=now))\n"
    )
    assert {hook for _line, hook in _unguarded_hooks(source)} == {
        "recorder.emit(...)",
        "TraceEvent(...)",
    }


def test_accepts_creation_time_guard():
    # The route_observer pattern: the guard runs once at closure
    # creation; the closure itself emits unconditionally.
    source = (
        "def make_observer(services):\n"
        "    if services is None or not services.recorder.enabled:\n"
        "        return None\n"
        "    recorder = services.recorder\n"
        "    def observe(event):\n"
        "        recorder.emit(event)\n"
        "    return observe\n"
    )
    assert _unguarded_hooks(source) == []


def test_guard_after_hook_does_not_count():
    source = (
        "def hot_path(prof, x):\n"
        "    prof.add('k', x)\n"
        "    if prof.enabled:\n"
        "        pass\n"
    )
    assert len(_unguarded_hooks(source)) == 1


def test_ignores_unrelated_receivers():
    # set.add, subprocess start, timeline record: not obs hooks.
    source = (
        "def busy(seen, timeline, item):\n"
        "    seen.add(item)\n"
        "    timeline.record(1.0, 2, 3, 4, 5, 0.5)\n"
    )
    assert _unguarded_hooks(source) == []
