"""The memory-accountant AST lint: the attribution universe stays accounted.

The memory-observability contract (DESIGN.md §7c) is that
``Simulator.memory_breakdown()`` attributes the run's footprint to the
named subsystems of ``repro.obs.memory.SUBSYSTEMS`` — and that every
accountant is *honest*, cross-checked by a test against an independent
sizeof oracle rather than trusted because it returns a number.  The
tests below enforce the structural half of that contract:

* ``SUBSYSTEMS`` (the attribution universe) is a literal dict with a
  non-empty description per name;
* the literal keys of the dict ``Simulator._build_memory_accountants``
  returns are exactly the ``SUBSYSTEMS`` names — no orphan subsystem
  without an accountant, no accountant outside the universe;
* every subsystem name has an ``ORACLE_PREFIX + <name>`` mention in the
  test corpus — the per-subsystem accountant test must name the oracle
  function it checks the accountant against.

Both dicts are read as literals from the AST — no imports, so the lint
cannot be fooled by runtime registration tricks.  The rule core,
:func:`check_accountants`, is pure, so it is also fed synthetic inputs
below; they spell oracle names through ``ORACLE_PREFIX`` so that this
file, which is part of the corpus, cannot satisfy the oracle rule.
"""

import ast
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
MEMORY_PATH = REPO_ROOT / "src" / "repro" / "obs" / "memory.py"
SIMULATOR_PATH = REPO_ROOT / "src" / "repro" / "sim" / "simulator.py"
CORPUS_ROOTS = (REPO_ROOT / "tests", REPO_ROOT / "benchmarks")

#: the test that proves subsystem <name>'s accountant honest must
#: mention this identifier (convention mirrors the kernel oracles)
ORACLE_PREFIX = "oracle_nbytes_"


def _literal_dict_assignment(tree, name):
    """The literal value of a module-level ``name = {...}`` assignment."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if name in targets:
                try:
                    return ast.literal_eval(node.value)
                except ValueError:
                    return None
    return None


def _returned_dict_keys(tree, function):
    """Constant keys of the dict literal *function* returns.

    Values are closures (not literals), so only the keys are read;
    a non-constant key or a non-dict return yields ``None``.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == function:
            for inner in ast.walk(node):
                if isinstance(inner, ast.Return) and isinstance(inner.value, ast.Dict):
                    keys = []
                    for key in inner.value.keys:
                        if not isinstance(key, ast.Constant) or not isinstance(
                            key.value, str
                        ):
                            return None
                        keys.append(key.value)
                    return keys
    return None


def _test_corpus():
    """Concatenated text of every test/benchmark file."""
    return "\n".join(
        path.read_text(encoding="utf-8")
        for root in CORPUS_ROOTS
        for path in sorted(root.rglob("*.py"))
    )


def check_accountants(subsystems, accountant_keys, test_corpus):
    """``(where, subsystem, message)`` for every broken rule (pure: no
    filesystem access)."""
    problems = []
    for name, description in sorted(subsystems.items()):
        if not isinstance(description, str) or not description.strip():
            problems.append(("SUBSYSTEMS", name, "description must be non-empty"))
        oracle = ORACLE_PREFIX + name
        if oracle not in test_corpus:
            problems.append(
                (
                    "tests",
                    name,
                    f"no test names the oracle {oracle!r} — the accountant "
                    "must be cross-checked against an independent sizeof "
                    "oracle, not trusted",
                )
            )
    if accountant_keys is None:
        problems.append(
            (
                "simulator",
                "<all>",
                "_build_memory_accountants must return a dict literal with "
                "constant string keys (the lint reads them from the AST)",
            )
        )
        return problems
    registered = set(accountant_keys)
    for name in sorted(set(subsystems) - registered):
        problems.append(
            (
                "simulator",
                name,
                "in SUBSYSTEMS but never registered by "
                "_build_memory_accountants — its bytes would be invisible",
            )
        )
    for name in sorted(registered - set(subsystems)):
        problems.append(
            (
                "simulator",
                name,
                "registered by _build_memory_accountants but missing from "
                "SUBSYSTEMS — add it to the universe deliberately",
            )
        )
    duplicates = {name for name in accountant_keys if accountant_keys.count(name) > 1}
    for name in sorted(duplicates):
        problems.append(("simulator", name, "registered more than once"))
    return problems


SUBSYSTEMS = {"nodes": "per-node state", "events": "event queue"}
CORPUS = "\n".join(f"def {ORACLE_PREFIX}{name}(): ..." for name in SUBSYSTEMS)


def _subsystems(problems):
    return [subsystem for _where, subsystem, _message in problems]


def test_source_tree_is_clean():
    memory_tree = ast.parse(MEMORY_PATH.read_text(encoding="utf-8"))
    subsystems = _literal_dict_assignment(memory_tree, "SUBSYSTEMS")
    assert subsystems is not None, "SUBSYSTEMS must be a literal dict assignment"
    simulator_tree = ast.parse(SIMULATOR_PATH.read_text(encoding="utf-8"))
    keys = _returned_dict_keys(simulator_tree, "_build_memory_accountants")
    problems = check_accountants(subsystems, keys, _test_corpus())
    assert problems == [], "\n".join(
        f"{where}: memory subsystem {name!r}: {message}"
        for where, name, message in problems
    )


def test_clean_synthetic_input():
    assert check_accountants(SUBSYSTEMS, ["nodes", "events"], CORPUS) == []


def test_missing_oracle_flagged():
    problems = check_accountants(
        SUBSYSTEMS, ["nodes", "events"], f"def {ORACLE_PREFIX}nodes(): ..."
    )
    assert _subsystems(problems) == ["events"]
    assert ORACLE_PREFIX + "events" in problems[0][2]


def test_empty_description_flagged():
    problems = check_accountants({"nodes": "   "}, ["nodes"], ORACLE_PREFIX + "nodes")
    assert any("description" in message for _where, _name, message in problems)


def test_unregistered_subsystem_flagged():
    problems = check_accountants(SUBSYSTEMS, ["nodes"], CORPUS)
    assert [(name, where) for where, name, _message in problems] == [
        ("events", "simulator")
    ]
    assert "invisible" in problems[0][2]


def test_orphan_accountant_flagged():
    problems = check_accountants(SUBSYSTEMS, ["nodes", "events", "warp_drive"], CORPUS)
    assert _subsystems(problems) == ["warp_drive"]
    assert "missing from" in problems[0][2]


def test_duplicate_registration_flagged():
    problems = check_accountants(SUBSYSTEMS, ["nodes", "events", "nodes"], CORPUS)
    assert _subsystems(problems) == ["nodes"]
    assert "more than once" in problems[0][2]


def test_unparseable_accountant_dict_flagged():
    problems = check_accountants(SUBSYSTEMS, None, CORPUS)
    assert any("dict literal" in message for _where, _name, message in problems)
