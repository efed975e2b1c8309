#!/usr/bin/env python
"""AST lint: every hot kernel must keep its oracle and its tests.

Each hot kernel has one numpy/scipy implementation, pinned by a
retained pure-python ``_reference_*`` oracle that equivalence tests
compare it against.  This script enforces the structural half of that
contract from the :data:`KERNELS` table below:

* each entry names a ``reference`` beginning with ``_reference_`` that
  is actually defined (function or assignment) in the entry's
  ``module`` source file;
* each reference name is mentioned in at least one file under
  ``tests/`` or ``benchmarks/`` — the equivalence test must name the
  oracle it checks;
* every kernel flagged ``sparse: True`` keeps a *dense* oracle: its
  ``_reference_*`` docstring must say so (the word "dense"), because a
  sparse kernel checked only against another sparse implementation could
  share its truncation bugs — the oracle must materialise the full
  matrix the sparse path avoids;
* every module-level ``_reference_*`` name under ``src/repro/`` is
  listed in :data:`KERNELS` under its module, so an oracle added beside
  a new kernel cannot escape the rules above.

Module sources are read from the AST — no imports, so the lint cannot
be fooled by runtime monkey-patching.

Run standalone (exit 1 on violations) or via the pytest wrapper in
``tests/kernels/test_backend_lint.py``.
"""

from __future__ import annotations

import ast
import os
import sys
from typing import Dict, List, NamedTuple, Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE_ROOT = os.path.join(REPO_ROOT, "src")
TESTS_ROOT = os.path.join(REPO_ROOT, "tests")
BENCHMARKS_ROOT = os.path.join(REPO_ROOT, "benchmarks")

#: The hot kernels: the module defining each one's implementation and
#: the ``_reference_*`` oracle that pins its semantics.  ``sparse``
#: kernels operate on the CSR/adjacency representation and never
#: allocate N×N, so their oracle must be a dense reference.
KERNELS = {
    "hypoexp_cdf_batch": {
        "module": "repro.mathutils.hypoexponential",
        "reference": "_reference_cdf_batch",
    },
    "weight_matrix": {
        "module": "repro.graph.paths",
        "reference": "_reference_weight_matrix",
    },
    "weight_rows": {
        "module": "repro.graph.paths",
        "reference": "_reference_shortest_path_weights_from",
    },
    "ncl_metrics": {
        "module": "repro.core.ncl",
        "reference": "_reference_ncl_metrics",
    },
    "knapsack_dp": {
        "module": "repro.core.knapsack",
        "reference": "_reference_knapsack_dp",
    },
    "knn_weight_rows": {
        "module": "repro.graph.sparse",
        "reference": "_reference_knn_weight_rows",
        "sparse": True,
    },
    "sparse_ncl_metrics": {
        "module": "repro.core.ncl",
        "reference": "_reference_sparse_ncl_metrics",
        "sparse": True,
    },
}


class Violation(NamedTuple):
    where: str
    kernel: str
    message: str

    def __str__(self) -> str:
        return f"{self.where}: kernel {self.kernel!r}: {self.message}"


def _parse(path: str) -> ast.Module:
    with open(path, "r", encoding="utf-8") as handle:
        return ast.parse(handle.read(), filename=path)


def _defined_names(tree: ast.Module) -> set:
    """Top-level function/assignment names defined in a module."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def _docstrings(tree: ast.Module) -> Dict[str, str]:
    """Top-level function name → docstring for a module."""
    return {
        node.name: ast.get_docstring(node) or ""
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _source_modules() -> Dict[str, str]:
    """Dotted module name → file path for every module under ``src/repro``."""
    modules: Dict[str, str] = {}
    for dirpath, _, filenames in os.walk(os.path.join(SOURCE_ROOT, "repro")):
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            parts = os.path.relpath(path, SOURCE_ROOT)[: -len(".py")].split(os.sep)
            if parts[-1] == "__init__":
                parts.pop()
            modules[".".join(parts)] = path
    return modules


def _test_corpus(roots=(TESTS_ROOT, BENCHMARKS_ROOT)) -> str:
    """Concatenated text of every test/benchmark file."""
    chunks: List[str] = []
    for root in roots:
        if not os.path.isdir(root):
            continue
        for dirpath, _, filenames in os.walk(root):
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    path = os.path.join(dirpath, filename)
                    with open(path, "r", encoding="utf-8") as handle:
                        chunks.append(handle.read())
    return "\n".join(chunks)


def check_specs(
    kernels: Dict[str, dict],
    defined_names: Dict[str, set],
    test_corpus: str,
    oracle_docs: Optional[Dict[str, str]] = None,
) -> List[Violation]:
    """Pure rule core (synthetic-input testable, no filesystem access).

    ``defined_names`` maps each source module's dotted name to the
    top-level names its file defines; ``oracle_docs`` maps oracle names
    to their docstrings (used by the sparse-kernel dense-oracle rule;
    ``None`` skips that rule).
    """
    violations: List[Violation] = []
    for name, spec in sorted(kernels.items()):
        reference = spec.get("reference", "")
        module = spec.get("module", "")
        if not reference.startswith("_reference_"):
            violations.append(
                Violation(
                    "KERNELS", name,
                    f"reference {reference!r} must be named _reference_*",
                )
            )
        if reference and reference not in defined_names.get(module, set()):
            violations.append(
                Violation(
                    "KERNELS", name,
                    f"oracle {reference!r} is not defined in {module}",
                )
            )
        if reference and reference not in test_corpus:
            violations.append(
                Violation(
                    "tests", name,
                    f"no test names the oracle {reference!r} "
                    "(equivalence test missing?)",
                )
            )
        if spec.get("sparse") and oracle_docs is not None:
            doc = oracle_docs.get(reference, "")
            if "dense" not in doc.lower():
                violations.append(
                    Violation(
                        "KERNELS", name,
                        f"sparse kernel's oracle {reference!r} is not "
                        "documented as a dense reference (its docstring "
                        "must say 'dense' — a sparse-vs-sparse check "
                        "would share the truncation bugs)",
                    )
                )
    listed = {(spec.get("module"), spec.get("reference")) for spec in kernels.values()}
    for module, names in sorted(defined_names.items()):
        for oracle in sorted(names):
            if oracle.startswith("_reference_") and (module, oracle) not in listed:
                violations.append(
                    Violation(
                        module, "<unlisted>",
                        f"oracle {oracle!r} is not listed in KERNELS (add "
                        "the kernel it pins, so the oracle rules cover it)",
                    )
                )
    return violations


def collect_violations() -> List[Violation]:
    trees = {module: _parse(path) for module, path in _source_modules().items()}
    defined = {module: _defined_names(tree) for module, tree in trees.items()}
    oracle_docs: Dict[str, str] = {}
    for spec in KERNELS.values():
        if spec["module"] in trees:
            oracle_docs.update(_docstrings(trees[spec["module"]]))
    return check_specs(KERNELS, defined, _test_corpus(), oracle_docs)


def main() -> int:
    violations = collect_violations()
    for violation in violations:
        print(violation, file=sys.stderr)
    if violations:
        print(f"{len(violations)} kernel-oracle violation(s)", file=sys.stderr)
        return 1
    print("all registered kernels have oracles and tests; every oracle is registered")
    return 0


if __name__ == "__main__":
    sys.exit(main())
