"""The kernel-oracle lint: every hot kernel keeps its oracle and its tests.

Each hot kernel has one numpy/scipy implementation, pinned by a
retained pure-python ``_reference_*`` oracle that equivalence tests
compare it against.  The tests below enforce the structural half of
that contract from the :data:`KERNELS` table, one rule each:

* each entry names an oracle beginning with ``_reference_``;
* the oracle is defined (function or assignment) in the entry's module;
* a file under ``tests/`` or ``benchmarks/`` other than this one names
  the oracle — the equivalence test must name the oracle it checks;
* a kernel flagged ``sparse`` keeps a *dense* oracle, and its docstring
  says so (the word "dense");
* every module-level ``_reference_*`` name under ``src/repro/`` is
  listed under its module, so an oracle added beside a new kernel
  cannot escape the rules above.

Module sources are read from the AST — no imports, so the lint cannot
be fooled by runtime monkey-patching.
"""

import ast
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
SOURCE_ROOT = REPO_ROOT / "src"

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


@pytest.fixture(scope="module")
def trees():
    """Dotted module name → parsed AST for every module under ``src/repro``."""
    parsed = {}
    for path in sorted((SOURCE_ROOT / "repro").rglob("*.py")):
        parts = list(path.relative_to(SOURCE_ROOT).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        parsed[".".join(parts)] = ast.parse(path.read_text(encoding="utf-8"))
    return parsed


def _defined_names(tree):
    """Top-level function/assignment names defined in a module."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def test_oracles_are_named_reference():
    misnamed = [
        spec["reference"]
        for spec in KERNELS.values()
        if not spec["reference"].startswith("_reference_")
    ]
    assert misnamed == [], "oracles must be named _reference_*"


def test_oracles_are_defined_in_their_module(trees):
    missing = [
        f"{spec['module']}.{spec['reference']}"
        for spec in KERNELS.values()
        if spec["module"] not in trees
        or spec["reference"] not in _defined_names(trees[spec["module"]])
    ]
    assert missing == []


def test_oracles_are_named_by_a_test():
    # This file names every oracle in KERNELS, so it is left out.
    this = Path(__file__).resolve()
    corpus = "\n".join(
        path.read_text(encoding="utf-8")
        for root in ("tests", "benchmarks")
        for path in sorted((REPO_ROOT / root).rglob("*.py"))
        if path.resolve() != this
    )
    unnamed = [
        spec["reference"]
        for spec in KERNELS.values()
        if spec["reference"] not in corpus
    ]
    assert unnamed == [], "no test names these oracles (equivalence test missing?)"


def _undocumented_dense_oracles(kernels, trees):
    """Oracles of ``sparse`` kernels whose docstring does not say "dense".

    A sparse kernel checked only against another sparse implementation
    could share its truncation bugs: the oracle must materialise the
    full matrix the sparse path avoids.
    """
    undocumented = []
    for spec in kernels.values():
        if not spec.get("sparse"):
            continue
        docs = {
            node.name: ast.get_docstring(node) or ""
            for node in trees[spec["module"]].body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        if "dense" not in docs.get(spec["reference"], "").lower():
            undocumented.append(spec["reference"])
    return undocumented


def test_sparse_kernel_oracles_are_documented_dense(trees):
    undocumented = _undocumented_dense_oracles(KERNELS, trees)
    assert undocumented == [], "a sparse kernel's oracle docstring must say 'dense'"


# The dense-oracle rule is the only one that reads docstrings, so it is
# also run on one-function modules to show it fires and stays quiet.
_SPARSE_K = {"k": {"module": "m", "reference": "_reference_k", "sparse": True}}


def _oracle_module(doc):
    return {"m": ast.parse(f'def _reference_k():\n    """{doc}"""\n')}


def test_flags_sparse_kernel_without_dense_oracle_doc():
    trees = _oracle_module("Sparse-vs-sparse check of the k kernel.")
    assert _undocumented_dense_oracles(_SPARSE_K, trees) == ["_reference_k"]


def test_sparse_kernel_with_dense_oracle_doc_is_clean():
    trees = _oracle_module("Dense pure-python oracle for the k kernel.")
    assert _undocumented_dense_oracles(_SPARSE_K, trees) == []


def test_every_oracle_is_listed(trees):
    listed = {(spec["module"], spec["reference"]) for spec in KERNELS.values()}
    unlisted = [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in sorted(_defined_names(tree))
        if name.startswith("_reference_") and (module, name) not in listed
    ]
    assert unlisted == [], "add the kernel each oracle pins to KERNELS"
