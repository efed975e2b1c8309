"""The kernel-oracle AST lint: clean tree, plus synthetic violations.

``scripts/check_kernel_oracles.py`` enforces the oracle contract —
every listed kernel keeps a ``_reference_*`` oracle in its module and
an equivalence test naming that oracle, and every oracle in the source
tree is listed.  Running it under pytest keeps the contract in tier-1
instead of relying on a manual script invocation.
"""

import importlib.util
import os

import pytest

_SCRIPT = os.path.join(
    os.path.dirname(__file__),
    os.pardir,
    os.pardir,
    "scripts",
    "check_kernel_oracles.py",
)


@pytest.fixture(scope="module")
def lint():
    spec = importlib.util.spec_from_file_location("check_kernel_oracles", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_source_tree_is_clean(lint):
    violations = lint.collect_violations()
    assert violations == [], "\n".join(str(v) for v in violations)


def test_flags_misnamed_reference(lint):
    kernels = {"k": {"module": "m", "reference": "reference_k"}}
    violations = lint.check_specs(kernels, {"m": {"reference_k"}}, "reference_k")
    assert any("_reference_*" in v.message for v in violations)


def test_flags_oracle_missing_from_module(lint):
    kernels = {"k": {"module": "m", "reference": "_reference_k"}}
    violations = lint.check_specs(kernels, {"m": set()}, "_reference_k")
    assert any("not defined" in v.message for v in violations)


def test_flags_oracle_unnamed_by_tests(lint):
    kernels = {"k": {"module": "m", "reference": "_reference_k"}}
    violations = lint.check_specs(kernels, {"m": {"_reference_k"}}, "")
    assert any("no test names the oracle" in v.message for v in violations)


def test_flags_oracle_missing_from_kernels(lint):
    kernels = {"k": {"module": "m", "reference": "_reference_k"}}
    defined = {"m": {"_reference_k", "_reference_unlisted"}, "n": {"_reference_k"}}
    corpus = "_reference_k _reference_unlisted"
    violations = lint.check_specs(kernels, defined, corpus)
    # Listed under another module does not count: the entry pins m's oracle.
    assert [(v.where, v.message.split("'")[1]) for v in violations] == [
        ("m", "_reference_unlisted"),
        ("n", "_reference_k"),
    ]
    assert all("not listed in KERNELS" in v.message for v in violations)


def test_flags_sparse_kernel_without_dense_oracle_doc(lint):
    kernels = {
        "k": {"module": "m", "reference": "_reference_k", "sparse": True},
    }
    docs = {"_reference_k": "Sparse-vs-sparse check of the k kernel."}
    violations = lint.check_specs(
        kernels, {"m": {"_reference_k"}}, "_reference_k", docs
    )
    assert any("dense reference" in v.message for v in violations)


def test_sparse_kernel_with_dense_oracle_doc_is_clean(lint):
    kernels = {
        "k": {"module": "m", "reference": "_reference_k", "sparse": True},
    }
    docs = {"_reference_k": "Dense pure-python oracle for the k kernel."}
    violations = lint.check_specs(
        kernels, {"m": {"_reference_k"}}, "_reference_k", docs
    )
    assert violations == []


def test_sparse_rule_skipped_without_docstrings(lint):
    # oracle_docs=None (the synthetic default) must not fire the rule —
    # filesystem-free callers opt in by passing the docstring map.
    kernels = {
        "k": {"module": "m", "reference": "_reference_k", "sparse": True},
    }
    violations = lint.check_specs(kernels, {"m": {"_reference_k"}}, "_reference_k")
    assert violations == []


def test_script_main_exits_zero(lint, capsys):
    assert lint.main() == 0
    out = capsys.readouterr().out
    assert "all registered kernels" in out
