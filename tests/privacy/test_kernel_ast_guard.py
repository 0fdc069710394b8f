"""Static guard: the per-row risk kernels never call a BLAS product.

A row's risk must not depend on which other rows share its tile: the
stream's bitwise tick contract and the (B,t) risk memo both rest on it.  A
BLAS product (``@``, ``np.dot``, ``np.matmul``, ``np.einsum``) picks its
summation order by the operands' shape, so a 1-row call and the same row in
a 4,096-row tile can differ in the last bits.  This test parses the kernel
modules and fails if any per-row kernel function - or the whole-group
bound, whose value a screened group's rows take - contains one;
``tests/privacy/test_risk_kernel.py`` checks the same property at run time.
"""

import ast
import inspect

import pytest

from repro.privacy import disclosure, measures

#: Module-level per-row kernels, by module.
KERNEL_FUNCTIONS = {
    measures: (
        "_rowwise_js",
        "_row_totals",
        "_renormalised",
        "_topsoe_bound",
        "_screened_rowwise_js",
        "_smoothed_rows",
        "_js_generator",
        "_js_chord_bound",
    ),
    disclosure: ("member_risks",),
}

#: Methods that are per-row kernels in every distance-measure class.
KERNEL_METHODS = ("rowwise", "rowwise_screened", "_weighted_rows", "group_bound")

BLAS_CALLS = {"dot", "matmul", "einsum"}


def _blas_products(function: ast.AST) -> list[str]:
    """Every BLAS product inside one function definition, as ``line: what``."""
    found = []
    for node in ast.walk(function):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{node.lineno}: @")
        elif isinstance(node, ast.Call):
            callee = node.func
            name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", "")
            if name in BLAS_CALLS:
                found.append(f"{node.lineno}: {name}")
    return found


def _kernels(source: str, functions) -> dict[str, ast.AST]:
    """The named module-level functions and every class's kernel methods."""
    kernels = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name in functions:
            kernels[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name in KERNEL_METHODS:
                    kernels[f"{node.name}.{item.name}"] = item
    return kernels


def test_guard_flags_a_matrix_product():
    source = (
        "class Measure:\n"
        "    def rowwise(self, p, q):\n"
        "        return p @ q\n"
        "\n"
        "def _rowwise_js(p, q):\n"
        "    return np.einsum('ij,ij->i', p, q)\n"
    )
    kernels = _kernels(source, ("_rowwise_js",))
    assert {name: _blas_products(node) for name, node in kernels.items()} == {
        "Measure.rowwise": ["3: @"],
        "_rowwise_js": ["6: einsum"],
    }


@pytest.mark.parametrize("module", list(KERNEL_FUNCTIONS), ids=lambda m: m.__name__)
def test_per_row_kernels_use_no_blas_products(module):
    kernels = _kernels(inspect.getsource(module), KERNEL_FUNCTIONS[module])
    # A renamed kernel must not silently drop out of the guard.
    assert set(KERNEL_FUNCTIONS[module]) <= set(kernels)
    if module is measures:
        assert {"DistanceMeasure.rowwise", "JSDivergence.rowwise_screened",
                "SmoothedJSDivergence.rowwise_screened"} <= set(kernels)
    offenders = {name: _blas_products(node) for name, node in kernels.items()}
    assert {name: found for name, found in offenders.items() if found} == {}
