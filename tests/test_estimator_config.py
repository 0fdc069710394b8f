"""Estimator settings reach the code one way: an ``EstimatorConfig``.

The cell budget (``max_cells``) and the flat sweep's batch and memory-guard
constants are how priors are computed, not who the adversary is, so they
live in :class:`~repro.knowledge.backend.EstimatorConfig` and the backend
module.  No function in the package may take them as a parameter of its
own: any function declaring ``max_cells``, ``batch_size`` or
``max_count_cells`` fails this test.  ``EstimatorConfig``'s fields are
class annotations, not parameters, so they pass.

Precomputed ``distance_matrices`` are guarded the same way: a backend
computes its own at fit, and code that wants to share the bandwidth-free
work shares one fitted ``BatchedKernelPriorEstimator`` instead.
"""

import ast
from pathlib import Path

import repro
import repro.knowledge

PACKAGE = Path(repro.__file__).resolve().parent
KNOBS = {"max_cells", "batch_size", "max_count_cells", "distance_matrices"}


def _knob_parameters(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            arguments = node.args
            names = [
                argument.arg
                for argument in (
                    arguments.posonlyargs + arguments.args + arguments.kwonlyargs
                )
            ]
            name = getattr(node, "name", "<lambda>")
            found += [f"{name}({parameter})" for parameter in names if parameter in KNOBS]
    return found


def test_no_function_takes_an_estimator_knob():
    offenders = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(PACKAGE)
        found = _knob_parameters(ast.parse(path.read_text(), filename=str(path)))
        if found:
            offenders[str(relative)] = found
    assert offenders == {}


def test_the_guard_sees_every_spelling():
    source = "\n".join(
        [
            "def a(table, max_cells=0): pass",
            "def b(table, *, batch_size=1): pass",
            "async def c(max_count_cells, /): pass",
            "class D:\n    def e(self, *, max_cells): pass",
            "f = lambda max_cells: max_cells",
            "class EstimatorConfig:\n    max_cells: int = 0\n    batch_size: int = 1",
            "def g(config): return config.max_cells",
            "def h(table, *, config=None, distance_matrices=None): pass",
        ]
    )
    assert sorted(_knob_parameters(ast.parse(source))) == [
        "<lambda>(max_cells)",
        "a(max_cells)",
        "b(batch_size)",
        "c(max_count_cells)",
        "e(max_cells)",
        "h(distance_matrices)",
    ]


def test_one_estimator_entry_point_is_exported():
    for namespace in (repro, repro.knowledge):
        assert hasattr(namespace, "BatchedKernelPriorEstimator")
        assert hasattr(namespace, "kernel_prior")
        assert not hasattr(namespace, "KernelPriorEstimator")
        assert not hasattr(namespace, "batched_kernel_priors")
