"""Static guard: no ``np.unique(..., axis=...)`` anywhere in ``src/repro``.

NumPy deduplicates rows by sorting them as a structured row dtype, which
cost about 60% of a 50k-row kernel fit.  Every row deduplication goes
through :func:`~repro.knowledge.backend.unique_rows` (one int64 key per row,
the same order, bit for bit) instead.  This test parses every module of the
package and fails if a ``unique`` call passes ``axis`` - by keyword or as
the fifth positional argument - so the structured sort cannot come back.
"""

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).parent


def _row_unique_calls(source: str) -> list[int]:
    """The lines of every ``unique`` call given an ``axis``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", "")
        if name == "unique" and (
            len(node.args) >= 5 or any(keyword.arg == "axis" for keyword in node.keywords)
        ):
            found.append(node.lineno)
    return found


def test_guard_flags_a_row_unique():
    source = (
        "import numpy as np\n"
        "from numpy import unique\n"
        "np.unique(codes, return_inverse=True)\n"
        "np.unique(codes, axis=0, return_inverse=True)\n"
        "unique(codes, False, True, False, 0)\n"
        "np.unique(codes.sum(axis=1))\n"
    )
    assert _row_unique_calls(source) == [4, 5]


def test_no_row_unique_in_the_package():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "knowledge" / "backend.py" in modules
    offenders = {
        str(path.relative_to(PACKAGE)): lines
        for path in modules
        if (lines := _row_unique_calls(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}
