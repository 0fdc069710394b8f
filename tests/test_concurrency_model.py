"""The package keeps one concurrency model: threads.

Parallel work runs on the shared thread pool of
:mod:`repro.knowledge.parallel`, and the serving daemon publishes on one
writer thread per stream.  No module may create processes: any module
importing ``multiprocessing`` or reaching for ``ProcessPoolExecutor`` /
``os.fork`` fails this test.
"""

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent


def _process_machinery(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [
                alias.name for alias in node.names
                if alias.name.split(".")[0] == "multiprocessing"
            ]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[0] == "multiprocessing":
                found.append(module)
            elif module == "concurrent.futures":
                found += [
                    alias.name for alias in node.names
                    if alias.name == "ProcessPoolExecutor"
                ]
            elif module == "os":
                found += [
                    f"os.{alias.name}" for alias in node.names if alias.name == "fork"
                ]
        elif isinstance(node, ast.Attribute):
            if node.attr == "ProcessPoolExecutor":
                found.append("ProcessPoolExecutor")
            elif (
                node.attr == "fork"
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
            ):
                found.append("os.fork")
    return found


def test_no_module_creates_processes():
    offenders = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(PACKAGE)
        found = _process_machinery(ast.parse(path.read_text(), filename=str(path)))
        if found:
            offenders[str(relative)] = found
    assert offenders == {}


def test_the_guard_sees_every_spelling():
    source = "\n".join(
        [
            "import multiprocessing",
            "import multiprocessing.pool as mp",
            "from multiprocessing import Pool",
            "from concurrent.futures import ProcessPoolExecutor",
            "import concurrent.futures as cf; cf.ProcessPoolExecutor",
            "import os; os.fork()",
            "from os import fork",
            "os.register_at_fork(after_in_child=print)",
        ]
    )
    assert sorted(_process_machinery(ast.parse(source))) == [
        "ProcessPoolExecutor",
        "ProcessPoolExecutor",
        "multiprocessing",
        "multiprocessing",
        "multiprocessing.pool",
        "os.fork",
        "os.fork",
    ]
