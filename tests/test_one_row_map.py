"""Every stream mutation reaches the layers below the publisher as one row map.

``previous_of`` - each current row's position in the previous table, or
``-1`` when it has none - describes an append, a retraction and a
correction alike.  No class in the package may grow a second, append-only
invalidation hook next to ``PrivacyModel.stream_replace`` (a method or
class attribute named ``stream_update``), and ``BTPrivacy.update_priors``
and ``SkylineAuditEngine.audit_incremental`` must require the map: a
default would bring back an "omitted means appended" arm.
"""

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent
DELETED_HOOKS = {"stream_update"}
MAP_REQUIRED = {"update_priors", "audit_incremental"}


def _defaulted(arguments: ast.arguments) -> set[str]:
    """Names of the parameters of ``arguments`` that carry a default."""
    positional = arguments.posonlyargs + arguments.args
    names = {
        argument.arg
        for argument in positional[len(positional) - len(arguments.defaults):]
    }
    names |= {
        argument.arg
        for argument, default in zip(arguments.kwonlyargs, arguments.kw_defaults)
        if default is not None
    }
    return names


def _offences(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for statement in node.body:
                if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [statement.name]
                elif isinstance(statement, ast.Assign):
                    names = [t.id for t in statement.targets if isinstance(t, ast.Name)]
                elif isinstance(statement, ast.AnnAssign) and isinstance(
                    statement.target, ast.Name
                ):
                    names = [statement.target.id]
                else:
                    names = []
                found += [
                    f"{node.name}.{name}" for name in names if name in DELETED_HOOKS
                ]
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name in MAP_REQUIRED
            and "previous_of" in _defaulted(node.args)
        ):
            found.append(f"{node.name}(previous_of=...)")
    return found


def test_no_append_only_arm_in_the_package():
    offenders = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        found = _offences(ast.parse(path.read_text(), filename=str(path)))
        if found:
            offenders[str(path.relative_to(PACKAGE))] = found
    assert offenders == {}


def test_the_guard_sees_every_spelling():
    source = "\n".join(
        [
            "class A:\n    def stream_update(self, table, n): pass",
            "class B:\n    async def stream_update(self, table, n): pass",
            "class C:\n    stream_update = None",
            "class D:\n    stream_update: object = None",
            "class E:\n    def update_priors(self, priors, *, previous_of=None): pass",
            "class F:\n    def audit_incremental(self, groups, previous_of=None): pass",
            "def update_priors(priors, previous_of=(), /): pass",
            # Allowed: a required map, the one hook, and unrelated defaults.
            "class G:\n    def update_priors(self, priors, *, previous_of, jobs=None): pass",
            "class H:\n    def audit_incremental(self, groups, previous_of, extra=1): pass",
            "class I:\n    def stream_replace(self, table, previous_of): pass",
            "def stream_update(table): pass",
        ]
    )
    assert sorted(_offences(ast.parse(source))) == [
        "A.stream_update",
        "B.stream_update",
        "C.stream_update",
        "D.stream_update",
        "audit_incremental(previous_of=...)",
        "update_priors(previous_of=...)",
        "update_priors(previous_of=...)",
    ]
