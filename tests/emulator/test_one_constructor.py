"""Every simulation the product starts is built by ``make_simulation``.

The test parses ``src/repro`` and finds every place a kernel class is
used as a value: called, stored, passed or returned.  Annotations,
``isinstance`` checks and the engine's own base class are not uses.
Only :func:`repro.emulator.fastkernel.make_simulation` may hold one, so
new code that builds a kernel by hand fails here.
"""

import ast
from pathlib import Path
from typing import Iterator, Tuple

import repro

#: the kernel classes, by the name any module refers to them by
KERNEL_CLASSES = frozenset({"Simulation", "FastSimulation"})

#: the one place allowed to use them: (module path, enclosing scope)
CONSTRUCTOR = ("emulator/fastkernel.py", ("make_simulation",))

SOURCE = Path(repro.__file__).resolve().parent


def _value_uses(
    node: ast.AST, scope: Tuple[str, ...] = ()
) -> Iterator[Tuple[Tuple[str, ...], int]]:
    """Yield ``(scope, line)`` for each kernel class used as a value."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        defaults = [d for d in node.args.kw_defaults if d is not None]
        for child in [*node.decorator_list, *node.args.defaults, *defaults]:
            yield from _value_uses(child, scope)
        for statement in node.body:
            yield from _value_uses(statement, scope + (node.name,))
        return
    if isinstance(node, ast.ClassDef):
        # subclassing a kernel is not constructing one
        for child in [*node.decorator_list, *node.keywords]:
            yield from _value_uses(child, scope)
        for statement in node.body:
            yield from _value_uses(statement, scope + (node.name,))
        return
    if isinstance(node, ast.AnnAssign):
        children = [node.target] + ([node.value] if node.value else [])
        for child in children:
            yield from _value_uses(child, scope)
        return
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("isinstance", "issubclass")
    ):
        yield from _value_uses(node.args[0], scope)
        return
    if isinstance(node, ast.Name) and node.id in KERNEL_CLASSES:
        yield scope, node.lineno
    elif isinstance(node, ast.Attribute) and node.attr in KERNEL_CLASSES:
        yield scope, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _value_uses(child, scope)


def _all_uses():
    for path in sorted(SOURCE.rglob("*.py")):
        module = path.relative_to(SOURCE).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for scope, line in _value_uses(tree):
            yield module, scope, line


def test_only_make_simulation_builds_a_kernel():
    uses = list(_all_uses())
    stray = [
        f"{module}:{line} in {'.'.join(scope) or '<module>'}"
        for module, scope, line in uses
        if (module, scope) != CONSTRUCTOR
    ]
    assert stray == [], "kernel class used outside make_simulation:\n" + (
        "\n".join(stray)
    )
    # the scan must see the constructor's own uses, or it proves nothing
    assert any((module, scope) == CONSTRUCTOR for module, scope, _ in uses)


def test_scan_flags_a_hand_built_kernel():
    tree = ast.parse(
        "from repro.emulator.kernel import Simulation\n"
        "def run(sim: Simulation) -> Simulation:\n"
        "    assert isinstance(sim, Simulation)\n"
        "    return Simulation(None, None).run()\n"
    )
    assert list(_value_uses(tree)) == [(("run",), 4)]
