"""The library surface: what the CLI reaches, and the README's example.

Every module-level function and class of ``src/regulab`` must be reached
from ``cli.py`` by following module-level names through the syntax tree,
apart from a named allowlist.  One level down, every method, property and
field of a reached class must be read as an attribute somewhere in reached
code or in ``bench/*.py``, apart from a second allowlist.  The library has
one exception type per exit code: it raises only ``DegenerateInputError``
(exit 2), ``NoConvergenceError`` (exit 1) and ``OverflowError``, and every
exception class it defines is one of the first two or is caught by name.
The README's quick example runs as written and gives the values its
comments state.
"""

import ast
import importlib
import re
from pathlib import Path

import regulab

SRC = Path(regulab.__file__).parent
README = Path(__file__).parents[1] / "README.md"
BENCH = Path(__file__).parents[1] / "bench"

# module-level names no CLI path reaches, each kept for a stated reason
ALLOWED_UNREACHED = {
    # wrapped by name in bench/tracing.py's LAYERS (ROADMAP item 1)
    "numerics.integrate_endpoint_singular": "traced by the bench",
    "numerics.solve_quadratic_stable": "traced by the bench",
    "dilogarithm.bloch_wigner": "traced by the bench",
    "dilogarithm.elliptic_dilog": "traced by the bench",
    "lfunctions.epsilon_detect": "traced by the bench",
    # the table's period entry points, called by bench/workloads.py and traced by name
    "periods.verify_period_identity": "traced by the bench",
    "periods.change_of_variable_check": "traced by the bench",
}

# members of reached classes that no reached code reads, each kept for a stated reason
ALLOWED_UNREAD = {
    "families.Family.to_curve": "test oracle, reserved for ROADMAP items 11 and 23",
    "families.Family.from_curve": "test oracle, reserved for ROADMAP items 11 and 23",
}

# the one exception type per nonzero exit code; a raise may also give OverflowError (exit 2)
KEPT_ERRORS = {"DegenerateInputError", "NoConvergenceError"}
RAISABLE = KEPT_ERRORS | {"OverflowError"}


def _modules() -> dict:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _bindings(modules: dict):
    """Per qualified name ``module.name``: the module-level statements that bind it.

    Also per module: the local names that ``from . import m`` binds to a
    module, and those that ``from .m import x`` binds to ``m.x``.
    """
    statements, module_alias, imported = {}, {}, {}
    for mod, tree in modules.items():
        module_alias[mod], imported[mod] = {}, {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None and alias.name in modules:
                        module_alias[mod][local] = alias.name
                    elif node.module is not None:
                        imported[mod][local] = f"{node.module}.{alias.name}"
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                statements.setdefault(f"{mod}.{node.name}", []).append(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            statements.setdefault(f"{mod}.{name.id}", []).append(node)
    return statements, module_alias, imported


def _references(mod: str, node, statements, module_alias, imported) -> set:
    """Qualified module-level names that ``node`` refers to."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            if f"{mod}.{sub.id}" in statements:
                out.add(f"{mod}.{sub.id}")
            elif sub.id in imported[mod]:
                out.add(imported[mod][sub.id])
        elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
              and sub.value.id in module_alias[mod]):
            out.add(f"{module_alias[mod][sub.value.id]}.{sub.attr}")
    return out


def _closure(roots, statements, module_alias, imported) -> set:
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        mod = name.split(".")[0]
        for node in statements.get(name, ()):
            todo.extend(_references(mod, node, statements, module_alias, imported))
    return seen


def _bench_trees() -> list:
    return [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(BENCH.glob("*.py"))]


def _cli_roots(statements, imported) -> set:
    return {name for name in statements if name.startswith("cli.")} | set(imported["cli"].values())


def _surface():
    modules = _modules()
    statements, module_alias, imported = _bindings(modules)
    cli_roots = _cli_roots(statements, imported)
    defined = {f"{mod}.{node.name}" for mod, tree in modules.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    from_cli = _closure(cli_roots, statements, module_alias, imported)
    with_allowed = _closure(cli_roots | set(ALLOWED_UNREACHED), statements, module_alias,
                            imported)
    return defined, from_cli, with_allowed


def test_every_function_and_class_is_reached_from_the_cli():
    defined, _, with_allowed = _surface()
    assert sorted(defined - with_allowed) == []


def test_allowlist_names_exist_and_stay_unreached():
    defined, from_cli, _ = _surface()
    assert sorted(set(ALLOWED_UNREACHED) - defined) == []
    assert sorted(set(ALLOWED_UNREACHED) & from_cli) == []


def _members(cls: ast.ClassDef) -> list:
    """Names of the methods, properties and annotated fields of ``cls``, dunders apart."""
    names = [node.name if isinstance(node, ast.FunctionDef) else node.target.id
             for node in cls.body
             if isinstance(node, ast.FunctionDef)
             or isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def _attributes(nodes) -> set:
    return {sub.attr for node in nodes for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}


def _unread_members():
    """(qualified members of reached classes, those no reached code or bench reads)."""
    statements, module_alias, imported = _bindings(_modules())
    roots = _cli_roots(statements, imported) | set(ALLOWED_UNREACHED)
    reached = _closure(roots, statements, module_alias, imported)
    read = _attributes(node for name in reached for node in statements.get(name, ()))
    read |= _attributes(_bench_trees())
    members = {f"{name}.{member}": member
               for name in reached for node in statements.get(name, ())
               if isinstance(node, ast.ClassDef) for member in _members(node)}
    return set(members), {qualified for qualified, member in members.items() if member not in read}


def test_every_member_of_a_reached_class_is_read():
    _, unread = _unread_members()
    assert sorted(unread - set(ALLOWED_UNREAD)) == []


def test_member_allowlist_entries_exist_and_stay_unread():
    members, unread = _unread_members()
    assert sorted(set(ALLOWED_UNREAD) - members) == []
    assert sorted(set(ALLOWED_UNREAD) - unread) == []


def _called_name(node) -> str:
    """The name a ``raise`` constructs or names: ``X`` for ``X(...)``, ``m.X`` or ``X``."""
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def _caught_names() -> set:
    out = set()
    for tree in [*_modules().values(), *_bench_trees()]:
        for handler in ast.walk(tree):
            if isinstance(handler, ast.ExceptHandler) and handler.type is not None:
                kinds = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
                out |= {_called_name(kind) for kind in kinds}
    return out


def test_every_exception_class_is_kept_or_caught_by_name():
    defined = {f"{mod}.{node.name}" for mod, tree in _modules().items() for node in tree.body
               if isinstance(node, ast.ClassDef)
               and issubclass(getattr(importlib.import_module(f"regulab.{mod}"), node.name),
                              BaseException)}
    caught = KEPT_ERRORS | _caught_names()
    assert sorted(name for name in defined if name.split(".")[1] not in caught) == []


def test_the_library_raises_only_the_kept_errors_and_overflow():
    raised = sorted(f"{mod}:{node.lineno}:{_called_name(node.exc)}"
                    for mod, tree in _modules().items() for node in ast.walk(tree)
                    if isinstance(node, ast.Raise) and node.exc is not None
                    and _called_name(node.exc) not in RAISABLE)
    assert raised == []


def _quick_example() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"Quick example:\s*```python\n(.*?)```", text, re.S)
    assert match, "README has no python block under 'Quick example'"
    return match.group(1)


def test_readme_quick_example_gives_the_stated_values():
    namespace, shown = {}, []
    for stmt in ast.parse(_quick_example()).body:
        if isinstance(stmt, ast.Expr):
            shown.append(eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace))
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    identity, table_one_ratio = shown
    assert abs(namespace["m"] - 0.61687093) < 1e-8
    assert identity.residual < 1e-14
    assert abs(table_one_ratio - 1.0) < 1e-13
