"""The library surface: what the CLI reaches, and the README's example.

Every module-level function and class of ``src/regulab`` must be reached
from ``cli.py`` by following module-level names through the syntax tree,
apart from a named allowlist.  The README's quick example runs as written
and gives the values its comments state.
"""

import ast
import re
from pathlib import Path

import regulab

SRC = Path(regulab.__file__).parent
README = Path(__file__).parents[1] / "README.md"

# module-level names no CLI path reaches, each kept for a stated reason
ALLOWED_UNREACHED = {
    # wrapped by name in bench/tracing.py's LAYERS (ROADMAP item 1)
    "numerics.integrate_endpoint_singular": "traced by the bench",
    "numerics.solve_quadratic_stable": "traced by the bench",
    "dilogarithm.bloch_wigner": "traced by the bench",
    "dilogarithm.elliptic_dilog": "traced by the bench",
    "lfunctions.epsilon_detect": "traced by the bench",
    # the measure = eta route (ROADMAP item 11)
    "mahler.eta_path_integral": "the eta route",
    "mahler.jensen_path_eta": "the eta route",
}


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


def _surface():
    modules = _modules()
    statements, module_alias, imported = _bindings(modules)
    cli_roots = {name for name in statements if name.startswith("cli.")}
    cli_roots |= set(imported["cli"].values())
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
