"""Static guards on the package source: module boundaries and size."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "levylab"

#: Line budget of ``src/levylab/*.py``: the package may shrink, never grow past it.
MAX_LINES = 4000


def _package_imports(tree) -> set[str]:
    """Package modules a module imports, relatively or as ``levylab.<name>``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                names |= {node.module} if node.module else {alias.name for alias in node.names}
            elif node.module and node.module.split(".")[0] == "levylab":
                names |= {node.module.partition(".")[2] or "__init__"}
        elif isinstance(node, ast.Import):
            names |= {a.name.partition(".")[2] or "__init__" for a in node.names if a.name.split(".")[0] == "levylab"}
    return names


def test_config_imports_only_errors_and_runner():
    # the grammar knows no domain module; what a section builds is declared in the registry
    assert _package_imports(ast.parse((SRC / "config.py").read_text())) == {"errors", "runner"}


def test_package_within_line_budget():
    total = sum(len(path.read_text().splitlines()) for path in SRC.glob("*.py"))
    assert total <= MAX_LINES, f"src/levylab/*.py has {total} lines, above the budget of {MAX_LINES}"


def _definitions() -> dict[str, tuple[ast.stmt, set[str]]]:
    """Each top-level definition of ``src/levylab`` as ``module.name``: its node and the package names it refers to.

    A reference is a bare name (resolved through the module's relative imports,
    or to the module itself), a relative import inside the definition, or an
    attribute of an imported package module (``rng.stream``).
    """
    modules = {path.stem for path in SRC.glob("*.py")}
    defs = {}
    for path in sorted(SRC.glob("*.py")):
        mod, tree = path.stem, ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    if node.module:
                        target = f"{node.module}.{alias.name}"
                    else:  # ``from . import x``: a package module, or a name of ``__init__``
                        target = alias.name if alias.name in modules else f"__init__.{alias.name}"
                    imported[alias.asname or alias.name] = target
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            refs = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    refs.add(imported.get(sub.id, f"{mod}.{sub.id}"))
                elif isinstance(sub, ast.ImportFrom) and sub.level and sub.module:
                    refs |= {f"{sub.module}.{alias.name}" for alias in sub.names}
                elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                      and imported.get(sub.value.id) in modules):
                    refs.add(f"{imported[sub.value.id]}.{sub.attr}")
            defs.update((f"{mod}.{name}", (node, refs)) for name in names)
    return defs


def _registers_a_kind(node) -> bool:
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_experiment"
               for d in getattr(node, "decorator_list", ()))


def test_every_definition_is_reached_from_the_cli():
    # the package is what the CLI runs: every top-level name, private helpers
    # included, is reached from cli.main or a registered kind, directly or
    # through other src/ definitions; test-only code belongs in tests/oracles.py
    defs = _definitions()
    todo = ["cli.main"] + [name for name, (node, _) in defs.items()
                           if name.startswith("runner.") and _registers_a_kind(node)]
    reached = set()
    while todo:
        name = todo.pop()
        if name in defs and name not in reached:
            reached.add(name)
            todo.extend(defs[name][1])
    unreached = sorted(set(defs) - reached)
    assert not unreached, f"src/levylab defines names no CLI path reaches: {unreached}"
