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
