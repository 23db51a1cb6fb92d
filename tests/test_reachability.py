"""Every module under ``src/repro`` is reachable from something that runs.

ROADMAP item 5's rule as a test: follow import statements (module level
or nested, absolute or relative) from the CLI, ``python -m repro`` and
the benchmark scripts; a module nothing reaches is dead weight and goes.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {module_name(path): path for path in SRC.rglob("*.py")}


def imported_modules(path: Path, package: str) -> set[str]:
    """Every ``repro`` module the file's import statements load."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")
                anchor = anchor[: len(anchor) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found & MODULES.keys()


def test_every_module_is_reachable():
    todo = {
        name
        for name in MODULES
        if name.startswith("repro.cli.") or name == "repro.__main__"
    }
    for script in (ROOT / "benchmarks").rglob("*.py"):
        todo |= imported_modules(script, "")
    seen: set[str] = set()
    while todo:
        name = todo.pop()
        seen.add(name)
        path = MODULES[name]
        parent = name.rpartition(".")[0]
        package = name if path.name == "__init__.py" else parent
        # Importing a.b.c runs a and a.b first.
        todo |= ({parent} & MODULES.keys() | imported_modules(path, package)) - seen
    unreached = sorted(MODULES.keys() - seen)
    assert not unreached, f"modules nothing reaches: {unreached}"
