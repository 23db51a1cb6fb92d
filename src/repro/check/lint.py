"""AST-based lint framework for repo-specific correctness rules.

The standard linters (ruff) catch generic Python mistakes; the rules this
framework hosts encode *simulation* contracts -- e.g. "no wall-clock reads
inside simulated code" or "never mutate another object's cache state" --
that no off-the-shelf rule set knows about.  See :mod:`repro.check.rules`
for the catalogue.

Rules receive a parsed :class:`Module` (path, dotted module name, AST,
source lines) and yield :class:`Violation` records.  A violation on a line
carrying a ``repro: allow[CODE]`` comment is suppressed, which is the
escape hatch for the rare legitimate exception.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence


@dataclass(frozen=True)
class Violation:
    """One lint finding."""

    code: str
    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        """The human-readable one-line form printed by ``repro check``."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.code} [{self.rule}] {self.message}"
        )


@dataclass
class Module:
    """One parsed source file handed to every rule."""

    path: str
    #: Dotted module name (e.g. ``repro.sim.metrics``) from the enclosing
    #: package directories; rules scope themselves by prefix.  Files
    #: outside any package get their bare stem.
    module: str
    tree: ast.Module
    source_lines: Sequence[str] = field(default_factory=list)

    def in_packages(self, *prefixes: str) -> bool:
        """True when the module sits under any of the dotted prefixes."""
        return any(
            self.module == prefix or self.module.startswith(prefix + ".")
            for prefix in prefixes
        )


class LintRule:
    """Base class for one lint rule.

    Subclasses set :attr:`code` (stable ``REPnnn`` identifier),
    :attr:`name` (kebab-case slug) and :attr:`description`, and implement
    :meth:`check`.  :meth:`applies_to` scopes the rule to parts of the
    tree; the framework skips non-matching modules entirely.
    """

    code: str = "REP000"
    name: str = "unnamed-rule"
    description: str = ""

    def applies_to(self, module: Module) -> bool:
        """Whether this rule runs on ``module`` (default: every module)."""
        return True

    def check(self, module: Module) -> Iterator[Violation]:
        """Yield violations found in ``module``."""
        raise NotImplementedError

    def violation(
        self, module: Module, node: ast.AST, message: str
    ) -> Violation:
        """Build a :class:`Violation` anchored at ``node``."""
        return Violation(
            code=self.code,
            rule=self.name,
            path=module.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


def module_name_for(path: Path) -> str:
    """Dotted module name for ``path``, the way Python's import system sees it.

    The name is built from the chain of enclosing package directories
    (those holding an ``__init__.py``): ``src/repro/sim/metrics.py ->
    repro.sim.metrics``, and ``__init__.py`` maps to its package.  It
    never depends on where the checkout sits, so a clone under a directory
    that happens to be called ``repro`` does not pull ``tests/`` into the
    library-scoped rules.  A file outside any package gets its bare stem,
    which keeps synthetic lint fixtures out of every scoped rule unless
    the test passes an explicit module name to :func:`lint_source`.
    """
    parts = [path.stem] if path.name != "__init__.py" else []
    package = path.absolute().parent
    while (package / "__init__.py").is_file():
        parts.insert(0, package.name)
        package = package.parent
    return ".".join(parts) or path.stem


ALLOW_MARKER = "repro: allow["


def _allowed(module: Module, violation: Violation) -> bool:
    """True when the violation's line carries a matching allow marker."""
    index = violation.line - 1
    if 0 <= index < len(module.source_lines):
        line = module.source_lines[index]
        return f"{ALLOW_MARKER}{violation.code}]" in line
    return False


class Linter:
    """Runs a rule set over parsed modules."""

    def __init__(self, rules: Sequence[LintRule]) -> None:
        self.rules = list(rules)

    def check_module(self, module: Module) -> list[Violation]:
        """All violations of every applicable rule, suppressions applied."""
        found: list[Violation] = []
        for rule in self.rules:
            if not rule.applies_to(module):
                continue
            for violation in rule.check(module):
                if not _allowed(module, violation):
                    found.append(violation)
        return found

    def check_source(
        self, source: str, path: str = "<string>", module: str | None = None
    ) -> list[Violation]:
        """Lint a source string (the unit-test entry point)."""
        parsed = Module(
            path=path,
            module=module or module_name_for(Path(path)),
            tree=ast.parse(source),
            source_lines=source.splitlines(),
        )
        return self.check_module(parsed)

    def check_file(self, path: Path) -> list[Violation]:
        """Lint one file on disk."""
        source = path.read_text()
        return self.check_source(source, path=str(path))


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Expand files/directories into ``.py`` files, skipping caches."""
    for entry in paths:
        path = Path(entry)
        if path.is_dir():
            for found in sorted(path.rglob("*.py")):
                if "__pycache__" not in found.parts:
                    yield found
        elif path.suffix == ".py":
            yield path


def lint_paths(
    paths: Iterable[str | Path], rules: Sequence[LintRule] | None = None
) -> list[Violation]:
    """Lint every Python file under ``paths`` with ``rules``.

    ``rules=None`` uses the full catalogue.  Results are ordered by path,
    then line.
    """
    if rules is None:
        from repro.check.rules import RULES

        rules = RULES
    linter = Linter(rules)
    violations: list[Violation] = []
    for path in iter_python_files(paths):
        violations.extend(linter.check_file(path))
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    return violations


def lint_source(
    source: str,
    module: str,
    rules: Sequence[LintRule] | None = None,
) -> list[Violation]:
    """Lint a source string as if it were ``module`` (test helper)."""
    if rules is None:
        from repro.check.rules import RULES

        rules = RULES
    return Linter(rules).check_source(
        source, path=f"<{module}>", module=module
    )
