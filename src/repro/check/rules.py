"""Repo-specific lint rules (the ``REPnnn`` catalogue).

Each rule encodes a contract the simulation depends on:

========  ==========================  =========================================
code      name                        contract protected
========  ==========================  =========================================
REP001    no-wall-clock               simulated code never reads the wall clock
                                      (determinism; obs/CLI are out of scope)
REP002    no-unseeded-rng             every RNG is seeded and instance-scoped
REP003    no-mutable-default          no shared mutable default arguments
REP004    no-bare-except              failures are never silently widened
REP005    no-float-eq-simtime         simulated-time floats are never compared
                                      with ``==``/``!=``
REP006    no-private-cache-state      only ``repro.memcached`` touches cache
                                      internals (``_table``, ``_lru``, ...)
REP007    public-api-annotations      public ``core``/``memcached`` functions
                                      carry full type annotations
REP008    no-print-in-library         library code reports via ``repro.obs``
                                      or return values, not ``print``
========  ==========================  =========================================
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.check.lint import LintRule, Module, Violation

#: Packages whose code runs *inside* the simulated timeline.
SIMULATED_PACKAGES = (
    "repro.sim",
    "repro.core",
    "repro.memcached",
    "repro.workloads",
)


def _terminal_name(node: ast.AST) -> str | None:
    """The rightmost identifier of a Name/Attribute chain, else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class NoWallClockRule(LintRule):
    """REP001: no wall-clock reads in simulated code.

    The simulation has its own clock; reading ``time.time`` (or friends)
    inside ``sim``/``core``/``memcached``/``workloads`` silently couples
    results to the host machine.  Observability wall-clock spans
    (``repro.obs``) and CLI progress timing (``repro.cli``) are outside
    the rule's scope by construction.
    """

    code = "REP001"
    name = "no-wall-clock"
    description = "wall-clock read inside simulated code"

    WALL_TIME_ATTRS = frozenset(
        {"time", "time_ns", "perf_counter", "perf_counter_ns",
         "monotonic", "monotonic_ns", "process_time", "localtime"}
    )
    WALL_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

    def applies_to(self, module: Module) -> bool:
        return module.in_packages(*SIMULATED_PACKAGES)

    def check(self, module: Module) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module in (
                "time",
                "datetime",
            ):
                for alias in node.names:
                    if (
                        alias.name in self.WALL_TIME_ATTRS
                        or alias.name in self.WALL_DATETIME_ATTRS
                    ):
                        yield self.violation(
                            module,
                            node,
                            f"importing wall-clock `{node.module}."
                            f"{alias.name}` into simulated code; use the "
                            "sim clock passed as `now`",
                        )
            elif isinstance(node, ast.Attribute):
                base = node.value
                if (
                    isinstance(base, ast.Name)
                    and base.id == "time"
                    and node.attr in self.WALL_TIME_ATTRS
                ):
                    yield self.violation(
                        module,
                        node,
                        f"`time.{node.attr}` reads the wall clock; "
                        "simulated code must use the sim clock (`now`)",
                    )
                elif node.attr in self.WALL_DATETIME_ATTRS and (
                    (isinstance(base, ast.Name) and base.id == "datetime")
                    or (
                        isinstance(base, ast.Attribute)
                        and base.attr == "datetime"
                        and isinstance(base.value, ast.Name)
                        and base.value.id == "datetime"
                    )
                ):
                    yield self.violation(
                        module,
                        node,
                        f"`datetime.{node.attr}` reads the wall clock; "
                        "simulated code must use the sim clock (`now`)",
                    )


class NoUnseededRngRule(LintRule):
    """REP002: every RNG must be seeded and instance-scoped.

    Flags module-level ``random.*`` calls (shared global state),
    ``random.Random()`` without a seed, ``np.random.default_rng()``
    without a seed, and legacy ``np.random.<dist>`` global draws.
    """

    code = "REP002"
    name = "no-unseeded-rng"
    description = "unseeded or module-global RNG use"

    NUMPY_SEEDED_TYPES = frozenset(
        {"Generator", "SeedSequence", "BitGenerator"}
    )

    def check(self, module: Module) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            base = func.value
            if isinstance(base, ast.Name) and base.id == "random":
                if func.attr == "Random":
                    if not node.args and not node.keywords:
                        yield self.violation(
                            module,
                            node,
                            "`random.Random()` without a seed is "
                            "nondeterministic; pass an explicit seed",
                        )
                else:
                    yield self.violation(
                        module,
                        node,
                        f"module-level `random.{func.attr}(...)` uses the "
                        "shared global RNG; use a seeded "
                        "`random.Random(seed)` instance",
                    )
            elif (
                isinstance(base, ast.Attribute)
                and base.attr == "random"
                and isinstance(base.value, ast.Name)
                and base.value.id in ("np", "numpy")
            ):
                if func.attr == "default_rng":
                    if not node.args and not node.keywords:
                        yield self.violation(
                            module,
                            node,
                            "`np.random.default_rng()` without a seed is "
                            "nondeterministic; pass an explicit seed",
                        )
                elif func.attr not in self.NUMPY_SEEDED_TYPES:
                    yield self.violation(
                        module,
                        node,
                        f"legacy `np.random.{func.attr}(...)` draws from "
                        "the global numpy RNG; use "
                        "`np.random.default_rng(seed)`",
                    )


class NoMutableDefaultRule(LintRule):
    """REP003: no mutable default argument values."""

    code = "REP003"
    name = "no-mutable-default"
    description = "mutable default argument"

    MUTABLE_CALLS = frozenset(
        {"list", "dict", "set", "bytearray", "defaultdict", "deque",
         "Counter", "OrderedDict"}
    )

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(
            node,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
             ast.SetComp),
        ):
            return True
        if isinstance(node, ast.Call):
            name = _terminal_name(node.func)
            return name in self.MUTABLE_CALLS
        return False

    def check(self, module: Module) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.violation(
                        module,
                        default,
                        f"mutable default argument in `{node.name}`; "
                        "default to None (or use dataclasses.field)",
                    )


class NoBareExceptRule(LintRule):
    """REP004: no bare ``except:`` clauses."""

    code = "REP004"
    name = "no-bare-except"
    description = "bare except clause"

    def check(self, module: Module) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.violation(
                    module,
                    node,
                    "bare `except:` swallows SystemExit/KeyboardInterrupt "
                    "and hides real failures; catch a ReproError subclass",
                )


class NoFloatEqSimTimeRule(LintRule):
    """REP005: no ``==``/``!=`` on simulated-time floats.

    Sim timestamps are accumulated floats; exact equality silently
    depends on summation order.  Comparing against the literal sentinel
    ``0``/``0.0`` ("never expires") or ``None`` stays legal.  Scoped to
    library code: tests assert exact equality against deterministic
    literals on purpose.
    """

    code = "REP005"
    name = "no-float-eq-simtime"
    description = "float equality on a simulated-time value"

    def applies_to(self, module: Module) -> bool:
        return module.in_packages("repro")

    TIME_NAMES = frozenset(
        {"now", "time", "timestamp", "ts", "last_access", "created_at",
         "expires_at", "executed_at", "deadline", "start_time",
         "end_time", "sim_s"}
    )
    TIME_SUFFIXES = ("_s", "_seconds", "_time", "_timestamp", "_at", "_ts")

    def _time_like(self, node: ast.AST) -> str | None:
        name = _terminal_name(node)
        if name is None:
            return None
        if name in self.TIME_NAMES or name.endswith(self.TIME_SUFFIXES):
            return name
        return None

    @staticmethod
    def _exempt_operand(node: ast.AST) -> bool:
        return isinstance(node, ast.Constant) and (
            node.value is None
            or isinstance(node.value, str)
            or (
                isinstance(node.value, (int, float))
                and not isinstance(node.value, bool)
                and node.value == 0
            )
        )

    def check(self, module: Module) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(
                node.ops, operands[:-1], operands[1:]
            ):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if self._exempt_operand(left) or self._exempt_operand(
                    right
                ):
                    continue
                name = self._time_like(left) or self._time_like(right)
                if name is not None:
                    yield self.violation(
                        module,
                        node,
                        f"float equality on simulated-time value "
                        f"`{name}`; use an ordering comparison or "
                        "math.isclose",
                    )


class NoPrivateCacheStateRule(LintRule):
    """REP006: cache internals stay inside ``repro.memcached``.

    The hash table and MRU pointers are load-bearing invariants;
    outside code must go through the public node/cluster surface
    (``peek``, ``keys``, ``items_in_mru_order``, ...).  Scoped to
    library code outside ``repro.memcached``: tests corrupt internals
    deliberately to prove the invariant checkers notice.
    """

    code = "REP006"
    name = "no-private-cache-state"
    description = "private cache state touched outside repro.memcached"

    PRIVATE_ATTRS = frozenset(
        {"_table", "_items", "_lru", "_head", "_tail", "_cas_counter"}
    )

    def applies_to(self, module: Module) -> bool:
        return module.in_packages("repro") and not module.in_packages(
            "repro.memcached"
        )

    def check(self, module: Module) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in self.PRIVATE_ATTRS
                and not (
                    isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                )
            ):
                yield self.violation(
                    module,
                    node,
                    f"access to private cache state `.{node.attr}` from "
                    "outside repro.memcached; use the public node/cluster "
                    "API",
                )


class PublicApiAnnotationsRule(LintRule):
    """REP007: public ``core``/``memcached`` functions are fully annotated."""

    code = "REP007"
    name = "public-api-annotations"
    description = "public function missing type annotations"

    def applies_to(self, module: Module) -> bool:
        return module.in_packages("repro.core", "repro.memcached")

    def _check_function(
        self, module: Module, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Violation]:
        args = node.args
        positional = list(args.posonlyargs) + list(args.args)
        if positional and positional[0].arg in ("self", "cls"):
            positional = positional[1:]
        missing = [
            arg.arg
            for arg in positional + list(args.kwonlyargs)
            if arg.annotation is None
        ]
        for extra in (args.vararg, args.kwarg):
            if extra is not None and extra.annotation is None:
                missing.append(f"*{extra.arg}")
        if missing:
            yield self.violation(
                module,
                node,
                f"public function `{node.name}` has unannotated "
                f"parameter(s): {', '.join(missing)}",
            )
        if node.returns is None:
            yield self.violation(
                module,
                node,
                f"public function `{node.name}` is missing a return "
                "annotation",
            )

    def check(self, module: Module) -> Iterator[Violation]:
        # Walk module- and class-level functions only; nested helpers are
        # implementation detail.
        scopes: list[ast.AST] = [module.tree]
        scopes.extend(
            node
            for node in ast.walk(module.tree)
            if isinstance(node, ast.ClassDef)
        )
        for scope in scopes:
            for node in ast.iter_child_nodes(scope):
                if not isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                if node.name.startswith("_"):
                    continue
                yield from self._check_function(module, node)


class NoPrintInLibraryRule(LintRule):
    """REP008: library code must not ``print``.

    Human-facing output belongs to ``repro.cli`` and the report renderers
    in ``repro.analysis``; everything else returns data or records
    telemetry through ``repro.obs``.
    """

    code = "REP008"
    name = "no-print-in-library"
    description = "print() call in library code"

    def applies_to(self, module: Module) -> bool:
        return not module.in_packages("repro.cli", "repro.analysis")

    def check(self, module: Module) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield self.violation(
                    module,
                    node,
                    "print() in library code; return data or record it "
                    "via repro.obs instead",
                )


DEFAULT_RULES: tuple[LintRule, ...] = (
    NoWallClockRule(),
    NoUnseededRngRule(),
    NoMutableDefaultRule(),
    NoBareExceptRule(),
    NoFloatEqSimTimeRule(),
    NoPrivateCacheStateRule(),
    PublicApiAnnotationsRule(),
    NoPrintInLibraryRule(),
)
"""The full rule catalogue, in code order."""


def rule_catalogue() -> list[tuple[str, str, str]]:
    """(code, name, description) rows for docs and ``repro check --list``."""
    return [
        (rule.code, rule.name, rule.description) for rule in DEFAULT_RULES
    ]
