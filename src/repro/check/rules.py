"""Repo-specific lint rules (the ``REPnnn`` catalogue).

Each rule encodes a contract the code depends on.  The REP0xx rules
protect *simulation* contracts; the REP1xx rules protect the
*asyncio/threading* contracts of the live tier (``repro.net``,
``repro.proxy``, ...): one event loop per
:class:`~repro.net.runtime.EventLoopThread`, synchronous callers on other
threads, and coroutines that must never block that shared loop.

========  ===========================  ========================================
code      name                         contract protected
========  ===========================  ========================================
REP001    no-wall-clock                simulated code never reads the wall
                                       clock (determinism; obs/CLI are out of
                                       scope)
REP002    no-unseeded-rng              every RNG is seeded and instance-scoped
REP003    no-mutable-default           no shared mutable default arguments
REP005    no-float-eq-simtime          simulated-time floats are never
                                       compared with ``==``/``!=``
REP006    no-private-cache-state       only ``repro.memcached`` touches cache
                                       internals (``_table``, ``_lru``, ...)
REP007    public-api-annotations       public ``core``/``memcached`` functions
                                       carry full type annotations
REP008    no-print-in-library          library code reports via ``repro.obs``
                                       or return values, not ``print``
REP101    no-blocking-call-in-async    no blocking call (``time.sleep``, sync
                                       socket/file I/O, subprocess) inside an
                                       ``async def``: it stalls every
                                       connection sharing the loop
REP102    no-unawaited-coroutine       no coroutine called and never awaited
                                       (a silent no-op)
REP103    no-untracked-task-spawn      no ``create_task``/``ensure_future``
                                       result discarded (it can be GC'd
                                       mid-flight and swallows exceptions)
REP104    no-await-under-sync-lock     no ``await`` while holding a
                                       ``threading``-style lock
REP105    threadsafe-loop-access       no non-thread-safe loop method
                                       (``call_soon``, ``create_task``) from
                                       synchronous code holding a loop
REP106    no-contextvar-across-bridge  no ambient contextvar read in a
                                       thread-bridged coroutine: contextvars
                                       do not cross
                                       ``run_coroutine_threadsafe``
========  ===========================  ========================================

Bare ``except:`` is left to ruff (``E722``).  The REP1xx rules and
REP005/REP006 run on library code only (``repro.*``): tests and the
seeded corpus under ``tests/fixtures/check_corpus`` hold deliberate
hazards.  Every rule is a pure AST check -- no imports of the checked
code.
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

#: Packages whose coroutines routinely run on a loop that synchronous
#: threads drive through :class:`~repro.net.runtime.EventLoopThread` --
#: the scope of the contextvar-bridge rule.
ASYNC_BRIDGED_PACKAGES = ("repro.net", "repro.proxy")


def _terminal_name(node: ast.AST) -> str | None:
    """The rightmost identifier of a Name/Attribute chain, else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a pure Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class LibraryRule(LintRule):
    """A rule scoped to library code (``repro.*``).

    Tests and the seeded corpus hold deliberate hazards -- exact float
    asserts, corrupted internals, blocking coroutines -- on purpose.
    """

    def applies_to(self, module: Module) -> bool:
        return module.in_packages("repro")


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


class NoFloatEqSimTimeRule(LibraryRule):
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


def _walk_scope(root: ast.AST) -> Iterator[ast.AST]:
    """Walk ``root``'s body without descending into nested function defs.

    A nested ``def``/``async def``/``lambda`` is its own execution scope --
    a sync helper defined inside a coroutine may legitimately run on
    another thread -- so scope-sensitive rules must not attribute its body
    to the enclosing function.
    """
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _functions(tree: ast.Module) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


class NoBlockingCallInAsyncRule(LibraryRule):
    """REP101: no blocking calls inside ``async def``.

    One blocked coroutine blocks the *whole* event loop -- every
    connection, timer, and breaker sharing it.  Flags ``time.sleep``,
    synchronous socket dialing, subprocess execution, synchronous file
    I/O (builtin ``open`` and the ``pathlib`` read/write helpers), and
    ``concurrent.futures`` results awaited with ``.result()`` on futures
    produced by the thread bridge (``submit`` /
    ``run_coroutine_threadsafe``) -- calling ``.result()`` on the loop
    thread for work scheduled on that same loop deadlocks it.
    """

    code = "REP101"
    name = "no-blocking-call-in-async"
    description = "blocking call inside async code"

    #: Dotted call chains that block the calling thread outright.
    BLOCKING_CALLS = frozenset(
        {
            "time.sleep",
            "socket.create_connection",
            "socket.getaddrinfo",
            "socket.gethostbyname",
            "subprocess.run",
            "subprocess.call",
            "subprocess.check_call",
            "subprocess.check_output",
            "os.system",
            "urllib.request.urlopen",
            "requests.get",
            "requests.post",
            "requests.request",
        }
    )
    #: Attribute calls that are file I/O no matter the receiver.
    BLOCKING_ATTRS = frozenset(
        {"read_text", "read_bytes", "write_text", "write_bytes"}
    )

    def check(self, module: Module) -> Iterator[Violation]:
        for func in _functions(module.tree):
            if not isinstance(func, ast.AsyncFunctionDef):
                continue
            bridged = self._bridge_futures(func)
            for node in _walk_scope(func):
                if not isinstance(node, ast.Call):
                    continue
                dotted = _dotted_name(node.func)
                if dotted in self.BLOCKING_CALLS:
                    yield self.violation(
                        module,
                        node,
                        f"blocking `{dotted}(...)` inside `async def "
                        f"{func.name}` stalls the whole event loop; use "
                        "the asyncio equivalent (e.g. `await "
                        "asyncio.sleep`, `asyncio.open_connection`)",
                    )
                elif (
                    isinstance(node.func, ast.Name)
                    and node.func.id == "open"
                ):
                    yield self.violation(
                        module,
                        node,
                        f"synchronous file I/O (`open`) inside `async def "
                        f"{func.name}`; do file work off-loop (e.g. "
                        "`loop.run_in_executor`) or before entering async "
                        "code",
                    )
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in self.BLOCKING_ATTRS
                ):
                    yield self.violation(
                        module,
                        node,
                        f"synchronous file I/O "
                        f"(`.{node.func.attr}`) inside `async def "
                        f"{func.name}` blocks the event loop",
                    )
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "result"
                    and self._is_bridge_future(node.func.value, bridged)
                ):
                    yield self.violation(
                        module,
                        node,
                        "`.result()` on a thread-bridge future inside "
                        f"`async def {func.name}` can deadlock the loop; "
                        "`await asyncio.wrap_future(...)` instead",
                    )

    @staticmethod
    def _bridge_futures(func: ast.AsyncFunctionDef) -> set[str]:
        """Names assigned from ``submit``/``run_coroutine_threadsafe``."""
        names: set[str] = set()
        for node in _walk_scope(func):
            if not (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
            ):
                continue
            called = _terminal_name(node.value.func)
            if called not in ("submit", "run_coroutine_threadsafe"):
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        return names

    @staticmethod
    def _is_bridge_future(receiver: ast.AST, bridged: set[str]) -> bool:
        if isinstance(receiver, ast.Name) and receiver.id in bridged:
            return True
        if isinstance(receiver, ast.Call):
            called = _terminal_name(receiver.func)
            return called in ("submit", "run_coroutine_threadsafe")
        return False


class NoUnawaitedCoroutineRule(LibraryRule):
    """REP102: a coroutine call whose result is discarded never runs.

    Calling an ``async def`` returns a coroutine object; dropping it on
    the floor (a bare expression statement) is a silent no-op plus a
    ``never awaited`` warning at GC time.  Only calls that *provably*
    produce a coroutine are flagged -- inside an ``async def``, a bare
    statement calling a module-level ``async def`` by name, a
    ``self.<m>(...)`` whose ``<m>`` is an async method of the enclosing
    class, or ``asyncio.sleep`` -- so sync methods that merely share a
    name with a coroutine elsewhere in the module stay clean.
    """

    code = "REP102"
    name = "no-unawaited-coroutine"
    description = "coroutine called but never awaited"

    @staticmethod
    def _scopes(
        tree: ast.Module,
    ) -> Iterator[tuple[ast.AsyncFunctionDef, set[str], set[str]]]:
        """Yield (async def, module-level async names, class async names)."""
        module_async = {
            node.name
            for node in ast.iter_child_nodes(tree)
            if isinstance(node, ast.AsyncFunctionDef)
        }
        for node in ast.iter_child_nodes(tree):
            if isinstance(node, ast.AsyncFunctionDef):
                yield node, module_async, set()
            elif isinstance(node, ast.ClassDef):
                methods = {
                    child.name
                    for child in ast.iter_child_nodes(node)
                    if isinstance(child, ast.AsyncFunctionDef)
                }
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, ast.AsyncFunctionDef):
                        yield child, module_async, methods

    def check(self, module: Module) -> Iterator[Violation]:
        for func, module_async, class_async in self._scopes(module.tree):
            for node in _walk_scope(func):
                if not (
                    isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Call)
                ):
                    continue
                call = node.value
                dotted = _dotted_name(call.func)
                target = _terminal_name(call.func)
                is_coroutine = (
                    dotted == "asyncio.sleep"
                    or (
                        isinstance(call.func, ast.Name)
                        and call.func.id in module_async
                    )
                    or (
                        isinstance(call.func, ast.Attribute)
                        and isinstance(call.func.value, ast.Name)
                        and call.func.value.id == "self"
                        and call.func.attr in class_async
                    )
                )
                if is_coroutine:
                    yield self.violation(
                        module,
                        node,
                        f"coroutine `{target}(...)` is never awaited; "
                        "`await` it, or hand it to `asyncio.create_task` "
                        "and retain the task",
                    )


class NoUntrackedTaskSpawnRule(LibraryRule):
    """REP103: fire-and-forget tasks must be retained.

    The event loop keeps only a *weak* reference to tasks; a bare
    ``create_task(...)``/``ensure_future(...)`` statement can be
    garbage-collected mid-flight, and its exception is reported to
    nobody.  Keep a reference and attach a done-callback that discards
    it -- the pattern ``ProxyRouter._spawn`` implements.
    """

    code = "REP103"
    name = "no-untracked-task-spawn"
    description = "task spawned without retaining a reference"

    SPAWNERS = frozenset({"create_task", "ensure_future"})

    def check(self, module: Module) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Call)
            ):
                continue
            called = _terminal_name(node.value.func)
            if called in self.SPAWNERS:
                yield self.violation(
                    module,
                    node,
                    f"`{called}(...)` result discarded: the loop holds "
                    "only a weak reference, so the task can vanish "
                    "mid-flight and its exception is lost; retain it in "
                    "a set with a done-callback (see "
                    "`ProxyRouter._spawn`)",
                )


class NoAwaitUnderSyncLockRule(LibraryRule):
    """REP104: never ``await`` while holding a synchronous lock.

    A ``with some_lock:`` block that suspends at an ``await`` keeps the
    *thread* lock held across arbitrary loop iterations; any other
    thread (or any coroutine ending up on a thread that) touching the
    lock deadlocks.  Asyncio locks via ``async with`` are fine.
    """

    code = "REP104"
    name = "no-await-under-sync-lock"
    description = "await while holding a synchronous lock"

    LOCK_FACTORIES = frozenset(
        {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}
    )

    def _lock_like(self, expr: ast.AST) -> str | None:
        if isinstance(expr, ast.Call):
            called = _terminal_name(expr.func)
            dotted = _dotted_name(expr.func) or ""
            if called in self.LOCK_FACTORIES and not dotted.startswith(
                "asyncio."
            ):
                return called
            return None
        name = _terminal_name(expr)
        if name is not None and (
            "lock" in name.lower() or "mutex" in name.lower()
        ):
            return name
        return None

    def check(self, module: Module) -> Iterator[Violation]:
        for func in _functions(module.tree):
            if not isinstance(func, ast.AsyncFunctionDef):
                continue
            for node in _walk_scope(func):
                # `async with` (ast.AsyncWith) is the sanctioned form.
                if not type(node) is ast.With:  # noqa: E714 - exact type
                    continue
                lock_name = None
                for item in node.items:
                    lock_name = self._lock_like(item.context_expr)
                    if lock_name is not None:
                        break
                if lock_name is None:
                    continue
                for inner in node.body:
                    for sub in ast.walk(inner):
                        if isinstance(sub, ast.Await):
                            yield self.violation(
                                module,
                                sub,
                                f"`await` while holding synchronous lock "
                                f"`{lock_name}`: the thread lock stays "
                                "held across the suspension; use "
                                "`asyncio.Lock` with `async with`, or "
                                "release before awaiting",
                            )
                            break


class ThreadsafeLoopAccessRule(LibraryRule):
    """REP105: synchronous code must use the thread-safe loop entry points.

    ``loop.call_soon``/``loop.create_task``/``loop.call_later`` are only
    legal *on* the loop's own thread.  Synchronous code that holds a loop
    reference is, in this codebase, by construction on another thread
    (that is what :class:`~repro.net.runtime.EventLoopThread` is for),
    so it must go through ``loop.call_soon_threadsafe``,
    ``asyncio.run_coroutine_threadsafe``, or ``EventLoopThread.submit``.
    ``asyncio.get_event_loop()`` is flagged outright: it hands back a
    thread-local loop that is almost never the live tier's loop.
    """

    code = "REP105"
    name = "threadsafe-loop-access"
    description = "non-thread-safe loop access from synchronous code"

    UNSAFE_METHODS = frozenset(
        {"call_soon", "call_later", "call_at", "create_task"}
    )
    LOOP_NAMES = ("loop",)

    def _loopish(self, receiver: ast.AST) -> bool:
        if isinstance(receiver, ast.Call):
            # get_running_loop() only succeeds on the loop thread, so
            # chained calls on it are safe by construction.
            return _terminal_name(receiver.func) == "get_event_loop"
        name = _terminal_name(receiver)
        return name is not None and name.lower().endswith(self.LOOP_NAMES)

    def check(self, module: Module) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and _dotted_name(node.func) == "asyncio.get_event_loop"
            ):
                yield self.violation(
                    module,
                    node,
                    "`asyncio.get_event_loop()` returns a thread-local "
                    "loop, not the live tier's; use "
                    "`asyncio.get_running_loop()` inside coroutines or "
                    "an explicitly owned `EventLoopThread`",
                )
        for func in _functions(module.tree):
            if isinstance(func, ast.AsyncFunctionDef):
                continue
            for node in _walk_scope(func):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in self.UNSAFE_METHODS
                    and self._loopish(node.func.value)
                ):
                    continue
                yield self.violation(
                    module,
                    node,
                    f"`{node.func.attr}` on an event loop from "
                    f"synchronous `{func.name}` is not thread-safe; use "
                    "`call_soon_threadsafe`, "
                    "`asyncio.run_coroutine_threadsafe`, or "
                    "`EventLoopThread.submit`",
                )


class NoContextvarAcrossBridgeRule(LintRule):
    """REP106: ambient contextvar reads in bridged async-tier coroutines.

    Contextvars propagate through ``await`` within one task but **not**
    across ``run_coroutine_threadsafe`` -- the mechanism every
    synchronous caller in this repo uses to reach the live tier.  A
    coroutine in ``repro.net``/``repro.proxy`` that reads an ambient
    contextvar therefore silently sees the default when driven through
    the bridge.  Provide an explicit override attribute (the
    ``NodeClient.trace_context`` pattern) and mark the deliberate
    ambient fallback with ``repro: allow[REP106]``.
    """

    code = "REP106"
    name = "no-contextvar-across-bridge"
    description = "ambient contextvar read in a thread-bridged coroutine"

    READER_CALLS = frozenset({"current_context", "copy_context"})

    def applies_to(self, module: Module) -> bool:
        return module.in_packages(*ASYNC_BRIDGED_PACKAGES)

    @staticmethod
    def _contextvar_get(node: ast.Call) -> str | None:
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "get"):
            return None
        name = _terminal_name(func.value)
        if name is None:
            return None
        if name.isupper() or name.endswith(("_CONTEXT", "_VAR")):
            return name
        return None

    def check(self, module: Module) -> Iterator[Violation]:
        for func in _functions(module.tree):
            if not isinstance(func, ast.AsyncFunctionDef):
                continue
            for node in _walk_scope(func):
                if not isinstance(node, ast.Call):
                    continue
                called = _terminal_name(node.func)
                var_name = self._contextvar_get(node)
                if called in self.READER_CALLS or var_name is not None:
                    subject = var_name or f"{called}()"
                    yield self.violation(
                        module,
                        node,
                        f"ambient contextvar read (`{subject}`) inside "
                        f"`async def {func.name}`: contextvars do not "
                        "cross run_coroutine_threadsafe, so bridged "
                        "callers read the default; accept an explicit "
                        "override (see `NodeClient.trace_context`)",
                    )


RULES: tuple[LintRule, ...] = (
    NoWallClockRule(),
    NoUnseededRngRule(),
    NoMutableDefaultRule(),
    NoFloatEqSimTimeRule(),
    NoPrivateCacheStateRule(),
    PublicApiAnnotationsRule(),
    NoPrintInLibraryRule(),
    NoBlockingCallInAsyncRule(),
    NoUnawaitedCoroutineRule(),
    NoUntrackedTaskSpawnRule(),
    NoAwaitUnderSyncLockRule(),
    ThreadsafeLoopAccessRule(),
    NoContextvarAcrossBridgeRule(),
)
"""The rule catalogue, in code order."""


def rule_catalogue() -> list[tuple[str, str, str]]:
    """(code, name, description) rows for docs and ``repro check --list``."""
    return [(rule.code, rule.name, rule.description) for rule in RULES]
