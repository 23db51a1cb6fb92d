"""The REP1xx concurrency rules: positives, sanctioned patterns, scope.

The seeded-violation corpus (:mod:`tests.test_check_corpus`) pins each
rule to exact lines; these tests cover the rule *semantics* -- the
sanctioned live-tier patterns each rule must NOT flag, suppression via
``repro: allow[...]``, and the package scoping of the bridge rule.
"""

from repro.check.lint import lint_source
from repro.check.rules import RULES, rule_catalogue

CONCURRENCY_RULES = [rule for rule in RULES if rule.code.startswith("REP1")]


def codes(source: str, module: str = "repro.net.fake") -> list[str]:
    return [
        violation.code
        for violation in lint_source(source, module, rules=CONCURRENCY_RULES)
    ]


# ----------------------------------------------------------------------
# Positives (one canonical shape per rule)
# ----------------------------------------------------------------------


def test_rep101_time_sleep_in_coroutine():
    source = (
        "import time\n"
        "async def poll():\n"
        "    time.sleep(0.1)\n"
    )
    assert codes(source) == ["REP101"]


def test_rep101_bridge_future_result_on_loop():
    source = (
        "async def join(loop, coro):\n"
        "    future = loop.submit(coro)\n"
        "    return future.result()\n"
    )
    assert codes(source) == ["REP101"]


def test_rep102_dropped_coroutine_call():
    source = (
        "async def warm(node):\n"
        "    await node.ping()\n"
        "async def drive(node):\n"
        "    warm(node)\n"
    )
    assert codes(source) == ["REP102"]


def test_rep103_bare_create_task():
    source = (
        "import asyncio\n"
        "async def go(coro):\n"
        "    asyncio.create_task(coro)\n"
    )
    assert codes(source) == ["REP103"]


def test_rep104_await_under_threading_lock():
    source = (
        "import asyncio, threading\n"
        "async def hold():\n"
        "    with threading.Lock():\n"
        "        await asyncio.sleep(0)\n"
    )
    assert codes(source) == ["REP104"]


def test_rep105_call_soon_from_sync_code():
    source = (
        "def kick(loop, cb):\n"
        "    loop.call_soon(cb)\n"
    )
    assert codes(source) == ["REP105"]


def test_rep105_get_event_loop_anywhere():
    source = (
        "import asyncio\n"
        "def grab():\n"
        "    return asyncio.get_event_loop()\n"
    )
    assert codes(source) == ["REP105"]


def test_rep106_ambient_contextvar_in_bridged_package():
    source = (
        "from repro.obs.trace import current_context\n"
        "async def send(conn):\n"
        "    return current_context()\n"
    )
    assert codes(source, "repro.net.fake") == ["REP106"]


# ----------------------------------------------------------------------
# Sanctioned live-tier patterns stay clean
# ----------------------------------------------------------------------


def test_spawn_retain_pattern_is_clean():
    source = (
        "import asyncio\n"
        "class Router:\n"
        "    def __init__(self):\n"
        "        self._tasks = set()\n"
        "    async def spawn(self, coro):\n"
        "        task = asyncio.create_task(coro)\n"
        "        self._tasks.add(task)\n"
        "        task.add_done_callback(self._tasks.discard)\n"
    )
    assert codes(source) == []


def test_async_lock_is_clean():
    source = (
        "import asyncio\n"
        "async def hold(lock):\n"
        "    async with lock:\n"
        "        await asyncio.sleep(0)\n"
    )
    assert codes(source) == []


def test_sync_bridge_result_is_clean():
    source = (
        "import asyncio\n"
        "def call(loop, coro, timeout):\n"
        "    future = asyncio.run_coroutine_threadsafe(coro, loop)\n"
        "    return future.result(timeout=timeout)\n"
    )
    assert codes(source) == []


def test_nested_sync_helper_is_its_own_scope():
    source = (
        "import time\n"
        "async def outer(executor, loop):\n"
        "    def block():\n"
        "        time.sleep(0.1)\n"
        "    await loop.run_in_executor(executor, block)\n"
    )
    assert codes(source) == []


def test_awaited_task_result_on_done_set_is_clean():
    source = (
        "import asyncio\n"
        "async def gather(tasks):\n"
        "    done, _ = await asyncio.wait(tasks)\n"
        "    return [task.result() for task in done]\n"
    )
    assert codes(source) == []


def test_get_running_loop_chain_is_clean():
    source = (
        "import asyncio\n"
        "async def spawn(coro):\n"
        "    task = asyncio.get_running_loop().create_task(coro)\n"
        "    return await task\n"
    )
    assert codes(source) == []


# ----------------------------------------------------------------------
# Scoping + suppression
# ----------------------------------------------------------------------


def test_rep101_to_rep105_only_apply_to_library_code():
    # Tests and the seeded corpus hold these hazards on purpose.
    source = (
        "import asyncio, time\n"
        "async def poll(loop):\n"
        "    time.sleep(0.1)\n"
        "    poll(loop)\n"
        "    asyncio.ensure_future(poll(loop))\n"
        "def kick(loop, cb):\n"
        "    loop.call_soon(cb)\n"
    )
    assert codes(source, "test_loopcheck") == []
    assert codes(source, "repro.controlplane.fake") == [
        "REP101", "REP102", "REP103", "REP105",
    ]


def test_rep106_only_applies_to_bridged_packages():
    source = (
        "from repro.obs.trace import current_context\n"
        "async def send(conn):\n"
        "    return current_context()\n"
    )
    assert codes(source, "repro.obs.fake") == []
    assert codes(source, "repro.proxy.fake") == ["REP106"]


def test_allow_marker_suppresses_async_rules():
    source = (
        "import time\n"
        "async def poll():\n"
        "    time.sleep(0.1)  # repro: allow[REP101]\n"
    )
    assert codes(source) == []


def test_catalogue_lists_all_six_async_rules():
    rows = [row for row in rule_catalogue() if row[0].startswith("REP1")]
    assert [code for code, _, _ in rows] == [
        f"REP10{index}" for index in range(1, 7)
    ]
    assert len({name for _, name, _ in rows}) == 6
