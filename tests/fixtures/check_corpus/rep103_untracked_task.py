"""Corpus: REP103 -- tasks spawned without retaining a reference."""
# module: repro.net.corpus_rep103

import asyncio


async def fire_and_forget(coro):
    asyncio.create_task(coro)  # expect: REP103


def schedule(loop_thread, coro):
    asyncio.ensure_future(coro, loop=loop_thread.loop)  # expect: REP103


class Router:
    def __init__(self):
        self._tasks = set()

    async def spawn(self, coro):
        # The sanctioned pattern (ProxyRouter._spawn): retain the task
        # and discard it from the registry when it completes.
        task = asyncio.create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task
