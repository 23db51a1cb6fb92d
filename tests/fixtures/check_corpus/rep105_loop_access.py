"""Corpus: REP105 -- non-thread-safe loop access from synchronous code."""
# module: repro.net.corpus_rep105

import asyncio


def kick(loop, callback):
    loop.call_soon(callback)  # expect: REP105


def adopt():
    return asyncio.get_event_loop()  # expect: REP105


def defer(event_loop, callback):
    event_loop.call_later(0.5, callback)  # expect: REP105


def safe(loop, coro, callback):
    loop.call_soon_threadsafe(callback)
    return asyncio.run_coroutine_threadsafe(coro, loop)


async def on_loop(coro):
    # On the loop's own thread these entry points are legal.
    return asyncio.get_running_loop().create_task(coro)
