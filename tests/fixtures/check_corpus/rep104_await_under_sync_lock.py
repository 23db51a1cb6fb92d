"""Corpus: REP104 -- ``await`` while holding a synchronous lock."""
# module: repro.net.corpus_rep104

import asyncio
import threading


async def refresh(state):
    with state.lock:
        await state.reload()  # expect: REP104


async def guarded(data):
    with threading.Lock():
        await asyncio.sleep(0)  # expect: REP104


async def sanctioned(state):
    async with state.send_lock:
        await state.reload()


async def released_first(state):
    with state.lock:
        snapshot = dict(state.table)
    await state.push(snapshot)
