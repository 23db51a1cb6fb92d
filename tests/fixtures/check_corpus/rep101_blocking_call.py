"""Corpus: REP101 -- blocking calls inside ``async def``."""
# module: repro.net.corpus_rep101

import time


async def poll(client):
    time.sleep(0.1)  # expect: REP101
    return await client.ping()


async def load(path, target):
    with open(path) as handle:  # expect: REP101
        data = handle.readline()
    text = target.read_text()  # expect: REP101
    return data, text


async def join_bridge(loop, coro):
    future = loop.submit(coro)
    return future.result()  # expect: REP101


async def clean(client):
    # A sync helper defined inside the coroutine is its own scope: it
    # may run on an executor thread, so its body must not be attributed
    # to the enclosing coroutine.
    def backoff():
        time.sleep(0.1)

    return await client.ping(backoff)


def sync_wait():
    time.sleep(0.1)
