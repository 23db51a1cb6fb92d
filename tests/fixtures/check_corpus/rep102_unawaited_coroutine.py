"""Corpus: REP102 -- coroutines called but never awaited."""
# module: repro.net.corpus_rep102

import asyncio


async def warm_up(node):
    await node.connect()


async def drive(node):
    warm_up(node)  # expect: REP102
    asyncio.sleep(0.5)  # expect: REP102
    await node.close()


class Pool:
    async def drain(self):
        await asyncio.sleep(0)

    async def shutdown(self):
        self.drain()  # expect: REP102
        await asyncio.sleep(0)

    async def legit(self):
        await self.drain()
        task = asyncio.get_running_loop().create_task(self.drain())
        return await task

    def sync_lifecycle(self):
        # Sync methods sharing a name with coroutines elsewhere in the
        # module must stay clean (the harness start/stop pattern).
        self.start()
        self.stop()

    def start(self):
        return self

    def stop(self):
        return self


async def start():
    await asyncio.sleep(0)
