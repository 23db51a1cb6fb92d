"""Corpus: REP106 -- ambient contextvar reads across the thread bridge."""
# module: repro.net.corpus_rep106

from contextvars import copy_context

from repro.obs.trace import current_context

TRACE_CONTEXT = None  # stands in for a module-level ContextVar


async def send(node, payload):
    ctx = current_context()  # expect: REP106
    ambient = TRACE_CONTEXT.get()  # expect: REP106
    snapshot = copy_context()  # expect: REP106
    return await node.write(payload, ctx, ambient, snapshot)


def bridge(node, payload):
    # Reading the ambient context on the *calling* thread, before the
    # bridge hop, is exactly how the override should be captured.
    ctx = current_context()
    return node.submit(node.write(payload, ctx, None, None))
