"""Evaluate a batch in forked processes, with the output of a serial loop.

The batch is cut into at most ``MAX_CHUNKS`` chunks.  One pipe holds a
1-byte ticket per chunk, its index; all of them fit in one write below
``PIPE_BUF``, so the write never blocks and each 1-byte read is atomic.  The
parent and its forked children claim chunks one ticket at a time, so heavy
items anywhere in the batch spread evenly, and each process stops at the
pipe's end or at its first error.  A child sends the results of its chunks
to the parent through a pipe of its own and leaves through ``os._exit``.

The parent then walks the chunks in order and evaluates itself every chunk
with no result: one whose evaluation failed, or one whose child died or
could not be forked.  That walk is the serial loop, so the results, and the
first error raised, are those of ``function(items)`` in one process.
"""

from __future__ import annotations

import os
import pickle

MAX_CHUNKS = 256


def fork_map(function, items, workers: int):
    """``function(items)``, shared among up to ``workers`` processes.

    ``function`` maps a list of items to the list of their results.
    """
    size = -(-len(items) // MAX_CHUNKS)
    chunks = [items[start : start + size] for start in range(0, len(items), size)]
    function(items[:0])  # loads the evaluator's modules once, before the fork
    tickets, writer = os.pipe()
    os.write(writer, bytes(range(len(chunks))))
    os.close(writer)
    children = {}  # pid -> read end of its result pipe
    sent = {}  # pid -> what it wrote there
    try:
        for _ in range(min(workers, len(chunks)) - 1):
            reader, writer = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                # No process to spare: the processes running claim the rest.
                os.close(reader)
                os.close(writer)
                break
            if pid == 0:
                os.close(reader)
                _child(function, chunks, tickets, writer)
            os.close(writer)
            children[pid] = reader
        outcomes = _claim(function, chunks, tickets)
        for pid, reader in children.items():
            with open(reader, "rb", closefd=False) as stream:
                sent[pid] = stream.read()
    finally:
        os.close(tickets)
        for pid, reader in children.items():
            os.close(reader)
            # Only a child that exits 0 has written all of its results.
            if os.waitpid(pid, 0)[1] != 0:
                sent.pop(pid, None)
    for data in sent.values():
        outcomes.update(pickle.loads(data))
    results = []
    for index, chunk in enumerate(chunks):
        results.extend(outcomes[index] if index in outcomes else function(chunk))
    return results


def _claim(function, chunks, tickets):
    """{index: results} of the chunks whose tickets this process read."""
    outcomes = {}
    while ticket := os.read(tickets, 1):
        try:
            outcomes[ticket[0]] = function(chunks[ticket[0]])
        except Exception:
            # The parent's serial walk evaluates this chunk again and raises
            # its error in input order.
            break
    return outcomes


def _child(function, chunks, tickets, writer):
    """Claims chunks, sends their results to the parent, and exits."""
    status = 1
    try:
        data = pickle.dumps(_claim(function, chunks, tickets), pickle.HIGHEST_PROTOCOL)
        with open(writer, "wb") as stream:
            stream.write(data)
        status = 0
    finally:
        os._exit(status)
