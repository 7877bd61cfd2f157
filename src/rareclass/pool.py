"""A fork pool that cuts the items of an input file into chunks and maps a
function over them on every CPU the process may use, in chunk order. It reads
one item past the first chunk to tell whether a second exists, so a worker
starts holding at most the first chunk and that item. An input of one chunk,
or a process allowed one CPU, is mapped in this process and never imports
`multiprocessing`."""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import signal
import sys


class WorkerDied(RuntimeError):
    """A worker process, a pool's or `bench`'s child, ended without returning its
    result (killed, say, for memory)."""


def chunked(items, size: int, weight):
    """The items in lists of total `weight` at least `size`; the last list may weigh less."""
    chunk, filled = [], 0
    for item in items:
        chunk.append(item)
        filled += weight(item)
        if filled >= size:
            yield chunk
            chunk, filled = [], 0
    if chunk:
        yield chunk


def _raise(exc: Exception):
    raise exc
    yield                                         # a generator: it raises when first read


def _look_ahead(items, size: int, weight):
    """(the items in chunks, whether there are at least two), having read one item
    past the first chunk to tell. An error met while reading that item is raised
    after the first chunk, where a plain loop meets it."""
    items = iter(items)
    head = list(itertools.islice(chunked(items, size, weight), 1))
    try:
        following = list(itertools.islice(items, 1))
    except Exception as exc:
        return itertools.chain(head, _raise(exc)), False
    # chunked starts a chunk after each one it yields, so going on from the item
    # read keeps every boundary; a list iterator lets go of the first chunk once read
    rest = chunked(itertools.chain(following, items), size, weight)
    return itertools.chain(iter(head), rest), bool(following)


def _serve(fn, pipe, inherited):
    """A fork-pool worker: fn on each job read from `pipe`, sending back
    (True, its result) or (False, the error it raised), until the main process
    closes its end."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)      # Ctrl-C is for the main process to handle
    for end in inherited:                 # main's ends, so a pipe closes when main lets go of it
        end.close()
    while True:
        try:
            job = pipe.recv()
        except (EOFError, OSError):       # main closed its end (a reset if it left a reply unread)
            return
        try:
            reply = True, fn(job)
        except Exception as exc:
            reply = False, exc
        try:
            pipe.send(reply)
        except OSError:                   # the main process stopped waiting for it
            return


def _worker_died(proc) -> WorkerDied:
    proc.join()
    return WorkerDied(f"worker process {proc.pid} ended before returning its chunk "
                      f"(exit status {proc.exitcode})")


def _receive(proc, pipe):
    try:
        ok, value = pipe.recv()
    except EOFError:
        raise _worker_died(proc) from None
    if not ok:
        raise value
    return value


def _fork_map(fn, jobs, *, workers: int, started: list):
    """fn over jobs in `workers` forked processes, results in job order. Job i
    goes to worker i % workers, which holds one job at a time, so at most
    `workers` jobs are out and reading keeps pace with the consumer. Each
    (process, pipe) started is added to `started`, for the caller to stop. An
    error reading the jobs is raised after the results of the jobs before it."""
    import multiprocessing                        # only a multi-chunk input pays for it
    fork = multiprocessing.get_context("fork")
    sys.stdout.flush()                            # a worker must not inherit unwritten output
    sys.stderr.flush()
    for _ in range(workers):
        here, there = fork.Pipe()
        proc = fork.Process(target=_serve, args=(fn, there, [p for _, p in started] + [here]),
                            daemon=True)
        proc.start()
        there.close()
        started.append((proc, here))

    def outstanding():
        for i in range(max(sent - workers, 0), sent):
            yield _receive(*started[i % workers])

    sent, jobs = 0, iter(jobs)
    while True:
        try:
            job = next(jobs)
        except StopIteration:
            break
        except Exception as exc:                  # the chunks read before it come out first
            yield from outstanding()
            raise exc
        proc, pipe = started[sent % workers]
        # the oldest job out is on this worker: take its result, then hand it the next job
        result = _receive(proc, pipe) if sent >= workers else None
        try:
            pipe.send(job)
        except OSError:
            raise _worker_died(proc) from None
        sent += 1
        if sent > workers:
            yield result
    yield from outstanding()


@contextlib.contextmanager
def _chunk_mapper(workers: int):
    """A `map`: the builtin one in this process for one worker, else _fork_map
    over `workers` processes, stopped when the block ends."""
    started = []
    try:
        yield map if workers == 1 else functools.partial(_fork_map, workers=workers, started=started)
    finally:
        for proc, pipe in started:
            pipe.close()
            proc.terminate()
            proc.join()


@contextlib.contextmanager
def map_chunks(fn, items, size: int, weight=lambda item: 1):
    """(fn over `chunked(items, size, weight)` in order, the number of processes
    mapping it): every CPU this process may run on, once a second chunk exists,
    else this process alone. The workers are stopped when the block ends."""
    chunks, several = _look_ahead(items, size, weight)
    workers = len(os.sched_getaffinity(0)) if several and hasattr(os, "sched_getaffinity") else 1
    with _chunk_mapper(workers) as mapper:
        yield mapper(fn, chunks), workers
