"""A fork pool that maps a function over chunks of an input file on every CPU
the process may use, in job order; an input of one chunk, or a process allowed
one CPU, is mapped in this process and never imports `multiprocessing`."""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import signal
import sys


class WorkerDied(RuntimeError):
    """A pool worker process ended without returning its chunk (killed, say, for memory)."""


def chunked(items, size: int, weight=lambda item: 1):
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


def _look_ahead(chunks):
    """(the same chunks, whether there are at least two). An error met while
    reading the second is raised after the first chunk, where a plain loop meets it."""
    head = list(itertools.islice(chunks, 1))
    try:
        head += itertools.islice(chunks, 1)
    except Exception as exc:
        return itertools.chain(head, _raise(exc)), False
    # a list iterator lets go of the list once read, so the first chunks are not held to the end
    return itertools.chain(iter(head), chunks), len(head) == 2


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
        del job                                   # sent: this process need not hold it meanwhile
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
def map_chunks(fn, chunks):
    """(fn over chunks in order, the number of processes mapping it): every CPU
    this process may run on, once a second chunk exists, else this process alone.
    The workers are stopped when the block ends."""
    chunks, several = _look_ahead(chunks)
    workers = len(os.sched_getaffinity(0)) if several and hasattr(os, "sched_getaffinity") else 1
    with _chunk_mapper(workers) as mapper:
        yield mapper(fn, chunks), workers
