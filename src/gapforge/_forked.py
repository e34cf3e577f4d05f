"""Independent calls on every usable CPU: the first here, the others in forked children.

:func:`run` is the one place the package forks.  It serves work that is
pure Python or holds the GIL, where threads would take turns, and has three
users: the shares of a large scan, the text of a large scan's CSV and the
second of two kernel CSVs.  Its rules:

* It forks at most ``usable_cpus() - 1`` children, counting the CPUs from
  ``os.sched_getaffinity(0)``, so a process pinned to one CPU (``taskset -c
  0``), or on a platform without that call (macOS, Windows), runs every
  call in process, in order.  There is no knob.
* Each child pickles its call's result into a pipe and leaves through
  ``os._exit``: it runs no exit handler and flushes none of the caller's
  buffers.
* A call whose child could not be forked (out of processes or
  descriptors), or sent nothing (it raised, or died), is run again here, so
  its result, or its exception, is that of a serial run.
* On an exception the children are killed first (``SIGKILL``), so the
  raise waits for no child still at work; every child is reaped on every
  path.

An in-process run imports neither :mod:`pickle` nor :mod:`signal`.

A process whose BLAS keeps a thread pool forks too; the children run numpy
and BLAS calls.  From Python 3.12 ``os.fork`` warns (``DeprecationWarning``)
in any process with more than one thread; CI tests up to Python 3.11.
"""

from __future__ import annotations

import os
from typing import IO, Callable, Sequence, TypeVar

T = TypeVar("T")


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call (macOS, Windows)
        return 1


def run(calls: Sequence[Callable[[], T]]) -> list[T]:
    """``[call() for call in calls]``, with calls ``1 .. usable_cpus() - 1`` in forked children.

    Results come back in the order of ``calls``; so does the first
    exception, as from a serial run.
    """
    forks = min(len(calls), usable_cpus()) - 1
    if forks < 1:
        return [call() for call in calls]
    import signal

    children: list[tuple[int, IO[bytes]]] = []
    try:
        for call in calls[1:1 + forks]:
            try:
                children.append(_fork(call))
            except OSError:  # out of processes or descriptors: run the rest here
                break
        results = [calls[0]()]
        for i, call in enumerate(calls[1:], start=1):
            sent = _received(children[i - 1][1]) if i <= len(children) else None
            results.append(call() if sent is None else sent[0])
        return results
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, stream in children:
            stream.close()
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:  # reaped already, as under SIGCHLD set to SIG_IGN
                pass


def _received(stream: IO[bytes]) -> tuple | None:
    """``(result,)`` as a child pickled it into ``stream``; None when it sent nothing."""
    import pickle

    try:
        return (pickle.load(stream),)
    except (EOFError, pickle.UnpicklingError):  # nothing, or a cut-off pickle
        return None


def _fork(call: Callable[[], object]) -> tuple[int, IO[bytes]]:
    """Fork a child that pickles ``call()`` into a pipe; its pid and the read end."""
    import pickle

    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as out:
                pickle.dump(call(), out, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")
