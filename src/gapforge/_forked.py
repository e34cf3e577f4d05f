"""A function mapped over items on every usable CPU: one share here, the others in forked children.

:func:`run` is the one place the package forks, and the one place work is
dealt to shares and put back in order.  It serves work that is pure Python
or holds the GIL, where threads would take turns: the points of a large
scan, the blocks of a large scan's CSV and two kernel CSVs.  Its rules:

* It forks at most ``usable_cpus() - 1`` children, counting the CPUs from
  ``os.sched_getaffinity(0)``, so a process pinned to one CPU (``taskset -c
  0``), or on a platform without that call (macOS, Windows), maps every
  item in process, in order.  There is no knob.
* Each child pickles its share's results into a pipe and leaves through
  ``os._exit``: it runs no exit handler and flushes none of the caller's
  buffers.
* A share whose child could not be forked (out of processes or
  descriptors), or sent nothing (it raised, or died), is mapped again here,
  so its results, or its exception, are those of a serial map.
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
R = TypeVar("R")


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call (macOS, Windows)
        return 1


def run(fn: Callable[[T], R], items: Sequence[T], shares: int) -> list[R]:
    """``[fn(item) for item in items]``, dealt over at most ``shares`` processes.

    With ``n = min(shares, len(items), usable_cpus())``, share ``k`` maps
    ``fn`` over ``items[k::n]``: share 0 here, the others in forked
    children.  Dealing item by item evens out a cost that drifts along the
    items.  The results come back in item order.  Where items raise, the
    exception is that of the first share, in share order, that raised: a
    serial map's when one item raises, but with two, the one in the lower
    share, which need not be the earlier item.
    """
    n = min(shares, len(items), usable_cpus())
    if n < 2:
        return [fn(item) for item in items]
    import signal

    def share(k: int) -> list[R]:
        return [fn(item) for item in items[k::n]]

    children: list[tuple[int, IO[bytes]]] = []
    try:
        for k in range(1, n):
            try:
                children.append(_fork(share, k))
            except OSError:  # out of processes or descriptors: map the rest here
                break
        results: list = [None] * len(items)
        results[0::n] = share(0)
        for k in range(1, n):
            sent = _received(children[k - 1][1]) if k <= len(children) else None
            results[k::n] = share(k) if sent is None else sent[0]
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


def _fork(share: Callable[[int], object], k: int) -> tuple[int, IO[bytes]]:
    """Fork a child that pickles ``share(k)`` into a pipe; its pid and the read end."""
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
                pickle.dump(share(k), out, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")
