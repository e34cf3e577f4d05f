"""Test helpers that count, and check the reaping of, the processes a call forks."""

from __future__ import annotations

import os

import pytest

FORK = os.fork


def usable_cpus(monkeypatch, count):
    """Make ``os.sched_getaffinity`` report ``count`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def counted_forks(monkeypatch):
    """A list that grows by one for each os.fork the calling process makes."""
    forks = []

    def counting():
        forks.append(None)
        return FORK()

    monkeypatch.setattr(os, "fork", counting)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
