import multiprocessing
import os
import tempfile
from multiprocessing.context import ForkProcess

import pytest

from droughtnet import forked


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running; stop it first."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join()
    assert not left, f"child processes left running: {left}"


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(n)`` makes the run see n usable CPUs, so ``simulate``
    splits the regions over up to n processes."""
    def pin(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    return pin


@pytest.fixture
def share_rows(monkeypatch):
    """``share_rows(n)`` lets each share of a phase that splits rows over
    processes (the export, the load, an analytics pass) hold n rows."""
    def least(n):
        monkeypatch.setattr(forked, "MIN_SHARE_ROWS", n)
    return least


@pytest.fixture
def started(monkeypatch):
    """The child processes started during the test, in order."""
    processes = []
    start = ForkProcess.start
    monkeypatch.setattr(ForkProcess, "start", lambda self: (processes.append(self), start(self)))
    return processes


@pytest.fixture
def opened(monkeypatch):
    """The temporary files opened during the test."""
    files = []
    temporary = tempfile.TemporaryFile

    def recorded(*args, **kwargs):
        files.append(temporary(*args, **kwargs))
        return files[-1]

    monkeypatch.setattr(tempfile, "TemporaryFile", recorded)
    return files
