import multiprocessing
import os

import pytest


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
