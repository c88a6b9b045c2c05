"""Fork-join, the one way a phase of a run uses more than one CPU: a
child per independent part writes its result to a file of its own, read
back in part order.  A forked child inherits the parent's heap, so no
input is pickled (a built scenario would not pickle)."""

import os
import pickle
import tempfile
from contextlib import contextmanager

_RAISED = b"raised\n"  # what a child writes ahead of its pickled exception
MIN_SHARE_ROWS = 32_768  # rows below which a share of a phase's rows does not pay for its process


def share_count(rows: int) -> int:
    """Shares to split ``rows`` rows into: one per usable CPU, each with MIN_SHARE_ROWS."""
    return min(len(os.sched_getaffinity(0)), rows // MIN_SHARE_ROWS)


@contextmanager
def forked(parts: list, work, name, error: type[Exception]):
    """Fork a child per part to run ``work(part, file)`` into an anonymous
    binary temporary file, and give (part, file) in part order, the file
    at its start, once that child has exited 0.  A child's exception is
    raised again from an ``error`` naming the part (``name(part)``) with
    the child's traceback (as an ``error`` naming its type if it does not
    pickle), and another nonzero exit raises ``error``.  However the
    block ends, every child is stopped and reaped and every file closed."""
    import multiprocessing  # here, not at the top: it is a tenth of set-up time

    fork = multiprocessing.get_context("fork")  # safe: the program starts no thread
    children, files = [], []
    try:
        for part in parts:
            files.append(tempfile.TemporaryFile())
            child = fork.Process(target=_child, args=(work, part, files[-1], error), daemon=True)
            child.start()
            children.append(child)
        yield _joined(parts, children, files, name, error)
    finally:
        for child in children:
            child.terminate()  # no effect on a child that has exited
            child.join()
        for file in files:
            file.close()


def _joined(parts, children, files, name, error):
    for part, child, file in zip(parts, children, files):
        child.join()
        file.seek(0)
        if child.exitcode == 0:
            yield part, file
        elif file.read(len(_RAISED)) == _RAISED:
            exc, tb = pickle.load(file)
            raise exc from error(f"raised in the process {name(part)}:\n{tb}")
        else:
            raise error(f"the process {name(part)} exited with code {child.exitcode}")


def _child(work, part, file, error) -> None:
    """Body of a forked child: ``work(part, file)``, or, if that raises,
    exit code 1 and the exception and its traceback at the file's start."""
    try:
        work(part, file)
    except BaseException as exc:  # the parent raises it again
        import traceback

        tb = traceback.format_exc()
        try:
            pickle.loads(raised := pickle.dumps((exc, tb)))
        except Exception:  # the exception does not pickle, or not back
            raised = pickle.dumps((error(f"{type(exc).__name__}: {exc}"), tb))
        file.seek(0)
        file.write(_RAISED + raised)  # what the work wrote after it is not read
        raise SystemExit(1) from None
    finally:
        file.flush()
