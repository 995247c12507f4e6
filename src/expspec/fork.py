"""The two-process runner: the back half of a long computation in one forked helper.

This is the one module of the package that forks. _two_halves' docstring
states the runner's contract, which its callers rely on.
"""

import os
import pickle

__all__ = []

# signal.SIGKILL on every POSIX system; importing the signal module would
# add about 90 KiB to the RSS of every process for this one number
_SIGKILL = 9


def _two_halves(length, block, run, split):
    """The results of run(0, length), in order, its back half run by a forked helper.

    run(start, stop) yields one result per `block`-long range of [start,
    stop), in order, the last range shorter. This generator yields them as
    they come.

    The cut. With split, where the range is two blocks or more and
    os.sched_getaffinity(0) offers two or more CPUs, the range is cut at
    the block boundary (count // 2) * block. One helper forked with os.fork
    runs the back half and pickles its results through a pipe while this
    process runs the front half; the back half's results follow the front
    half's. Processes, not threads: the GIL changes hands at every ufunc
    call, and at a block's size a call is too short to pay for that, so
    two threads measured no faster than one. Each process holds its own
    run's buffers, and the max RSS that wait4 reports for this process is
    the larger of its own and its reaped helper's, not their sum. A
    helper's side effects stay in the helper: its warnings print there,
    and a tracer in this process sees only the front half.

    The error order. A failing run raises what one process raises: the
    front half's error first, else the back half's, with its type and
    message.

    Kill and reap. The helper checks before each block it pulls that its
    parent is alive, and exits if not; any error here, a KeyboardInterrupt
    or a consumer that closes this generator included, kills and reaps it
    first.

    Where the helper cannot be forked, this process runs run(0, length)
    as it does without split; where a helper delivers nothing readable,
    this process runs the back half itself.
    """
    count = -(-length // block)
    cut = count // 2 * block
    helper = split and count >= 2 and _cpus() >= 2 and _fork_helper(run, cut, length, count - count // 2)
    if not helper:
        yield from run(0, length)
        return
    pid, pipe = helper
    try:
        yield from run(0, cut)
        data = pipe.read()
    except BaseException:
        os.kill(pid, _SIGKILL)
        raise
    finally:
        pipe.close()
        os.waitpid(pid, 0)
    try:
        done, back = pickle.loads(data)
    except Exception:
        # a helper that delivered nothing readable
        yield from run(cut, length)
        return
    if not done:
        raise back
    yield from back


def _cpus():
    """The CPUs this process may run on; 1 where that is unknown."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _fork_helper(run, cut, length, blocks):
    """Fork the helper that pulls the `blocks` results of run(cut, length).

    Returns (pid, read end of its pipe), or None when the pipe or the fork
    fails. Before each block the helper exits if its parent has
    changed: a helper whose parent died runs no further. It writes one
    pickle, (True, results) or (False, exception), which the parent cannot
    read if it does not pickle whole, and always leaves by os._exit: it
    runs no exit handlers and flushes no buffer it inherited.
    """
    parent = os.getpid()
    try:
        r, w = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid:
        os.close(w)
        return pid, os.fdopen(r, "rb")
    try:
        os.close(r)
        try:
            results, back = run(cut, length), []
            for _ in range(blocks):
                if os.getppid() != parent:
                    os._exit(1)
                back.append(next(results))
            payload = (True, back)
        except BaseException as exc:
            payload = (False, exc)
        with os.fdopen(w, "wb") as pipe:
            pickle.dump(payload, pipe, pickle.HIGHEST_PROTOCOL)
    finally:
        os._exit(0)
