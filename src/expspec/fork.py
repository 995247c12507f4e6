"""The two-process runner: the back half of a long computation in one forked helper.

This is the one module of the package that forks. _two_halves' docstring
states the runner's contract, which its callers rely on; fold is the one
merge it runs, by the rules each caller declares.
"""

import os
import pickle
from itertools import takewhile

__all__ = []

# signal.SIGKILL on every POSIX system; importing the signal module would
# add about 90 KiB to the RSS of every process for this one number
_SIGKILL = 9


def _two_halves(length, block, run, split, rules):
    """fold(results, rules) of the results of run(0, length), its back half run by a forked helper.

    run(start, stop) yields one result tuple per `block`-long range of
    [start, stop), in order, the last range shorter. Each process folds its
    results as they come: whenever it holds isqrt(count) + 1 of them, for
    the count of blocks in [0, length), it folds those into one, which
    folds again as a result (see fold). So a process holds at most that
    many results, and no fold gets more, however long the range.

    The cut. With split, where the range is two blocks or more and
    os.sched_getaffinity(0) offers two or more CPUs, the range is cut at
    the block boundary (count // 2) * block. One helper forked with os.fork
    runs the back half and pickles its one folded result through a pipe
    while this process runs the front half; this process then folds its own
    fold and the helper's, in that order. Processes, not threads: the
    GIL changes hands at every ufunc call, and at a block's size a call is
    too short to pay for that, so two threads measured no faster than one.
    Each process holds its own run's buffers, and the max RSS that wait4
    reports for this process is the larger of its own and its reaped
    helper's, not their sum. A helper's side effects stay in the helper:
    its warnings print there, and a tracer in this process sees only the
    front half.

    The error order. A failing run raises what one process raises: the
    front half's error first, else the back half's, with its type and
    message.

    Kill and reap. The helper checks after each block that its parent is
    alive, and runs no further block if not; any error here, a
    KeyboardInterrupt included, kills and reaps it first.

    Where the helper cannot be forked, this process runs run(0, length)
    as it does without split; where a helper delivers nothing readable,
    this process runs the back half itself.
    """
    count = -(-length // block)
    cut = count // 2 * block
    helper = split and count >= 2 and _cpus() >= 2 and _fork_helper(run, cut, length, count, rules)
    if not helper:
        return _folded(run(0, length), rules, count)
    pid, pipe = helper
    try:
        front = _folded(run(0, cut), rules, count)
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
        done, back = True, _folded(run(cut, length), rules, count)
    if not done:
        raise back
    return fold([front, back], rules)


def _folded(results, rules, count):
    """fold of every result, folded whenever isqrt(count) + 1 of them are held."""
    held = []
    for result in results:
        # len(held) > isqrt(count), in integers
        if len(held) ** 2 > count:
            held = [fold(held, rules)]
        held.append(result)
    return fold(held, rules)


def fold(parts, rules):
    """Fold result tuples field by field, one rule per field.

    A rule is a ufunc, np.maximum or np.minimum, which unlike max() and
    min() keeps a nan from any part. Its folded extreme is a float plus
    0.0, so a -0.0 extreme reads 0.0: which zero a fold over ties keeps
    depends on the order it meets them, so a chunk size and the fork's cut
    would show in the sign. Any other rule is a callable that takes the
    field's column, the tuple of its per-part values, and returns the
    folded value: sum, for counts, or a merge of per-part arrays. Returns
    a tuple, one value per field, which folds again as a part: with every
    rule associative, folding the folds of consecutive parts gives the
    fold of all the parts, so no result depends on how _two_halves cut
    its range or when it folded.
    """
    # a list, not a generator, for the same reason as in linalg2._rows;
    # numpy's ufuncs are the rules with a reduce method
    return tuple([float(rule.reduce(c)) + 0.0 if hasattr(rule, "reduce") else rule(c)
                  for rule, c in zip(rules, zip(*parts))])


def _cpus():
    """The CPUs this process may run on; 1 where that is unknown."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _fork_helper(run, cut, length, count, rules):
    """Fork the helper that folds the results of run(cut, length), the back half of count blocks.

    Returns (pid, read end of its pipe), or None when the pipe or the fork
    fails. After each block the helper checks that its parent is the
    same: a helper whose parent died runs no further block,
    and the pickle it then writes finds no reader. It writes one pickle,
    (True, folded result) or (False, exception), which the parent cannot
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
            results = takewhile(lambda _: os.getppid() == parent, run(cut, length))
            payload = (True, _folded(results, rules, count))
        except BaseException as exc:
            payload = (False, exc)
        with os.fdopen(w, "wb") as pipe:
            pickle.dump(payload, pipe, pickle.HIGHEST_PROTOCOL)
    finally:
        os._exit(0)
