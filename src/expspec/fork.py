"""The forked side of algebra._two_halves: the helper process that runs a back half.

It lives in a module of its own, apart from the rest of the two-process
runner in algebra, to keep algebra's source, the largest module the
package compiles, from growing: without bytecode files every verifier
process compiles the package at import, and the compile of its largest
module sets the high-water mark of the heap there (CHANGES.md).
"""

import os
import pickle

__all__ = []


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
