import os

import numpy as np
import pytest

from expspec import algebra, fork, linking, mesh_s4
from expspec.linalg2 import planar


def as_field(m):
    """The Field of a (..., 2, 2) stack."""
    m = np.asarray(m, dtype=np.complex128)
    return planar(m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1])


def as_stack(f):
    """The (..., 2, 2) stack of a Field."""
    return np.moveaxis(np.asarray(f), 0, -1).reshape(f.shape[1:] + (2, 2))


def hopf(w0, w1):
    """Hopf map S^3 -> S^2: (w0, w1) -> (-2 w0 conj(w1), |w0|^2 - |w1|^2).

    Returns (complex, real) arrays; the image lies on the unit 2-sphere
    embedded in C x R.
    """
    w0 = np.asarray(w0, dtype=np.complex128)
    w1 = np.asarray(w1, dtype=np.complex128)
    return -2.0 * w0 * np.conj(w1), (w0 * np.conj(w0) - w1 * np.conj(w1)).real


def equator_ring(mesh):
    """The points of the mesh's equator latitude as three new arrays (z0, z1, z2).

    Latitude j, 0 < j < lat_count - 1, is the index range starting at
    1 + (j - 1) * shell_size; the equator is j = (lat_count - 1) / 2.
    """
    start = 1 + (mesh.lat_count - 3) // 2 * mesh.shell_size
    # the only chunk of a generator dropped at once: nothing overwrites it
    return next(mesh.chunks(mesh.shell_size, start, start + mesh.shell_size))[:3]


def poisoned(tab, runs):
    """A copy of the latitude tables tab with every entry of a latitude that runs lacks spoiled.

    A float or complex entry becomes nan and a bool entry flips, so a
    kernel that reads a table entry of a latitude its chunk does not hold
    changes its result.
    """
    other = np.ones(next(iter(tab.values())).shape[-1], bool)
    other[[j for j, _, _ in runs]] = False
    spoiled = {}
    for name, table in tab.items():
        table = np.array(table)
        table[..., other] = ~table[..., other] if table.dtype == bool else np.nan
        spoiled[name] = table
    return spoiled


@pytest.fixture(scope="session")
def mesh9():
    """Coarse mesh: 562 points, enough for exact-identity sweeps."""
    return mesh_s4(9, 8)


@pytest.fixture(scope="session")
def mesh33():
    """Mid-resolution mesh: covering radius small enough to certify the antipodal gap."""
    return mesh_s4(33, 32)


@pytest.fixture
def forks(monkeypatch):
    """Split every sweep and linking pass of two or more blocks, and record each os.fork call."""
    calls = []
    real_fork = os.fork

    def counting_fork():
        calls.append(1)
        return real_fork()

    monkeypatch.setattr(algebra, "SPLIT_POINTS", 0)
    monkeypatch.setattr(linking, "SPLIT_PAIRS", 0)
    monkeypatch.setattr(fork, "_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


def assert_no_child_left():
    # every helper is reaped, so this process has no child at all
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
