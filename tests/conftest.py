import numpy as np
import pytest

from expspec import mesh_s4
from expspec.linalg2 import planar


def as_field(m):
    """The Field of a (..., 2, 2) stack."""
    m = np.asarray(m, dtype=np.complex128)
    return planar(m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1])


def as_stack(f):
    """The (..., 2, 2) stack of a Field."""
    return np.moveaxis(np.asarray(f), 0, -1).reshape(f.shape[1:] + (2, 2))


@pytest.fixture(scope="session")
def mesh9():
    """Coarse mesh: 562 points, enough for exact-identity sweeps."""
    return mesh_s4(9, 8)


@pytest.fixture(scope="session")
def mesh33():
    """Mid-resolution mesh: covering radius small enough to certify the antipodal gap."""
    return mesh_s4(33, 32)
