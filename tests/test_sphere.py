import numpy as np
import pytest
from numpy.testing import assert_array_equal

from expspec.sphere import (
    InvalidResolution,
    equator_mesh,
    mesh_s4,
    s3_shell_grid,
    shell_point_count,
)


def norms4(z0, z1, z2):
    return np.abs(z0) ** 2 + np.abs(z1) ** 2 + z2**2


def test_minimal_mesh_count_and_poles():
    m = mesh_s4(3, 8)
    # two poles plus one equator shell of (K-1)*S^2 + 2S = 80 points
    assert shell_point_count(8) == 80
    assert len(m) == 82
    assert m.point(0) == (0j, 0j, 1.0)
    assert m.point(len(m) - 1) == (0j, 0j, -1.0)
    # the equator shell is exact
    eq = m.equator_slice
    assert np.all(m.z2[eq] == 0.0)


def test_point_normalization():
    m = mesh_s4(9, 8)
    assert np.abs(norms4(*m.arrays()) - 1.0).max() <= 1e-14


def test_determinism():
    a = mesh_s4(5, 8)
    b = mesh_s4(5, 8)
    assert_array_equal(a.z0, b.z0)
    assert_array_equal(a.z1, b.z1)
    assert_array_equal(a.z2, b.z2)


def test_equator_mesh_properties():
    z0, z1, z2 = equator_mesh(8)
    assert np.all(z2 == 0.0)
    assert np.abs(np.abs(z0) ** 2 + np.abs(z1) ** 2 - 1.0).max() <= 1e-14
    # the Hopf-coordinate origin is on the grid
    assert np.any((z0 == 1.0) & (z1 == 0.0))


def test_equator_submesh_matches_equator_mesh():
    m = mesh_s4(9, 8)
    z0, z1, z2 = equator_mesh(8)
    eq = m.equator_slice
    assert_array_equal(m.z0[eq], z0)
    assert_array_equal(m.z1[eq], z1)
    assert_array_equal(m.z2[eq], z2)


def test_latitude_snapping():
    m = mesh_s4(5, 8)
    assert set(np.unique(m.z2)) >= {-1.0, 0.0, 1.0}


def test_invalid_resolutions():
    with pytest.raises(InvalidResolution):
        mesh_s4(2, 8)
    with pytest.raises(InvalidResolution):
        mesh_s4(8, 8)  # even latitude count has no equator
    with pytest.raises(InvalidResolution):
        mesh_s4(9, 4)
    with pytest.raises(InvalidResolution):
        s3_shell_grid(7)


def embed(m):
    return np.column_stack([m.z0.real, m.z0.imag, m.z1.real, m.z1.imag, m.z2])


def min_pairwise_gap(m):
    # all points are unit vectors: min chordal gap = sqrt(2 - 2 max offdiag dot)
    pts = embed(m)
    best = -np.inf
    for i in range(0, len(pts), 1024):
        dots = pts[i : i + 1024] @ pts.T
        np.fill_diagonal(dots[:, i : i + 1024], -np.inf)
        best = max(best, float(dots.max()))
    return np.sqrt(max(2.0 - 2.0 * best, 0.0))


def test_refinement_shrinks_min_gap():
    coarse = mesh_s4(5, 8)
    fine = mesh_s4(9, 16)
    assert min_pairwise_gap(fine) <= min_pairwise_gap(coarse)


def test_covering_radius_bounds_sampled_distances():
    m = mesh_s4(17, 16)
    rng = np.random.RandomState(0)
    v = rng.standard_normal((2000, 5))
    v /= np.linalg.norm(v, axis=1)[:, None]
    best_dot = (v @ embed(m).T).max(axis=1)
    # the geodesic distance to the nearest mesh point, which the bound controls
    d = np.arccos(np.minimum(best_dot, 1.0))
    assert d.max() <= m.covering_radius
