import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from expspec.algebra import CHUNK
from expspec.report import MAX_LAT
from expspec.sphere import (
    InvalidResolution,
    mesh_s4,
    shell_point_count,
)

from conftest import equator_ring


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
    assert np.all(equator_ring(m)[2] == 0.0)


def test_point_normalization():
    m = mesh_s4(9, 8)
    assert np.abs(norms4(*m.arrays()) - 1.0).max() <= 1e-14


def test_determinism():
    for x, y in zip(mesh_s4(5, 8).arrays(), mesh_s4(5, 8).arrays()):
        assert_array_equal(x, y)


def test_equator_mesh_properties():
    z0, z1, z2 = equator_ring(mesh_s4(3, 8))
    assert np.all(z2 == 0.0)
    assert np.abs(np.abs(z0) ** 2 + np.abs(z1) ** 2 - 1.0).max() <= 1e-14
    # the Hopf-coordinate origin is on the grid
    assert np.any((z0 == 1.0) & (z1 == 0.0))


def test_equator_submesh_matches_equator_mesh():
    # the equator ring does not depend on lat_count, bit for bit (sin(psi) is
    # snapped to exactly 1 there): antipodal_gap's equator record relies on it
    ring = equator_ring(mesh_s4(9, 8))
    assert len(ring[2]) == shell_point_count(8)
    assert_same_points(ring, equator_ring(mesh_s4(3, 8)))


def test_latitude_snapping():
    m = mesh_s4(5, 8)
    assert set(np.unique(m.arrays()[2])) >= {-1.0, 0.0, 1.0}


@pytest.mark.parametrize("lat", [3, 65, MAX_LAT])
def test_latitude_values_strictly_decrease(lat):
    # one distinct z2 per latitude: path_invertibility sweeps them as they are
    assert np.all(np.diff(mesh_s4(lat, 8).z2_values) < 0)


def test_invalid_resolutions():
    with pytest.raises(InvalidResolution):
        mesh_s4(2, 8)
    with pytest.raises(InvalidResolution):
        mesh_s4(8, 8)  # even latitude count has no equator
    with pytest.raises(InvalidResolution):
        mesh_s4(9, 4)
    with pytest.raises(InvalidResolution):
        mesh_s4(3, 7)


def embed(m):
    z0, z1, z2 = m.arrays()
    return np.column_stack([z0.real, z0.imag, z1.real, z1.imag, z2])


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


# The former whole-array construction, kept as the reference for the
# streamed mesh: the S^3 grid, then one scaled copy of it per latitude.
def reference_shell_grid(shell_count):
    s = int(shell_count)
    k = max(2, math.ceil(s / 4))
    phases = np.exp(2j * np.pi * np.arange(s) / s)
    w0_parts = [phases]  # eta = 0 ring: (e^{i xi1}, 0)
    w1_parts = [np.zeros(s, dtype=np.complex128)]
    for m in range(1, k):
        eta = (np.pi / 2) * (m / k)
        ce, se = math.cos(eta), math.sin(eta)
        w0_parts.append(np.repeat(ce * phases, s))
        w1_parts.append(np.tile(se * phases, s))
    w0_parts.append(np.zeros(s, dtype=np.complex128))  # eta = pi/2 ring: (0, e^{i xi2})
    w1_parts.append(phases)
    return np.concatenate(w0_parts), np.concatenate(w1_parts)


def reference_latitude_cos_sin(j, lat_count):
    # snapped so poles and equator are exact
    if j == 0:
        return 1.0, 0.0
    if j == lat_count - 1:
        return -1.0, 0.0
    if 2 * j == lat_count - 1:
        return 0.0, 1.0
    psi = math.pi * j / (lat_count - 1)
    return math.cos(psi), math.sin(psi)


def reference_mesh(lat_count, shell_count):
    w0, w1 = reference_shell_grid(shell_count)
    z0_parts, z1_parts, z2_parts = [], [], []
    for j in range(lat_count):
        c, s = reference_latitude_cos_sin(j, lat_count)
        if s == 0.0:  # poles stored once
            z0_parts.append(np.zeros(1, dtype=np.complex128))
            z1_parts.append(np.zeros(1, dtype=np.complex128))
            z2_parts.append(np.full(1, c))
        else:
            z0_parts.append(s * w0)
            z1_parts.append(s * w1)
            z2_parts.append(np.full(w0.shape[0], c))
    return np.concatenate(z0_parts), np.concatenate(z1_parts), np.concatenate(z2_parts)


def assert_same_points(got, want):
    """Equal coordinates with equal signs of zero, part by part."""
    for x, y in zip(got, want):
        assert x.dtype == y.dtype and x.shape == y.shape
        for part in (np.real, np.imag) if np.iscomplexobj(y) else (np.real,):
            assert np.array_equal(part(x), part(y))
            assert np.array_equal(np.signbit(part(x)), np.signbit(part(y)))


@pytest.mark.parametrize("lat, shell", [(9, 8), (33, 32), (65, 64)])
def test_chunks_equal_the_whole_array_mesh(lat, shell):
    m = mesh_s4(lat, shell)
    want = reference_mesh(lat, shell)
    assert len(m) == len(want[2])
    for size in (7, CHUNK, len(m), len(m) - 1):
        # at 65x64, chunks of 7 points are checked from the north pole into the
        # second latitude and from the end of the third-last to the south pole:
        # 5.5e5 chunks would take about 15 s, and these cross every kind of boundary
        windows = [(0, len(m))]
        if size == 7 and len(m) > 10**6:
            windows = [(0, m.shell_size + 2), (len(m) - m.shell_size - 2, len(m))]
        for a, b in windows:
            a -= a % size  # the chunk boundaries of a whole-mesh sweep
            # copies: each chunk is a view of buffers that the next one overwrites
            chunks = [tuple(x.copy() for x in chunk[:3]) for chunk in m.chunks(size, a, b)]
            assert [len(c[2]) for c in chunks] == [min(size, b - i) for i in range(a, b, size)]
            assert_same_points([np.concatenate(x) for x in zip(*chunks)], (x[a:b] for x in want))


@pytest.mark.parametrize("lat, shell", [(9, 8), (33, 32), (65, 64)])
def test_point_is_closed_form(lat, shell):
    m = mesh_s4(lat, shell)
    z0, z1, z2 = reference_mesh(lat, shell)
    starts = [0] + [1 + (j - 1) * m.shell_size for j in range(1, lat)]
    assert starts[-1] == len(m) - 1
    for i in starts + [1 + shell_point_count(shell) // 2, len(m) - 2, len(m) - 1]:
        p = m.point(i)
        assert_same_points((np.array([p.z0]), np.array([p.z1]), np.array([p.z2])),
                           (z0[i : i + 1], z1[i : i + 1], z2[i : i + 1]))
    with pytest.raises(IndexError):
        m.point(len(m))


def test_largest_mesh_description_is_small():
    tracemalloc.start()
    try:
        m = mesh_s4(2049, 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(m) == 8_452_636_162
    assert peak < 1 << 20
    # a point and a chunk at the far end, without the mesh in memory
    assert m.point(len(m) - 1) == (0j, 0j, -1.0)
    z0, z1, z2, _ = next(m.chunks(7, len(m) - 7))
    assert len(z2) == 7 and z2[-1] == -1.0


def test_chunk_buffers_start_on_a_cache_line():
    # each of the three reused buffers, for a full chunk and the last, shorter one
    mesh = mesh_s4(9, 8)
    chunks = list((z0.ctypes.data, z1.ctypes.data, z2.ctypes.data) for z0, z1, z2, _ in mesh.chunks(100, 3, 530))
    assert len(chunks) == 6
    assert all(address % 64 == 0 for chunk in chunks for address in chunk)


@pytest.mark.parametrize("lat, shell, sizes", [(3, 8, (1, 2, 7)), (9, 8, (1, 2, 7, CHUNK)), (33, 32, (1021, CHUNK))])
def test_latitude_runs_cover_each_chunk_by_latitude(lat, shell, sizes):
    # the runs a chunk carries are latitude_runs of its range: consecutive,
    # covering it, cut only at its ends and at latitude boundaries, and each
    # run's z2 is its latitude's value, so a latitude table fills it
    m = mesh_s4(lat, shell)
    for size in sizes:
        start = 0
        for z0, z1, z2, runs in m.chunks(size):
            assert runs == m.latitude_runs(start, len(z2))
            assert [k for _, k, _ in runs] == list(np.cumsum([0] + [n for *_, n in runs])[:-1])
            assert sum(n for *_, n in runs) == len(z2)
            assert all(a[0] + 1 == b[0] for a, b in zip(runs, runs[1:]))
            for j, k, n in runs:
                assert np.all(z2[k : k + n] == m.z2_values[j])
                assert n == 1 if j in (0, lat - 1) else n <= m.shell_size
            start += len(z2)
        assert start == len(m)
