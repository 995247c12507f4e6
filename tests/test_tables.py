"""The latitude tables of the mesh sweeps, bit for bit against the per-point factors.

A sweep evaluates each z2-only factor of its kernel once per latitude, on
mesh.z2_values, and fills it into the kernel's planes run by run. That is
only the same arithmetic if a factor's value at a point does not depend on
the array it was evaluated in, once that array has 2 or more lanes: the
rule algebra.sweep rests on. Here every table entry is compared with the
factor evaluated over the sweep's own chunks, lane by lane, on meshes
from the smallest (a 3-entry table: the poles and the equator) to the
default 65x64.
"""

import numpy as np
import pytest

from expspec.algebra import CHUNK, _tables
from expspec.homotopy import _certify_tables, null_homotopy_ba
from expspec.linalg2 import _fill_tables, _table_run
from expspec.sphere import mesh_s4

BUILDERS = {
    # the identity and inverse-identity sweeps
    "algebra": _tables,
    # the path start's table is the det grid's t = 0 Field
    "certify": lambda z2: _certify_tables(z2, null_homotopy_ba(z2, 0.0)),
}


def _latitudes(runs, n):
    """The latitude of each of a chunk's n points, from its runs."""
    lat = np.empty(n, np.intp)
    for j, k, m in runs:
        lat[k : k + m] = j
    return lat


@pytest.mark.parametrize("lat, shell", [(3, 8), (9, 8), (33, 32), (65, 64)])
@pytest.mark.parametrize("name", BUILDERS)
def test_table_entries_are_the_factors_of_every_chunk(name, lat, shell):
    mesh = mesh_s4(lat, shell)
    build = BUILDERS[name]
    tables = build(mesh.z2_values)
    checked = set()
    for z0, z1, z2, runs in mesh.chunks(CHUNK):
        lat_of = _latitudes(runs, len(z2))
        assert np.array_equal(z2, mesh.z2_values[lat_of])
        # the factors at every point of the chunk, evaluated over the chunk
        points = build(z2)
        assert points.keys() == tables.keys()
        for key, table in tables.items():
            got = points[key]
            want = table[..., lat_of]
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (key, runs)
        checked.update(lat_of.tolist())
    assert checked == set(range(mesh.lat_count))


def test_a_three_latitude_table_holds_the_poles_and_the_equator():
    mesh = mesh_s4(3, 8)
    assert mesh.z2_values.tolist() == [1.0, 0.0, -1.0]
    tab = BUILDERS["certify"](mesh.z2_values)
    assert tab["equator"].tolist() == [False, True, False]
    assert tab["drop"].tolist() == [True, True, True]
    assert tab["pole"].tolist() == [True, False, True]
    assert tab["root"].tolist() == [1.0, 1.0, 1.0]
    assert tab["pole_value"].tolist() == [1j, 0j, -1j]


def test_fill_tables_writes_each_run_and_nothing_else():
    tables = {"t": np.array([[10.0, 11.0, 12.0], [20.0, 21.0, 22.0]]), "mark": np.array([False, False, True])}
    plane = np.full((2, 7), -1.0)
    lat = tables, [(0, 0, 1), (2, 1, 4), (1, 5, 1)]  # lane 6 is no run's
    assert _fill_tables(plane, lat, "t") is plane
    assert plane.tolist() == [
        [10.0, 12.0, 12.0, 12.0, 12.0, 11.0, -1.0],
        [20.0, 22.0, 22.0, 22.0, 22.0, 21.0, -1.0],
    ]
    assert _table_run(lat, "mark") == slice(1, 5)
    assert _table_run((tables, [(0, 0, 3)]), "mark") == slice(0, 0)
