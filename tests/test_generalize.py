import numpy as np
import pytest
from numpy.testing import assert_allclose

from expspec.algebra import field_a, field_b
from expspec.generalize import (
    UnsupportedN,
    eval_a_n,
    eval_b_n,
    family_identity_check,
    mesh_s2n,
)

from conftest import as_stack


def test_eval_a_n_matrix_units():
    m = eval_a_n(np.array([1.0, 0.0, 0.0], dtype=complex), 0.0)
    e11 = np.zeros((3, 3))
    e11[0, 0] = 1
    assert_allclose(m, e11)
    pole = eval_a_n(np.zeros(3, dtype=complex), 1.0)
    assert np.all(pole == 0)


def test_eval_b_n_matrix_units():
    m = eval_b_n(np.array([0.0, 1.0, 0.0], dtype=complex), 0.0)
    expect = np.zeros((3, 3))
    expect[0, 1] = 1
    assert_allclose(m, expect)
    assert np.all(eval_b_n(np.zeros(3, dtype=complex), -1.0) == 0)


def test_n2_reduces_to_algebra_bitwise(mesh9):
    # identical inputs through both code paths give identical bits
    z0, z1, z2 = mesh9.arrays()
    z = np.stack([z0, z1], axis=-1)
    assert np.array_equal(eval_a_n(z, z2), as_stack(field_a(z0, z1, z2)))
    assert np.array_equal(eval_b_n(z, z2), as_stack(field_b(z0, z1, z2)))


def test_family_identities_n2():
    mesh = mesh_s2n(2, 9, 4, 8)
    assert family_identity_check(2, mesh) <= 1e-13


def test_family_identities_n3():
    mesh = mesh_s2n(3, 9, 3, 6)
    assert len(mesh) >= 1000
    assert family_identity_check(3, mesh) <= 1e-12


def test_sabotaged_b_fails():
    mesh = mesh_s2n(3, 9, 3, 6)
    assert family_identity_check(3, mesh, _sabotage="drop-conjugate") > 0.1


def test_unsupported_n():
    with pytest.raises(UnsupportedN):
        family_identity_check(4, mesh_s2n(3, 5, 2, 6))
    with pytest.raises(ValueError):
        family_identity_check(2, mesh_s2n(3, 5, 2, 6))


def test_pointwise_nonzero_spectra_match():
    mesh = mesh_s2n(3, 9, 3, 6)
    a = eval_a_n(mesh.z, mesh.zn)
    b = eval_b_n(mesh.z, mesh.zn)
    ev_ab = np.sort(np.linalg.eigvals(a @ b))
    ev_ba = np.sort(np.linalg.eigvals(b @ a))
    assert np.abs(ev_ab - ev_ba).max() <= 1e-12


def test_rank_one():
    mesh = mesh_s2n(3, 7, 2, 6)
    for m in (eval_a_n(mesh.z, mesh.zn), eval_b_n(mesh.z, mesh.zn)):
        sv = np.linalg.svd(m, compute_uv=False)
        assert sv[:, 1:].max() <= 1e-12


def test_mesh_points_on_sphere():
    mesh = mesh_s2n(3, 9, 3, 6)
    norms = (np.abs(mesh.z) ** 2).sum(axis=1) + mesh.zn**2
    assert np.abs(norms - 1.0).max() <= 1e-12
