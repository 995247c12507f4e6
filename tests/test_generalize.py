import json
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from expspec import cli, report
from expspec.algebra import DomainError, field_a, field_b, phi
from expspec.generalize import (
    BLOCK_POINTS,
    UnsupportedN,
    eval_a_n,
    eval_b_n,
    family_identity_check,
    mesh_s2n,
)
from expspec.report import GEN_MESH_PARAMS

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
    assert family_identity_check(3, mesh, _conjugate=False) > 0.1


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


def one_block_family_check(n, mesh, conjugate=True):
    """family_identity_check over the whole mesh at once: the blocked check's reference."""
    z, zn = mesh.z, mesh.zn
    a, b = eval_a_n(z, zn), eval_b_n(z, zn, _conjugate=conjugate)
    eye = np.eye(n, dtype=np.complex128)
    w = 1.0 / (1.0 + 1j * zn)
    diag = np.zeros(z.shape[:-1] + (n, n), dtype=np.complex128)
    diag[..., range(n), range(n)] = 1.0
    diag[..., 0, 0] = phi(zn)
    r1 = np.linalg.svd(eye - 2.0 * (b @ a) - diag, compute_uv=False)[..., 0].max()
    closed = eye - 2.0 * (w * w)[..., None, None] * (z[..., :, None] * np.conj(z)[..., None, :])
    r2 = np.linalg.svd(eye - 2.0 * (a @ b) - closed, compute_uv=False)[..., 0].max()
    expected = np.zeros(z.shape[:-1] + (n,), dtype=np.complex128)
    expected[..., 0] = (1.0 - zn * zn) * w * w
    r3 = np.abs(np.sort(np.linalg.eigvals(a @ b)) - np.sort(expected)).max()
    return float(np.max([r1, r2, r3]))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("sabotage", [None, "drop-conjugate"])
def test_blocked_family_check_matches_one_block_reference(n, sabotage):
    mesh = mesh_s2n(n, *GEN_MESH_PARAMS[n])
    # n = 2 fits one block; n = 3 takes seven, the last one partial
    assert len(mesh) == {2: 1794, 3: 13610}[n] and BLOCK_POINTS == 2048
    got = family_identity_check(n, mesh, _conjugate=sabotage is None)
    assert got.hex() == one_block_family_check(n, mesh, conjugate=sabotage is None).hex()


def test_family_check_memory_stays_bounded():
    # the whole 13,610-point n = 3 mesh at once traced 16.6 MiB
    mesh = mesh_s2n(3, *GEN_MESH_PARAMS[3])
    tracemalloc.start()
    try:
        residual = family_identity_check(3, mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert residual <= 1e-12
    assert peak < 4 << 20


def test_nan_lane_fails_the_generalize_record(monkeypatch, tmp_path, capsys):
    # a nan coordinate made np.linalg.svd raise LinAlgError, a traceback from
    # the CLI; it must instead reach the folded residual, from any block
    lane = 2 * BLOCK_POINTS + 5

    def mesh_with_nan(n, *params):
        mesh = mesh_s2n(n, *params)
        if n == 3:
            mesh.z[lane, 0] = np.nan
        return mesh

    def b_with_nan(z, zn):
        # only the n = 2 bit-identity comparison reads report.eval_b_n
        out = eval_b_n(z, zn)
        out[-1, 0, 1] = np.nan
        return out

    monkeypatch.setattr(report, "mesh_s2n", mesh_with_nan)
    monkeypatch.setattr(report, "eval_b_n", b_with_nan)
    out = tmp_path / "generalize.json"
    assert cli.main(["generalize", "--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    records = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert records["family_identities_n2"]["passed"]
    for name in ("family_identities_n3", "n2_bit_identity"):
        assert np.isnan(records[name]["value"]) and not records[name]["passed"]


@pytest.mark.parametrize("value", [np.inf, -np.inf, complex(0.0, np.inf)])
def test_infinite_z_gives_nan_without_a_warning(value):
    # inf * 0 in the block's matmuls warned "invalid value encountered in matmul"
    mesh = mesh_s2n(3, 9, 3, 6)
    mesh.z[5, 1] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(family_identity_check(3, mesh))


def test_infinite_zn_raises_domain_error():
    # an infinite latitude coordinate is outside phi's domain [-1, 1]
    mesh = mesh_s2n(3, 9, 3, 6)
    mesh.zn[5] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            family_identity_check(3, mesh)
