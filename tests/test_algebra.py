import numpy as np
import pytest
from numpy.testing import assert_allclose

from expspec.algebra import (
    DomainError,
    IdentityResiduals,
    MU_PROBES,
    field_a,
    field_b,
    field_c,
    field_one_minus_2ab,
    field_one_minus_2ba,
    identity_residuals,
    inverse_identity_sweep,
    phi,
    product_eigenvalue,
)
from expspec.linalg2 import SingularMatrix, eig2, eye_like, mat_inv, mat_mul, op_norm

from conftest import as_field, as_stack

S = 1 / np.sqrt(2)


def check_inverse_identity(z0, z1, z2, mu):
    """Pointwise ||(I - mu ba)(I + mu b u a) - I|| with u = (I - mu ab)^{-1}.

    The oracle for inverse_identity_sweep, built from the public kernels
    only. Zero in exact arithmetic whenever I - mu ab is invertible; raises
    SingularMatrix (from mat_inv) when it is not. For condition numbers up
    to 1e6 the residual stays below 1e-10.
    """
    a = field_a(z0, z1, z2)
    b = field_b(z0, z1, z2)
    eye = eye_like(a)
    u = mat_inv(eye - mu * mat_mul(a, b))
    lhs = mat_mul(eye - mu * mat_mul(b, a), eye + mu * mat_mul(b, mat_mul(u, a)))
    return op_norm(lhs - eye)


def test_eval_a_points():
    assert_allclose(as_stack(field_a(1, 0, 0)), [[1, 0], [0, 0]])
    assert_allclose(as_stack(field_a(0, 0, 1)), np.zeros((2, 2)))
    assert_allclose(as_stack(field_a(0, 1, 0)), [[0, 0], [1, 0]])


def test_eval_b_points():
    assert_allclose(as_stack(field_b(1, 0, 0)), [[1, 0], [0, 0]])
    assert_allclose(as_stack(field_b(0, 0, -1)), np.zeros((2, 2)))
    assert_allclose(as_stack(field_b(0, 1, 0)), [[0, 1], [0, 0]])


def test_eval_c_points():
    assert_allclose(as_stack(field_c(0, 0, 1)), np.eye(2))
    assert_allclose(as_stack(field_c(1, 0, 0)), np.diag([-1.0, 1.0]))
    assert_allclose(as_stack(field_c(0, 1, 0)), np.diag([1.0, -1.0]))


def test_one_minus_2ab_points():
    assert_allclose(as_stack(field_one_minus_2ab(0, 0, 1)), np.eye(2))
    assert_allclose(as_stack(field_one_minus_2ab(S, S, 0)), [[0, -1], [-1, 0]], atol=1e-15)


def test_one_minus_2ba_points():
    assert_allclose(as_stack(field_one_minus_2ba(1, 0, 0)), np.diag([-1.0, 1.0]), atol=1e-15)
    # phi(+-1) = 1 exactly, so both poles give the identity exactly
    assert np.array_equal(as_stack(field_one_minus_2ba(0, 0, 1)), np.eye(2))
    assert np.array_equal(as_stack(field_one_minus_2ba(0, 0, -1)), np.eye(2))


def test_phi_values_and_domain():
    assert phi(0) == -1
    assert phi(1) == 1
    assert phi(-1) == 1
    z = np.linspace(-1, 1, 1001)
    assert np.abs(np.abs(phi(z)) - 1).max() <= 1e-14
    with pytest.raises(DomainError):
        phi(1.1)


def test_eig_of_one_minus_2ba_at_unit_point():
    ev = eig2(field_one_minus_2ba(1, 0, 0))
    assert_allclose(ev, [-1, 1], atol=1e-15)


def test_identity_residuals_on_mesh(mesh9):
    r = identity_residuals(mesh9)
    assert r.ab_vs_c <= 1e-13
    assert r.ba_vs_diag <= 1e-13
    assert r.phi_unit_modulus <= 1e-14
    assert r.a_rank_one <= 1e-13
    assert r.b_rank_one <= 1e-13
    assert r.ab_eigenvalues <= 1e-12


def test_identity_residuals_worst_keeps_nan():
    # a nan in any field, not only the first, must reach the worst value
    for i in range(6):
        fields = [0.0] * 6
        fields[i] = np.nan
        assert np.isnan(IdentityResiduals(*fields).worst())
    assert IdentityResiduals(1e-16, 3e-15, 0.0, 2e-16, 0.0, 1e-15).worst() == 3e-15


def test_product_eigenvalue_closed_form(mesh9):
    z0, z1, z2 = mesh9.arrays()
    lam = product_eigenvalue(z2)
    # the product by numpy's matmul, independent of linalg2.mat_mul
    got = eig2(as_field(as_stack(field_a(z0, z1, z2)) @ as_stack(field_b(z0, z1, z2))))
    # the closed form is one of the two eigenvalues, the other is ~0
    err = np.minimum(
        np.abs(got[0] - lam) + np.abs(got[1]),
        np.abs(got[1] - lam) + np.abs(got[0]),
    )
    assert err.max() <= 1e-12


def test_inverse_identity_trivial_mu():
    assert check_inverse_identity(0.6, 0.8j, 0.0, 0.0) == 0.0


def test_inverse_identity_zero_product_at_pole():
    # at the north pole a = b = 0, so u = I and the residual is exact zero
    assert check_inverse_identity(0, 0, 1, 2.0) <= 1e-12


def test_inverse_identity_singular_on_equator():
    # at mu = 1 the probe hits the spectral point 1, which ab attains
    # exactly on the equator: 1 - ab is singular there by construction
    with pytest.raises(SingularMatrix):
        check_inverse_identity(S, S, 0, 1.0)


def test_inverse_identity_conditioned_point():
    assert check_inverse_identity(0.5, 0.5, S, 1.0) <= 1e-10


def test_inverse_identity_sweep(mesh9):
    worst, skipped = inverse_identity_sweep(mesh9, MU_PROBES)
    assert worst <= 1e-10
    # mu = 1 is skipped exactly on the equator ring (80 points)
    assert skipped == 80


@pytest.mark.parametrize("mu", [mu for mu in MU_PROBES if mu != 1.0])
def test_inverse_identity_sweep_matches_oracle(mesh9, mu):
    # every point is conditioned at these probes, so the sweep's maximum is
    # the pointwise oracle's, bit for bit
    worst, skipped = inverse_identity_sweep(mesh9, (mu,))
    assert skipped == 0
    assert worst == check_inverse_identity(*mesh9.arrays(), mu).max()


def test_inverse_identity_random_mus(mesh9):
    rng = np.random.RandomState(2)
    mus = tuple(rng.uniform(-2, 2, 4) + 1j * rng.uniform(-2, 2, 4))
    worst, _ = inverse_identity_sweep(mesh9, mus)
    assert worst <= 1e-10


def test_inverse_identity_sweep_guards_conditioned_lanes(mesh9, monkeypatch):
    from expspec import algebra

    # with no conditioning cut the singular equator ring at mu = 1 is a
    # conditioned lane, so the singularity guard must fire
    monkeypatch.setattr(algebra, "COND_LIMIT", np.inf)
    with pytest.raises(SingularMatrix):
        inverse_identity_sweep(mesh9, (1.0,))


def test_sweeps_do_not_depend_on_chunking(mesh9, monkeypatch):
    from expspec import algebra, homotopy, spectrum

    def run_all_sweeps():
        return repr(
            (
                identity_residuals(mesh9),
                inverse_identity_sweep(mesh9),
                homotopy.hemisphere_preservation(mesh9),
                homotopy.antipodal_gap(mesh9),
                homotopy.path_invertibility(mesh9),
                [spectrum.sample_spectrum(name, mesh9).tolist() for name in algebra.ELEMENTS],
            )
        )

    default_chunk = algebra.CHUNK
    monkeypatch.setattr(algebra, "CHUNK", len(mesh9))
    one_chunk = run_all_sweeps()
    assert len(mesh9) % 7 != 0
    points = mesh9.arrays()
    for chunk in (default_chunk, 7):
        monkeypatch.setattr(algebra, "CHUNK", chunk)
        chunks = algebra.sweep(lambda *x: [c.copy() for c in x], mesh9)
        for got, want in zip(zip(*chunks), points):
            assert np.array_equal(np.concatenate(got), want)
        assert run_all_sweeps() == one_chunk


class _Arrays:
    """A mesh stand-in: fixed coordinate arrays, swept in slices."""

    def __init__(self, z0, z1, z2):
        self.z0, self.z1, self.z2 = z0, z1, z2

    def __len__(self):
        return len(self.z2)

    def chunks(self, size):
        for i in range(0, len(self), size):
            yield self.z0[i : i + size], self.z1[i : i + size], self.z2[i : i + size]


def test_inverse_identity_sweep_keeps_nan_lanes(mesh9):
    # a nan point has a nan condition number; it must reach the maximum,
    # not be skipped as ill-conditioned (the skip count stays the clean 80)
    z0, z1, z2 = mesh9.arrays()
    z0[len(z0) // 3] = np.nan
    worst, skipped = inverse_identity_sweep(_Arrays(z0, z1, z2))
    assert np.isnan(worst)
    assert skipped == 80


def test_chunk_kernels_ignore_stale_workspace_lanes(mesh9):
    # a partial last chunk reuses the workspace of a full one; the lanes past
    # its length still hold the full chunk's values, here a nan
    from expspec.algebra import _IDENTITY_PLANES, _INVERSE_PLANES, _identity_chunk, _inverse_identity_chunk

    full, n = 300, 100
    z0, z1, z2 = (x[:full] for x in mesh9.arrays())
    z0_nan = z0.copy()
    z0_nan[n + 5] = np.nan
    cases = (
        (_identity_chunk, _IDENTITY_PLANES, ()),
        (_inverse_identity_chunk, _INVERSE_PLANES, (MU_PROBES,)),
    )
    for chunk, planes, args in cases:
        work = np.empty((planes, full), dtype=np.complex128)
        with np.errstate(invalid="ignore"):
            assert np.isnan(chunk(z0_nan, z1, z2, work, *args)[0])
        stale = chunk(z0[:n], z1[:n], z2[:n], work, *args)
        fresh = chunk(z0[:n], z1[:n], z2[:n], np.empty((planes, full), dtype=np.complex128), *args)
        assert repr(stale) == repr(fresh)
