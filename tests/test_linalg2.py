import numpy as np
import pytest
from numpy.testing import assert_allclose

from expspec.linalg2 import (
    SINGULARITY_RTOL,
    Field,
    SingularMatrix,
    cond2,
    eig2,
    mat_inv,
    mat_mul,
    op_norm,
    planar,
)

from conftest import as_field, as_stack

I2 = as_field(np.eye(2))


def rand_mat2(rng, n):
    return (rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))) / np.sqrt(2)


def test_mat_mul_identity():
    assert_allclose(mat_mul(I2, I2), I2)


def test_mat_mul_nilpotent_squares_to_zero():
    n = planar(0, 1, 0, 0)
    assert_allclose(mat_mul(n, n), np.zeros(4))


def test_mat_mul_ab_at_unit_point():
    # a(1,0,0) = b(1,0,0) = E11, so the product is E11 again
    e11 = planar(1, 0, 0, 0)
    assert_allclose(mat_mul(e11, e11), e11)


def test_eig2_identity():
    assert_allclose(eig2(I2), [1, 1])


def test_eig2_diag_sorted():
    m = planar(-1.0, 0, 0, 1.0)
    assert_allclose(eig2(m), [-1, 1])


def test_eig2_unit_point_product():
    # 1 - 2ab at (1,0,0) is diag(-1, 1)
    m = I2 - 2 * planar(1, 0, 0, 0)
    assert_allclose(eig2(m), [-1, 1])


def test_eig2_matches_trace_and_det():
    rng = np.random.RandomState(7)
    m = rand_mat2(rng, 500)
    ev = eig2(as_field(m))
    tr = m[:, 0, 0] + m[:, 1, 1]
    det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
    assert np.abs(ev.sum(axis=0) - tr).max() < 1e-12 * np.abs(tr).max()
    assert np.abs(ev.prod(axis=0) - det).max() < 1e-12 * np.abs(det).max()


def test_eig2_against_lapack():
    rng = np.random.RandomState(11)
    m = rand_mat2(rng, 300)
    ours = eig2(as_field(m))
    ref = np.linalg.eigvals(m)
    ref = np.take_along_axis(ref, np.lexsort((ref.imag, ref.real), axis=1), axis=1)
    assert np.abs(ours.T - ref).max() < 1e-12


def test_eig2_order_is_lexicographic():
    ev = eig2(planar(1.0 + 1j, 0, 0, 1.0 - 1j))
    assert ev[0] == 1 - 1j and ev[1] == 1 + 1j


def test_mat_inv_trivials():
    assert_allclose(mat_inv(I2), I2)
    assert_allclose(mat_inv(planar(2.0, 0, 0, 4.0)), planar(0.5, 0, 0, 0.25))
    invol = planar(-1.0, 0, 0, 1.0)
    assert_allclose(mat_inv(invol), invol)


def test_mat_inv_residual_under_conditioning():
    rng = np.random.RandomState(3)
    worst = 0.0
    for _ in range(200):
        # controlled condition number: unitary * diag(1, s) * unitary
        th = rng.uniform(0, 2 * np.pi, size=4)
        u = np.array(
            [
                [np.cos(th[0]), -np.sin(th[0]) * np.exp(1j * th[1])],
                [np.sin(th[0]) * np.exp(-1j * th[1]), np.cos(th[0])],
            ]
        )
        v = np.array(
            [
                [np.cos(th[2]), -np.sin(th[2]) * np.exp(1j * th[3])],
                [np.sin(th[2]) * np.exp(-1j * th[3]), np.cos(th[2])],
            ]
        )
        s = 10.0 ** rng.uniform(-6, 0)
        m = as_field(u @ np.diag([1.0, s]) @ v)
        assert cond2(m) < 1.01e6
        worst = max(worst, float(op_norm(mat_mul(m, mat_inv(m)) - I2)))
    assert worst <= 1e-10


def test_mat_inv_singular_raises():
    with pytest.raises(SingularMatrix):
        mat_inv(planar(1, 1, 1, 1))
    # scale invariance of the threshold
    with pytest.raises(SingularMatrix):
        mat_inv(1e8 * planar(1, 1, 1, 1))


def test_singularity_threshold_boundary():
    # det/norm^2 just above the threshold inverts, just below raises
    eps = SINGULARITY_RTOL
    ok = planar(1.0, 0, 0, 10 * eps)
    mat_inv(ok)
    with pytest.raises(SingularMatrix):
        mat_inv(planar(1.0, 0, 0, 0.1 * eps))


def test_op_norm_trivials():
    assert op_norm(I2) == pytest.approx(1.0)
    assert op_norm(planar(3.0, 0, 0, 0)) == pytest.approx(3.0)
    assert op_norm(planar(0, 2, 0, 0)) == pytest.approx(2.0)


def test_op_norm_against_lapack_and_submultiplicative():
    rng = np.random.RandomState(5)
    x = rand_mat2(rng, 200)
    y = rand_mat2(rng, 200)
    ref = np.linalg.norm(x, ord=2, axis=(1, 2))
    fx, fy = as_field(x), as_field(y)
    assert np.abs(op_norm(fx) - ref).max() < 1e-12
    lhs = op_norm(mat_mul(fx, fy))
    rhs = op_norm(fx) * op_norm(fy)
    assert np.all(lhs <= rhs * (1 + 1e-12))


def test_mat2_broadcasting():
    m = planar(np.zeros(5), 1.0, 0.0, np.ones(5))
    assert m.shape == (4, 5)
    assert_allclose(as_stack(m)[2], [[0, 1], [0, 1]])


def rel_err(ours, ref, axes):
    return (np.abs(ours - ref).max(axis=axes) / np.abs(ref).max(axis=axes)).max()


def test_planar_kernels_match_numpy():
    rng = np.random.RandomState(13)
    x = rand_mat2(rng, 1000)
    y = rand_mat2(rng, 1000)
    fx, fy = as_field(x), as_field(y)

    prod = mat_mul(fx, fy)
    assert isinstance(prod, Field) and prod.shape == (4, 1000)
    assert rel_err(as_stack(prod), x @ y, (1, 2)) <= 1e-13

    inv = mat_inv(fx)
    assert isinstance(inv, Field)
    assert rel_err(as_stack(inv), np.linalg.inv(x), (1, 2)) <= 1e-13

    smax = np.linalg.svd(x, compute_uv=False)[:, 0]
    assert np.abs(op_norm(fx) / smax - 1.0).max() <= 1e-13
    assert np.abs(cond2(fx) / np.linalg.cond(x, 2) - 1.0).max() <= 1e-13

    ref = np.linalg.eigvals(x)
    ref = np.take_along_axis(ref, np.lexsort((ref.imag, ref.real), axis=1), axis=1)
    ev = eig2(fx)
    assert ev.shape == (2, 1000)
    assert rel_err(ev.T, ref, 1) <= 1e-13


def test_kernels_reject_stacks():
    # a (4, 2, 2) stack would otherwise read as four entry planes
    stack = np.eye(2, dtype=complex)
    for kernel in (lambda m: mat_mul(m, m), lambda m: mat_mul(I2, m), mat_inv, op_norm, cond2, eig2):
        with pytest.raises(TypeError):
            kernel(stack)


def test_mat_inv_guards_only_selected_lanes():
    m = planar(np.array([1.0, 1.0]), np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(SingularMatrix):
        mat_inv(m)
    inv = mat_inv(m, where=np.array([True, False]))
    assert np.array_equal(inv[:, 0], I2)
    with pytest.raises(SingularMatrix):
        mat_inv(m, where=np.array([False, True]))
