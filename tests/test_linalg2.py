import numpy as np
import pytest
from numpy.testing import assert_allclose

from expspec.linalg2 import (
    SINGULARITY_RTOL,
    Field,
    SingularMatrix,
    cond2,
    eig2,
    mat2,
    mat_inv,
    mat_mul,
    op_norm,
    planar,
)

I2 = np.eye(2, dtype=complex)


def rand_mat2(rng, n):
    return (rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))) / np.sqrt(2)


def test_mat_mul_identity():
    assert_allclose(mat_mul(I2, I2), I2)


def test_mat_mul_nilpotent_squares_to_zero():
    n = np.array([[0, 1], [0, 0]], dtype=complex)
    assert_allclose(mat_mul(n, n), np.zeros((2, 2)))


def test_mat_mul_ab_at_unit_point():
    # a(1,0,0) = b(1,0,0) = E11, so the product is E11 again
    e11 = np.array([[1, 0], [0, 0]], dtype=complex)
    assert_allclose(mat_mul(e11, e11), e11)


def test_eig2_identity():
    assert_allclose(eig2(I2), [1, 1])


def test_eig2_diag_sorted():
    m = np.diag([-1.0 + 0j, 1.0 + 0j])
    assert_allclose(eig2(m), [-1, 1])


def test_eig2_unit_point_product():
    # 1 - 2ab at (1,0,0) is diag(-1, 1)
    m = I2 - 2 * np.array([[1, 0], [0, 0]], dtype=complex)
    assert_allclose(eig2(m), [-1, 1])


def test_eig2_matches_trace_and_det():
    rng = np.random.RandomState(7)
    m = rand_mat2(rng, 500)
    ev = eig2(m)
    tr = m[:, 0, 0] + m[:, 1, 1]
    det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
    assert np.abs(ev.sum(axis=1) - tr).max() < 1e-12 * np.abs(tr).max()
    assert np.abs(ev.prod(axis=1) - det).max() < 1e-12 * np.abs(det).max()


def test_eig2_against_lapack():
    rng = np.random.RandomState(11)
    m = rand_mat2(rng, 300)
    ours = eig2(m)
    ref = np.linalg.eigvals(m)
    ref = np.take_along_axis(ref, np.lexsort((ref.imag, ref.real), axis=1), axis=1)
    assert np.abs(ours - ref).max() < 1e-12


def test_eig2_order_is_lexicographic():
    ev = eig2(np.diag([1.0 + 1j, 1.0 - 1j]))
    assert ev[0] == 1 - 1j and ev[1] == 1 + 1j


def test_mat_inv_trivials():
    assert_allclose(mat_inv(I2), I2)
    assert_allclose(mat_inv(np.diag([2.0 + 0j, 4.0])), np.diag([0.5 + 0j, 0.25]))
    invol = np.diag([-1.0 + 0j, 1.0])
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
        m = u @ np.diag([1.0, s]) @ v
        assert cond2(m) < 1.01e6
        worst = max(worst, float(op_norm(mat_mul(m, mat_inv(m)) - I2)))
    assert worst <= 1e-10


def test_mat_inv_singular_raises():
    with pytest.raises(SingularMatrix):
        mat_inv(np.array([[1, 1], [1, 1]], dtype=complex))
    # scale invariance of the threshold
    with pytest.raises(SingularMatrix):
        mat_inv(1e8 * np.array([[1, 1], [1, 1]], dtype=complex))


def test_singularity_threshold_boundary():
    # det/norm^2 just above the threshold inverts, just below raises
    eps = SINGULARITY_RTOL
    ok = np.diag([1.0 + 0j, 10 * eps])
    mat_inv(ok)
    with pytest.raises(SingularMatrix):
        mat_inv(np.diag([1.0 + 0j, 0.1 * eps]))


def test_op_norm_trivials():
    assert op_norm(I2) == pytest.approx(1.0)
    assert op_norm(np.diag([3.0 + 0j, 0.0])) == pytest.approx(3.0)
    assert op_norm(np.array([[0, 2], [0, 0]], dtype=complex)) == pytest.approx(2.0)


def test_op_norm_against_lapack_and_submultiplicative():
    rng = np.random.RandomState(5)
    x = rand_mat2(rng, 200)
    y = rand_mat2(rng, 200)
    ref = np.linalg.norm(x, ord=2, axis=(1, 2))
    assert np.abs(op_norm(x) - ref).max() < 1e-12
    lhs = op_norm(mat_mul(x, y))
    rhs = op_norm(x) * op_norm(y)
    assert np.all(lhs <= rhs * (1 + 1e-12))


def test_mat2_broadcasting():
    m = mat2(np.zeros(5), 1.0, 0.0, np.ones(5))
    assert m.shape == (5, 2, 2)
    assert_allclose(m[2], [[0, 1], [0, 1]])


def as_field(m):
    return planar(m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1])


def as_stack(f):
    return mat2(*f)


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


def test_stack_api_is_the_planar_kernels():
    rng = np.random.RandomState(17)
    x = rand_mat2(rng, 50)
    y = rand_mat2(rng, 50)
    fx, fy = as_field(x), as_field(y)
    assert np.array_equal(mat_mul(x, y), as_stack(mat_mul(fx, fy)))
    assert np.array_equal(mat_inv(x), as_stack(mat_inv(fx)))
    assert np.array_equal(op_norm(x), op_norm(fx))
    assert np.array_equal(cond2(x), cond2(fx))
    assert np.array_equal(eig2(x), eig2(fx).T)


def test_mat_inv_guards_only_selected_lanes():
    m = planar(np.array([1.0, 1.0]), np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(SingularMatrix):
        mat_inv(m)
    inv = mat_inv(m, where=np.array([True, False]))
    assert np.array_equal(as_stack(inv)[0], I2)
    with pytest.raises(SingularMatrix):
        mat_inv(m, where=np.array([False, True]))
