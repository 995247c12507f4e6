import gc
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from expspec import algebra, homotopy, linking
from expspec.linalg2 import (
    SINGULARITY_RTOL,
    Field,
    SingularMatrix,
    _negate,
    aligned,
    carve,
    cond2,
    eig2,
    eye_like,
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
    # lane 0 is the identity, lane 1 the singular all-ones matrix
    m = planar(np.array([1.0, 1.0]), np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(SingularMatrix):
        mat_inv(m)
    ok = np.empty(2, dtype=bool)
    inv = mat_inv(m, cond_limit=1e6, ok=ok)
    assert ok.tolist() == [True, False]
    assert np.array_equal(inv[:, 0], I2)
    with pytest.raises(SingularMatrix):
        mat_inv(m, cond_limit=np.inf)


# The parent formulation of the kernels, one numpy expression per step, kept
# as the reference that the buffered kernels must match bit for bit.
def ref_mat_mul(x, y):
    x00, x01, x10, x11 = np.asarray(x)
    y00, y01, y10, y11 = np.asarray(y)
    return np.array(np.broadcast_arrays(
        x00 * y00 + x01 * y10, x00 * y01 + x01 * y11, x10 * y00 + x11 * y10, x10 * y01 + x11 * y11
    ))


def ref_eig2(m):
    a, b, c, d = np.asarray(m)
    mid = 0.5 * (a + d)
    disc = np.sqrt(((a - d) * 0.5) ** 2 + b * c)
    disc = np.where(np.real(np.conj(disc) * mid) < 0.0, -disc, disc)
    r1 = mid + disc
    det = a * d - b * c
    safe = np.where(r1 == 0, 1.0, r1)
    r2 = np.where(r1 == 0, 0.0 + 0.0j, det / safe)
    swap = (r1.real > r2.real) | ((r1.real == r2.real) & (r1.imag > r2.imag))
    return np.stack((np.where(swap, r2, r1), np.where(swap, r1, r2)))


def ref_op_norm(m):
    a, b, c, d = np.asarray(m)
    g00 = np.abs(a) ** 2 + np.abs(c) ** 2
    g11 = np.abs(b) ** 2 + np.abs(d) ** 2
    g01 = np.conj(a) * b + np.conj(c) * d
    mid = 0.5 * (g00 + g11)
    rad = np.sqrt((0.5 * (g00 - g11)) ** 2 + np.abs(g01) ** 2)
    return np.sqrt(np.maximum(mid + rad, 0.0))


def ref_cond2(m):
    a, b, c, d = np.asarray(m)
    det = a * d - b * c
    return np.where(det == 0, np.inf, ref_op_norm(m) ** 2 / np.abs(np.where(det == 0, 1.0, det)))


def ref_guard_fires(m, where):
    """The parent mat_inv(m, where=...) guard: does it raise SingularMatrix?"""
    a, b, c, d = np.asarray(m)
    det = a * d - b * c
    return bool(np.any(where & (np.abs(det) <= SINGULARITY_RTOL * ref_op_norm(m) ** 2)))


def ref_mat_inv(m):
    a, b, c, d = np.asarray(m)
    det = a * d - b * c
    return np.array([d / det, -b / det, -c / det, a / det])


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def special_field(n, seed):
    """A random Field with nan, inf, zero and rank-one lanes."""
    rng = np.random.RandomState(seed)
    m = as_field(rand_mat2(rng, n) * 10.0 ** rng.uniform(-3, 3, (n, 1, 1)))
    m[:, 1] = np.nan
    m[2, 2] = np.inf
    m[0, 3] = complex(-np.inf, 1.0)
    m[:, 4] = 0.0
    m[:, 5] = [1.0, 2.0, 2.0, 4.0]
    m[1, 6] = complex(0.0, np.nan)
    return m


KERNELS = [
    # (name, call with buffers, parent reference, result shape over the planes)
    ("mat_mul", lambda m, **kw: mat_mul(m, m[::-1].view(Field), **kw), lambda m: ref_mat_mul(m, m[::-1]), (4,)),
    ("eig2", eig2, ref_eig2, (2,)),
    ("op_norm", op_norm, ref_op_norm, ()),
    ("cond2", cond2, ref_cond2, ()),
]


@pytest.mark.parametrize("name, kernel, ref, lead", KERNELS, ids=[k[0] for k in KERNELS])
@pytest.mark.parametrize("field", ["special", "zero_d", "eye"])
def test_buffered_kernels_match_the_allocating_call(name, kernel, ref, lead, field):
    if field == "special":
        m = special_field(37, 17)
    elif field == "zero_d":
        m = planar(1.0 + 2j, -0.5, 3.0, 0.25j)
    else:
        m = eye_like(special_field(37, 17))
    planes = m.shape[1:]
    dtype = np.float64 if name in ("op_norm", "cond2") else np.complex128
    out = np.full(lead + planes, np.nan, dtype=dtype)
    if lead == (4,):
        out = out.view(Field)
    work = np.full((4,) + planes, complex(np.nan, np.nan))  # 4: the most any kernel uses
    with np.errstate(all="ignore"):
        allocated = kernel(m)
        got = kernel(m, out=out, work=work)
        reference = ref(m)
    assert got is out
    assert same_bits(got, allocated)
    assert same_bits(allocated, reference)


@pytest.mark.parametrize("field", ["special", "zero_d", "eye"])
def test_buffered_mat_inv_matches_the_allocating_call(field):
    if field == "special":
        m = special_field(37, 23)
        m[:, 2:4] = np.eye(2).ravel()[:, None]  # drop the inf lanes: the guard fires on them
    elif field == "zero_d":
        m = planar(1.0 + 2j, -0.5, 3.0, 0.25j)
    else:
        m = eye_like(special_field(37, 17))
    planes = m.shape[1:]
    out = np.full((4,) + planes, np.nan + 0j).view(Field)
    ok = np.zeros(planes, dtype=bool)
    work = np.full((4,) + planes, complex(np.nan, np.nan))
    with np.errstate(all="ignore"):
        allocated = mat_inv(m, 1e6)
        got = mat_inv(m, 1e6, out=out, ok=ok, work=work)
        reference = ref_mat_inv(m)
        cond = ref_cond2(m)
    assert got is out
    assert same_bits(got, allocated)
    assert same_bits(allocated, reference)
    assert same_bits(ok, ~(cond > 1e6))


def test_mat_inv_mask_keeps_nan_lanes():
    m = special_field(37, 29)
    m[:, 2:4] = np.eye(2).ravel()[:, None]
    ok = np.empty(37, dtype=bool)
    with np.errstate(all="ignore"):
        mat_inv(m, 1e6, ok=ok)
        cond = cond2(m)
    assert np.isnan(cond[[1, 6]]).all() and ok[[1, 6]].all()
    assert not ok[[4, 5]].any()  # singular lanes: cond is inf
    assert same_bits(ok, ~(cond > 1e6))


@pytest.mark.parametrize("limit", [1e3, 1e6, 1e15, np.inf])
def test_mat_inv_guard_fires_where_the_parent_guard_fired(limit):
    # the parent selected the lanes with where=~(cond2(m) > limit) and
    # guarded those; lanes near the threshold have |det|/|m|^2 near 1e-14
    rng = np.random.RandomState(31)
    m = special_field(48, 31)
    m[:, 8:48] = planar(1.0, 0.0, 0.0, 10.0 ** rng.uniform(-15, -13, 40))  # diag(1, s)
    m[1, 9::2] = 1e-3 * (rng.standard_normal(20) + 1j)
    lanes = [m[:, [i]].view(Field) for i in range(48)] + [m, m[:, 4:]]
    outcomes = []
    for field in lanes:
        with np.errstate(all="ignore"):
            expected = ref_guard_fires(field, ~(ref_cond2(field) > limit))
            try:
                mat_inv(field, limit)
                fired = False
            except SingularMatrix:
                fired = True
        assert fired == expected
        outcomes.append(fired)
    if limit > 1e6:
        assert any(outcomes[8:48]) and not all(outcomes[8:48])


# ------------------------------------------------------ declared workspaces


# every workspace Layout of the package, with its plane total
LAYOUTS = {
    "inverse identity": (algebra._INVERSE_LAYOUT, 32),
    "identity": (algebra._IDENTITY_LAYOUT, 27),
    "certify": (homotopy._CERTIFY_LAYOUT, 13),
    "f/Eh": (homotopy._F_EH_LAYOUT, 7),
    "pair rows": (linking._PAIR_LAYOUT, 2),
}


def _arrays(view):
    """The arrays of a view: an array, a tuple of views or a nested layout's views."""
    if isinstance(view, np.ndarray):
        return [view]
    return [a for v in (view if isinstance(view, tuple) else vars(view).values()) for a in _arrays(v)]


def _planes_touched(view, work):
    """The indices of the planes of work whose bytes the view touches."""
    plane, touched = work[0].nbytes, set()
    for a in _arrays(view):
        assert a.flags.c_contiguous and a.nbytes
        first = a.ctypes.data - work.ctypes.data
        touched.update(range(first // plane, (first + a.nbytes - 1) // plane + 1))
    return touched


@pytest.mark.parametrize("name", LAYOUTS)
def test_layout_views_are_disjoint_and_cover_its_planes(name):
    # apart from the entries declared over another, every plane belongs to
    # exactly one view, and an alias lies within the planes
    layout, total = LAYOUTS[name]
    assert layout.planes == total
    work = np.empty((total, 5), np.complex128)
    views = vars(layout.cut(work))
    assert views.keys() == layout.spans.keys()
    touched = {key: _planes_touched(view, work) for key, view in views.items()}
    aliases = {key for key, (*_, over) in layout.spans.items() if over}
    owned = sorted(p for key, planes in touched.items() if key not in aliases for p in planes)
    assert owned == list(range(total))
    assert all(touched[key] <= set(range(total)) for key in aliases)


@pytest.mark.parametrize("shape, dtype", [((7, 3), np.complex128), ((1,), np.float64), ((2, 3, 5), np.float64)])
def test_aligned_starts_on_a_cache_line(shape, dtype):
    for _ in range(8):
        a = aligned(shape, dtype)
        assert a.shape == shape and a.dtype == dtype and a.flags.c_contiguous and a.flags.writeable
        assert a.ctypes.data % 64 == 0


def test_carve_leaves_no_tuples_behind():
    # tuple() of a generator sizes the tuple by a guess and resizes it, so
    # every call left one more 16-tuple on CPython's free list, up to 336 KiB
    plane = np.zeros(8, np.complex128)
    carve(plane, bool)
    enabled = gc.isenabled()
    gc.disable()
    gc.collect()  # empties the free lists
    tracemalloc.start()
    try:
        for _ in range(3000):
            carve(plane, bool)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    assert kept < 16 << 10


def test_negate_is_np_negative_bit_for_bit():
    # mat_inv, eig2 and phi negate a complex plane through its float64
    # parts, 4 times faster than the complex ufunc; every (re, im) pair of
    # these values, signed zeros, infinities, nans and a subnormal included,
    # must keep np.negative's bits, in 1, 2 and 100 lanes and a 0-d array
    values = [0.0, -0.0, 1.5, -2.5, np.inf, -np.inf, np.nan, -np.nan, 5e-324, 1e308]
    x = np.empty(len(values) ** 2, np.complex128)
    x.real, x.imag = np.repeat(values, len(values)), np.tile(values, len(values))
    for lanes in (x[:1], x[:2], x, x[3]):
        lanes = np.array(lanes)
        out = np.empty_like(lanes)
        assert _negate(lanes, out) is out
        assert out.tobytes() == np.negative(lanes).tobytes()
