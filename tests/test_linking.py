import math
import os
import time
import tracemalloc

import numpy as np
import pytest

from expspec import linking
from expspec.linking import (
    BLOCK_ELEMENTS,
    SPLIT_PAIRS,
    DEFAULT_POLE,
    CurvesTooClose,
    LinkingResult,
    NearPole,
    PolylineCurve3,
    _PAIR_LAYOUT,
    _column_table,
    _pair_pass,
    _pair_rows,
    _row_table,
    curve_separation,
    fiber_to_csv,
    gauss_linking,
    hopf_fiber,
    hopf_invariant_of_h,
    stereographic,
)

from conftest import assert_no_child_left, hopf


def circle(radius=1.0, n=64, center=(0, 0, 0), plane="xy"):
    t = 2 * np.pi * np.arange(n) / n
    c = np.zeros((n, 3))
    if plane == "xy":
        c[:, 0], c[:, 1] = np.cos(t), np.sin(t)
    else:  # xz
        c[:, 0], c[:, 2] = np.cos(t), np.sin(t)
    return PolylineCurve3(radius * c + np.asarray(center, dtype=float))


def test_fiber_over_poles():
    w0, w1 = hopf_fiber((0, 1), 64)
    assert np.abs(np.abs(w0) - 1).max() <= 1e-15
    assert np.all(w1 == 0)
    w0, w1 = hopf_fiber((0, -1), 64)
    assert np.all(w0 == 0)
    assert np.abs(np.abs(w1) - 1).max() <= 1e-15


def test_fiber_over_equatorial_value():
    w0, w1 = hopf_fiber((-1, 0), 64)
    s = 1 / np.sqrt(2)
    assert w0[0] == pytest.approx(s) and w1[0] == pytest.approx(s)


def test_fibers_map_back_to_their_value():
    rng = np.random.RandomState(9)
    for _ in range(25):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        p = (v[0] + 1j * v[1], v[2])
        w0, w1 = hopf_fiber(p, 32)
        h0, h1 = hopf(w0, w1)
        dev = np.sqrt(np.abs(h0 - p[0]) ** 2 + (h1 - p[1]) ** 2)
        assert dev.max() <= 1e-12


def test_fiber_input_validation():
    with pytest.raises(ValueError):
        hopf_fiber((0, 1), 8)
    with pytest.raises(ValueError):
        hopf_fiber((0.5, 0.5), 64)  # not on the 2-sphere


def test_stereographic_antipode_hits_origin():
    q = DEFAULT_POLE
    out = stereographic(-q.w0, -q.w1)
    assert np.linalg.norm(out) <= 1e-15


def test_stereographic_preserves_equatorial_norms():
    # (i/sqrt2, -1/sqrt2) is orthogonal to the default pole in R^4
    s = 1 / np.sqrt(2)
    out = stereographic(1j * s, -s)
    assert np.linalg.norm(out) == pytest.approx(1.0)


def test_stereographic_near_pole_raises():
    with pytest.raises(NearPole):
        stereographic(DEFAULT_POLE.w0, DEFAULT_POLE.w1)


def test_polyline_validation():
    with pytest.raises(ValueError):
        PolylineCurve3(np.zeros((8, 3)))
    pts = circle(n=32).points.copy()
    pts[5] = pts[6]
    with pytest.raises(ValueError):
        PolylineCurve3(pts)


def test_unlinked_far_circles():
    c1 = circle(n=64)
    c2 = circle(n=64, center=(0, 0, 10), plane="xy")
    assert gauss_linking(c1, c2).rounded == 0
    c3 = c1.translated((10, 0, 0))
    assert gauss_linking(c1, c3).rounded == 0


def test_classical_hopf_link():
    c1 = circle(n=512)
    c2 = circle(n=512, center=(1, 0, 0), plane="xz")
    res = gauss_linking(c1, c2)
    assert abs(res.rounded) == 1
    assert res.residual <= 1e-3


def test_linking_symmetry_and_orientation():
    c1 = circle(n=128)
    c2 = circle(n=128, center=(1, 0, 0), plane="xz")
    r12 = gauss_linking(c1, c2)
    r21 = gauss_linking(c2, c1)
    assert r12.rounded == r21.rounded
    reversed_c1 = PolylineCurve3(c1.points[::-1].copy())
    assert gauss_linking(reversed_c1, c2).rounded == -r12.rounded


def test_linking_rigid_motion_invariance():
    c1 = circle(n=96)
    c2 = circle(n=96, center=(1, 0, 0), plane="xz")
    base = gauss_linking(c1, c2).raw
    # fixed rotation about (1,1,1)/sqrt(3) by 0.7 rad, plus a translation
    axis = np.ones(3) / np.sqrt(3)
    th = 0.7
    k = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    rot = np.eye(3) + np.sin(th) * k + (1 - np.cos(th)) * (k @ k)
    shift = np.array([0.3, -1.2, 2.5])
    m1 = PolylineCurve3(c1.points @ rot.T + shift)
    m2 = PolylineCurve3(c2.points @ rot.T + shift)
    assert gauss_linking(m1, m2).raw == pytest.approx(base, abs=1e-10)


def test_curves_too_close_raises():
    c1 = circle(n=64)
    c2 = PolylineCurve3(c1.points + np.array([0, 0, 5e-4]))
    assert curve_separation(c1, c2) < 1e-3
    with pytest.raises(CurvesTooClose):
        gauss_linking(c1, c2)


def test_linking_result_invariant():
    with pytest.raises(ValueError):
        LinkingResult(raw=0.5, rounded=0, residual=0.5)


def test_hopf_invariant_converges():
    res = {n: hopf_invariant_of_h(n) for n in (64, 128, 256)}
    for n, r in res.items():
        assert abs(r.rounded) == 1
    assert res[64].residual <= 0.2
    assert res[256].residual <= 0.05
    # doubling the segment count at least halves the residual
    assert res[128].residual <= res[64].residual / 2
    assert res[256].residual <= res[128].residual / 2


def test_hopf_invariant_regular_value_independence():
    a = hopf_invariant_of_h(128)
    b = hopf_invariant_of_h(128, values=((1.0, 0.0), (-1.0, 0.0)))
    assert abs(a.rounded) == abs(b.rounded) == 1


def test_projection_pole_clearance_enforced(monkeypatch):
    from expspec import linking
    from expspec.sphere import SpherePoint3

    # a pole sitting on the first fiber must be rejected
    monkeypatch.setattr(linking, "DEFAULT_POLE", SpherePoint3(1.0 + 0j, 0j))
    with pytest.raises(NearPole):
        hopf_invariant_of_h(64)


def test_segment_floor():
    with pytest.raises(ValueError):
        hopf_invariant_of_h(32)


def test_fiber_csv_export(tmp_path):
    w0, w1 = hopf_fiber((0, 1), 64)
    curve = PolylineCurve3(stereographic(w0, w1))
    path = tmp_path / "fiber.csv"
    fiber_to_csv(curve, path)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(data, curve.points)


# Reference: whole-array formulations of the row-blocked kernels, in Gram
# form. Every pair term comes from the same two np.matmul products of the
# same tables, and the rest is rounded alike, so the kernels must equal
# them bit for bit.
def gram_tables(c1, c2):
    # [m x d, -d, m, |m|^2, 1] per segment of c1 and [e; e x n; -2 n; 1; |n|^2]
    # per segment of c2, with the half lengths, built here from the vertices
    p1, p2 = c1.points, c2.points
    d = np.roll(p1, -1, axis=0) - p1
    e = np.roll(p2, -1, axis=0) - p2
    m, n = p1 + 0.5 * d, p2 + 0.5 * e
    rows = np.column_stack([np.cross(m, d), -d, m, (m * m).sum(axis=1), np.ones(len(m))])
    cols = np.vstack([e.T, np.cross(e, n).T, -2.0 * n.T, np.ones(len(n)), (n * n).sum(axis=1)])
    return rows, cols, 0.5 * np.linalg.norm(d, axis=1), 0.5 * np.linalg.norm(e, axis=1)


def gram_products(rows, cols):
    # The squared distances and numerators of all (n, m) pairs. A BLAS
    # kernel may round a product entry differently with the number of rows
    # in the product: OpenBLAS's SkylakeX dgemm rounds some entries of
    # products of more than 8 rows otherwise than the same entries of a
    # smaller product, and a one-row product is a gemv. So each row is taken
    # from a product over the rows of its block in _pair_pass:
    # BLOCK_ELEMENTS // m rows, at least two, a one-row last block together
    # with the row before it.
    n, m = len(rows), cols.shape[1]
    step = max(2, BLOCK_ELEMENTS // m)
    squares, numerators = np.empty((n, m)), np.empty((n, m))
    for first in range(0, n, step):
        end = min(first + step, n)
        low = min(first, end - 2)
        squares[first:end] = np.matmul(rows[low:end, 6:], cols[6:])[first - low :]
        numerators[first:end] = np.matmul(rows[low:end, :6], cols[:6])[first - low :]
    return squares, numerators


def reference_pair_terms(c1, c2):
    # |m_i - n_j| - |e_j|/2 - |d_i|/2 for every segment pair (i, j); a
    # squared distance that rounds below 0 makes its term nan
    rows, cols, h1, h2 = gram_tables(c1, c2)
    with np.errstate(invalid="ignore"):
        dist = np.sqrt(gram_products(rows, cols)[0])
    return (dist - h2[None, :]) - h1[:, None]


def reference_row_sums(c1, c2):
    # the midpoint-rule Gauss terms of every segment pair, summed per row
    squares, numerators = gram_products(*gram_tables(c1, c2)[:2])
    with np.errstate(divide="ignore", invalid="ignore"):
        dist = np.sqrt(squares)
        return (numerators / (dist * dist * dist)).sum(axis=1)


def reference_gauss_raw(c1, c2):
    return math.fsum(reference_row_sums(c1, c2).tolist()) / (4.0 * math.pi)


U = 2.0**-53


def cross_product_oracle(c1, c2):
    """The Gauss sum and the separation bound in the former cross-product form, with their distance bounds.

    Returns (raw, separation, raw_bound, separation_bound): r = m_i - n_j
    is rounded per coordinate, the numerator is r . (d_i x e_j) and the
    denominator numpy's norm of r cubed, the pass that linking ran before
    its Gram form; the two bounds hold the distance from the kernel's raw
    and separation. Both forms read the same rounded midpoints m, n and
    directions d, e. To first order in u = 2^-53, with rho = |m_i - n_j|,
    D = |d_i|, E = |e_j| and R the largest vertex norm of either curve,
    so that |m_i|, |n_j| <= R (terms in u^2 are covered by rounding each
    constant up):

    Cross form. r takes u rho; each coordinate of d x e two products and
    a subtraction, 2 sqrt(2) u D E in norm; the 3-term dot product
    3u rho D E: the numerator is off by 7u rho D E. |r|^2 has 5u, its root
    3.5u, the cube (np.power, within an ulp) 12.5u and the division u: the
    term, at most D E / rho^2, is off by 21u D E / rho^2.

    Gram form. m x d and e x n take 2 sqrt(2) u R D and 2 sqrt(2) u R E,
    and the 6-term product 6u (|m x d| E + D |e x n|) <= 12u R D E: the
    numerator is off by 18u R D E. |m|^2 and |n|^2 take 3u R^2 each and
    the 5-term product, in any order and with or without FMA,
    5u (|m|^2 + |n|^2 + 2 |m| |n|) <= 20u R^2, so the squared distance is
    off by 26u R^2 = rho^2 delta. The root cubed as (x x) x has
    1.5 delta + 5u and the division u: the term is off by
    u D E (18 R / rho^3 + 39 R^2 / rho^4 + 6 / rho^2).

    Sums. numpy's pairwise row sum of at most 8192 terms is off by at most
    32u times the sum of their magnitudes (25 roundings within a block of
    128 terms, one more per halving above it), in either form; fsum rounds
    once, and 4 pi and the division take 2u more, 3u of raw in each form.
    So

        |raw_gram - raw_cross| <= (1/4pi) sum_ij u D E (91 / rho^2 + 18 R / rho^3 + 39 R^2 / rho^4) + 6u |raw|.

    For the separation, with R the largest vertex norm (so |m|, |n| and
    every half length are at most R), the Gram root is off by
    13u R^2 / rho + u rho and the norm by 3.5u rho; the two subtractions
    of the half lengths round values of at most rho + 2R in each form. A
    minimum moves by at most the largest change of a term, so the
    separations differ by at most max_ij (13u R^2 / rho + 8.5u rho + 8u R).
    """
    p1, p2 = c1.points, c2.points
    d1 = np.roll(p1, -1, axis=0) - p1
    d2 = np.roll(p2, -1, axis=0) - p2
    m1 = p1 + 0.5 * d1
    m2 = p2 + 0.5 * d2
    r = m1[:, None, :] - m2[None, :, :]
    cr = np.cross(d1[:, None, :], d2[None, :, :])
    num = np.einsum("ijk,ijk->ij", r, cr)
    dist = np.linalg.norm(r, axis=2)
    sums = (num / dist**3).sum(axis=1)
    raw = math.fsum(sums.tolist()) / (4.0 * math.pi)
    h1, h2 = 0.5 * np.linalg.norm(d1, axis=1), 0.5 * np.linalg.norm(d2, axis=1)
    separation = ((dist - h2[None, :]) - h1[:, None]).min()
    big_r = max(np.linalg.norm(p1, axis=1).max(), np.linalg.norm(p2, axis=1).max())
    de = np.outer(2 * h1, 2 * h2)
    raw_bound = (U * de * (91 / dist**2 + 18 * big_r / dist**3 + 39 * big_r**2 / dist**4)).sum() / (4.0 * math.pi) + 6 * U * abs(raw)
    separation_bound = (U * (13 * big_r**2 / dist + 8.5 * dist + 8 * big_r)).max()
    return raw, float(separation), float(raw_bound), float(separation_bound)


def unguarded_raw(c1, c2):
    # the Gauss sum of the pass, merged as gauss_linking merges it, without the guard
    return math.fsum(_pair_pass(c1, c2)[1]) / (4.0 * math.pi)


def hopf_fiber_pair(segments, values=((0.0, 1.0), (0.0, -1.0))):
    w = hopf_fiber(values[0], segments)
    v = hopf_fiber(values[1], segments)
    return PolylineCurve3(stereographic(*w)), PolylineCurve3(stereographic(*v))


def noisy_loops(n1, n2, seed=1):
    # two jittered, interlaced loops of unequal lengths; their linking sum is
    # large (about -27), so a one-ulp change in many pair terms reaches raw
    rng = np.random.default_rng(seed)
    loops = []
    for n, scale, shift in ((n1, 1.0, (0, 0, 0)), (n2, 1.3, (0.4, 0.1, 0.2))):
        t = 2 * np.pi * np.arange(n) / n
        p = np.stack([np.cos(t), np.sin(t), 0.3 * np.sin(3 * t)], axis=1)
        p += 0.05 * rng.standard_normal((n, 3))
        loops.append(PolylineCurve3(scale * p + np.asarray(shift, dtype=float)))
    return loops


PAIR_CASES = [
    "unequal_300_517",
    "one_row_tail_311_517",
    "one_row_half_32_517",
    "wide_17_8200",
    "hopf_fibers_1024",
    "translated_unlink",
]


def pair_case(case):
    if case == "unequal_300_517":
        c1, c2 = noisy_loops(300, 517)
        # several row blocks in both directions, the last one partial
        assert 300 % (BLOCK_ELEMENTS // 517) and 517 % (BLOCK_ELEMENTS // 300)
        return c1, c2
    if case == "one_row_tail_311_517":
        # the last row block of c1 has one row, in one process and in the helper
        c1, c2 = noisy_loops(311, 517)
        assert 311 % (BLOCK_ELEMENTS // 517) == 1
        return c1, c2
    if case == "one_row_half_32_517":
        # two row blocks, so a forked helper's whole range is c1's last row
        c1, c2 = noisy_loops(32, 517)
        assert 32 == BLOCK_ELEMENTS // 517 + 1
        return c1, c2
    if case == "wide_17_8200":
        # m > BLOCK_ELEMENTS / 2: blocks of two rows, the last of one
        c1, c2 = noisy_loops(17, 8200)
        assert BLOCK_ELEMENTS // 8200 < 2
        return c1, c2
    if case == "hopf_fibers_1024":
        return hopf_fiber_pair(1024)
    c1, _ = hopf_fiber_pair(256)
    return c1, c1.translated((10.0, 0.0, 0.0))


@pytest.mark.parametrize("case", PAIR_CASES)
def test_blocked_kernels_match_reference_bitwise(case):
    c1, c2 = pair_case(case)
    assert curve_separation(c1, c2) == reference_pair_terms(c1, c2).min()
    assert curve_separation(c2, c1) == reference_pair_terms(c2, c1).min()
    assert unguarded_raw(c1, c2) == reference_gauss_raw(c1, c2)
    assert unguarded_raw(c2, c1) == reference_gauss_raw(c2, c1)
    for a, b in ((c1, c2), (c2, c1)):
        assert _pair_pass(a, b)[1].tobytes() == reference_row_sums(a, b).tobytes()
    if case in ("hopf_fibers_1024", "translated_unlink"):
        assert gauss_linking(c1, c2).raw == reference_gauss_raw(c1, c2)
    else:
        # the noisy loops come within 0.0022 of each other; the bound reads -0.185
        with pytest.raises(CurvesTooClose):
            gauss_linking(c1, c2)


@pytest.mark.parametrize("case", PAIR_CASES)
def test_gram_form_stays_within_its_bound_of_the_cross_product_form(case):
    # an oracle that shares no arithmetic with the Gram form past the
    # midpoints and directions; cross_product_oracle derives both bounds
    c1, c2 = pair_case(case)
    for a, b in ((c1, c2), (c2, c1)):
        raw, separation, raw_bound, separation_bound = cross_product_oracle(a, b)
        assert abs(unguarded_raw(a, b) - raw) <= raw_bound
        assert abs(curve_separation(a, b) - separation) <= separation_bound
        if case == "hopf_fibers_1024":
            # the bounds are far below what the report and the guard resolve
            assert raw_bound < 1e-12 and separation_bound < 1e-13


def near_miss_at_the_last_vertex():
    c1 = circle(n=300)
    last = 299
    # A 6 x 5 rectangle in the vertical plane through c1's vertex `last`. Its
    # inner vertical edge passes 5e-4 outside that vertex, in steps of 0.01
    # for |z| <= 1 and of 1 beyond. Only c1's segments 298 and 299, which meet
    # at that vertex, come under the threshold, so a block loop that drops
    # its partial last block misses the near miss.
    u = c1.points[last]
    up = np.array([0.0, 0.0, 1.0])
    inner = u * (1 + 5e-4)
    outer = u * 6.0
    heights = np.concatenate([[-3.0, -2.0], np.linspace(-1, 1, 200, endpoint=False), [1.0, 2.0]])
    sides = [
        inner + np.outer(heights, up),
        inner + 3 * up + np.outer(np.linspace(0, 1, 120, endpoint=False), outer - inner),
        outer + np.outer(np.linspace(3, -3, 157, endpoint=False), up),
        outer - 3 * up + np.outer(np.linspace(0, 1, 120, endpoint=False), inner - outer),
    ]
    return c1, PolylineCurve3(np.concatenate(sides))


def test_curves_too_close_in_last_partial_block():
    c1, c2 = near_miss_at_the_last_vertex()
    last = len(c1) - 1
    step = BLOCK_ELEMENTS // len(c2)
    tail = len(c1) - len(c1) % step
    assert len(c1) % step and tail <= 298
    terms = reference_pair_terms(c1, c2)
    close_rows = np.unique(np.nonzero(terms < 1e-3)[0])
    assert close_rows.tolist() == [298, last]
    sep = curve_separation(c1, c2)
    assert sep == terms.min() < 0.0
    with pytest.raises(CurvesTooClose):
        gauss_linking(c1, c2)


def x_shaped_squares(gap):
    # Two 16-vertex squares with sides of 4 unit segments. The segment of the
    # first from (-0.5, 0, 0) to (0.5, 0, 0) crosses, at its midpoint, the
    # segment of the second from (0, -0.5, gap) to (0, 0.5, gap), and each
    # square turns away from the other beyond those segments. Every vertex is
    # at least 0.5 from the other curve.
    def square(origin, a, b):
        steps = np.arange(4)[:, None]
        corners = [origin, origin + 4 * a, origin + 4 * a + 4 * b, origin + 4 * b]
        dirs = [a, b, -a, -b]
        return PolylineCurve3(np.concatenate([c + steps * e for c, e in zip(corners, dirs)]))

    x, y, z = np.eye(3)
    first = square(np.array([-1.5, 0.0, 0.0]), x, -y)
    second = square(np.array([0.0, -1.5, gap]), y, z)
    return first, second


def test_x_shaped_near_miss_raises():
    c1, c2 = x_shaped_squares(1e-4)
    # the closest approach is 1e-4, between the two segment midpoints
    assert np.linalg.norm(c1.points[1] + c1.points[2] - c2.points[1] - c2.points[2]) / 2 == pytest.approx(1e-4)
    # a vertex-to-segment minimum, in either direction, reads 0.5
    for a, b in ((c1, c2), (c2, c1)):
        assert vertex_distance(a.points, b) >= 0.5
    assert curve_separation(c1, c2) == pytest.approx(1e-4 - 1.0)
    # unguarded, the midpoint rule turns the near miss into a huge "linking number"
    assert abs(unguarded_raw(c1, c2)) > 1e6
    with pytest.raises(CurvesTooClose):
        gauss_linking(c1, c2)
    with pytest.raises(CurvesTooClose):
        gauss_linking(c2, c1)


def test_exactly_crossing_curves_raise():
    # The two middle segments cross at their common midpoint: that pair's
    # Gauss term is 0/0. The guard must raise before the sum is merged or
    # rounded, and the division must not warn (a RuntimeWarning is an error
    # under pytest's filterwarnings).
    c1, c2 = x_shaped_squares(0.0)
    assert np.array_equal(c1.points[1] + c1.points[2], c2.points[1] + c2.points[2])
    assert curve_separation(c1, c2) == curve_separation(c2, c1) == -1.0
    for a, b in ((c1, c2), (c2, c1)):
        with pytest.raises(CurvesTooClose):
            gauss_linking(a, b)


def vertex_distance(points, curve):
    # exact minimum distance from the points to the polyline's segments
    a = curve.points
    d = np.roll(a, -1, axis=0) - a
    rel = points[:, None, :] - a[None, :, :]
    t = np.clip(np.einsum("nmk,mk->nm", rel, d) / np.einsum("mk,mk->m", d, d), 0.0, 1.0)
    return float(np.linalg.norm(rel - t[:, :, None] * d[None, :, :], axis=2).min())


def dense_samples(curve, per_segment):
    # per_segment equally spaced points on every segment, vertices included
    p = curve.points
    t = np.arange(per_segment)[:, None, None] / per_segment
    return (p + t * (np.roll(p, -1, axis=0) - p)).reshape(-1, 3)


def dense_distance(points, curve, per_segment):
    # min distance from points to curve's dense samples: at least the true
    # distance from the points to the curve
    samples = dense_samples(curve, per_segment)
    return min(
        float(np.linalg.norm(block[:, None, :] - samples[None, :, :], axis=2).min())
        for block in np.array_split(points, max(1, len(points) // 64))
    )


@pytest.mark.parametrize("lift", [0.0, 0.3, 0.8])
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
def test_separation_bound_is_sound(seed, lift):
    # Jittered loops, interlaced or lifted apart along z: the bound is
    # negative on all interlaced pairs, of either sign at lift 0.3 and
    # positive at 0.8. It never exceeds the distance between densely sampled
    # points of the two polylines, an upper bound on their true distance,
    # and it is within the two largest half lengths of it.
    c1, c2 = noisy_loops(40, 70, seed)
    c2 = c2.translated((0.0, 0.0, lift))
    sampled = dense_distance(dense_samples(c1, 32), c2, 32)
    bound = curve_separation(c1, c2)
    assert bound <= sampled
    # the nearest samples lie within 1/64 of a segment length of the
    # closest points, so sampled <= distance + (H1 + H2) / 32
    halves = sum(0.5 * np.linalg.norm(np.roll(c.points, -1, axis=0) - c.points, axis=1).max() for c in (c1, c2))
    assert bound >= sampled - halves * (1 + 1 / 32)


@pytest.mark.parametrize("values", [((0.0, 1.0), (0.0, -1.0)), ((1.0, 0.0), (-1.0, 0.0))])
def test_separation_margin_at_the_lowest_segment_count(values):
    # The CLI accepts --segments down to 64; the bound for the fiber pair
    # there clears MIN_CURVE_SEPARATION = 1e-3 by far (0.7707).
    c1, c2 = hopf_fiber_pair(64, values)
    assert curve_separation(c1, c2) >= 0.5
    assert abs(gauss_linking(c1, c2).rounded) == 1


def test_linking_memory_is_bounded(monkeypatch):
    # The (n, n, 3) formulation peaked near 500 MB at 2048 segments; the row
    # blocks need about 3 MiB. One process, so tracemalloc sees the whole pass.
    monkeypatch.setattr(linking, "SPLIT_PAIRS", 2048**2 + 1)
    tracemalloc.start()
    try:
        res = hopf_invariant_of_h(2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(res.rounded) == 1
    assert peak < 8 * 2**20


def test_forked_linking_memory_is_bounded(forks):
    # the helper runs the back half of the row blocks; this process holds its
    # own workspace and the helper's results, under the same bound
    tracemalloc.start()
    try:
        res = hopf_invariant_of_h(2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(res.rounded) == 1
    assert peak < 8 * 2**20
    assert len(forks) == 1
    assert_no_child_left()


# ------------------------------------------------------- two-process pass


@pytest.mark.parametrize("case", PAIR_CASES)
def test_split_pair_pass_matches_one_process_bit_for_bit(case, forks, monkeypatch):
    c1, c2 = pair_case(case)
    monkeypatch.setattr(linking, "SPLIT_PAIRS", len(c1) * len(c2) + 1)
    one = [_pair_pass(a, b) for a, b in ((c1, c2), (c2, c1))]
    assert not forks
    monkeypatch.setattr(linking, "SPLIT_PAIRS", 0)
    split = [_pair_pass(a, b) for a, b in ((c1, c2), (c2, c1))]
    assert len(forks) == 2
    for (separation, partials), (want_separation, want_partials) in zip(split, one):
        assert float(separation).hex() == float(want_separation).hex()
        assert partials.tobytes() == want_partials.tobytes()
    assert_no_child_left()


def test_split_pass_raises_for_a_near_miss_in_the_back_half(forks):
    c1, c2 = near_miss_at_the_last_vertex()
    step = BLOCK_ELEMENTS // len(c2)
    cut = -(-len(c1) // step) // 2 * step
    # the two close rows, 298 and 299, are the helper's
    assert cut <= 298
    with pytest.raises(CurvesTooClose):
        gauss_linking(c1, c2)
    assert len(forks) == 1
    assert_no_child_left()


def test_split_pairs_forks_only_large_passes(forks, monkeypatch):
    monkeypatch.setattr(linking, "SPLIT_PAIRS", SPLIT_PAIRS)
    assert abs(hopf_invariant_of_h(256).rounded) == 1
    assert not forks
    assert abs(hopf_invariant_of_h(4096).rounded) == 1
    assert len(forks) == 1
    assert_no_child_left()


def test_pair_pass_helper_error_reaches_the_parent(forks, monkeypatch):
    # an error only the helper meets: the parent must raise it, not redo
    # the back half itself
    main, rows = os.getpid(), linking._pair_rows

    def failing(block, h1, cols, h2, ws):
        if os.getpid() != main:
            raise FloatingPointError(f"helper block of {len(h1)} rows")
        return rows(block, h1, cols, h2, ws)

    monkeypatch.setattr(linking, "_pair_rows", failing)
    with pytest.raises(FloatingPointError, match="^helper block of 16 rows$"):
        hopf_invariant_of_h(1024)
    assert forks
    assert_no_child_left()


def test_interrupted_pair_pass_kills_its_helper(forks, monkeypatch):
    # each of the helper's blocks would sleep 2 s; the parent's
    # KeyboardInterrupt must kill and reap it at once
    main = os.getpid()

    def rows(*args):
        if os.getpid() == main:
            raise KeyboardInterrupt
        time.sleep(2.0)

    monkeypatch.setattr(linking, "_pair_rows", rows)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        hopf_invariant_of_h(1024)
    assert time.monotonic() - start < 5.0
    assert forks
    assert_no_child_left()


def test_pair_rows_ignore_stale_workspace_lanes():
    # _pair_pass hands a partial last block the views of work[:, :n] of the
    # workspace a full block used, so its lanes still hold that block's
    # values, here a nan; a fresh nan-filled workspace turns any lane read
    # before it is written into a nan result
    c1, c2 = pair_case("unequal_300_517")
    (rows, h1), (cols, h2) = _row_table(c1.points, 0, len(c1)), _column_table(c2.points)
    full, n, m = 30, 10, len(c2)
    rows_nan = rows.copy()
    rows_nan[5, 6] = np.nan
    work = np.full((_PAIR_LAYOUT.planes, full, m), np.nan)
    assert math.isnan(_pair_rows(rows_nan[:full], h1[:full], cols, h2, _PAIR_LAYOUT.cut(work))[0])
    block = rows[:n], h1[:n], cols, h2
    stale = _pair_rows(*block, _PAIR_LAYOUT.cut(work[:, :n]))
    fresh = _pair_rows(*block, _PAIR_LAYOUT.cut(np.full((_PAIR_LAYOUT.planes, n, m), np.nan)))
    assert stale[0] == fresh[0] and stale[1].tobytes() == fresh[1].tobytes()
    assert not math.isnan(fresh[0]) and not np.isnan(fresh[1]).any()


@pytest.mark.parametrize("split", [False, True], ids=["one process", "forked"])
@pytest.mark.parametrize("case", ["one_row_tail_311_517", "one_row_half_32_517", "wide_17_8200"])
def test_no_block_reaches_matmul_as_one_row(case, split, forks, monkeypatch):
    # numpy hands a one-row matmul to gemv, whose bits differ from the same
    # row of a gemm; a one-row block raises, in the helper too, from where
    # the error reaches the parent
    c1, c2 = pair_case(case)
    rows, sizes = linking._pair_rows, []

    def checked(block, h1, cols, h2, ws):
        if len(block) < 2 or len(h1) != len(block) or ws.den.shape != (len(block), len(h2)):
            raise AssertionError(f"a block of {len(block)} rows")
        sizes.append(len(block))
        return rows(block, h1, cols, h2, ws)

    monkeypatch.setattr(linking, "_pair_rows", checked)
    if not split:
        monkeypatch.setattr(linking, "SPLIT_PAIRS", len(c1) * len(c2) + 1)
    separation, partials = _pair_pass(c1, c2)
    assert len(partials) == len(c1)
    assert separation == reference_pair_terms(c1, c2).min()
    assert math.fsum(partials) / (4.0 * math.pi) == reference_gauss_raw(c1, c2)
    # the parent's blocks: all of them in one process, the front half forked
    step = max(2, BLOCK_ELEMENTS // len(c2))
    count = -(-len(c1) // step)
    assert len(sizes) == (count // 2 if split else count)
    assert len(forks) == split
    assert_no_child_left()


@pytest.mark.parametrize("split", [False, True], ids=["one process", "forked"])
def test_a_nan_block_separation_reaches_the_pass(split, forks, monkeypatch):
    # the third row block of each process reads nan, after blocks that read
    # numbers; the fold must keep it, as Python's min() would not
    rows, calls = linking._pair_rows, []

    def third_is_nan(*args):
        calls.append(1)
        separation, sums = rows(*args)
        return (math.nan if len(calls) == 3 else separation), sums

    monkeypatch.setattr(linking, "_pair_rows", third_is_nan)
    if not split:
        monkeypatch.setattr(linking, "SPLIT_PAIRS", 2 * 1024 * 1024)
    c1, c2 = hopf_fiber_pair(1024)
    assert math.isnan(_pair_pass(c1, c2)[0])
    calls.clear()
    with pytest.raises(CurvesTooClose):
        gauss_linking(c1, c2)
    assert len(forks) == 2 * split
    assert_no_child_left()


def test_shared_midpoint_far_from_the_origin_raises():
    # x_shaped_squares(0) share a segment midpoint, and so do its translates
    # by integer vectors below 2^40, which keep every vertex exact. There the
    # Gram form's squared distance of that pair is |m|^2 + |m|^2 - 2 m.m,
    # rounding noise of about u |m|^2 of either sign, and where it is
    # negative the root, and so the separation, is nan. The guard must read
    # nan as too close, not pass the sum on to LinkingResult.
    separations = []
    for offset in np.random.default_rng(7).integers(2**30, 2**40, size=(40, 3)).astype(float):
        c1, c2 = (c.translated(offset) for c in x_shaped_squares(0.0))
        assert np.array_equal(c1.points[1] + c1.points[2], c2.points[1] + c2.points[2])
        separations.append(curve_separation(c1, c2))
        with pytest.raises(CurvesTooClose):
            gauss_linking(c1, c2)
    assert any(math.isnan(s) for s in separations)


def test_guard_reads_a_nan_separation_as_too_close(monkeypatch):
    c1, c2 = hopf_fiber_pair(64)
    separation, partials = _pair_pass(c1, c2)
    assert separation >= 0.5
    monkeypatch.setattr(linking, "_pair_pass", lambda a, b: (math.nan, partials))
    with pytest.raises(CurvesTooClose):
        gauss_linking(c1, c2)


@pytest.mark.parametrize("split", [False, True], ids=["one process", "forked"])
def test_pair_pass_workspace_starts_on_a_cache_line(split, forks, monkeypatch):
    # 1024 segments: 64 blocks of 16 rows, forked at row 512; a misaligned
    # block raises, in the helper too, from where the error reaches the parent
    rows, offsets = linking._pair_rows, []

    def recording(block, h1, cols, h2, ws):
        offset = ws.den.ctypes.data % 64
        if offset:
            raise AssertionError(f"workspace {offset} bytes past a cache line")
        offsets.append(offset)
        return rows(block, h1, cols, h2, ws)

    monkeypatch.setattr(linking, "_pair_rows", recording)
    if not split:
        monkeypatch.setattr(linking, "SPLIT_PAIRS", 2 * 1024 * 1024)
    assert abs(hopf_invariant_of_h(1024).rounded) == 1
    assert len(offsets) == (32 if split else 64)
    assert len(forks) == split
    assert_no_child_left()
