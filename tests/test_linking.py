import math
import tracemalloc

import numpy as np
import pytest

from expspec.linking import (
    BLOCK_ELEMENTS,
    DEFAULT_POLE,
    CurvesTooClose,
    LinkingResult,
    NearPole,
    PolylineCurve3,
    _pair_pass,
    curve_separation,
    fiber_to_csv,
    gauss_linking,
    hopf_fiber,
    hopf_invariant_of_h,
    stereographic,
)

from conftest import hopf


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


# Reference: whole-array formulations of the row-blocked kernels. The
# kernels reproduce their roundings, so they must equal them bit for bit.
def reference_pair_terms(c1, c2):
    # |m_i - n_j| - |e_j|/2 - |d_i|/2 for every segment pair (i, j)
    p1, p2 = c1.points, c2.points
    d1 = np.roll(p1, -1, axis=0) - p1
    d2 = np.roll(p2, -1, axis=0) - p2
    dist = np.linalg.norm((p1 + 0.5 * d1)[:, None, :] - (p2 + 0.5 * d2)[None, :, :], axis=2)
    return (dist - 0.5 * np.linalg.norm(d2, axis=1)[None, :]) - 0.5 * np.linalg.norm(d1, axis=1)[:, None]


def reference_gauss_raw(c1, c2):
    p1, p2 = c1.points, c2.points
    d1 = np.roll(p1, -1, axis=0) - p1
    d2 = np.roll(p2, -1, axis=0) - p2
    m1 = p1 + 0.5 * d1
    m2 = p2 + 0.5 * d2
    r = m1[:, None, :] - m2[None, :, :]
    cr = np.cross(d1[:, None, :], d2[None, :, :])
    num = np.einsum("ijk,ijk->ij", r, cr)
    den = np.linalg.norm(r, axis=2) ** 3
    rows = (num / den).sum(axis=1)
    return math.fsum(rows.tolist()) / (4.0 * math.pi)


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


@pytest.mark.parametrize("case", ["unequal_300_517", "hopf_fibers_1024", "translated_unlink"])
def test_blocked_kernels_match_reference_bitwise(case):
    if case == "unequal_300_517":
        c1, c2 = noisy_loops(300, 517)
        # several row blocks in both directions, the last one partial
        assert 300 % (BLOCK_ELEMENTS // 517) and 517 % (BLOCK_ELEMENTS // 300)
    elif case == "hopf_fibers_1024":
        c1, c2 = hopf_fiber_pair(1024)
    else:
        c1, _ = hopf_fiber_pair(256)
        c2 = c1.translated((10.0, 0.0, 0.0))
    assert curve_separation(c1, c2) == reference_pair_terms(c1, c2).min()
    assert curve_separation(c2, c1) == reference_pair_terms(c2, c1).min()
    assert unguarded_raw(c1, c2) == reference_gauss_raw(c1, c2)
    assert unguarded_raw(c2, c1) == reference_gauss_raw(c2, c1)
    if case == "unequal_300_517":
        # the loops come within 0.0022 of each other; the bound reads -0.185
        with pytest.raises(CurvesTooClose):
            gauss_linking(c1, c2)
    else:
        assert gauss_linking(c1, c2).raw == reference_gauss_raw(c1, c2)


def test_curves_too_close_in_last_partial_block():
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
    c2 = PolylineCurve3(np.concatenate(sides))
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


def test_linking_memory_is_bounded():
    # The (n, n, 3) formulation peaked near 500 MB at 2048 segments; the row
    # blocks need about 3 MiB.
    tracemalloc.start()
    try:
        res = hopf_invariant_of_h(2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(res.rounded) == 1
    assert peak < 8 * 2**20
