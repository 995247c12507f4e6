import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from expspec import algebra
from expspec.algebra import field_c, field_one_minus_2ba, phi
from expspec.homotopy import (
    CERTIFICATE_CHECKS,
    PATH_T_COUNT,
    FREUDENTHAL_SUSPENSION,
    HomotopyCertificate,
    antipodal_gap,
    build_certificates,
    f_map,
    hemisphere_preservation,
    null_homotopy_ba,
    path_invertibility,
    suspension_eh,
)
from expspec.linalg2 import eye_like, op_norm
from expspec.report import RunConfig, run_certify
from expspec.sphere import mesh_s4

from conftest import as_stack, equator_ring, hopf, poisoned

S = 1 / np.sqrt(2)


def test_hopf_points():
    assert hopf(1, 0) == (0, 1)
    assert hopf(0, 1) == (0, -1)
    h0, h1 = hopf(S, S)
    assert h0 == pytest.approx(-1)
    assert h1 == pytest.approx(0, abs=1e-15)


def test_hopf_lands_on_sphere():
    rng = np.random.RandomState(1)
    w = rng.standard_normal((500, 4))
    w /= np.linalg.norm(w, axis=1)[:, None]
    h0, h1 = hopf(w[:, 0] + 1j * w[:, 1], w[:, 2] + 1j * w[:, 3])
    assert np.abs(np.abs(h0) ** 2 + h1**2 - 1.0).max() <= 1e-13


def test_suspension_on_equator_is_hopf():
    z0, z1, z2 = equator_ring(mesh_s4(3, 8))
    e0, e1 = suspension_eh(z0, z1, z2)
    h0, h1 = hopf(z0, z1)
    assert np.abs(e0 - h0).max() <= 1e-15
    assert np.abs(e1 - h1).max() <= 1e-15  # imaginary part is exactly zero there
    assert np.all(e1.imag == 0.0)


def test_suspension_poles_and_sample_point():
    assert tuple(suspension_eh(0, 0, 1)) == (0, 1j)
    assert tuple(suspension_eh(0, 0, -1)) == (0, -1j)
    e0, e1 = suspension_eh(S, 0, S)
    assert e0 == 0
    assert e1 == pytest.approx(S + 1j * S)


def test_suspension_pole_limit():
    # along z2 -> 1 the formula approaches the continuity extension (0, i)
    z2 = 1.0 - 10.0 ** -np.arange(1, 13.0)
    r = np.sqrt(1 - z2**2)
    e0, e1 = suspension_eh(r * S, r * S, z2)
    dev = np.sqrt(np.abs(e0) ** 2 + np.abs(e1 - 1j) ** 2)
    assert np.all(np.diff(dev) < 0)
    assert dev[-1] <= 1e-5


def test_suspension_unit_norm(mesh9):
    e0, e1 = suspension_eh(*mesh9.arrays())
    assert np.abs(np.abs(e0) ** 2 + np.abs(e1) ** 2 - 1.0).max() <= 1e-12


def test_f_map_points():
    z0, z1, z2 = equator_ring(mesh_s4(3, 8))
    f0, f1 = f_map(z0, z1, z2)
    h0, h1 = hopf(z0, z1)
    assert np.abs(f0 - h0).max() <= 1e-15
    assert np.abs(f1 - h1).max() <= 1e-15
    assert tuple(f_map(0, 0, 1)) == (0, 1)
    f0, f1 = f_map(0, 1, 0)
    assert f0 == 0 and f1 == pytest.approx(-1)


def _second_column_of_c(mesh):
    z = mesh.arrays()
    c = field_c(*z)
    return z, c[1], c[3]


def test_pc_is_second_column_of_c(mesh9):
    # pc, c's second column, is what f_map normalizes; f_map computes it in
    # field_c's operation order, so the quotient matches bit for bit
    (z0, z1, z2), p0, p1 = _second_column_of_c(mesh9)
    n = np.sqrt(np.abs(p0) ** 2 + np.abs(p1) ** 2)
    f0, f1 = f_map(z0, z1, z2)
    assert np.array_equal(f0, p0 / n)
    assert np.array_equal(f1, p1 / n)


def test_pc_has_unit_norm(mesh9):
    # c is pointwise unitary, so its second column is a unit vector
    _, p0, p1 = _second_column_of_c(mesh9)
    assert np.abs(np.sqrt(np.abs(p0) ** 2 + np.abs(p1) ** 2) - 1.0).max() <= 1e-13


def test_det_c_is_phi(mesh9):
    from expspec.algebra import phi

    z0, z1, z2 = mesh9.arrays()
    c00, c01, c10, c11 = field_c(z0, z1, z2)
    det = c00 * c11 - c01 * c10
    assert np.abs(np.abs(det) - 1.0).max() <= 1e-12
    assert np.abs(det - phi(z2)).max() <= 1e-12


def test_equator_deviation():
    # the equator record reads the mesh's own equator latitude, here the
    # only latitude between the poles
    for shell in (8, 64):
        assert 0.0 <= antipodal_gap(mesh_s4(3, shell)).equator_max_deviation <= 1e-12


def test_hemisphere_sample_point():
    _, e1 = suspension_eh(S, 0, S)
    assert e1.imag == pytest.approx(S)  # same sign as z2 > 0


def test_hemisphere_preservation(mesh9):
    assert hemisphere_preservation(mesh9) >= -1e-13


@pytest.mark.parametrize("lat, shell, chunk", [(9, 16, None), (9, 16, 7), (33, 32, None)])
def test_hemisphere_minimum_is_a_positive_zero(lat, shell, chunk, monkeypatch):
    # The minimum is an exact zero on these meshes, met as both 0.0 and -0.0.
    # Which of them a min over ties keeps depends on the order it meets them,
    # so the reported value must be 0.0 whatever the chunking.
    if chunk:
        monkeypatch.setattr(algebra, "CHUNK", chunk)
    assert antipodal_gap(mesh_s4(lat, shell)).hemisphere_worst_violation.hex() == "0x0.0p+0"
    report = run_certify(RunConfig(lat=lat, shell=shell).validate())
    record = next(c for c in report.checks if c.name == "ab_hemisphere_preservation")
    assert float(record.value).hex() == "0x0.0p+0"


def test_self_gap_is_two(mesh9, monkeypatch):
    from expspec import homotopy

    monkeypatch.setattr(homotopy, "suspension_eh", f_map)
    assert antipodal_gap(mesh9).antipodal_min_gap == pytest.approx(2.0)


def test_antipode_gap_is_zero(mesh9, monkeypatch):
    from expspec import homotopy

    def neg_f(z0, z1, z2, **buffers):
        # buffers: the out=, work= and lat= that the f/Eh sweep passes
        f0, f1 = f_map(z0, z1, z2, **buffers)
        return -f0, -f1

    monkeypatch.setattr(homotopy, "suspension_eh", neg_f)
    gap = antipodal_gap(mesh9)
    assert gap.antipodal_min_gap == pytest.approx(0.0, abs=1e-15)
    # negative control: an antipodal pair must not certify
    assert gap.antipodal_certified_lower_bound <= 0


def test_antipodal_gap_certificate(mesh33):
    gap = antipodal_gap(mesh33)
    assert gap.antipodal_min_gap > 0.1
    assert gap.antipodal_min_gap == pytest.approx(1.2346, abs=2e-3)
    assert gap.antipodal_certified_lower_bound == (
        gap.antipodal_min_gap - 2.0 * mesh33.covering_radius - 1e-13 * mesh33.lat_count
    )
    assert gap.antipodal_certified_lower_bound == pytest.approx(0.8587, abs=1e-3)


@pytest.mark.parametrize("lat, shell", [(9, 16), (33, 32)])
def test_certified_bound_is_below_the_exact_minimum(lat, shell):
    # the closed form of antipodal_gap's proof puts the exact minimum of
    # |f + Eh| on S^4 at sin(psi) = sqrt(6) - 2, eta = pi/2
    from expspec.sphere import mesh_s4

    psi = np.arcsin(np.sqrt(6.0) - 2.0)
    chi = psi + 4.0 * np.arctan(np.cos(psi))
    exact_min = 2.0 * np.sin(chi / 2.0 + np.pi / 4.0)
    assert exact_min == pytest.approx(1.2339789, abs=1e-7)
    f0, f1 = f_map(0.0, np.sin(psi), np.cos(psi))
    e0, e1 = suspension_eh(0.0, np.sin(psi), np.cos(psi))
    assert np.hypot(abs(f0 + e0), abs(f1 + e1)) == pytest.approx(exact_min, abs=1e-15)
    gap = antipodal_gap(mesh_s4(lat, shell))
    assert 0.0 < gap.antipodal_certified_lower_bound < exact_min <= gap.antipodal_min_gap


def _geodesic_pairs(n, seed):
    """Pairs (x, y) of points of S^4 as coordinate triples, with their geodesic distance.

    A third of the x lie near the poles and a third near the equator; the
    distances are log-uniform on [1e-3, 1].
    """
    rng = np.random.RandomState(seed)
    x = rng.standard_normal((n, 5))
    k = n // 3
    x[:k, :4] *= 1e-2 * rng.uniform(size=(k, 1))  # |z2| near 1
    x[k : 2 * k, 4] *= 1e-2                         # z2 near 0
    x /= np.linalg.norm(x, axis=1)[:, None]
    t = rng.standard_normal((n, 5))
    t -= (t * x).sum(axis=1)[:, None] * x
    t /= np.linalg.norm(t, axis=1)[:, None]
    d = 10.0 ** rng.uniform(-3.0, 0.0, n)
    y = np.cos(d)[:, None] * x + np.sin(d)[:, None] * t

    def coords(p):
        return p[:, 0] + 1j * p[:, 1], p[:, 2] + 1j * p[:, 3], p[:, 4]

    return coords(x), coords(y), d


def test_lipschitz_constants_bound_sampled_slopes():
    # antipodal_gap proves |f + Eh| 2-Lipschitz in the geodesic metric; f and Eh
    # alone are 4- and 2-Lipschitz. 1e-13 is the rounding of the evaluations
    from expspec.homotopy import ANTIPODAL_LIPSCHITZ

    x, y, d = _geodesic_pairs(30000, seed=4)
    for fn, lip in ((f_map, 4.0), (suspension_eh, 2.0)):
        (a0, a1), (b0, b1) = fn(*x), fn(*y)
        moved = np.sqrt(np.abs(a0 - b0) ** 2 + np.abs(a1 - b1) ** 2)
        assert np.all(moved <= lip * d + 1e-13), fn.__name__
        # the bound is nearly attained, so the sample reaches the steep directions
        assert (moved / d).max() >= 0.95 * lip, fn.__name__

    def gap(p):
        (f0, f1), (e0, e1) = f_map(*p), suspension_eh(*p)
        return np.sqrt(np.abs(f0 + e0) ** 2 + np.abs(f1 + e1) ** 2)

    moved = np.abs(gap(x) - gap(y))
    assert ANTIPODAL_LIPSCHITZ == 2.0
    assert np.all(moved <= ANTIPODAL_LIPSCHITZ * d + 1e-13)
    # the steepest slope of the gap is sqrt(2), near the poles
    assert (moved / d).max() >= 0.95 * np.sqrt(2.0)


def test_null_homotopy_endpoints(mesh9):
    z0, z1, z2 = mesh9.arrays()
    h0 = null_homotopy_ba(z2, 0.0)
    assert np.abs(h0 - field_one_minus_2ba(z0, z1, z2)).max() <= 1e-13
    h1 = as_stack(null_homotopy_ba(z2, 1.0))
    assert np.array_equal(h1, np.broadcast_to(np.eye(2), h1.shape))
    assert_allclose(as_stack(null_homotopy_ba(0, 0.0)), np.diag([-1.0, 1.0]), atol=1e-15)


def test_null_homotopy_det_has_unit_modulus(mesh9):
    for t in np.linspace(0, 1, 9):
        h00, h01, h10, h11 = null_homotopy_ba(mesh9.arrays()[2], t)
        det = h00 * h11 - h01 * h10
        assert np.abs(np.abs(det) - 1.0).max() <= 1e-13


def test_path_invertibility(mesh9):
    p = path_invertibility(mesh9)
    assert p.path_max_abs_det_deviation <= 1e-13
    assert p.endpoint_residual_start <= 1e-13
    assert p.endpoint_residual_end == 0.0


def unique_latitude_path(mesh):
    """path_invertibility's det deviation and end residual over np.unique(mesh.z2_values): the oracle."""
    ts = np.linspace(0.0, 1.0, PATH_T_COUNT)
    z2s = np.unique(mesh.z2_values)
    dets = phi((1.0 - ts[:, None]) * z2s[None, :] + ts[:, None])
    h1 = null_homotopy_ba(z2s, 1.0)
    return float(np.abs(np.abs(dets) - 1.0).max()), float(op_norm(h1 - eye_like(h1)).max())


@pytest.mark.parametrize("lat", [3, 33, 2049])
def test_path_invertibility_matches_the_unique_latitude_sweep(lat):
    # the latitude values in mesh order give the same maxima, bit for bit
    mesh = mesh_s4(lat, 8)
    got = path_invertibility(mesh)
    det_dev, end = unique_latitude_path(mesh)
    assert got.path_max_abs_det_deviation.hex() == det_dev.hex()
    assert got.endpoint_residual_end.hex() == end.hex()


def failing(records):
    return [r.name for r in records if not r.passed]


def test_a_singular_midpath_fails_the_path_record(monkeypatch):
    # h11 = 1 - 4t(1 - t) is singular at t = 1/2 and leaves both endpoints
    # unchanged, so only the det grid can see it: it must read |det H| of
    # null_homotopy_ba itself, not a copy of H's argument
    from expspec import cli, homotopy

    def singular_midpath(z2, t):
        h = null_homotopy_ba(z2, t)
        h[3] *= 1.0 - 4.0 * t * (1.0 - t)
        return h

    monkeypatch.setattr(homotopy, "null_homotopy_ba", singular_midpath)
    records, certificates = build_certificates(mesh_s4(9, 16))
    assert certificates is None
    assert failing(records) == ["ba_path_invertibility"]
    assert records[0].name == "ba_path_invertibility" and records[0].value == 1.0
    assert cli.main(["certify", "--lat", "9", "--shell", "16"]) == 1


def test_certificates(mesh33):
    records, (ba, ab) = build_certificates(mesh33)
    assert failing(records) == []
    assert ba.subject == "ONE_MINUS_2BA" and ba.verdict == "NULL_HOMOTOPIC"
    assert ab.subject == "ONE_MINUS_2AB" and ab.verdict == "OBSTRUCTED_MODULO_SUSPENSION"
    assert ba.assumptions == []
    assert ab.assumptions == [FREUDENTHAL_SUSPENSION]
    assert abs(ab.evidence["hopf_linking_rounded"]) == 1
    # serialized schema is stable
    doc = json.loads(ab.to_json())
    assert set(doc) == {"subject", "verdict", "evidence", "assumptions", "notes"}


def test_certificate_invariants():
    with pytest.raises(ValueError):
        HomotopyCertificate("X", "NULL_HOMOTOPIC", {}, assumptions=["anything"])
    with pytest.raises(ValueError):
        HomotopyCertificate("X", "OBSTRUCTED_MODULO_SUSPENSION", {}, assumptions=[])


def test_sabotaged_f_fails_equator(mesh9):
    records, certificates = build_certificates(mesh9, sabotage="flip-f")
    assert certificates is None
    # 9x8 is also too coarse to certify the antipodal gap; 9x16 is not
    assert failing(records) == ["ab_equator_coincidence", "ab_antipodal_certified"]
    records, certificates = build_certificates(mesh_s4(9, 16), sabotage="flip-f")
    assert certificates is None
    assert failing(records) == ["ab_equator_coincidence"]


def test_flip_f_sweeps_the_production_kernel(mesh9, monkeypatch):
    # the flip-f control must run the kernel of the real run, not a variant
    from expspec import homotopy

    sweep, calls = homotopy.sweep, []

    def recording(kernel, mesh, layout, tables, rules):
        calls.append((kernel, layout, tables.func, rules))
        return sweep(kernel, mesh, layout, tables, rules)

    monkeypatch.setattr(homotopy, "sweep", recording)
    build_certificates(mesh9)
    real = list(calls)
    calls.clear()
    build_certificates(mesh9, sabotage="flip-f")
    assert calls == real


@pytest.mark.parametrize("sabotage", [None, "flip-f", "fiber"])
def test_certify_sweeps_its_mesh_once(sabotage, mesh9, monkeypatch):
    # the path start and the f/Eh evidence come from one sweep of one kernel
    from expspec import homotopy

    sweep, calls = homotopy.sweep, []

    def recording(kernel, mesh, layout, tables, rules):
        calls.append((kernel, mesh, layout, tables.func, rules))
        return sweep(kernel, mesh, layout, tables, rules)

    monkeypatch.setattr(homotopy, "sweep", recording)
    build_certificates(mesh9, segments=64, sabotage=sabotage)
    assert len(calls) == 1
    rules = (np.maximum, np.minimum, np.minimum, np.maximum, np.maximum)
    assert calls[0] == (homotopy._certify_chunk, mesh9, homotopy._CERTIFY_LAYOUT, homotopy._certify_tables, rules)


def test_first_failing_chunk_decides_the_certify_error(mesh9, monkeypatch):
    # every z2-only factor is evaluated on the latitude cosines before the
    # first chunk (the det grid and the latitude tables), so its error comes
    # first; among the per-point errors the first failing chunk decides, and
    # inside a chunk the path start runs before f and Eh
    from expspec import homotopy
    from expspec.algebra import DomainError
    from expspec.homotopy import DegenerateProjection
    from expspec.linalg2 import SingularMatrix, mat_mul

    def phi_raising_at_south_pole(z2, **buffers):
        if np.any(np.asarray(z2) == -1.0):
            raise DomainError("z2 factor")
        return phi(z2, **buffers)

    def f_map_raising_at(lane):
        def raising(x0, x1, x2, **buffers):
            if np.any(x2 == lane):
                raise DegenerateProjection("f at z2 = %g" % lane)
            return f_map(x0, x1, x2, **buffers)

        return raising

    def path_raising_on(lanes):
        # the path start's product holds the chunk's lanes; only the last chunk is short
        def raising(x, y, **buffers):
            if x.shape[1] == lanes:
                raise SingularMatrix("path start on %d lanes" % lanes)
            return mat_mul(x, y, **buffers)

        return raising

    monkeypatch.setattr(algebra, "CHUNK", 7)
    # the north pole is in the first chunk, the south pole in the last, of 2 lanes
    assert len(mesh9) % 7 == 2
    monkeypatch.setattr(homotopy, "f_map", f_map_raising_at(1.0))
    monkeypatch.setattr(homotopy, "phi", phi_raising_at_south_pole)
    with pytest.raises(DomainError, match="z2 factor"):
        build_certificates(mesh9, segments=64)
    monkeypatch.setattr(homotopy, "phi", phi)
    # the path start's product is algebra._ba_residual's
    monkeypatch.setattr(algebra, "mat_mul", path_raising_on(2))
    with pytest.raises(DegenerateProjection, match="f at z2 = 1"):
        build_certificates(mesh9, segments=64)
    # in the last chunk itself the path start fails first
    monkeypatch.setattr(homotopy, "f_map", f_map_raising_at(-1.0))
    with pytest.raises(SingularMatrix, match="path start on 2 lanes"):
        build_certificates(mesh9, segments=64)


def test_sabotaged_fiber_fails_linking(mesh33):
    records, certificates = build_certificates(mesh33, sabotage="fiber")
    assert certificates is None
    assert failing(records) == ["ab_hopf_linking_magnitude"]


def test_unknown_sabotage_rejected(mesh9):
    with pytest.raises(ValueError):
        build_certificates(mesh9, sabotage="nope")


def record_fields(r):
    return r.name, r.claim, r.value.hex(), r.threshold.hex(), r.comparison, r.passed


@pytest.mark.parametrize("sabotage", [None, "flip-f", "fiber"])
def test_certify_reports_the_records_of_one_evaluation(sabotage, mesh33, monkeypatch):
    from expspec import homotopy, report

    tables, evaluate = [], homotopy.check_records

    def recording(checks, evidence):
        tables.append(checks)
        return evaluate(checks, evidence)

    cfg = RunConfig(lat=33, shell=32, sabotage=sabotage)
    with monkeypatch.context() as m:
        m.setattr(homotopy, "check_records", recording)
        m.setattr(report, "check_records", recording)
        rep = run_certify(cfg, mesh=mesh33)
    # the certificate table once, then the headline derived from its records
    assert [t is CERTIFICATE_CHECKS for t in tables] == [True, False]
    assert rep.checks[-1].name == "headline"

    records, certificates = build_certificates(mesh33, segments=cfg.segments, sabotage=sabotage)
    assert (certificates is None) == (sabotage is not None)
    assert ("certificates" in rep.artifacts) == (certificates is not None)
    assert [record_fields(r) for r in rep.checks[:-1]] == [record_fields(r) for r in records]


# The former two-pass hemisphere, gap and equator code, kept as the reference
# for the single f/Eh pass: each map was evaluated over the whole mesh twice,
# the gap minimum was taken over a whole-mesh array of |f + Eh|, and the
# equator maximum over a separate evaluation on the equator ring.
def _chunked(fn, *arrays):
    """fn on consecutive CHUNK-long slices of equal-length arrays (the former sweep)."""
    from expspec import algebra

    n = len(arrays[0])
    return [fn(*(x[i : i + algebra.CHUNK] for x in arrays)) for i in range(0, n, algebra.CHUNK)]


def _reference_second_coord_im_sign(mesh, which):
    from expspec import homotopy

    z0, z1, z2 = mesh.arrays()
    coords = homotopy.f_map if which == "f" else homotopy.suspension_eh

    def chunk_min(j):
        _, c1 = coords(z0[j], z1[j], z2[j])
        return float((np.sign(z2[j]) * c1.imag).min()) + 0.0

    idx = np.flatnonzero((z2 != 0.0) & (np.abs(z2) != 1.0))
    return min(_chunked(chunk_min, idx), default=np.inf)


def _reference_hemisphere(mesh):
    return min(_reference_second_coord_im_sign(mesh, "f"), _reference_second_coord_im_sign(mesh, "eh"))


def _reference_equator_deviation(mesh):
    from expspec import homotopy

    ring = equator_ring(mesh)
    (f0, f1), (e0, e1) = homotopy.f_map(*ring), homotopy.suspension_eh(*ring)
    return float(np.sqrt(np.abs(f0 - e0) ** 2 + np.abs(f1 - e1) ** 2).max())


def _reference_antipodal_gap(mesh):
    from expspec import homotopy

    z0, z1, z2 = mesh.arrays()
    gaps = np.empty(len(mesh))

    def fill(out, x0, x1, x2):
        f0, f1 = homotopy.f_map(x0, x1, x2)
        e0, e1 = homotopy.suspension_eh(x0, x1, x2)
        out[:] = np.sqrt(np.abs(f0 + e0) ** 2 + np.abs(f1 + e1) ** 2)

    _chunked(fill, gaps, z0, z1, z2)
    min_gap = float(gaps.min())
    return dict(
        antipodal_min_gap=min_gap,
        antipodal_certified_lower_bound=min_gap
        - homotopy.ANTIPODAL_LIPSCHITZ * mesh.covering_radius
        - homotopy.ROUNDING_PER_LATITUDE * mesh.lat_count,
        hemisphere_worst_violation=_reference_hemisphere(mesh),
        equator_max_deviation=_reference_equator_deviation(mesh),
    )


@pytest.mark.parametrize("mesh_name", ["mesh9", "mesh33"])
def test_one_pass_matches_two_pass_reference(mesh_name, request, monkeypatch):
    from dataclasses import asdict

    from expspec import algebra

    mesh = request.getfixturevalue(mesh_name)
    default_chunk = algebra.CHUNK
    monkeypatch.setattr(algebra, "CHUNK", len(mesh))
    expected = _reference_antipodal_gap(mesh)
    # small chunks that straddle the latitude and equator runs: 7 points on
    # mesh9, and on mesh33 1,021, which does not divide its 7,232-point
    # shell (7 points there made 32,028 chunks and a quarter of the suite)
    small = 7 if mesh_name == "mesh9" else 1021
    assert mesh.shell_size % small != 0
    for chunk in (default_chunk, small):
        monkeypatch.setattr(algebra, "CHUNK", chunk)
        assert asdict(antipodal_gap(mesh)) == expected
    # the same pass's second value at every chunk size, so one size suffices
    monkeypatch.setattr(algebra, "CHUNK", default_chunk)
    assert hemisphere_preservation(mesh) == expected["hemisphere_worst_violation"]


def _sorted_rows(z0, z1, z2):
    """Points as rows (Re z0, Im z0, Re z1, Im z1, z2), in lexicographic order."""
    rows = np.stack(np.broadcast_arrays(np.real(z0), np.imag(z0), np.real(z1), np.imag(z1), z2),
                    axis=-1)
    return rows[np.lexsort(rows.T[::-1])]


def test_certificates_evaluate_f_and_eh_once_per_point(mesh9, monkeypatch):
    from expspec import homotopy

    seen = {"f_map": [], "suspension_eh": []}

    def recording(name, fn):
        def wrapped(z0, z1, z2, **buffers):
            # copies: a sweep's chunks are views of buffers the next chunk overwrites
            seen[name].append([np.array(x) for x in np.broadcast_arrays(z0, z1, z2)])
            return fn(z0, z1, z2, **buffers)

        return wrapped

    for name in seen:
        monkeypatch.setattr(homotopy, name, recording(name, getattr(homotopy, name)))
    # mesh9 is too coarse to certify the antipodal gap; the evaluations still count
    records, certificates = build_certificates(mesh9, segments=64)
    assert certificates is None
    assert failing(records) == ["ab_antipodal_certified"]

    # each mesh point exactly once: the equator record reads the same pass
    expected = _sorted_rows(*mesh9.arrays())
    assert len(expected) == len(mesh9)
    for name, calls in seen.items():
        got = _sorted_rows(*(np.concatenate(c) for c in zip(*calls)))
        assert got.shape == expected.shape and np.array_equal(got, expected), name


@pytest.mark.parametrize("forked", [False, True])
def test_nan_reaches_the_folded_evidence(forked, mesh9, monkeypatch, request):
    # a nan outside the first chunk must reach the folded maxima and minima,
    # whatever the chunk size; a fold with Python's max() or min() dropped it.
    # Forked, the 81 chunks are cut at point 280: the equator lane is the
    # parent's, the other lane and the south pole the helper's
    from expspec import algebra, homotopy
    from expspec.algebra import identity_residuals, phi

    def phi_nan_at_south_pole(z2):
        return np.where(np.asarray(z2) == -1.0, np.nan, phi(z2))

    z0, z1, z2 = mesh9.arrays()
    lane = np.flatnonzero((z2 != 0.0) & (np.abs(z2) != 1.0))[-1]
    ring = np.flatnonzero(z2 == 0.0)
    equator_lane = ring[30]
    monkeypatch.setattr(algebra, "CHUNK", 7)
    assert lane >= len(mesh9) - len(mesh9) % 7  # the last chunk
    assert z2[0] == 1.0 and z2[-1] == -1.0      # the south pole is in the last chunk
    # inside the equator run, whose chunks come after the first and go on after its own
    assert ring[0] // 7 < equator_lane // 7 < ring[-1] // 7 and ring[0] >= 7

    def at_lane(x0, x1, x2):
        return np.logical_or.reduce([(x0 == z0[i]) & (x1 == z1[i]) & (x2 == z2[i])
                                     for i in (lane, equator_lane)])

    assert np.count_nonzero(at_lane(*mesh9.arrays())) == 2

    def eh_nan_at_lane(x0, x1, x2, **buffers):
        e0, e1 = suspension_eh(x0, x1, x2, **buffers)
        return e0, np.where(at_lane(x0, x1, x2), complex(np.nan, np.nan), e1)

    monkeypatch.setattr(algebra, "phi", phi_nan_at_south_pole)
    monkeypatch.setattr(homotopy, "phi", phi_nan_at_south_pole)
    monkeypatch.setattr(homotopy, "suspension_eh", eh_nan_at_lane)
    forks = request.getfixturevalue("forks") if forked else []
    assert np.isnan(identity_residuals(mesh9).ba_vs_diag)
    path = path_invertibility(mesh9)
    # the det grid's nan is at t = 0 only, so later t-values must keep it
    assert np.isnan(path.path_max_abs_det_deviation)
    assert np.isnan(path.endpoint_residual_start)
    gap = antipodal_gap(mesh9)
    assert np.isnan(gap.hemisphere_worst_violation)
    assert np.isnan(gap.antipodal_min_gap) and np.isnan(gap.antipodal_certified_lower_bound)
    assert np.isnan(gap.equator_max_deviation)
    assert len(forks) == (3 if forked else 0)  # identity_residuals and two certify sweeps


def test_nan_norm_is_degenerate():
    # a nan norm is not above the threshold, so it must raise like a tiny one
    from expspec.homotopy import DegenerateProjection

    with pytest.raises(DegenerateProjection):
        f_map(np.nan, 0, 0)


# The former one-expression evaluators, kept as the reference for the
# buffered ones, which must match them bit for bit.
def ref_f_map(z0, z1, z2):
    w = 1.0 / (1.0 + 1j * z2)
    beta = w * w
    p0, p1 = -2.0 * beta * z0 * np.conj(z1), 1.0 - 2.0 * beta * z1 * np.conj(z1)
    n = np.sqrt(np.abs(p0) ** 2 + np.abs(p1) ** 2)
    return np.array([p0 / n, p1 / n])


def ref_suspension_eh(z0, z1, z2):
    h0, h1 = hopf(z0, z1)
    rr = (1.0 - z2) * (1.0 + z2)
    pole = rr <= 0.0
    root = np.sqrt(np.where(pole, 1.0, rr))
    e0 = np.where(pole, 0.0, h0 / root)
    e1 = np.where(pole, 1j * np.sign(z2), h1 / root + 1j * z2)
    return np.array([e0, e1])


def ref_null_homotopy_ba(z2, t):
    from expspec.algebra import phi
    from expspec.linalg2 import planar

    return planar(phi((1.0 - t) * np.asarray(z2, dtype=np.float64) + t), 0.0, 0.0, 1.0)


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def sphere_points(n, seed, nan_lanes=True):
    """Random points of S^4, the poles, an equator point and, optionally, nan lanes."""
    rng = np.random.RandomState(seed)
    v = rng.standard_normal((n, 5))
    v /= np.linalg.norm(v, axis=1)[:, None]
    z0, z1, z2 = v[:, 0] + 1j * v[:, 1], v[:, 2] + 1j * v[:, 3], v[:, 4]
    z0[:3], z1[:3], z2[:3] = (0, 0, S), (0, 0, S * 1j), (1.0, -1.0, 0.0)
    if nan_lanes:
        z0[5], z1[6], z2[7] = np.nan, complex(0.0, np.nan), np.nan
    return z0, z1, z2


EVALUATORS = [
    # (name, call with buffers, parent reference, output planes, work planes, nan lanes allowed)
    ("f_map", f_map, ref_f_map, 2, 2, False),
    ("suspension_eh", suspension_eh, ref_suspension_eh, 2, 3, True),
]


@pytest.mark.parametrize("name, evaluate, ref, planes, work_planes, nan_lanes", EVALUATORS,
                         ids=[e[0] for e in EVALUATORS])
def test_buffered_evaluators_match_the_allocating_call(name, evaluate, ref, planes, work_planes, nan_lanes):
    z = sphere_points(41, 3, nan_lanes)
    out = np.full((planes, 41), complex(np.nan, np.nan))
    work = np.full((work_planes, 41), complex(np.nan, np.nan))
    with np.errstate(invalid="ignore"):
        allocated = evaluate(*z)
        got = evaluate(*z, out=out, work=work)
        reference = ref(*z)
    assert got is out
    assert same_bits(got, allocated)
    assert same_bits(allocated, reference)
    assert not nan_lanes or np.isnan(allocated[0][5:8]).any()
    # a 0-d point: the south pole
    assert same_bits(evaluate(0, 0, -1.0), ref(0j, 0j, -1.0))


def test_null_homotopy_ba_matches_the_reference():
    z2 = sphere_points(41, 3)[2]
    with np.errstate(invalid="ignore"):
        allocated = null_homotopy_ba(z2, 0.25)
        assert same_bits(allocated, ref_null_homotopy_ba(z2, 0.25))
    assert np.isnan(allocated[0][5:8]).any()
    # a 0-d point: the south pole
    assert same_bits(null_homotopy_ba(-1.0, 0.25), ref_null_homotopy_ba(-1.0, 0.25))


def test_f_map_raises_on_a_nan_lane_with_and_without_buffers():
    from expspec.homotopy import DegenerateProjection

    z = sphere_points(41, 4)
    with pytest.raises(DegenerateProjection), np.errstate(invalid="ignore"):
        f_map(*z)
    with pytest.raises(DegenerateProjection), np.errstate(invalid="ignore"):
        f_map(*z, out=np.empty((2, 41), complex), work=np.empty((2, 41), complex))


def test_homotopy_chunk_kernels_ignore_stale_workspace_lanes(mesh9):
    # sweep hands a partial last chunk the views of work[:, :n] of the
    # workspace a full chunk used, so its lanes still hold that chunk's
    # values, here a nan; a fresh nan-filled workspace turns any lane read
    # before it is written into a nan result. The planes filled from the
    # latitude tables are among them, and tables spoiled at every latitude
    # the partial chunk does not hold must give the same result
    from expspec.homotopy import _CERTIFY_LAYOUT, DegenerateProjection, _certify_chunk, _certify_tables

    full, n = 300, 100
    # from the fourth latitude on, so the partial chunk holds equator lanes too
    z0, z1, z2 = (x[200 : 200 + full] for x in mesh9.arrays())
    assert np.count_nonzero(z2[:n] == 0.0) > 0
    tab = _certify_tables(mesh9.z2_values, null_homotopy_ba(mesh9.z2_values, 0.0))
    runs, part = mesh9.latitude_runs(200, full), mesh9.latitude_runs(200, n)
    z0_nan = z0.copy()
    z0_nan[5] = np.nan
    work = np.full((_CERTIFY_LAYOUT.planes, full), complex(np.nan, np.nan))
    # the path start takes the nan lane in; f_map rejects it, after writing it
    with np.errstate(invalid="ignore"), pytest.raises(DegenerateProjection):
        _certify_chunk(z0_nan, z1, z2, _CERTIFY_LAYOUT.cut(work), (tab, runs))
    stale = _certify_chunk(z0[:n], z1[:n], z2[:n], _CERTIFY_LAYOUT.cut(work[:, :n]), (tab, part))
    fresh = np.full((_CERTIFY_LAYOUT.planes, n), complex(np.nan, np.nan))
    fresh = _certify_chunk(z0[:n], z1[:n], z2[:n], _CERTIFY_LAYOUT.cut(fresh), (tab, part))
    spoiled = _certify_chunk(z0[:n], z1[:n], z2[:n], _CERTIFY_LAYOUT.cut(work[:, :n]), (poisoned(tab, part), part))
    assert repr(stale) == repr(fresh) == repr(spoiled)
    assert not np.isnan(np.asarray(fresh, dtype=float)).any()


@pytest.mark.parametrize("chunk", [None, 7])
def test_path_start_is_the_allocating_residual(chunk, mesh9, monkeypatch):
    # the certify kernel's 1 - 2ba and H(x, 0), in its workspace, against the
    # allocating evaluators over the whole mesh at once: op_norm is pointwise
    # and a maximum is exact, so the two agree bit for bit
    if chunk:
        monkeypatch.setattr(algebra, "CHUNK", chunk)
    z0, z1, z2 = mesh9.arrays()
    expected = op_norm(field_one_minus_2ba(z0, z1, z2) - null_homotopy_ba(z2, 0.0)).max()
    assert path_invertibility(mesh9).endpoint_residual_start.hex() == float(expected).hex()
