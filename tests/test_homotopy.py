import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from expspec.algebra import field_c, field_one_minus_2ba
from expspec.homotopy import (
    CertificateFailure,
    FREUDENTHAL_SUSPENSION,
    HomotopyCertificate,
    antipodal_gap,
    build_certificates,
    equator_deviation,
    f_map,
    hemisphere_preservation,
    hopf,
    null_homotopy_ba,
    path_invertibility,
    suspension_eh,
)
from expspec.sphere import equator_mesh

from conftest import as_stack

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
    z0, z1, z2 = equator_mesh(8)
    e0, e1 = suspension_eh(z0, z1, z2)
    h0, h1 = hopf(z0, z1)
    assert np.abs(e0 - h0).max() <= 1e-15
    assert np.abs(e1 - h1).max() <= 1e-15  # imaginary part is exactly zero there
    assert np.all(e1.imag == 0.0)


def test_suspension_poles_and_sample_point():
    assert suspension_eh(0, 0, 1) == (0, 1j)
    assert suspension_eh(0, 0, -1) == (0, -1j)
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
    z0, z1, z2 = equator_mesh(8)
    f0, f1 = f_map(z0, z1, z2)
    h0, h1 = hopf(z0, z1)
    assert np.abs(f0 - h0).max() <= 1e-15
    assert np.abs(f1 - h1).max() <= 1e-15
    assert f_map(0, 0, 1) == (0, 1)
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
    assert equator_deviation(8) <= 1e-12
    assert equator_deviation(64) <= 1e-12


def test_hemisphere_sample_point():
    _, e1 = suspension_eh(S, 0, S)
    assert e1.imag == pytest.approx(S)  # same sign as z2 > 0


def test_hemisphere_preservation(mesh9):
    assert hemisphere_preservation(mesh9) >= -1e-13


def test_self_gap_is_two(mesh9, monkeypatch):
    from expspec import homotopy

    monkeypatch.setattr(homotopy, "suspension_eh", f_map)
    assert antipodal_gap(mesh9).min_gap == pytest.approx(2.0)


def test_antipode_gap_is_zero(mesh9, monkeypatch):
    from expspec import homotopy

    def neg_f(z0, z1, z2):
        f0, f1 = f_map(z0, z1, z2)
        return -f0, -f1

    monkeypatch.setattr(homotopy, "suspension_eh", neg_f)
    gap = antipodal_gap(mesh9)
    assert gap.min_gap == pytest.approx(0.0, abs=1e-15)
    # negative control: an antipodal pair must not certify
    assert gap.certified_lower_bound <= 0


def test_antipodal_gap_certificate(mesh33):
    gap = antipodal_gap(mesh33)
    assert gap.min_gap > 0.1
    assert gap.min_gap == pytest.approx(1.2346, abs=2e-3)
    assert gap.covering_radius == mesh33.covering_radius
    assert gap.certified_lower_bound == (
        gap.min_gap - 2.0 * mesh33.covering_radius - 1e-13 * mesh33.lat_count
    )
    assert gap.certified_lower_bound == pytest.approx(0.8587, abs=1e-3)


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
    assert 0.0 < gap.certified_lower_bound < exact_min <= gap.min_gap


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
        h00, h01, h10, h11 = null_homotopy_ba(mesh9.z2, t)
        det = h00 * h11 - h01 * h10
        assert np.abs(np.abs(det) - 1.0).max() <= 1e-13


def test_path_invertibility(mesh9):
    p = path_invertibility(mesh9)
    assert p.max_det_deviation <= 1e-13
    assert p.endpoint_start <= 1e-13
    assert p.endpoint_end == 0.0
    # a 2-point t-grid still passes: invertibility is pointwise exact
    p2 = path_invertibility(mesh9, t_count=2)
    assert p2.max_det_deviation <= 1e-13


def test_certificates(mesh33):
    ba, ab = build_certificates(mesh33)
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
    with pytest.raises(CertificateFailure, match="equator_max_deviation"):
        build_certificates(mesh9, sabotage="flip-f")


def test_sabotaged_fiber_fails_linking(mesh33):
    with pytest.raises(CertificateFailure, match="hopf_linking"):
        build_certificates(mesh33, sabotage="fiber")


def test_unknown_sabotage_rejected(mesh9):
    with pytest.raises(ValueError):
        build_certificates(mesh9, sabotage="nope")


# The former two-pass hemisphere and gap code, kept as the reference for the
# single f/Eh pass: each map was evaluated over the whole mesh twice, and the
# gap minimum was taken over a whole-mesh array of |f + Eh|.
def _reference_second_coord_im_sign(mesh, which):
    from expspec import homotopy
    from expspec.algebra import sweep

    z0, z1, z2 = mesh.arrays()
    coords = homotopy.f_map if which == "f" else homotopy.suspension_eh

    def chunk_min(j):
        _, c1 = coords(z0[j], z1[j], z2[j])
        return float((np.sign(z2[j]) * c1.imag).min()) + 0.0

    idx = np.flatnonzero((z2 != 0.0) & (np.abs(z2) != 1.0))
    return min(sweep(chunk_min, idx), default=np.inf)


def _reference_hemisphere(mesh):
    return min(_reference_second_coord_im_sign(mesh, "f"), _reference_second_coord_im_sign(mesh, "eh"))


def _reference_antipodal_gap(mesh):
    from expspec import homotopy
    from expspec.algebra import sweep

    z0, z1, z2 = mesh.arrays()
    gaps = np.empty(len(mesh))

    def fill(out, x0, x1, x2):
        f0, f1 = homotopy.f_map(x0, x1, x2)
        e0, e1 = homotopy.suspension_eh(x0, x1, x2)
        out[:] = np.sqrt(np.abs(f0 + e0) ** 2 + np.abs(f1 + e1) ** 2)

    sweep(fill, gaps, z0, z1, z2)
    min_gap = float(gaps.min())
    return dict(
        min_gap=min_gap,
        covering_radius=mesh.covering_radius,
        certified_lower_bound=min_gap
        - homotopy.ANTIPODAL_LIPSCHITZ * mesh.covering_radius
        - homotopy.ROUNDING_PER_LATITUDE * mesh.lat_count,
        hemisphere_worst_violation=_reference_hemisphere(mesh),
    )


@pytest.mark.parametrize("mesh_name", ["mesh9", "mesh33"])
def test_one_pass_matches_two_pass_reference(mesh_name, request, monkeypatch):
    from dataclasses import asdict

    from expspec import algebra

    mesh = request.getfixturevalue(mesh_name)
    default_chunk = algebra.CHUNK
    monkeypatch.setattr(algebra, "CHUNK", len(mesh))
    expected = _reference_antipodal_gap(mesh)
    for chunk in (default_chunk, 7):
        monkeypatch.setattr(algebra, "CHUNK", chunk)
        assert asdict(antipodal_gap(mesh)) == expected
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
        def wrapped(z0, z1, z2):
            seen[name].append(np.broadcast_arrays(z0, z1, z2))
            return fn(z0, z1, z2)

        return wrapped

    for name in seen:
        monkeypatch.setattr(homotopy, name, recording(name, getattr(homotopy, name)))
    # mesh9 is too coarse to certify the antipodal gap; the evaluations still count
    with pytest.raises(CertificateFailure):
        build_certificates(mesh9, segments=64)

    equator = equator_mesh(mesh9.shell_count)
    expected = _sorted_rows(*(np.concatenate(c) for c in zip(mesh9.arrays(), equator)))
    assert len(expected) == len(mesh9) + len(equator[2])
    for name, calls in seen.items():
        got = _sorted_rows(*(np.concatenate(c) for c in zip(*calls)))
        assert got.shape == expected.shape and np.array_equal(got, expected), name


def test_nan_reaches_the_folded_evidence(mesh9, monkeypatch):
    # a nan outside the first chunk must reach the folded maxima and minima,
    # whatever the chunk size; a fold with Python's max() or min() dropped it
    from expspec import algebra, homotopy
    from expspec.algebra import identity_residuals, phi

    def phi_nan_at_south_pole(z2, **buffers):
        # buffers: the out=/work= that the identity sweep passes
        return np.where(np.asarray(z2) == -1.0, np.nan, phi(z2, **buffers))

    z2 = mesh9.z2
    lane = np.flatnonzero((z2 != 0.0) & (np.abs(z2) != 1.0))[-1]
    monkeypatch.setattr(algebra, "CHUNK", 7)
    assert lane >= len(mesh9) - len(mesh9) % 7  # the last chunk
    assert z2[0] == 1.0 and z2[-1] == -1.0      # the south pole is in the last chunk

    def at_lane(x0, x1, x2):
        return (x0 == mesh9.z0[lane]) & (x1 == mesh9.z1[lane]) & (x2 == z2[lane])

    assert np.count_nonzero(at_lane(*mesh9.arrays())) == 1

    def eh_nan_at_lane(x0, x1, x2):
        e0, e1 = suspension_eh(x0, x1, x2)
        return e0, np.where(at_lane(x0, x1, x2), complex(np.nan, np.nan), e1)

    monkeypatch.setattr(algebra, "phi", phi_nan_at_south_pole)
    monkeypatch.setattr(homotopy, "phi", phi_nan_at_south_pole)
    monkeypatch.setattr(homotopy, "suspension_eh", eh_nan_at_lane)
    assert np.isnan(identity_residuals(mesh9).ba_vs_diag)
    assert np.isnan(path_invertibility(mesh9).endpoint_start)
    gap = antipodal_gap(mesh9)
    assert np.isnan(gap.hemisphere_worst_violation)
    assert np.isnan(gap.min_gap) and np.isnan(gap.certified_lower_bound)


def test_nan_norm_is_degenerate():
    # a nan norm is not above the threshold, so it must raise like a tiny one
    from expspec.homotopy import DegenerateProjection

    with pytest.raises(DegenerateProjection):
        f_map(np.nan, 0, 0)
