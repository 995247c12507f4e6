"""Homotopy evidence for the two normalized products.

1 - 2ba is null-homotopic through invertibles by an explicit path:
H(x, t) = diag(phi((1-t) z2 + t), 1) slides the latitude argument to 1,
where phi equals 1; |det H| = |phi| = 1 along the whole path, so
invertibility never degenerates. That is a complete, unconditional
machine check.

1 - 2ab = c is obstructed. The chain certified here:

  * f := second column of c, normalized. c is pointwise unitary, so the
    column norm is identically 1 and the normalization never divides by
    anything small (a DegenerateProjection from f is a verification
    failure, not an expected path).
  * On the equator z2 = 0, f coincides with the classical Hopf map
    h(w0, w1) = (-2 w0 conj(w1), |w0|^2 - |w1|^2), h : S^3 -> S^2.
  * Eh, the suspension of h to a map S^4 -> S^3,

        Eh(z0, z1, z2) = ( -2 z0 conj(z1) / sqrt(1 - z2^2),
                           (|z0|^2 - |z1|^2) / sqrt(1 - z2^2) + i z2 ),

    also restricts to h on the equator, and both f and Eh send the
    upper/lower open hemisphere into the respective closed hemisphere
    of S^3 (sign of the imaginary part of the second coordinate).
  * f(x) and Eh(x) are never antipodal: the mesh minimum of |f + Eh| is
    about 1.2345 and a certified positive lower bound is produced by a
    band/cap split (see antipodal_gap). Hence the normalized straight
    line (1-t) f + t Eh is a homotopy f ~ Eh.
  * h itself is essential: its Hopf invariant, the linking number of two
    fiber circles, is +-1 (linking module).

The one step that is cited rather than computed -- essentialness of h
forces essentialness of its suspension Eh -- is the Freudenthal
suspension theorem, and it is carried on the certificate as its single
explicit assumption.

At the poles z2 = +-1 the displayed Eh formula is 0/0; the continuity
extension Eh(0, 0, +-1) := (0, +-i) is used, justified by the bounds
|Eh_0| <= sqrt(1 - z2^2) and |Re Eh_1| <= sqrt(1 - z2^2) on the sphere
(both numerators are dominated by |z0|^2 + |z1|^2 = 1 - z2^2).
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import linking
from .algebra import field_one_minus_2ba, phi, sweep
from .linalg2 import mat2, op_norm, planar
from .sphere import equator_mesh

__all__ = [
    "DegenerateProjection",
    "DegenerateNormalization",
    "CertificateFailure",
    "FREUDENTHAL_SUSPENSION",
    "hopf",
    "suspension_eh",
    "pc",
    "f_map",
    "equator_deviation",
    "hemisphere_preservation",
    "AntipodalGap",
    "antipodal_gap",
    "mesh_min_gap",
    "straightline_homotopy",
    "null_homotopy_ba",
    "path_invertibility",
    "PathInvertibility",
    "HomotopyCertificate",
    "build_certificates",
    "EQUATOR_TOL",
    "HEMISPHERE_TOL",
    "PATH_DET_TOL",
    "ENDPOINT_TOL",
    "GAP_FLOOR",
]

# evidence thresholds for the certificates
EQUATOR_TOL = 1e-12        # max |f - Eh| on the equator
HEMISPHERE_TOL = -1e-13    # min sign(z2) * Im(second coordinate)
PATH_DET_TOL = 1e-13       # max ||det H| - 1| along the ba null homotopy
ENDPOINT_TOL = 1e-13       # endpoint residuals of the ba null homotopy
GAP_FLOOR = 0.1            # acceptance floor for the measured antipodal minimum
Z_CAP = 0.95               # |z2| >= Z_CAP handled by the analytic cap bound
LIPSCHITZ_SAFETY = 2.0     # multiplier on the empirical modulus of continuity

FREUDENTHAL_SUSPENSION = (
    "Freudenthal suspension theorem (classical, cited not computed): "
    "since the Hopf map h is essential in C(S3, S2), its suspension Eh "
    "is essential in C(S4, S3)."
)


class DegenerateProjection(ArithmeticError):
    """The projected column had norm below threshold (must never happen)."""


class DegenerateNormalization(ArithmeticError):
    """A straight-line interpolant had norm too small to normalize."""


class CertificateFailure(AssertionError):
    """An evidence bound of a homotopy certificate failed; names the first offender."""


def hopf(w0, w1):
    """Hopf map S^3 -> S^2: (w0, w1) -> (-2 w0 conj(w1), |w0|^2 - |w1|^2).

    Returns (complex, real) arrays; the image lies on the unit 2-sphere
    embedded in C x R.
    """
    w0 = np.asarray(w0, dtype=np.complex128)
    w1 = np.asarray(w1, dtype=np.complex128)
    return -2.0 * w0 * np.conj(w1), (w0 * np.conj(w0) - w1 * np.conj(w1)).real


def suspension_eh(z0, z1, z2):
    """Suspension of the Hopf map, S^4 -> S^3, with the polar continuity extension.

    Returns two complex arrays (first coordinate, second coordinate).
    """
    z0 = np.asarray(z0, dtype=np.complex128)
    z1 = np.asarray(z1, dtype=np.complex128)
    z2 = np.asarray(z2, dtype=np.float64)
    h0, h1 = hopf(z0, z1)
    rr = (1.0 - z2) * (1.0 + z2)
    pole = rr <= 0.0
    root = np.sqrt(np.where(pole, 1.0, rr))
    e0 = np.where(pole, 0.0, h0 / root)
    e1 = np.where(pole, 1j * np.sign(z2), h1 / root + 1j * z2)
    if e0.ndim == 0:
        return complex(e0), complex(e1)
    return e0, e1


def pc(z0, z1, z2):
    """Second column of c: (-2 z0 conj(z1)/(1+i z2)^2, 1 - 2|z1|^2/(1+i z2)^2)."""
    z0 = np.asarray(z0, dtype=np.complex128)
    z1 = np.asarray(z1, dtype=np.complex128)
    z2 = np.asarray(z2, dtype=np.float64)
    w = 1.0 / (1.0 + 1j * z2)
    beta = w * w
    # same operation order as eval_c, so this is bitwise its second column
    return -2.0 * beta * z0 * np.conj(z1), 1.0 - 2.0 * beta * z1 * np.conj(z1)


def f_map(z0, z1, z2):
    """pc normalized to unit Euclidean norm (a map S^4 -> S^3).

    c is unitary, so the norm is 1 up to rounding; if it ever drops below
    1e-13 this raises DegenerateProjection, and any such firing is a
    verification failure upstream.
    """
    p0, p1 = pc(z0, z1, z2)
    n = np.sqrt(np.abs(p0) ** 2 + np.abs(p1) ** 2)
    if np.any(n <= 1e-13):
        raise DegenerateProjection("projected column norm below 1e-13")
    f0, f1 = p0 / n, p1 / n
    if f0.ndim == 0:
        return complex(f0), complex(f1)
    return f0, f1


def equator_deviation(shell_count):
    """max |f - Eh| over the equator grid (they coincide there with h)."""
    z0, z1, z2 = equator_mesh(shell_count)
    f0, f1 = f_map(z0, z1, z2)
    e0, e1 = suspension_eh(z0, z1, z2)
    return float(np.sqrt(np.abs(f0 - e0) ** 2 + np.abs(f1 - e1) ** 2).max())


def _second_coord_im_sign(mesh, which):
    """min over off-equator, off-pole mesh points of sign(z2)*Im(second coordinate)."""
    z0, z1, z2 = mesh.arrays()
    coords = f_map if which == "f" else suspension_eh

    def chunk_min(j):
        _, c1 = coords(z0[j], z1[j], z2[j])
        # + 0.0 turns a -0.0 minimum into 0.0: which zero a min over ties keeps
        # depends on the order it meets them, so the chunking would show in the sign
        return float((np.sign(z2[j]) * c1.imag).min()) + 0.0

    idx = np.flatnonzero((z2 != 0.0) & (np.abs(z2) != 1.0))
    return min(sweep(chunk_min, idx), default=np.inf)


def hemisphere_preservation(mesh):
    """Worst signed violation of hemisphere preservation for f and Eh.

    Equator points (z2 = 0) and poles are excluded; the contract is that
    the returned minimum is >= -1e-13 (no violations beyond rounding).
    """
    return min(_second_coord_im_sign(mesh, "f"), _second_coord_im_sign(mesh, "eh"))


def _gap_values(z0, z1, z2):
    f0, f1 = f_map(z0, z1, z2)
    e0, e1 = suspension_eh(z0, z1, z2)
    return np.sqrt(np.abs(f0 + e0) ** 2 + np.abs(f1 + e1) ** 2)


def mesh_min_gap(mesh, map_a=f_map, map_b=suspension_eh):
    """min over the mesh of |A(x) + B(x)| for two S^3-valued maps."""

    def chunk_min(x0, x1, x2):
        a0, a1 = map_a(x0, x1, x2)
        b0, b1 = map_b(x0, x1, x2)
        return float(np.sqrt(np.abs(a0 + b0) ** 2 + np.abs(a1 + b1) ** 2).min())

    return min(sweep(chunk_min, *mesh.arrays()))


def _cap_lower_bound(z_cap):
    """Closed-form lower bound for |f + Eh| on the polar caps |z2| >= z_cap.

    On the sphere, with u = 1 - z2^2 and q = 1 + z2^2:
      |pc - (0, 1)|   <= 2u/q        (|pc_0| <= u/q, |pc_1 - 1| <= 2|z1|^2/q <= 2u/q,
                                      and since |pc| = 1, the deviation is exactly
                                      2|z1| sqrt(u)/q <= 2u/q),
      |Eh - (0, +-i)| <= sqrt(u + (1 - |z2|)^2)
                                     (|Eh_0|^2 + (Re Eh_1)^2 = u exactly on the sphere).
    Both right-hand sides are decreasing in |z2|, so evaluating at the cap
    edge bounds the whole cap, and |(0,1) + (0,+-i)| = sqrt(2) gives

      |f + Eh| >= sqrt(2) - 2u/q - sqrt(u + (1 - z_cap)^2).
    """
    u = 1.0 - z_cap * z_cap
    q = 1.0 + z_cap * z_cap
    return math.sqrt(2.0) - 2.0 * u / q - math.sqrt(u + (1.0 - z_cap) ** 2)


@dataclass(frozen=True)
class AntipodalGap:
    """Evidence that f and Eh are never antipodal."""

    min_gap: float
    band_min: float
    cap_min: float
    covering_radius: float
    band_lipschitz_estimate: float
    modulus_factor: float
    band_certified: float
    cap_bound: float
    certified_lower_bound: float


def _band_lipschitz_estimate(mesh, gaps, z_cap):
    """Empirical modulus of continuity of x -> |f(x) + Eh(x)| on the band |z2| <= z_cap.

    Maximal finite-difference slope between within-latitude grid
    neighbours (the three Hopf-coordinate axes of the interior block) and
    between same-index points of adjacent latitudes. An estimate, not a
    proof; the caller widens it by LIPSCHITZ_SAFETY.
    """
    z0, z1, z2 = mesh.arrays()
    s = mesh.shell_count
    interior = mesh.interior_shape
    best = 0.0

    def slope(dg, d0, d1, d2):
        dist = np.sqrt(np.abs(d0) ** 2 + np.abs(d1) ** 2 + d2**2)
        ok = dist > 0
        if not np.any(ok):
            return 0.0
        return float((np.abs(dg)[ok] / dist[ok]).max())

    def block(j):
        sl = mesh.lat_slices[j]
        return gaps[sl], z0[sl], z1[sl], z2[sl]

    in_band = [abs(float(v)) <= z_cap for v in mesh.z2_values]
    for j in range(1, mesh.lat_count - 1):
        if in_band[j]:
            # within-latitude: diff the non-degenerate block along each Hopf axis
            g, x0, x1, x2 = (arr[s:-s].reshape(interior) for arr in block(j))
            for ax in range(3):
                best = max(
                    best,
                    slope(
                        np.diff(g, axis=ax),
                        np.diff(x0, axis=ax),
                        np.diff(x1, axis=ax),
                        np.diff(x2, axis=ax),
                    ),
                )
        if j >= 2 and (in_band[j] or in_band[j - 1]):
            # adjacent non-polar latitudes carry the same shell layout
            cur, prev = block(j), block(j - 1)
            best = max(
                best,
                slope(cur[0] - prev[0], cur[1] - prev[1], cur[2] - prev[2], cur[3] - prev[3]),
            )
    return best


def antipodal_gap(mesh, z_cap=Z_CAP, safety=LIPSCHITZ_SAFETY):
    """Measured minimum of |f + Eh| over the mesh plus a certified positive lower bound.

    Certification splits the sphere: on the polar caps |z2| >= z_cap the
    closed-form bound of _cap_lower_bound holds everywhere; on the band
    the mesh minimum is discounted by covering_radius times a widened
    empirical modulus of continuity. The certified bound is the smaller
    of the two and must come out positive.
    """
    z0, z1, z2 = mesh.arrays()
    gaps = np.empty(len(mesh))

    def fill(out, x0, x1, x2):
        out[:] = _gap_values(x0, x1, x2)

    sweep(fill, gaps, z0, z1, z2)
    band = np.abs(z2) <= z_cap
    band_min = float(gaps[band].min()) if np.any(band) else np.inf
    cap_min = float(gaps[~band].min()) if np.any(~band) else np.inf
    lip = _band_lipschitz_estimate(mesh, gaps, z_cap)
    factor = safety * lip
    band_certified = band_min - mesh.covering_radius * factor
    cap_bound = _cap_lower_bound(z_cap)
    return AntipodalGap(
        min_gap=float(gaps.min()),
        band_min=band_min,
        cap_min=cap_min,
        covering_radius=mesh.covering_radius,
        band_lipschitz_estimate=lip,
        modulus_factor=factor,
        band_certified=band_certified,
        cap_bound=cap_bound,
        certified_lower_bound=min(band_certified, cap_bound),
    )


def straightline_homotopy(z0, z1, z2, t):
    """Normalized straight line from f (t=0) to Eh (t=1), defined by the antipodal gap."""
    if np.any((np.asarray(t) < 0) | (np.asarray(t) > 1)):
        raise ValueError("t must lie in [0, 1]")
    f0, f1 = f_map(z0, z1, z2)
    e0, e1 = suspension_eh(z0, z1, z2)
    s0 = (1.0 - t) * f0 + t * e0
    s1 = (1.0 - t) * f1 + t * e1
    n = np.sqrt(np.abs(s0) ** 2 + np.abs(s1) ** 2)
    if np.any(n <= 1e-13):
        raise DegenerateNormalization("straight-line interpolant vanished")
    out0, out1 = s0 / n, s1 / n
    if np.ndim(out0) == 0:
        return complex(out0), complex(out1)
    return out0, out1


def _null_homotopy_field(z2, t):
    ph = phi((1.0 - t) * np.asarray(z2, dtype=np.float64) + t)
    return planar(ph, 0.0, 0.0, 1.0)


def null_homotopy_ba(z0, z1, z2, t):
    """Explicit null homotopy of 1 - 2ba: H(x, t) = diag(phi((1-t) z2 + t), 1)."""
    if np.any((np.asarray(t) < 0) | (np.asarray(t) > 1)):
        raise ValueError("t must lie in [0, 1]")
    return mat2(*_null_homotopy_field(z2, t))


@dataclass(frozen=True)
class PathInvertibility:
    """Invertibility along the ba null homotopy and its endpoint residuals."""

    max_det_deviation: float   # max ||det H(x,t)| - 1| over latitudes x t-grid
    endpoint_start: float      # max ||H(x,0) - (1-2ba)(x)|| over the mesh
    endpoint_end: float        # max ||H(x,1) - I|| over the mesh


def path_invertibility(mesh, t_count=33):
    """Check |det H| = 1 along the path and the endpoint identities.

    H(x, t) depends on x only through z2, so the det sweep over the
    unique latitude values times the t-grid covers the full mesh exactly;
    the endpoint residual at t = 0 is a genuine full-mesh product sweep.
    """
    ts = np.linspace(0.0, 1.0, t_count)
    z2s = np.unique(mesh.z2)
    dets = phi((1.0 - ts[:, None]) * z2s[None, :] + ts[:, None])
    max_det_dev = float(np.abs(np.abs(dets) - 1.0).max())

    def start_residual(x0, x1, x2):
        # in place, so at most two chunk Fields are alive on top of the mesh
        d = field_one_minus_2ba(x0, x1, x2)
        d -= _null_homotopy_field(x2, 0.0)
        return float(op_norm(d).max())

    start_res = max(sweep(start_residual, *mesh.arrays()))
    h1 = null_homotopy_ba(0.0, 0.0, np.unique(mesh.z2), 1.0)
    end_res = float(op_norm(h1 - np.eye(2)).max())
    return PathInvertibility(max_det_dev, start_res, end_res)


@dataclass(frozen=True)
class HomotopyCertificate:
    """Verdict plus named numerical evidence for one element.

    Serializes to the stable JSON schema
    {subject, verdict, evidence: {name: value}, assumptions: [...],
    notes: [...]}; `assumptions` lists cited theorems the verdict is
    conditional on (exactly one, Freudenthal, for the obstructed verdict;
    none for the null-homotopic one), `notes` is informational only.
    """

    subject: str
    verdict: str
    evidence: dict
    assumptions: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def __post_init__(self):
        if self.verdict == "NULL_HOMOTOPIC" and self.assumptions:
            raise ValueError("a null-homotopic verdict must not carry assumptions")
        if self.verdict == "OBSTRUCTED_MODULO_SUSPENSION" and (
            len(self.assumptions) != 1 or "Freudenthal" not in self.assumptions[0]
        ):
            raise ValueError("an obstructed verdict must cite exactly the suspension theorem")

    def to_json_dict(self):
        return {
            "subject": self.subject,
            "verdict": self.verdict,
            "evidence": dict(self.evidence),
            "assumptions": list(self.assumptions),
            "notes": list(self.notes),
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), indent=2)


def _require(ok, name, detail):
    if not ok:
        raise CertificateFailure(f"{name}: {detail}")


def build_certificates(mesh, segments=256, sabotage=None):
    """Assemble the two homotopy certificates over a mesh.

    Returns (certificate for 1-2ba, certificate for 1-2ab). Raises
    CertificateFailure naming the first failing evidence bound. The
    sabotage hook ("flip-f" negates f, "fiber" links a fiber with a
    translate of itself) exists for negative-control tests and must make
    this function fail.
    """
    if sabotage not in (None, "flip-f", "fiber"):
        raise ValueError(f"unknown sabotage tag: {sabotage!r}")

    # --- 1 - 2ba: unconditional null homotopy ---------------------------
    path = path_invertibility(mesh)
    _require(
        path.max_det_deviation <= PATH_DET_TOL,
        "path_min_abs_det",
        f"|det| deviates from 1 by {path.max_det_deviation:.3e} > {PATH_DET_TOL:.0e}",
    )
    _require(
        path.endpoint_start <= ENDPOINT_TOL,
        "endpoint_residual_start",
        f"{path.endpoint_start:.3e} > {ENDPOINT_TOL:.0e}",
    )
    _require(
        path.endpoint_end <= ENDPOINT_TOL,
        "endpoint_residual_end",
        f"{path.endpoint_end:.3e} > {ENDPOINT_TOL:.0e}",
    )
    ba_cert = HomotopyCertificate(
        subject="ONE_MINUS_2BA",
        verdict="NULL_HOMOTOPIC",
        evidence={
            "path_max_abs_det_deviation": path.max_det_deviation,
            "endpoint_residual_start": path.endpoint_start,
            "endpoint_residual_end": path.endpoint_end,
        },
        assumptions=[],
        notes=["explicit path diag(phi((1-t) z2 + t), 1); |det| = |phi| = 1 pointwise"],
    )

    # --- 1 - 2ab: obstruction chain, conditional on suspension ----------
    sign = -1.0 if sabotage == "flip-f" else 1.0  # negative control: wrecks the equator match

    z0e, z1e, z2e = equator_mesh(mesh.shell_count)
    fe0, fe1 = f_map(z0e, z1e, z2e)
    ee0, ee1 = suspension_eh(z0e, z1e, z2e)
    eq_dev = float(np.sqrt(np.abs(sign * fe0 - ee0) ** 2 + np.abs(sign * fe1 - ee1) ** 2).max())
    _require(eq_dev <= EQUATOR_TOL, "equator_max_deviation", f"{eq_dev:.3e} > {EQUATOR_TOL:.0e}")

    hemi = hemisphere_preservation(mesh)
    _require(hemi >= HEMISPHERE_TOL, "hemisphere_worst_violation", f"{hemi:.3e} < {HEMISPHERE_TOL:.0e}")

    gap = antipodal_gap(mesh)
    _require(gap.min_gap > GAP_FLOOR, "antipodal_min_gap", f"{gap.min_gap:.3e} <= {GAP_FLOOR}")
    _require(
        gap.certified_lower_bound > 0.0,
        "antipodal_certified_lower_bound",
        f"{gap.certified_lower_bound:.3e} <= 0",
    )

    link = linking.hopf_invariant_of_h(segments, _self_link=(sabotage == "fiber"))
    link_tol = linking.residual_tolerance(segments)
    _require(
        abs(link.rounded) == 1,
        "hopf_linking_rounded",
        f"fiber linking rounded to {link.rounded}, expected magnitude 1",
    )
    _require(
        link.residual <= link_tol,
        "hopf_linking_residual",
        f"{link.residual:.3e} > {link_tol}",
    )

    ab_cert = HomotopyCertificate(
        subject="ONE_MINUS_2AB",
        verdict="OBSTRUCTED_MODULO_SUSPENSION",
        evidence={
            "equator_max_deviation": eq_dev,
            "hemisphere_worst_violation": hemi,
            "antipodal_min_gap": gap.min_gap,
            "antipodal_certified_lower_bound": gap.certified_lower_bound,
            "hopf_linking_raw": link.raw,
            "hopf_linking_rounded": link.rounded,
            "hopf_linking_residual": link.residual,
        },
        assumptions=[FREUDENTHAL_SUSPENSION],
        notes=[
            "Eh at the poles uses the continuity extension Eh(0,0,+-1) = (0,+-i)",
            "antipodal certification: band |z2| <= %g uses mesh minimum minus "
            "covering-radius slack, caps use the closed-form bound %.6f"
            % (Z_CAP, gap.cap_bound),
        ],
    )
    return ba_cert, ab_cert
