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
import operator
from dataclasses import dataclass, field

import numpy as np

from . import linking
from .algebra import field_one_minus_2ba, phi, sweep
from .linalg2 import eye_like, op_norm, planar
from .sphere import equator_mesh

__all__ = [
    "DegenerateProjection",
    "DegenerateNormalization",
    "CertificateFailure",
    "CheckRecord",
    "Check",
    "check_records",
    "CERTIFICATE_CHECKS",
    "FREUDENTHAL_SUSPENSION",
    "hopf",
    "suspension_eh",
    "f_map",
    "equator_deviation",
    "hemisphere_preservation",
    "AntipodalGap",
    "antipodal_gap",
    "straightline_homotopy",
    "null_homotopy_ba",
    "path_invertibility",
    "PathInvertibility",
    "HomotopyCertificate",
    "build_certificates",
]

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
    """Evidence bounds of the certificates failed: the message names every failing
    evidence key, and `evidence` holds all the evidence gathered."""

    def __init__(self, message, evidence):
        super().__init__(message)
        self.evidence = evidence


_COMPARE = {"<=": operator.le, ">=": operator.ge, ">": operator.gt}


@dataclass(frozen=True)
class CheckRecord:
    """One report record: a claim, its measured value, the threshold and the verdict."""

    name: str
    claim: str
    value: float
    threshold: float
    comparison: str  # "<=", ">=", ">"
    passed: bool


@dataclass(frozen=True)
class Check:
    """One row of a check table: the bound a piece of evidence must meet.

    The claim and the threshold are each a constant or a function of the
    evidence mapping, for a claim that names the element or a threshold
    read from the configuration, say.
    """

    name: str
    key: str             # the evidence the bound reads
    claim: object
    threshold: object
    comparison: str
    measure: object = float  # evidence value -> the value compared


def check_records(checks, evidence):
    """One CheckRecord per row of a check table, measured on the evidence mapping.

    The mapping holds the measurements and whatever configuration the rows'
    thresholds read. This is the only place a CheckRecord is made.
    """
    records = []
    for c in checks:
        value = float(c.measure(evidence[c.key]))
        threshold = float(c.threshold(evidence) if callable(c.threshold) else c.threshold)
        claim = c.claim(evidence) if callable(c.claim) else c.claim
        passed = bool(_COMPARE[c.comparison](value, threshold))
        records.append(CheckRecord(c.name, claim, value, threshold, c.comparison, passed))
    return records


# Every bound of the two certificates: build_certificates and the certify report
# both evaluate this table, on the evidence plus the linking segment count.
CERTIFICATE_CHECKS = (
    Check("ba_path_invertibility", "path_max_abs_det_deviation",
          "|det| = 1 along the explicit null homotopy of 1 - 2ba (latitudes x 33 t-values)",
          1e-13, "<="),
    Check("ba_endpoint_start", "endpoint_residual_start",
          "the path starts at 1 - 2ba", 1e-13, "<="),
    Check("ba_endpoint_end", "endpoint_residual_end",
          "the path ends at the identity", 1e-13, "<="),
    Check("ab_equator_coincidence", "equator_max_deviation",
          "f agrees with the suspended Hopf map on the equator", 1e-12, "<="),
    Check("ab_hemisphere_preservation", "hemisphere_worst_violation",
          "f and Eh preserve hemispheres (signed imaginary part of the second coordinate)",
          -1e-13, ">="),
    Check("ab_antipodal_min_gap", "antipodal_min_gap",
          "f(x) and Eh(x) are never antipodal: measured min |f + Eh|", 0.1, ">"),
    Check("ab_antipodal_certified", "antipodal_certified_lower_bound",
          "certified lower bound for min |f + Eh| (band minus slack, analytic caps)", 0.0, ">"),
    # measures 1.0 exactly when |lk| = 1 and less otherwise, so lk = +-2 fails too
    Check("ab_hopf_linking_magnitude", "hopf_linking_rounded",
          "the Hopf invariant of h (fiber linking number) has magnitude 1",
          1.0, ">=", lambda lk: 1.0 - abs(abs(lk) - 1)),
    Check("ab_hopf_linking_residual", "hopf_linking_residual",
          "the Gauss sum is close to its integer",
          lambda e: linking.residual_tolerance(e["segments"]), "<="),
)


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
    return e0, e1


def f_map(z0, z1, z2):
    """The second column of c, normalized to unit Euclidean norm (a map S^4 -> S^3).

    The column is pc = (-2 z0 conj(z1)/(1+i z2)^2, 1 - 2|z1|^2/(1+i z2)^2),
    computed in field_c's operation order, so it is bitwise the second column
    of field_c. c is unitary, so the norm is 1 up to rounding; if it ever drops
    below 1e-13 this raises DegenerateProjection, and any such firing is a
    verification failure upstream.
    """
    z0 = np.asarray(z0, dtype=np.complex128)
    z1 = np.asarray(z1, dtype=np.complex128)
    z2 = np.asarray(z2, dtype=np.float64)
    w = 1.0 / (1.0 + 1j * z2)
    beta = w * w
    p0, p1 = -2.0 * beta * z0 * np.conj(z1), 1.0 - 2.0 * beta * z1 * np.conj(z1)
    n = np.sqrt(np.abs(p0) ** 2 + np.abs(p1) ** 2)
    if not np.all(n > 1e-13):  # a nan norm fails too
        raise DegenerateProjection("projected column norm below 1e-13")
    return p0 / n, p1 / n


def equator_deviation(shell_count, f=f_map):
    """max |f - Eh| over the equator grid (f_map and Eh coincide there with h)."""
    z0, z1, z2 = equator_mesh(shell_count)
    f0, f1 = f(z0, z1, z2)
    e0, e1 = suspension_eh(z0, z1, z2)
    return float(np.sqrt(np.abs(f0 - e0) ** 2 + np.abs(f1 - e1) ** 2).max())


def _antipodal_distance(f, e):
    """|f + Eh| pointwise, from the coordinate pairs f = (f0, f1) and e = (e0, e1)."""
    (f0, f1), (e0, e1) = f, e
    return np.sqrt(np.abs(f0 + e0) ** 2 + np.abs(f1 + e1) ** 2)


def _f_eh_pass(mesh):
    """One sweep evaluating f and Eh once per mesh point.

    Returns (gaps, hemisphere): |f + Eh| at every mesh point, and the minimum
    over both maps of sign(z2) * Im(second coordinate) on the off-equator,
    off-pole points (inf when there are none).
    """
    z0, z1, z2 = mesh.arrays()
    gaps = np.empty(len(mesh))

    def kernel(out, x0, x1, x2):
        f = f_map(x0, x1, x2)
        e = suspension_eh(x0, x1, x2)
        out[:] = _antipodal_distance(f, e)
        keep = (x2 != 0.0) & (np.abs(x2) != 1.0)
        s = np.sign(x2)
        signed = np.minimum(s * f[1].imag, s * e[1].imag)
        # + 0.0 turns a -0.0 minimum into 0.0: which zero a min over ties keeps
        # depends on the order it meets them, so the chunking would show in the sign
        return np.where(keep, signed, np.inf).min() + 0.0

    # np.minimum, unlike min(), keeps a nan from any chunk
    hemisphere = np.minimum.reduce(sweep(kernel, gaps, z0, z1, z2))
    return gaps, float(hemisphere)


def hemisphere_preservation(mesh):
    """Worst signed violation of hemisphere preservation for f and Eh.

    Equator points (z2 = 0) and poles are excluded; the certificate bounds
    the returned minimum from below (ab_hemisphere_preservation). It comes
    from the single f/Eh pass that antipodal_gap runs, so build_certificates
    reads it from AntipodalGap.hemisphere_worst_violation instead.
    """
    return _f_eh_pass(mesh)[1]


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
    hemisphere_worst_violation: float  # from the same f/Eh pass, see hemisphere_preservation


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


def antipodal_gap(mesh):
    """Measured minimum of |f + Eh| over the mesh plus a certified positive lower bound.

    Certification splits the sphere: on the polar caps |z2| >= Z_CAP the
    closed-form bound of _cap_lower_bound holds everywhere; on the band
    the mesh minimum is discounted by covering_radius times a widened
    empirical modulus of continuity. The certified bound is the smaller
    of the two and must come out positive.

    One pass: f and Eh are evaluated once per mesh point, in the sweep that
    also yields the hemisphere evidence (hemisphere_worst_violation).
    """
    gaps, hemisphere = _f_eh_pass(mesh)
    band = np.abs(mesh.z2) <= Z_CAP
    band_min = float(gaps[band].min()) if np.any(band) else np.inf
    cap_min = float(gaps[~band].min()) if np.any(~band) else np.inf
    lip = _band_lipschitz_estimate(mesh, gaps, Z_CAP)
    factor = LIPSCHITZ_SAFETY * lip
    band_certified = band_min - mesh.covering_radius * factor
    cap_bound = _cap_lower_bound(Z_CAP)
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
        hemisphere_worst_violation=hemisphere,
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
    if not np.all(n > 1e-13):  # a nan norm fails too
        raise DegenerateNormalization("straight-line interpolant vanished")
    return s0 / n, s1 / n


def null_homotopy_ba(z2, t):
    """Explicit null homotopy of 1 - 2ba, as a Field: H(x, t) = diag(phi((1-t) z2 + t), 1).

    H depends on the point x = (z0, z1, z2) only through z2.
    """
    if np.any((np.asarray(t) < 0) | (np.asarray(t) > 1)):
        raise ValueError("t must lie in [0, 1]")
    return planar(phi((1.0 - t) * np.asarray(z2, dtype=np.float64) + t), 0.0, 0.0, 1.0)


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
    z2s = np.unique(mesh.z2_values)
    dets = phi((1.0 - ts[:, None]) * z2s[None, :] + ts[:, None])
    max_det_dev = float(np.abs(np.abs(dets) - 1.0).max())

    def start_residual(x0, x1, x2):
        # in place, so at most two chunk Fields are alive on top of the mesh
        d = field_one_minus_2ba(x0, x1, x2)
        d -= null_homotopy_ba(x2, 0.0)
        return float(op_norm(d).max())

    start_res = float(np.maximum.reduce(sweep(start_residual, *mesh.arrays())))
    h1 = null_homotopy_ba(z2s, 1.0)
    end_res = float(op_norm(h1 - eye_like(h1)).max())
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


def _flipped_f(z0, z1, z2):
    f0, f1 = f_map(z0, z1, z2)
    return -f0, -f1


def build_certificates(mesh, segments=256, sabotage=None):
    """Assemble the two homotopy certificates over a mesh.

    Returns (certificate for 1-2ba, certificate for 1-2ab). Gathers all the
    evidence first, then evaluates every bound of CERTIFICATE_CHECKS; if any
    fails it raises CertificateFailure, which names every failing evidence
    key and carries the whole evidence dict. The sabotage hook ("flip-f"
    negates f on the equator, "fiber" links a fiber with a translate of
    itself) exists for negative-control tests and must make this function
    fail.
    """
    if sabotage not in (None, "flip-f", "fiber"):
        raise ValueError(f"unknown sabotage tag: {sabotage!r}")

    path = path_invertibility(mesh)
    ba_evidence = {
        "path_max_abs_det_deviation": path.max_det_deviation,
        "endpoint_residual_start": path.endpoint_start,
        "endpoint_residual_end": path.endpoint_end,
    }
    eq_dev = equator_deviation(mesh.shell_count, _flipped_f if sabotage == "flip-f" else f_map)
    gap = antipodal_gap(mesh)
    link = linking.hopf_invariant_of_h(segments, _self_link=(sabotage == "fiber"))
    ab_evidence = {
        "equator_max_deviation": eq_dev,
        "hemisphere_worst_violation": gap.hemisphere_worst_violation,
        "antipodal_min_gap": gap.min_gap,
        "antipodal_certified_lower_bound": gap.certified_lower_bound,
        "hopf_linking_raw": link.raw,
        "hopf_linking_rounded": link.rounded,
        "hopf_linking_residual": link.residual,
    }

    evidence = {**ba_evidence, **ab_evidence}
    records = check_records(CERTIFICATE_CHECKS, {**evidence, "segments": segments})
    failed = [
        f"{c.key}: {r.name} measured {r.value!r}, needs {r.comparison} {r.threshold!r}"
        for c, r in zip(CERTIFICATE_CHECKS, records)
        if not r.passed
    ]
    if failed:
        raise CertificateFailure("; ".join(failed), evidence)

    ba_cert = HomotopyCertificate(
        subject="ONE_MINUS_2BA",
        verdict="NULL_HOMOTOPIC",
        evidence=ba_evidence,
        notes=["explicit path diag(phi((1-t) z2 + t), 1); |det| = |phi| = 1 pointwise"],
    )
    ab_cert = HomotopyCertificate(
        subject="ONE_MINUS_2AB",
        verdict="OBSTRUCTED_MODULO_SUSPENSION",
        evidence=ab_evidence,
        assumptions=[FREUDENTHAL_SUSPENSION],
        notes=[
            "Eh at the poles uses the continuity extension Eh(0,0,+-1) = (0,+-i)",
            "antipodal certification: band |z2| <= %g uses mesh minimum minus "
            "covering-radius slack, caps use the closed-form bound %.6f"
            % (Z_CAP, gap.cap_bound),
        ],
    )
    return ba_cert, ab_cert
