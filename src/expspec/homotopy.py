"""Homotopy evidence for the two normalized products.

1 - 2ba is null-homotopic through invertibles by an explicit path:
H(x, t) = diag(phi((1-t) z2 + t), 1) slides the latitude argument to 1,
where phi equals 1; |det H| = |phi| = 1 along the whole path, so
invertibility never degenerates. That is a complete, unconditional
machine check. null_homotopy_ba is the one definition of H: the det grid
of path_invertibility is |det| of its Fields, and both endpoint residuals
read its Fields at t = 0 and t = 1.

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
    about 1.2345, and one proven Lipschitz constant, 2 on all of S^4 with
    no split of the sphere, turns it into a certified positive lower
    bound (see antipodal_gap). Hence the normalized straight line
    (1-t) f + t Eh is a homotopy f ~ Eh.
  * h itself is essential: its Hopf invariant, the linking number of two
    fiber circles, is +-1 (linking module).

All of the mesh evidence of both certificates comes from one sweep. On
each chunk it measures the path start ||(1 - 2ba) - H(x, 0)||, then
evaluates f and Eh once per mesh point, the equator included, for the
equator, hemisphere and antipodal evidence: the mesh's own equator
latitude is the ring the coincidence is measured on (see antipodal_gap).
What depends on z2 alone -- H(x, 0), the z2 factors of a, b, f and Eh,
the folds' signs and masks -- is evaluated once per latitude instead, in
the latitude tables of the sweep (algebra.sweep, _certify_tables), bit
for bit what each point would compute.

build_certificates gathers all of this evidence, evaluates every bound of
CERTIFICATE_CHECKS on it once, and returns those records together with
the two certificates, or with None in their place when a bound fails.

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
import operator
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from . import linking
from .algebra import _ba_residual, _c_column, _c_factors, _coords, _tables, _times_i, field_a, field_b, phi, sweep
from .linalg2 import (
    FIELD,
    FLOAT,
    PLANE,
    Layout,
    _fill_tables,
    _rows,
    _table_run,
    buffer,
    carve,
    carved,
    eye_like,
    op_norm,
    planar,
    planes,
    workspace,
)

__all__ = [
    "DegenerateProjection",
    "CheckRecord",
    "Check",
    "check_records",
    "CERTIFICATE_CHECKS",
    "FREUDENTHAL_SUSPENSION",
    "SABOTAGE_TAGS",
    "suspension_eh",
    "f_map",
    "hemisphere_preservation",
    "AntipodalGap",
    "antipodal_gap",
    "null_homotopy_ba",
    "path_invertibility",
    "PathInvertibility",
    "HomotopyCertificate",
    "build_certificates",
]

ANTIPODAL_LIPSCHITZ = 2.0  # Lip |f + Eh| on S^4, proved in antipodal_gap
ROUNDING_PER_LATITUDE = 1e-13  # the floating-point term of antipodal_gap, per mesh latitude
PATH_T_COUNT = 33  # t-values on [0, 1] at which path_invertibility checks |det H|

# the negative controls build_certificates accepts (see there)
SABOTAGE_TAGS = ("flip-f", "fiber")

FREUDENTHAL_SUSPENSION = (
    "Freudenthal suspension theorem (classical, cited not computed): "
    "since the Hopf map h is essential in C(S3, S2), its suspension Eh "
    "is essential in C(S4, S3)."
)


class DegenerateProjection(ArithmeticError):
    """The projected column had norm below threshold (must never happen)."""


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


# Every bound of the two certificates: build_certificates evaluates this table
# once, on the evidence plus the linking segment count, and the certify report
# lists the records it returns.
CERTIFICATE_CHECKS = (
    Check("ba_path_invertibility", "path_max_abs_det_deviation",
          f"|det| = 1 along the explicit null homotopy of 1 - 2ba (latitudes x {PATH_T_COUNT} "
          "t-values)",
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
          f"certified lower bound for min |f + Eh| on S^4 (mesh minimum minus "
          f"{ANTIPODAL_LIPSCHITZ:g} x covering radius minus rounding)", 0.0, ">"),
    # measures 1.0 exactly when |lk| = 1 and less otherwise, so lk = +-2 fails too
    Check("ab_hopf_linking_magnitude", "hopf_linking_rounded",
          "the Hopf invariant of h (fiber linking number) has magnitude 1",
          1.0, ">=", lambda lk: 1.0 - abs(abs(lk) - 1)),
    Check("ab_hopf_linking_residual", "hopf_linking_residual",
          "the Gauss sum is close to its integer",
          lambda e: linking.residual_tolerance(e["segments"]), "<="),
)


def _root_pole(rc):
    """Eh's root and pole planes, carved from one complex plane: its first float plane and 9th bool plane."""
    return carve(rc, np.float64)[0], carve(rc, bool)[8]


def _eh_factors(z2, iz, pole_value, rc):
    """Eh's z2 factors: i z2, i sign(z2) and, in rc (_root_pole), the root and the pole mask."""
    root, x = carve(rc, np.float64)
    _times_i(z2, iz)
    _times_i(np.sign(z2, out=root), pole_value)
    # root = sqrt((1 - z2)(1 + z2)), or 1 at the poles, where that is <= 0
    np.multiply(np.subtract(1.0, z2, out=root), np.add(1.0, z2, out=x), out=root)
    pole = np.less_equal(root, 0.0, out=_root_pole(rc)[1])
    np.copyto(root, 1.0, where=pole)
    np.sqrt(root, out=root)


def suspension_eh(z0, z1, z2, out=None, work=None, lat=None):
    """Suspension of the Hopf map, S^4 -> S^3, with the polar continuity extension.

    Returns a complex array (2, ...): the first and the second coordinate.
    Its first steps are the Hopf map h(z0, z1) = (-2 z0 conj(z1),
    |z0|^2 - |z1|^2) of the module docstring. out and work (3 planes) as in
    linalg2; lat as in algebra.field_a, for the factors of _eh_factors.
    """
    z0, z1, z2 = _coords(z0, z1, z2)
    shape = np.broadcast(z0, z1, z2).shape
    out = buffer(out, (2,) + shape, np.complex128)
    e0, e1 = out[0, ...], out[1, ...]
    h, t, rc = _rows(workspace(work, 3, shape))
    root, pole = _root_pole(rc)
    # h0 = (-2 z0) conj(z1) in e0, h1 = Re(z0 conj(z0) - z1 conj(z1)) in h
    np.multiply(np.multiply(-2.0, z0, out=e0), np.conjugate(z1, out=h), out=e0)
    np.multiply(z0, np.conjugate(z0, out=h), out=h)
    np.subtract(h, np.multiply(z1, np.conjugate(z1, out=t), out=t), out=h)
    # the z2 factors: i z2 in e1, i sign(z2) in t, the root and the pole mask in rc
    if lat is None:
        _eh_factors(z2, e1, t, rc)
    else:
        for plane, name in (e1, "iz"), (t, "pole_value"), (root, "root"), (pole, "pole"):
            _fill_tables(plane, lat, name)
    # e1 = h1/root + i z2, e0 = h0/root; (0, i sign(z2)) at the poles. A
    # float plane in a complex ufunc would be cast in a chunk-sized buffer:
    # the sum is the real part of the complex sum (x + 0i) + i z2, whose
    # imaginary part 0 + (0 + z2) is the 0 + z2 that _times_i wrote (0 + v = v
    # but for v = -0, and 0 + z2 is never -0), and root is copied into h,
    # once h1/root has left it, as the cast of the division would
    np.add(np.divide(h.real, root, out=h.real), e1.real, out=e1.real)
    np.copyto(h, root)
    np.divide(e0, h, out=e0)
    np.copyto(e0, 0.0, where=pole)
    np.copyto(e1, t, where=pole)
    return out


def f_map(z0, z1, z2, out=None, work=None, lat=None):
    """The second column of c, normalized to unit Euclidean norm (a map S^4 -> S^3).

    The column is pc = (-2 z0 conj(z1)/(1+i z2)^2, 1 - 2|z1|^2/(1+i z2)^2),
    written by algebra._c_column, the helper field_c builds its columns
    with, so pc is bitwise the second column of field_c. c is unitary, so
    the norm is 1 up to rounding; if it ever drops below 1e-13 this raises
    DegenerateProjection, and any such firing is a verification failure
    upstream. Returns a complex array (2, ...); out and work (2 planes) as
    in linalg2; lat as in algebra.field_a, for the factors of pc.
    """
    z0, z1, z2 = _coords(z0, z1, z2)
    shape = np.broadcast(z0, z1, z2).shape
    out = buffer(out, (2,) + shape, np.complex128)
    p0, p1 = out[0, ...], out[1, ...]
    t, conj = _rows(workspace(work, 2, shape))
    # pc's factors, c01's and c11's; those of c's first column go to t and conj
    _c_factors(z2, t, p0, conj, p1) if lat is None else _fill_tables(out, lat, "f")
    _c_column(z0, z1, p0, p1, conj)
    # n = sqrt(|p0|^2 + |p1|^2), in the bytes of t
    n, s = carve(t, np.float64)
    np.add(np.square(np.abs(p0, out=n), out=n), np.square(np.abs(p1, out=s), out=s), out=n)
    np.sqrt(n, out=n)
    if not np.all(np.greater(n, 1e-13, out=carve(conj, bool)[0])):  # a nan norm fails too
        raise DegenerateProjection("projected column norm below 1e-13")
    # p0/n and p1/n, with n copied into the complex plane conj as the cast of
    # a mixed division would, so no chunk-sized buffer is allocated
    np.copyto(conj, n)
    return np.divide(out, conj, out=out)


# the workspace of one f/Eh chunk, 7 planes
_F_EH_LAYOUT = Layout(
    f=planes(2),
    eh=planes(2),
    t=PLANE,
    d=carved(np.float64, 2),
    s=carved(np.float64, 1),
    # f_map's and suspension_eh's scratch, then the folds' planes
    scratch=planes(3, over="t"),
    drop=carved(bool, 1, over="t"),
)


def _f_eh_chunk(x0, x1, x2, ws, lat):
    """min |f + Eh|, the hemisphere minimum and both equator maxima on one chunk.

    Returns (min |f + Eh|, hemisphere minimum, max |f + Eh| on the equator,
    max |f - Eh| on the equator); see antipodal_gap. The chunk's equator
    lanes are the run of the equator latitude, read as slices of the
    workspace planes; a chunk without them gives -inf for both equator
    maxima. The first equator maximum is read from the gap plane before
    the equator step overwrites that run with |f - Eh|, so every run
    computes both, and the flip-f control only picks the first. ws is
    _F_EH_LAYOUT cut to the chunk, lat its _certify_tables.
    """
    f0, f1 = f_map(x0, x1, x2, out=ws.f, work=ws.scratch, lat=lat)
    e0, e1 = suspension_eh(x0, x1, x2, out=ws.eh, work=ws.scratch, lat=lat)
    t, (d, d1), (s,), (drop,) = ws.t, ws.d, ws.s, ws.drop
    np.square(np.abs(np.add(f0, e0, out=t), out=d), out=d)
    np.square(np.abs(np.add(f1, e1, out=t), out=d1), out=d1)
    gap = np.sqrt(np.add(d, d1, out=d), out=d)
    min_gap = gap.min()
    eq = _table_run(lat, "equator")
    flipped = d[eq].max(initial=-np.inf)
    np.square(np.abs(np.subtract(f0[eq], e0[eq], out=t[eq]), out=d[eq]), out=d[eq])
    np.square(np.abs(np.subtract(f1[eq], e1[eq], out=t[eq]), out=d1[eq]), out=d1[eq])
    equator = np.sqrt(np.add(d[eq], d1[eq], out=d[eq]), out=d[eq]).max(initial=-np.inf)
    # min(sign(z2) Im f1, sign(z2) Im Eh1), inf on the equator and at the poles
    _fill_tables(s, lat, "sign")
    signed = np.minimum(np.multiply(s, f1.imag, out=d), np.multiply(s, e1.imag, out=d1), out=d)
    np.copyto(signed, np.inf, where=_fill_tables(drop, lat, "drop"))
    return min_gap, signed.min(), flipped, equator


def hemisphere_preservation(mesh):
    """Worst signed violation of hemisphere preservation for f and Eh.

    Equator points (z2 = 0) and poles are excluded; the certificate bounds
    the returned minimum from below (ab_hemisphere_preservation). It is
    antipodal_gap's hemisphere_worst_violation, which build_certificates
    reads directly.
    """
    return antipodal_gap(mesh).hemisphere_worst_violation


@dataclass(frozen=True)
class AntipodalGap:
    """Evidence that f and Eh are never antipodal, from one f/Eh pass.

    The fields are the 1 - 2ab certificate's evidence keys, in its order.
    """

    equator_max_deviation: float  # max |f - Eh| on the equator
    hemisphere_worst_violation: float  # see hemisphere_preservation
    antipodal_min_gap: float  # min |f + Eh| over the mesh
    antipodal_certified_lower_bound: float  # on all of S^4, see antipodal_gap


def antipodal_gap(mesh, _flip_equator=False):
    """Measured minimum of |f + Eh| over the mesh plus a certified lower bound on all of S^4.

        antipodal_certified_lower_bound = antipodal_min_gap
                                          - ANTIPODAL_LIPSCHITZ * covering_radius
                                          - ROUNDING_PER_LATITUDE * lat_count,

    with the mesh's covering_radius and lat_count.

    Every point x of S^4 lies within geodesic distance covering_radius of a
    mesh point m (proved in the sphere module), and G = |f + Eh| is
    2-Lipschitz, so G(x) >= G(m) - 2 d(x, m). One constant holds on the
    whole sphere; there is no band/cap split.

    Proof that G is 2-Lipschitz in the geodesic metric of S^4. Write x as
    (sin(psi) w, cos(psi)) with w = (cos(eta) e^{i xi1}, sin(eta) e^{i xi2})
    as in the sphere module, so |dx|^2 >= dpsi^2 + sin^2(psi) deta^2.

      * G depends on psi and eta only. c is unitary, so f is its second
        column itself: f = e2 + (phi - 1) conj(w1) w with e2 = (0, 1) and
        phi = phi(cos psi), while Eh = (sin(psi) h(w), cos(psi)). With
        P = 1 + sin psi + i cos psi, Q = phi - sin psi + i cos psi and
        t = |w1|^2 = sin^2(eta), f + Eh = ((Q - P) w0 conj(w1),
        (1 - t) P + t Q), so
            G^2 = t (1 - t) |Q - P|^2 + |(1 - t) P + t Q|^2
                = cos^2(eta) rho^2 + sin^2(eta) sigma^2,
        where rho = 2 sin(psi/2 + pi/4) and sigma = 2 sin(chi/2 + pi/4)
        have rho^2 = |P|^2 = 2 + 2 sin psi and sigma^2 = |Q|^2 =
        2 + 2 sin chi, because phi = -e^{-4 i gamma} with
        gamma = arctan(cos psi), and chi = psi + 4 gamma.
      * Slopes. Where G > 0, the Cauchy-Schwarz inequality gives
            |dG/dpsi| = |cos^2(eta) rho rho' + sin^2(eta) sigma sigma'| / G
                      <= max(|rho'|, |sigma'|),
            |dG/deta| = |sigma^2 - rho^2| sin(eta) cos(eta) / G
                      <= |sigma - rho|,
        the second since (|sigma| + |rho|) sin(eta) cos(eta) <= G. So the
        slope of G is at most L with
            L^2 = max(rho'^2, sigma'^2) + ((sigma - rho) / sin psi)^2.
        Both terms are unchanged by psi -> pi - psi (chi -> pi - chi), so
        take psi in [0, pi/2] and s = cos psi in [0, 1].
      * |rho'| = |cos(psi/2 + pi/4)| <= 1/sqrt(2).
      * |sigma'| <= 1.352. sigma' = -sin(y/2) chi' with
        y = chi - pi/2 = 4 arctan(s) - arcsin(s) and
        chi' = 1 - 4 sin(psi) / (1 + s^2) <= 1. If chi' >= -1, then
        |sigma'| <= 1. If not, |chi'| <= 4 (1 - s^2/2) / (1 + s^2) - 1 =
        3 (1 - s^2) / (1 + s^2), and 0 <= y <= 3 s (arctan is concave and
        arcsin convex on [0, 1], and arctan(s) <= s <= arcsin(s)), so
        |sigma'| <= 4.5 s (1 - s^2) / (1 + s^2). Its derivative vanishes
        where s^4 + 4 s^2 = 1, so it peaks at
        4.5 sqrt(sqrt(5) - 2) (sqrt(5) - 1) / 2 = 1.3513.
      * |sigma - rho| <= sqrt(2) sin psi. By the sum-to-product formula,
        |sigma - rho| = 4 |sin(zeta)| sin(gamma) with
        zeta = psi/2 + gamma - pi/4. zeta(0) = 0 and
        |zeta'| = |1/2 - sin(psi) / (1 + s^2)| <= 1/2, so
        |sin(zeta)| <= psi/2; sin(gamma) = s / sqrt(1 + s^2); and
        psi <= 2 sin(psi) / (1 + s) since tan(psi/2) >= psi/2. So
        |sigma - rho| / sin(psi) <= 4 s / ((1 + s) sqrt(1 + s^2)), which
        is at most sqrt(2) because
        (1 + s)^2 (1 + s^2) - 8 s^2 = (1 - s)^2 (s^2 + 4 s + 1) >= 0.
      * So L^2 <= 1.3513^2 + 2 < 4. The coordinates are smooth off the
        set where z0 = 0 or z1 = 0, which holds the poles. A great circle
        lies in the subspace z0 = 0 (or z1 = 0) or meets it in at most
        two points, so for a dense set of pairs x, y a shortest arc meets
        that set in at most four points. Along it G is absolutely
        continuous, with slope 0 almost everywhere where G = 0, so
        |G(x) - G(y)| <= 2 d(x, y). G is continuous, so this holds for
        every pair.

    The same closed form gives the exact minimum: rho >= sqrt(2), so
    min G = min |sigma| = 2 cos(y/2) at the largest y, where chi' = 0,
    that is sin psi = sqrt(6) - 2: min G = 1.2339789, at eta = pi/2. The
    tests check that the mesh minimum is no smaller and that sampled
    slopes of G stay below 2 (they reach 1.41 near the poles).

    The floating-point term bounds |computed G at the stored point - G(m)|
    at each mesh point m, plus the rounding of the bound itself. In units
    of u = 2^-53, with IEEE rounding to nearest, libm's sin, cos and
    complex exp within 1 ulp, and numpy's complex division within 4u:

      1. Stored coordinates. psi_j, eta and the phase angles carry at most
         three roundings each (one is math.pi's), so they are within 10u,
         5u and 19u. Hence the stored cos and sin of psi_j are within 11u,
         those of eta within 6u, and each stored phase has modulus within
         2u of 1. G does not depend on the phases, so compare with the
         point m' of S^4 that has psi_j, eta and the stored phases'
         arguments: G(m') = G(m). z0 and z1 (two real-complex products
         each) are within 21u of m', z2 within 11u, and |m^ - m'| <= 32u.
      2. f off the sphere. f_map normalizes pc = (-2 beta z0 conj(z1),
         1 - 2 beta |z1|^2) with beta = (1 + i z2)^-2, |beta| <= 1 and
         |dbeta/dz2| <= 2. Between m' and m^, p0 moves at most
         22u + 84u and p1 at most 44u + 84u, so pc moves at most 167u.
         |pc(m')| = 1, so pc/|pc| moves at most 2 x 167u < 340u.
      3. f_map's own rounding at m^: 1/(1 + i z2) is within 4u, beta
         within 11u, p0 and p1 within 16u and 19u, so pc within 25u;
         normalizing doubles that, and the norm and the division add 9u:
         59u < 80u.
      4. Eh off the sphere. Between m' and m^, h(z0, z1) moves at most
         2 r 30u with r = sin(psi_j) = |(z0, z1)|, so h / r moves 60u;
         1 - z2^2 moves 22u, so sqrt(1 - z2^2) moves at most 22u / r and
         h / sqrt(1 - z2^2), of modulus about r, moves at most 22u / r;
         i z2 moves 11u. Off the poles r >= sin(pi / (lat_count - 1))
         >= 2 / (lat_count - 1): in all 71u + 11u (lat_count - 1).
      5. suspension_eh's own rounding at m^: 15u (h within 3u r^2, the
         root within 6u, the division 4u, all relative to |Eh| <= r).
      6. |f + Eh| itself: 20u. The poles are stored exactly and f and Eh
         are exact there, so only this step applies to them.
      7. The bound: covering_radius <= 1.34 is within 8u relative, and
         the product and two subtractions round too: 30u.

    The sum is at most 560u + 11u (lat_count - 1) <= 571u lat_count, and
    ROUNDING_PER_LATITUDE * lat_count = 1e-13 lat_count > 900u lat_count
    for every lat_count >= 3. A long-double evaluation at the exact grid
    points measured 4.6e-16 at 9 latitudes and 1.4e-14 at 2049.

    One pass: f and Eh are evaluated once per mesh point, the equator
    included, by _f_eh_chunk, which also yields the hemisphere evidence
    (hemisphere_worst_violation, inf without off-equator, off-pole points)
    and the equator coincidence (equator_max_deviation, max |f - Eh| over
    the mesh's equator latitude, -inf without one); the minima and the
    maxima fold over the chunks in algebra.sweep. It runs inside certify's
    one mesh sweep, after the path start on the same chunk (see
    _certify_evidence), which reads the mesh in its own order, north to
    south, as _f_eh_chunk's equator run needs. The kernel measures
    max |f + Eh| on the equator too, on every run: _flip_equator, the
    flip-f negative control of build_certificates, reports that maximum
    as equator_max_deviation (about 2, as if f were negated on the
    equator), so the control runs the same kernel as the real run.
    """
    return _certify_evidence(mesh, _flip_equator)[1]


def null_homotopy_ba(z2, t):
    """Explicit null homotopy of 1 - 2ba, as a Field: H(x, t) = diag(phi((1-t) z2 + t), 1).

    H depends on the point x = (z0, z1, z2) only through z2.
    """
    if np.any((np.asarray(t) < 0) | (np.asarray(t) > 1)):
        raise ValueError("t must lie in [0, 1]")
    x = np.add(np.multiply(1.0 - t, np.asarray(z2, dtype=np.float64)), t)
    return planar(phi(x), 0.0, 0.0, 1.0)


@dataclass(frozen=True)
class PathInvertibility:
    """Invertibility along the ba null homotopy and its endpoint residuals.

    The fields are the 1 - 2ba certificate's evidence keys, in its order.
    """

    path_max_abs_det_deviation: float  # max ||det H(x,t)| - 1| over latitudes x t-grid
    endpoint_residual_start: float     # max ||H(x,0) - (1-2ba)(x)|| over the mesh
    endpoint_residual_end: float       # max ||H(x,1) - I|| over the mesh


# the workspace of one certify chunk, 13 planes. The path start writes
# 1 - 2ba into ba, then H(x, 0) into a, dead after mat_mul, and op_norm's
# scratch into b; the f/Eh planes then lie over b and a, dead by then too
_CERTIFY_LAYOUT = Layout(
    b=FIELD, a=FIELD, ba=FIELD, r=FLOAT,
    t=planes(1, over="r"),  # mat_mul's scratch, before r is written
    norm=planes(2, over="b"),
    f_eh=_F_EH_LAYOUT.over("b"),
)


def _certify_tables(z2, start):
    """The certify kernel's latitude tables over the cosines z2 (see algebra.sweep).

    w and f's factors (c's second column) from the algebra tables, start =
    H(x, 0), Eh's (_eh_factors) and the folds' sign(z2), equator and drop
    (the equator and the poles).
    """
    tab, (iz, pole_value, rc) = _tables(z2), np.empty((3,) + z2.shape, np.complex128)
    _eh_factors(z2, iz, pole_value, rc)
    equator = np.equal(z2, 0.0)
    root, pole = _root_pole(rc)
    return dict(w=tab["w"], f=tab["c"][1::2], start=start, iz=iz, pole_value=pole_value, root=root, pole=pole,
                sign=np.sign(z2), equator=equator, drop=np.logical_or(equator, np.equal(np.abs(z2), 1.0)))


def _certify_chunk(x0, x1, x2, ws, lat):
    """The path start's residual, then _f_eh_chunk's four folds, on one chunk.

    Returns (max ||(1 - 2ba)(x) - H(x, 0)||, by algebra._ba_residual, then
    _f_eh_chunk's four values); ws is _CERTIFY_LAYOUT cut to the chunk, lat
    its _certify_tables.
    """
    start = _ba_residual(field_b(x0, x1, x2, out=ws.b, lat=lat), field_a(x0, x1, x2, out=ws.a, lat=lat), ws.ba,
                         lambda: _fill_tables(ws.a, lat, "start"), ws.r, ws.t, ws.norm)
    return (start, *_f_eh_chunk(x0, x1, x2, ws.f_eh, lat))


def _certify_evidence(mesh, flip_equator=False):
    """(PathInvertibility, AntipodalGap) of the mesh, from one sweep of _certify_chunk.

    See path_invertibility and antipodal_gap, which return one each;
    flip_equator is antipodal_gap's _flip_equator. Every z2-only factor is
    evaluated before the first chunk, on the latitude cosines: H(x, t) in
    the det grid, whose t = 0 Field is the path start's table, the others
    in _certify_tables. So a factor's error comes first; among per-point
    errors the first failing chunk decides, the path start before f and Eh.
    sweep folds the five per-chunk values of _certify_chunk, each by its
    rule: the maxima of the path start and of both equator runs, the minima
    of |f + Eh| and of the hemisphere sign.
    """
    det_dev, h_start = 0.0, None
    for t in np.linspace(0.0, 1.0, PATH_T_COUNT):
        h00, h01, h10, h11 = h = null_homotopy_ba(mesh.z2_values, t)
        h_start = h if h_start is None else h_start
        # np.maximum, unlike max(), keeps a nan from any t
        det_dev = np.maximum(det_dev, np.abs(np.abs(h00 * h11 - h01 * h10) - 1.0).max())

    start, min_gap, hemisphere, flipped, equator = sweep(
        _certify_chunk, mesh, _CERTIFY_LAYOUT, partial(_certify_tables, start=h_start),
        (np.maximum, np.minimum, np.minimum, np.maximum, np.maximum),
    )
    path = PathInvertibility(float(det_dev), start, float(op_norm(h - eye_like(h)).max()))
    return path, AntipodalGap(
        equator_max_deviation=flipped if flip_equator else equator,
        hemisphere_worst_violation=hemisphere,
        antipodal_min_gap=min_gap,
        antipodal_certified_lower_bound=min_gap
        - ANTIPODAL_LIPSCHITZ * mesh.covering_radius
        - ROUNDING_PER_LATITUDE * mesh.lat_count,
    )


def path_invertibility(mesh):
    """Check |det H| = 1 at PATH_T_COUNT t-values along the path, and the endpoint identities.

    The det grid is |det| of the Fields null_homotopy_ba(mesh.z2_values, t),
    one t at a time, so the record measures the same H that the endpoints
    are checked against. H(x, t) depends on x only through z2, so the
    mesh's latitude values (one per latitude) times the t-grid cover the
    full mesh exactly. The end residual reads the loop's last Field, at
    t = 1; the residual at t = 0 is a genuine full-mesh product sweep, the
    path start of _certify_chunk, which shares its sweep with antipodal_gap.
    """
    return _certify_evidence(mesh)[0]


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

    def to_json(self):
        return json.dumps(asdict(self), indent=2)


def build_certificates(mesh, segments=256, sabotage=None):
    """Evaluate every bound of the two homotopy certificates over a mesh.

    Returns (records, certificates). records holds one CheckRecord per row
    of CERTIFICATE_CHECKS, in table order, each evaluated once on the whole
    evidence; certificates is (certificate for 1-2ba, certificate for 1-2ab)
    when every record passes, and None otherwise. All of its mesh evidence
    comes from one sweep (_certify_evidence): 1 - 2ba, then f and Eh, are
    evaluated once per mesh point, the equator included, and their z2-only
    factors, H(x, 0) among them, once per latitude.
    The sabotage hook, one of SABOTAGE_TAGS, exists for negative-control
    tests and must leave certificates None: "flip-f" reports max |f + Eh|
    on the equator as the equator deviation (antipodal_gap's
    _flip_equator; the sweep runs the same kernel on every run), and
    "fiber" links a fiber with a translate of itself.
    """
    if sabotage not in (None, *SABOTAGE_TAGS):
        raise ValueError(f"unknown sabotage tag: {sabotage!r}")

    path, gap = _certify_evidence(mesh, flip_equator=(sabotage == "flip-f"))
    ba_evidence = asdict(path)
    link = linking.hopf_invariant_of_h(segments, _self_link=(sabotage == "fiber"))
    ab_evidence = {**asdict(gap), **{f"hopf_linking_{k}": v for k, v in asdict(link).items()}}

    records = check_records(CERTIFICATE_CHECKS, {**ba_evidence, **ab_evidence, "segments": segments})
    if not all(r.passed for r in records):
        return records, None

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
            "antipodal certification: mesh minimum of |f + Eh| minus %g x covering radius "
            "%.6f minus rounding; the Lipschitz constant %g of |f + Eh| holds on all of S^4, "
            "so there is no band/cap split"
            % (ANTIPODAL_LIPSCHITZ, mesh.covering_radius, ANTIPODAL_LIPSCHITZ),
        ],
    )
    return records, (ba_cert, ab_cert)
