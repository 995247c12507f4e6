"""Hopf fibers, stereographic projection, and the Gauss linking integral.

The Hopf invariant of h : S^3 -> S^2 equals the linking number in S^3 of
the preimage circles of two regular values; a nonzero value certifies
that h is essential. Every fiber of h is an exact round circle
{e^{i theta} w} for any single preimage w, so no curve tracing is needed:

    h^{-1}(0, 1)  = {(e^{i theta}, 0)},
    h^{-1}(0, -1) = {(0, e^{i theta})},

and a general value (zeta, s) on S^2 (zeta complex, s real) has the
closed-form preimage w = (w0, -conj(zeta)/(2 w0)) with
w0 = sqrt((1+s)/2) for s >= 0, mirrored through w1 for s < 0.

Linking numbers live in R^3, so fibers are carried there by
stereographic projection from a fixed pole (circles map to circles and
linking is preserved; the pole is chosen off both fibers). The Gauss
double integral

    lk = (1/4pi) oint oint (r1 - r2) . (dr1 x dr2) / |r1 - r2|^3

is discretized with the midpoint rule per segment pair: second-order,
and empirically 5.1e-5 from the integer at 256 segments, 3.2e-6 at 1024
and 2.0e-7 at 4096 for the default fiber pair. Accumulation is
deterministic: one numpy row sum per outer segment, then math.fsum over
the rows (exact compensated merge in fixed order).

One O(n m) pass over the segment pairs yields both the Gauss sum and
the curve separation, which share each pair's midpoint distance. It
walks the outer curve in row blocks of BLOCK_ELEMENTS // m rows, on
planar x/y/z arrays of shape (rows, m), so peak memory is
O(n + m + BLOCK_ELEMENTS) rather than O(n m) at every segment count.
Blocking changes no value: each pair term is computed with the same
roundings as the (n, m, 3) formulation (length-3 dot products grouped
(x + z) + y, squared norms (x + y) + z, as numpy's einsum and norm group
them on x86-64), each row sum is still one numpy sum over a full row,
and a minimum is exact in any order. The separation is a proven lower
bound on the distance between the curves, one midpoint-to-midpoint norm
per pair less the two half lengths; see curve_separation for the proof
and its rounding slack.

Orientation convention: increasing theta on both fibers and a
right-handed frame in R^3. With DEFAULT_POLE this yields -1 for the
pole fiber pair; the sign is reported, only the magnitude is asserted.
"""

import math
from dataclasses import dataclass

import numpy as np

from .sphere import SpherePoint3

__all__ = [
    "CurvesTooClose",
    "NearPole",
    "PolylineCurve3",
    "LinkingResult",
    "DEFAULT_POLE",
    "hopf_fiber",
    "stereographic",
    "gauss_linking",
    "hopf_invariant_of_h",
    "residual_tolerance",
    "fiber_to_csv",
]

MIN_CURVE_SEPARATION = 1e-3
MIN_POLE_DISTANCE = 1e-6
FIBER_POLE_CLEARANCE = 0.2  # required distance from projection pole to each fiber
# Pair terms per row block of the O(n m) pass: 256 KiB per float64
# plane, so a block's working set stays in a core's L2 cache.
BLOCK_ELEMENTS = 2**15

# fixed projection pole, distance sqrt(2 - sqrt(2)) ~ 0.765 from both pole fibers
DEFAULT_POLE = SpherePoint3(1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0))


class CurvesTooClose(ValueError):
    """The curves' separation bound is below what the Gauss sum can tolerate.

    Raised when curve_separation, a lower bound on the distance between
    the two polylines, reads less than MIN_CURVE_SEPARATION; the curves
    themselves may be farther apart than the bound.
    """


class NearPole(ValueError):
    """A point to be projected lies too close to the projection pole."""


@dataclass(frozen=True)
class PolylineCurve3:
    """Closed polyline in R^3: vertices (n, 3), edge i runs vertex i -> i+1 (mod n)."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 16:
            raise ValueError("need an (n, 3) array with n >= 16")
        if not np.all(np.isfinite(pts)):
            raise ValueError("non-finite vertex")
        gaps = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
        if np.any(gaps == 0.0):
            raise ValueError("consecutive vertices coincide")
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return self.points.shape[0]

    def translated(self, offset):
        return PolylineCurve3(self.points + np.asarray(offset, dtype=np.float64))


@dataclass(frozen=True)
class LinkingResult:
    """Raw Gauss sum, its nearest integer, and the distance between them."""

    raw: float
    rounded: int
    residual: float

    def __post_init__(self):
        if not self.residual < 0.5:
            raise ValueError(f"residual {self.residual} >= 0.5: rounding is meaningless")


def hopf_fiber(p, segments):
    """The fiber circle of the Hopf map over p = (zeta, s), sampled at equal angles.

    Returns two complex arrays (w0, w1) of length `segments`; every sample
    maps back to p under h up to rounding.
    """
    if segments < 16:
        raise ValueError("segments must be >= 16")
    zeta, s = complex(p[0]), float(p[1])
    if abs(abs(zeta) ** 2 + s * s - 1.0) > 1e-12:
        raise ValueError("regular value must lie on S^2")
    if s >= 0.0:
        w0 = math.sqrt((1.0 + s) / 2.0)
        w1 = 0.0 if w0 == 1.0 else -np.conj(zeta) / (2.0 * w0)
    else:
        w1 = math.sqrt((1.0 - s) / 2.0)
        w0 = 0.0 if w1 == 1.0 else -zeta / (2.0 * w1)
    phase = np.exp(2j * np.pi * np.arange(segments) / segments)
    return phase * w0, phase * w1


def _to_r4(w0, w1):
    return np.stack([np.real(w0), np.imag(w0), np.real(w1), np.imag(w1)], axis=-1)


def _pole_vector():
    v = _to_r4(*DEFAULT_POLE)
    n = np.linalg.norm(v)
    if abs(n - 1.0) > 1e-12:
        raise ValueError("projection pole must lie on S^3")
    return v / n


def _pole_basis(q):
    # orthonormal basis of the hyperplane orthogonal to q, deterministic:
    # Gram-Schmidt over the standard basis vectors in index order,
    # skipping the index where |q| is largest
    skip = int(np.argmax(np.abs(q)))
    basis = []
    for i in range(4):
        if i == skip:
            continue
        e = np.zeros(4)
        e[i] = 1.0
        e -= (e @ q) * q
        for b in basis:
            e -= (e @ b) * b
        e /= np.linalg.norm(e)
        basis.append(e)
    return np.stack(basis, axis=1)  # (4, 3)


def stereographic(w0, w1):
    """Stereographic projection of S^3 points from DEFAULT_POLE onto its orthogonal R^3.

    The image of w is (w - (w.q) q)/(1 - w.q) expressed in a fixed
    orthonormal basis of q-perp; the antipode of the pole lands at the
    origin and the equatorial 2-sphere of the pole axis is norm-preserved.
    """
    v = np.atleast_2d(_to_r4(np.asarray(w0, dtype=np.complex128), np.asarray(w1, dtype=np.complex128)))
    q = _pole_vector()
    if np.any(np.linalg.norm(v - q, axis=1) < MIN_POLE_DISTANCE):
        raise NearPole(f"point within {MIN_POLE_DISTANCE} of the projection pole")
    dot = v @ q
    proj = (v - dot[:, None] * q[None, :]) / (1.0 - dot)[:, None]
    out = proj @ _pole_basis(q)
    return out if np.ndim(w0) else out[0]


def _segments(points):
    """Midpoints, directions and half lengths of a closed polyline's edges.

    Edge i runs from vertex i to i+1. Midpoints and directions come as
    contiguous x, y, z rows of shape (3, n); the half lengths take numpy's
    norm of each (x, y, z) direction.
    """
    d = np.roll(points, -1, axis=0) - points
    return np.ascontiguousarray((points + 0.5 * d).T), np.ascontiguousarray(d.T), 0.5 * np.linalg.norm(d, axis=1)


def _pair_pass(c1, c2):
    """curve_separation's bound and the Gauss sum's row sums, in one pass over the segment pairs.

    Returns (separation, partials): partials[i] is the numpy sum over c2's
    segments of the midpoint-rule Gauss terms of c1's segment i. The pass
    walks c1 in blocks of BLOCK_ELEMENTS // m rows against c2's m segments,
    in one 6-plane workspace allocated up front, so no block allocates a
    temporary: a fresh 256 KiB temporary per block lands in heap holes or
    grows the heap, and peak RSS then depends on the layout. The
    separation folds each block's midpoint distances right
    after their square root, where the sum's scratch plane t is free. A
    pair at distance 0, which only curves that fail the guard have, makes
    its term nan or inf; that division and the row sums run without a
    floating-point warning, and gauss_linking raises before it merges them.
    """
    m1, d1, h1 = _segments(c1.points)
    (nx, ny, nz), (ux, uy, uz), h2 = _segments(c2.points)
    n, m = len(h1), len(h2)
    step = max(1, BLOCK_ELEMENTS // m)
    work = np.empty((6, min(n, step), m))
    partials = np.empty(n)
    separation = np.inf
    for start in range(0, n, step):
        rows = slice(start, start + step)
        (mx, my, mz), (ax, ay, az) = m1[:, rows, None], d1[:, rows, None]
        rx, ry, rz, num, den, t = work[:, : len(mx)]
        np.subtract(mx, nx, out=rx)
        np.subtract(my, ny, out=ry)
        np.subtract(mz, nz, out=rz)
        # r . (d1 x d2): np.cross's products, einsum's (x + z) + y grouping;
        # den and t are scratch until den is computed
        np.subtract(np.multiply(ay, uz, out=den), np.multiply(az, uy, out=t), out=den)
        np.multiply(rx, den, out=num)
        np.subtract(np.multiply(ax, uy, out=den), np.multiply(ay, ux, out=t), out=den)
        num += np.multiply(rz, den, out=den)
        np.subtract(np.multiply(az, ux, out=den), np.multiply(ax, uz, out=t), out=den)
        num += np.multiply(ry, den, out=den)
        np.multiply(rx, rx, out=den)
        den += np.multiply(ry, ry, out=t)
        den += np.multiply(rz, rz, out=t)
        np.sqrt(den, out=den)
        separation = np.minimum(separation, (np.subtract(den, h2, out=t).min(axis=1) - h1[rows]).min())
        with np.errstate(divide="ignore", invalid="ignore"):
            num /= np.power(den, 3, out=den)
            partials[rows] = num.sum(axis=1)
    return float(separation), partials


def curve_separation(c1, c2):
    """A lower bound on the distance between two closed polylines.

    Returns min over segment pairs (i, j) of |m_i - n_j| - |e_j|/2 - |d_i|/2,
    where m_i and d_i are the midpoint and direction of c1's segment i, and
    n_j and e_j those of c2's segment j.

    Proof: every point of segment i is x = m_i + t d_i with |t| <= 1/2, so
    |x - m_i| <= |d_i|/2; likewise |y - n_j| <= |e_j|/2 for y on segment j.
    By the triangle inequality

        |x - y| >= |m_i - n_j| - |x - m_i| - |y - n_j|
                >= |m_i - n_j| - |d_i|/2 - |e_j|/2,

    so each pair term bounds the distance between its two segments, and
    the minimum over all pairs bounds the distance between the curves.
    Midpoints lie on the curves, so the bound is at most max |d_i|/2 +
    max |e_j|/2 below the true distance.

    Rounding, to first order in u = 2^-53, with the stored vertices exact
    and R the largest vertex norm of either curve (so |m| <= R, |d| <= 2R):
    a direction takes one rounding per coordinate, |d^ - d| <= 2uR; a
    midpoint halves exactly and rounds once, |m^ - m| <= uR + uR = 2uR; a
    difference of midpoints, |r^ - r| <= 2uR + 2uR + 2uR = 6uR; its norm,
    three roundings in (x^2 + y^2) + z^2 and one in the square root, is
    off by 2.5u |r^| <= 5uR, so 11uR from |r| in all. A half length is
    off by (2.5u 2R + 2uR)/2 = 3.5uR, 7uR for both. The two subtractions
    round results of magnitude at most 2R, 4uR. The minimum is exact. So
    the computed bound is within 22uR < 2.7e-15 R of the exact one, and
    curves that pass gauss_linking's guard are at least
    MIN_CURVE_SEPARATION - 2.7e-15 R apart. For the fiber pairs of
    hopf_invariant_of_h the pole clearance keeps every image within 10 of
    the origin (|image| = sqrt((1 + w.q)/(1 - w.q)) and 1 - w.q =
    |w - q|^2 / 2 >= 0.02), and the translated unlink within 20, so the
    slack is below 6e-14, ten orders of magnitude under the threshold.

    One row-blocked pass, shared with the Gauss sum: _pair_pass takes each
    pair's |m_i - n_j| from the sum's own squared norm and square root.
    Rounding is monotone, so subtracting |d_i|/2 after each row's minimum
    gives the same value as subtracting it from every pair term.
    """
    return _pair_pass(c1, c2)[0]


def gauss_linking(c1, c2):
    """Discrete Gauss double integral of two disjoint closed polylines.

    Midpoint evaluation per segment pair. Raises CurvesTooClose when
    curve_separation, a proven lower bound on the distance between the
    curves, is below MIN_CURVE_SEPARATION. Both come from one _pair_pass.
    """
    separation, partials = _pair_pass(c1, c2)
    if separation < MIN_CURVE_SEPARATION:
        raise CurvesTooClose(f"curves not proven {MIN_CURVE_SEPARATION} apart")
    raw = math.fsum(partials) / (4.0 * math.pi)
    rounded = int(round(raw))
    return LinkingResult(raw=raw, rounded=rounded, residual=abs(raw - rounded))


def residual_tolerance(segments):
    """Largest accepted distance of the Hopf fiber Gauss sum from its integer.

    The midpoint rule's residual shrinks with the segment count (5.1e-5 at
    256 segments), so coarse fibers get the looser bound.
    """
    return 0.05 if segments >= 256 else 0.2


def hopf_invariant_of_h(segments=256, values=((0.0, 1.0), (0.0, -1.0)), _self_link=False):
    """Hopf invariant of h as the linking number of two fiber circles.

    Projects the fibers over the two regular values stereographically and
    evaluates the Gauss sum; the rounded value is +-1 (sign is an
    orientation convention). The projection pole, DEFAULT_POLE, is checked
    to clear both fibers by at least 0.2 before projecting. The `_self_link` hook
    replaces the second fiber by a far translate of the first --- an
    unlink, used as a negative control.
    """
    if segments < 64:
        raise ValueError("segments must be >= 64")
    w0a, w1a = hopf_fiber(values[0], segments)
    w0b, w1b = hopf_fiber(values[1], segments)
    q = _pole_vector()
    for w0, w1 in ((w0a, w1a), (w0b, w1b)):
        clearance = float(np.linalg.norm(_to_r4(w0, w1) - q, axis=1).min())
        if clearance < FIBER_POLE_CLEARANCE:
            raise NearPole(f"projection pole only {clearance:.3f} from a fiber")
    c1 = PolylineCurve3(stereographic(w0a, w1a))
    if _self_link:
        c2 = c1.translated((10.0, 0.0, 0.0))
    else:
        c2 = PolylineCurve3(stereographic(w0b, w1b))
    return gauss_linking(c1, c2)


def fiber_to_csv(curve, path):
    """Write a polyline as CSV rows x,y,z (17 significant digits)."""
    np.savetxt(path, curve.points, fmt="%.17g", delimiter=",", header="x,y,z", comments="")
