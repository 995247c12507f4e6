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
and 2.0e-7 at 4096 for the default fiber pair.

One O(n m) pass over the segment pairs yields both the Gauss sum and
the curve separation, which share each pair's midpoint distance. With
m, d the midpoints and directions of the outer curve's segments and n, e
the inner's, (m - n) . (d x e) = [m x d, -d] . [e, e x n] and
|m - n|^2 = [m, |m|^2, 1] . [-2n, 1, |n|^2]: two matrix products of an
(n, 11) row table by an (11, m) column table per row block of
BLOCK_ELEMENTS // m rows give every pair term, so peak memory is
O(n + m + BLOCK_ELEMENTS). From SPLIT_PAIRS pairs on, the blocks run as
those of fork._two_halves, each process with its own rows and workspace.
Where a row runs changes no value: the blocks are fixed by n, m and
BLOCK_ELEMENTS, and none has one row (a product's bits may depend on its
row count, and a one-row product is a gemv); the rest is elementwise,
each row sum one numpy sum over a full row, merged in row order by
math.fsum, exact before its one rounding; a minimum is exact in any
order. The separation is a proven lower bound on the distance between
the curves; see curve_separation for the proof and its rounding slack.

Orientation convention: increasing theta on both fibers and a
right-handed frame in R^3. With DEFAULT_POLE this yields -1 for the
pole fiber pair; the sign is reported, only the magnitude is asserted.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fork import _two_halves
from .linalg2 import PLANE, Layout, aligned
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
# Pair terms per row block of the O(n m) pass: 128 KiB per float64
# plane, so the 2-plane workspace (0.25 MiB) stays in a core's L2 cache.
# At most 2^15: a block's larger product makes rows * m * 6 multiply-adds,
# and OpenBLAS runs a product of at most 2^18 on the calling thread; above
# that its second thread competes with the forked helper. 2^15 ran about
# 5% faster in-process, but its 0.5 MiB workspace would add to certify's
# peak RSS, which the linking pass sets at 4096 segments.
BLOCK_ELEMENTS = 2**14

# the workspace of one row block: float64 planes of (rows, m). den takes
# the squared midpoint distances, then their cubes; num the distances,
# then the distances less the other curve's half lengths, then the
# numerators and the pair terms
_PAIR_LAYOUT = Layout(den=PLANE, num=PLANE)

# a pass over at least this many segment pairs runs the back half of its
# row blocks in a forked helper. In-process _pair_pass on the Hopf fiber
# pair, 2-vCPU VM, 40 alternating runs per size and scan (README): a fork
# costs 3 to 4 ms; 1024 segments (2^20 pairs) lost in four scans of five,
# 1248 (1,557,504 pairs) won in three of four, and from 1300 (1,690,000)
# on every scan won (4096 segments: 90.8 -> 50.8 ms). So the 256-segment
# pass of report-all and certify never forks.
SPLIT_PAIRS = 3 * 2**19

# fixed projection pole, distance sqrt(2 - sqrt(2)) ~ 0.765 from both pole fibers
DEFAULT_POLE = SpherePoint3(1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0))


class CurvesTooClose(ValueError):
    """The curves' separation bound is below what the Gauss sum can tolerate.

    Raised when curve_separation, a lower bound on the distance between
    the two polylines, reads less than MIN_CURVE_SEPARATION or nan; the
    curves themselves may be farther apart than the bound.
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


def _segments(points, start, stop):
    """Midpoints (k, 3), directions (k, 3) and half lengths (k,) of edges start to stop - 1 of a closed polyline.

    Edge i runs from vertex i to i + 1 (mod n). The half lengths take
    numpy's norm of each (x, y, z) direction.
    """
    p = points.take(range(start, stop + 1), axis=0, mode="wrap")
    d = p[1:] - p[:-1]
    return p[:-1] + 0.5 * d, d, 0.5 * np.linalg.norm(d, axis=1)


def _squares(v):
    """|v|^2 of each row of a (k, 3) array, as a (k, 1) column: (x x + y y) + z z."""
    return (v * v).sum(axis=1, keepdims=True)


def _row_table(points, start, stop):
    """Gram rows of edges start to stop - 1, (k, 11): [m x d, -d, m, |m|^2, 1] per edge; and their half lengths."""
    m, d, h = _segments(points, start, stop)
    return np.concatenate((np.cross(m, d), -d, m, _squares(m), np.ones_like(h)[:, None]), axis=1), h


def _column_table(points):
    """Gram columns of every edge, (11, m): [e; e x n; -2 n; 1; |n|^2]; and the half lengths."""
    n, e, h = _segments(points, 0, len(points))
    return np.concatenate((e.T, np.cross(e, n).T, -2.0 * n.T, np.ones_like(h)[None], _squares(n).T)), h


def _pair_pass(c1, c2):
    """curve_separation's bound and the Gauss sum's row sums, in one pass over the segment pairs.

    Returns (separation, partials): partials[i] is the numpy sum over c2's
    segments of the midpoint-rule Gauss terms of c1's segment i. The pass
    walks c1's Gram rows in blocks of BLOCK_ELEMENTS // m rows, at least
    two, against c2's Gram columns. Each process builds the rows of its own
    range and one workspace of _PAIR_LAYOUT, allocated up front, so no
    block allocates a plane: a fresh temporary per block lands in heap
    holes or grows the heap, and peak RSS then depends on the layout. The
    workspace comes from linalg2.aligned, so its planes start on a cache
    line wherever the heap puts it. A one-row block runs as two rows, with
    the row before it, and keeps the last row's sum: numpy hands a one-row
    matmul to gemv, whose bits differ from the same row of a gemm. The
    blocks do not depend on where the pass forks. From SPLIT_PAIRS pairs
    on, a forked helper runs the back half of the row blocks
    (fork._two_halves). Each block yields one bytes object, its
    separation's 8 bytes ahead of its row sums' float64 bytes: a helper's
    blocks then unpickle as objects that the garbage collector does not
    track, where 512 (float, bytes) tuples set off a collection over the
    whole process. float64 to bytes and back is exact. The blocks are
    collected and folded once: the minima by np.minimum.reduce, which
    keeps a nan, and the row sums by one concatenation in row order, as in
    one process.
    """
    cols, h2 = _column_table(c2.points)
    n, m = len(c1), len(h2)
    step = max(2, BLOCK_ELEMENTS // m)

    def run(start, stop):
        # a range of one row builds the row before it too, for its two-row block
        top = min(start, stop - 2)
        rows, h1 = _row_table(c1.points, top, stop)
        work = aligned((_PAIR_LAYOUT.planes, min(stop - top, step), m), np.float64)
        for first in range(start - top, stop - top, step):
            end = min(first + step, stop - top)
            low = min(first, end - 2)
            separation, sums = _pair_rows(rows[low:end], h1[low:end], cols, h2, _PAIR_LAYOUT.cut(work[:, : end - low]))
            yield np.float64(separation).tobytes() + sums[8 * (first - low) :]

    blocks = [np.frombuffer(block) for block in _two_halves(n, step, run, n * m >= SPLIT_PAIRS)]
    return float(np.minimum.reduce([block[0] for block in blocks])), np.concatenate([block[1:] for block in blocks])


def _pair_rows(rows, h1, cols, h2, ws):
    """The separation bound and the Gauss row sums of one row block.

    rows is the block's slice of _row_table, (k, 11) with k >= 2, and h1
    its half lengths; cols and h2 the other curve's _column_table; ws the
    block's _PAIR_LAYOUT views, float64 planes of (k, m), cut by _pair_pass.
    Two matrix products give every pair term's pieces: rows[:, 6:] @
    cols[6:] is the squared midpoint distance |m_i|^2 + |n_j|^2 - 2 m_i.n_j,
    and rows[:, :6] @ cols[:6] the numerator (m_i x d_i).e_j -
    d_i.(e_j x n_j) = (m_i - n_j).(d_i x e_j). Returns the block's
    separation as a float and its row sums as float64 bytes, which a forked
    helper pickles in a fraction of an array's time. A squared distance
    that rounds below 0 makes its root nan, and a pair at distance 0 makes
    its term nan or inf; these run without a floating-point warning, the
    nan reaches the separation, and gauss_linking raises before it merges
    the sums.
    """
    den, num = ws.den, ws.num
    with np.errstate(divide="ignore", invalid="ignore"):
        np.matmul(rows[:, 6:], cols[6:], out=den)
        np.sqrt(den, out=num)
        np.multiply(num, num, out=den)
        den *= num
        separation = (np.subtract(num, h2, out=num).min(axis=1) - h1).min()
        np.matmul(rows[:, :6], cols[:6], out=num)
        num /= den
        return float(separation), num.sum(axis=1).tobytes()


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
    midpoint halves exactly and rounds once, |m^ - m| <= uR + uR = 2uR,
    so the distance rho' = |m^ - n^| of the rounded midpoints is within 4uR
    of rho = |m - n|. The pass takes rho'^2 as the Gram product s =
    [m^, |m^|^2, 1] . [-2 n^, 1, |n^|^2]: each squared norm, three
    roundings in (x x + y y) + z z, is off by 3uR^2; -2 n^ is exact; and
    the 5-term product, in whatever order and with or without FMA the BLAS
    kernel sums it, is off by 5u (|m^|^2 + |n^|^2 + 2 |m^| |n^|) <= 20uR^2;
    so |s^ - rho'^2| <= 26uR^2. Where s^ < 0 its root is nan, the
    separation reads nan, and gauss_linking's guard raises. Else
    |sqrt(s^) - rho'| = |s^ - rho'^2| / (sqrt(s^) + rho') <= 26uR^2 /
    sqrt(s^), and the root's rounding adds u sqrt(s^) <= 2uR. The guard
    passes only where every computed pair term is at least
    MIN_CURVE_SEPARATION, and a pair term is at most its computed distance
    (the half lengths are >= 0 and rounding is monotone), so there every
    sqrt(s^) is at least MIN_CURVE_SEPARATION: each distance is within
    26uR^2 / MIN_CURVE_SEPARATION + 6uR of rho. A half length is off by
    (2.5u 2R + 2uR)/2 = 3.5uR, 7uR for both. The two subtractions round
    results of magnitude at most 2R, 4uR. The minimum is exact. So curves
    that pass the guard are at least MIN_CURVE_SEPARATION - 26uR^2 /
    MIN_CURVE_SEPARATION - 17uR = MIN_CURVE_SEPARATION - 2.9e-12 R^2 -
    1.9e-15 R apart. For the fiber pairs of hopf_invariant_of_h the pole
    clearance keeps every image within 10 of the origin (|image| = sqrt((1
    + w.q)/(1 - w.q)) and 1 - w.q = |w - q|^2 / 2 >= 0.02), and the
    translated unlink within 20, so the slack is below 1.2e-9, six orders
    of magnitude under the threshold; the bound keeps a margin for any
    curves within about 1.8e4 of the origin.

    One row-blocked pass, shared with the Gauss sum: _pair_pass takes each
    pair's |m_i - n_j| as the root of the Gram product whose cube the sum
    divides by. Rounding is monotone, so subtracting |d_i|/2 after each
    row's minimum gives the same value as subtracting it from every pair
    term.
    """
    return _pair_pass(c1, c2)[0]


def gauss_linking(c1, c2):
    """Discrete Gauss double integral of two disjoint closed polylines.

    Midpoint evaluation per segment pair. Raises CurvesTooClose unless
    curve_separation, a proven lower bound on the distance between the
    curves, is at least MIN_CURVE_SEPARATION: a nan separation, which a
    squared distance that rounds below 0 gives, fails the guard too. Both
    come from one _pair_pass.
    """
    separation, partials = _pair_pass(c1, c2)
    if not separation >= MIN_CURVE_SEPARATION:
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


def _fiber_curves(segments, values, self_link):
    """The two projected fiber curves of hopf_invariant_of_h.

    Their S^3 coordinates die on return, before the Gauss sum runs.
    """
    w0a, w1a = hopf_fiber(values[0], segments)
    w0b, w1b = hopf_fiber(values[1], segments)
    q = _pole_vector()
    for w0, w1 in ((w0a, w1a), (w0b, w1b)):
        clearance = float(np.linalg.norm(_to_r4(w0, w1) - q, axis=1).min())
        if clearance < FIBER_POLE_CLEARANCE:
            raise NearPole(f"projection pole only {clearance:.3f} from a fiber")
    c1 = PolylineCurve3(stereographic(w0a, w1a))
    if self_link:
        return c1, c1.translated((10.0, 0.0, 0.0))
    return c1, PolylineCurve3(stereographic(w0b, w1b))


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
    return gauss_linking(*_fiber_curves(segments, values, _self_link))


def fiber_to_csv(curve, path):
    """Write a polyline as CSV rows x,y,z (17 significant digits)."""
    np.savetxt(path, curve.points, fmt="%.17g", delimiter=",", header="x,y,z", comments="")
