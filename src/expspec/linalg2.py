"""Closed-form linear algebra for complex 2x2 matrix fields.

A field of 2x2 matrices over N points is stored planar: a Field, an array
of shape (4, ...) whose rows are the entry planes m00, m01, m10, m11. Each
kernel is a handful of ufunc expressions over those planes. Products are
literal (8 complex multiplies per matrix, no use of known zero entries),
and eigenvalues, inverses, singular values and condition numbers all have
exact formulas, so no LAPACK is needed and the results are bit-for-bit
reproducible. Entrywise arithmetic on Fields (sums, differences, scalar or
per-point multiples) is ordinary ndarray arithmetic on the planes.

Fields in, Field out: every kernel takes only Fields and raises TypeError
on any other array, so a (4, 2, 2) stack of four matrices is never misread
as four entry planes.
"""

import numpy as np

__all__ = [
    "SingularMatrix",
    "SINGULARITY_RTOL",
    "Field",
    "planar",
    "eye_like",
    "mat_mul",
    "eig2",
    "sort_pair",
    "mat_inv",
    "op_norm",
    "cond2",
]

# |det| <= SINGULARITY_RTOL * op_norm(m)^2 is treated as singular.
# Scale-invariant: both sides are quadratic in the matrix scale.
SINGULARITY_RTOL = 1e-14


class SingularMatrix(ArithmeticError):
    """Raised when any matrix of a Field fails the invertibility threshold."""


class Field(np.ndarray):
    """A field of complex 2x2 matrices: shape (4, ...), rows m00, m01, m10, m11.

    The type only marks the planar layout, so the kernels can reject any
    other array; build one with planar().
    """


_EYE = np.array([1, 0, 0, 1], dtype=np.complex128)
_EYE.flags.writeable = False


def planar(m00, m01, m10, m11):
    """Pack four broadcastable entry arrays into a Field."""
    return np.array(np.broadcast_arrays(m00, m01, m10, m11), dtype=np.complex128).view(Field)


def eye_like(m):
    """The identity as a (read-only) Field that broadcasts against the Field m."""
    return _EYE.reshape((4,) + (1,) * (m.ndim - 1)).view(Field)


def _entries(m):
    """The four entry planes of the Field m; TypeError for any other argument."""
    if not isinstance(m, Field):
        raise TypeError(f"expected a linalg2.Field, got {type(m).__name__}")
    # m[i, ...] keeps a 0-d plane an array (m[i] would be a scalar), so it can take out=
    p = m.view(np.ndarray)
    return p[0, ...], p[1, ...], p[2, ...], p[3, ...]


def _empty(shape):
    """An uninitialized Field over shape, and its four entry planes."""
    out = np.empty((4,) + shape, dtype=np.complex128).view(Field)
    return out, _entries(out)


def mat_mul(x, y):
    """Matrix product of two Fields (literal multiplication, no shortcuts)."""
    x00, x01, x10, x11 = _entries(x)
    y00, y01, y10, y11 = _entries(y)
    out, (o00, o01, o10, o11) = _empty(np.broadcast_shapes(x00.shape, y00.shape))
    np.multiply(x00, y00, out=o00)
    o00 += x01 * y10
    np.multiply(x00, y01, out=o01)
    o01 += x01 * y11
    np.multiply(x10, y00, out=o10)
    o10 += x11 * y10
    np.multiply(x10, y01, out=o11)
    o11 += x11 * y11
    return out


def sort_pair(r1, r2):
    """(lo, hi): the two values ordered lexicographically by (re, im)."""
    swap = (r1.real > r2.real) | ((r1.real == r2.real) & (r1.imag > r2.imag))
    return np.where(swap, r2, r1), np.where(swap, r1, r2)


def eig2(m):
    """Both eigenvalues of each 2x2 matrix of the Field m, as an array of shape (2, ...).

    Roots of lambda^2 - tr*lambda + det via the stable quadratic formula:
    the half-discriminant is added to the mean with the sign that avoids
    cancellation, giving the larger-magnitude root first; the second root
    is det/root1 (exact product relation), or 0 when root1 is 0, which
    happens only for the zero-trace, zero-det case. The returned pair is
    sorted by sort_pair so set comparisons are deterministic.
    """
    a, b, c, d = _entries(m)
    mid = 0.5 * (a + d)
    disc = np.sqrt(((a - d) * 0.5) ** 2 + b * c)
    # pick the sign of the discriminant that grows |mid + disc|
    disc = np.where(np.real(np.conj(disc) * mid) < 0.0, -disc, disc)
    r1 = mid + disc
    det = a * d - b * c
    safe = np.where(r1 == 0, 1.0, r1)
    r2 = np.where(r1 == 0, 0.0 + 0.0j, det / safe)
    return np.stack(sort_pair(r1, r2))


def op_norm(m):
    """Largest singular value, from the closed-form eigenvalues of the 2x2 Gram matrix."""
    a, b, c, d = _entries(m)
    g00 = np.abs(a) ** 2 + np.abs(c) ** 2
    g11 = np.abs(b) ** 2 + np.abs(d) ** 2
    g01 = np.conj(a) * b + np.conj(c) * d
    mid = 0.5 * (g00 + g11)
    rad = np.sqrt((0.5 * (g00 - g11)) ** 2 + np.abs(g01) ** 2)
    return np.sqrt(np.maximum(mid + rad, 0.0))


def cond2(m):
    """2-norm condition number sigma_max/sigma_min = sigma_max^2/|det| (inf when singular)."""
    a, b, c, d = _entries(m)
    det = a * d - b * c
    smax = op_norm(m)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(det == 0, np.inf, smax**2 / np.abs(np.where(det == 0, 1.0, det)))
    return out


def mat_inv(m, where=True):
    """Adjugate inverse of each matrix in the Field m.

    Raises SingularMatrix if |det| <= SINGULARITY_RTOL * op_norm^2 for any
    matrix selected by the boolean mask `where` (default: every matrix).
    Unselected matrices are inverted without the guard and may come out
    inf or nan; callers that pass a mask discard them. For condition
    numbers below 1e6 the residual ||m @ mat_inv(m) - I|| stays within a
    small multiple of machine epsilon times the condition number.
    """
    a, b, c, d = _entries(m)
    det = a * d - b * c
    if np.any(where & (np.abs(det) <= SINGULARITY_RTOL * op_norm(m) ** 2)):
        raise SingularMatrix("matrix below invertibility threshold")
    out, (o00, o01, o10, o11) = _empty(det.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(d, det, out=o00)
        np.divide(-b, det, out=o01)
        np.divide(-c, det, out=o10)
        np.divide(a, det, out=o11)
    return out
