"""Closed-form linear algebra for complex 2x2 matrix fields.

A field of 2x2 matrices over N points is stored planar: a Field, an array
of shape (4, ...) whose rows are the entry planes m00, m01, m10, m11. Each
kernel is a handful of ufunc steps over those planes. Products are
literal (8 complex multiplies per matrix, no use of known zero entries),
and eigenvalues, inverses, singular values and condition numbers all have
exact formulas, so no LAPACK is needed and the results are bit-for-bit
reproducible. Entrywise arithmetic on Fields (sums, differences, scalar or
per-point multiples) is ordinary ndarray arithmetic on the planes.

Fields in, Field out: every kernel takes only Fields and raises TypeError
on any other array, so a (4, 2, 2) stack of four matrices is never misread
as four entry planes.

Buffers, numpy style. Every kernel takes an optional out= and work=:

  * out receives the result and is returned: a Field for mat_mul and
    mat_inv, a float64 array for op_norm and cond2, a (2, ...) array for
    eig2 and sort_pair. out may alias none of the arguments: each kernel
    writes part of its result before it has read all of its input.
  * work is a workspace: a complex128 array (k, ...) of C-contiguous
    scratch planes shaped like the result's planes, of which the kernel
    uses the first k (at most 4; its docstring gives k). The kernel
    overwrites them, may read their bytes as float or bool planes
    (carve), and leaves nothing in them that a later call reads. work may
    alias neither out nor an argument.

Without them a kernel allocates both and runs the same ufunc steps, so a
result does not depend on whether, or which, buffers were given.

A kernel that runs on many chunks declares its workspace once, as a
Layout: named Fields, planes and carved float or bool planes, in plane
order, and the aliases it reuses on purpose, another kernel's whole
Layout among them. The Layout gives both the plane total and the named
views, so no kernel counts or indexes planes by hand. A sweep allocates
that total with aligned(), whose base sits on a 64-byte cache-line
boundary wherever the heap puts the block, and cuts it into views for
every chunk.
"""

import math
from types import SimpleNamespace

import numpy as np

__all__ = [
    "SingularMatrix",
    "SINGULARITY_RTOL",
    "Field",
    "planar",
    "eye_like",
    "buffer",
    "field_buffer",
    "workspace",
    "aligned",
    "carve",
    "FIELD",
    "PLANE",
    "FLOAT",
    "planes",
    "carved",
    "Layout",
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


def planar(m00, m01, m10, m11, out=None):
    """Pack four broadcastable entry arrays into a Field."""
    shape = np.broadcast(m00, m01, m10, m11).shape
    out, planes = field_buffer(out, shape)
    for plane, value in zip(planes, (m00, m01, m10, m11)):
        np.copyto(plane, value)
    return out


def eye_like(m):
    """The identity as a (read-only) Field that broadcasts against the Field m."""
    return _EYE.reshape((4,) + (1,) * (m.ndim - 1)).view(Field)


def _rows(x):
    # x[i, ...] keeps a 0-d row an array (x[i] would be a scalar), so it can take out=.
    # A list, not a generator: tuple() sizes a generator's tuple by a guess and
    # resizes it, so each call parked one more tuple on CPython's free list for
    # the final size, up to 2000 of them (336 KiB of 16-row tuples from carve):
    # in one process the inverse sweep at 97x32 grew by 0.5 MiB over its chunks
    return tuple([x[i, ...] for i in range(len(x))])


def _entries(m):
    """The four entry planes of the Field m; TypeError for any other argument."""
    if not isinstance(m, Field):
        raise TypeError(f"expected a linalg2.Field, got {type(m).__name__}")
    return _rows(m.view(np.ndarray))


def buffer(out, shape, dtype):
    """out, checked against shape, or a new uninitialized array when out is None."""
    if out is None:
        return np.empty(shape, dtype)
    if out.shape != shape:
        raise ValueError(f"out has shape {out.shape}, expected {shape}")
    return out


def field_buffer(out, shape):
    """out, or a new Field over shape, and its four entry planes."""
    if out is None:
        out = np.empty((4,) + shape, np.complex128).view(Field)
    out = buffer(out, (4,) + shape, np.complex128)
    return out, _entries(out)


def workspace(work, planes, shape):
    """The first `planes` scratch planes of work, or new ones when work is None."""
    if work is None:
        return np.empty((planes,) + shape, np.complex128)
    if len(work) < planes or work.shape[1:] != shape:
        raise ValueError(f"work has shape {work.shape}, expected ({planes} or more,) + {shape}")
    return work[:planes]


def aligned(shape, dtype=np.complex128):
    """A new uninitialized C-contiguous array of the shape tuple, its base on a 64-byte boundary."""
    # math.prod and __array_interface__, not np.prod and .ctypes, which run
    # library code no stage needs: np.prod alone added about 0.09 MiB to the
    # peak RSS of certify --segments 4096
    raw = np.empty(math.prod(shape) * np.dtype(dtype).itemsize + 64, np.uint8)
    skip = -raw.__array_interface__["data"][0] % 64
    return raw[skip : skip + raw.size - 64].view(dtype).reshape(shape)


def _negate(x, out):
    """-x for a complex array x, written into out: np.negative's bits, from the float64 parts.

    Negating the two float64 parts of each entry is bit for bit the complex
    np.negative (signed zeros, infinities and nans included) and runs
    about 4 times faster on a chunk plane.
    """
    np.negative(x[..., None].view(np.float64), out=out[..., None].view(np.float64))
    return out


def carve(plane, dtype):
    """The bytes of a C-contiguous complex plane, as 2 float64 or 16 bool planes of its shape."""
    return _rows(np.ndarray((16 // np.dtype(dtype).itemsize,) + plane.shape, dtype, buffer=plane))


# The kinds of Layout entry, each (plane count, the view of its block of
# planes, None or the entry an alias starts at): a Field, one plane, and the
# first float64 plane carved from one complex plane.
FIELD = (4, lambda block: block.view(Field), None)
PLANE = (1, lambda block: block[0, ...], None)
FLOAT = (1, lambda block: carve(block[0, ...], np.float64)[0], None)


def planes(count, over=None):
    """A Layout entry of `count` planes, as one (count, ...) array; see Layout for over."""
    return (count, lambda block: block, over)


def carved(dtype, count, over=None):
    """A Layout entry of one complex plane, as its first `count` carve() planes; see Layout for over."""
    return (1, lambda block: carve(block[0, ...], dtype)[:count], over)


class Layout:
    """A kernel's workspace, declared once: named entries over consecutive planes.

    Layout(m=FIELD, r=FLOAT, rest=planes(2), scratch=planes(6, over="m"))
    puts the Field m on planes 0-3, the float plane r in the bytes of plane
    4 and the planes rest on 5-6. An entry given over="name" is an alias:
    it starts at the first plane of that earlier entry and takes no planes
    of its own, so writing either overwrites the other; scratch here is
    planes 0-5, over m, r and part of rest, and must end by the last plane.
    `planes` is the total, 7 here. cut(work) makes every named view of a
    workspace of `planes` C-contiguous planes, each of shape work.shape[1:].
    A layout's over(name) makes it an alias entry of another, whose cut
    gives its named views as one attribute.
    """

    def __init__(self, **entries):
        self.spans, self.planes = {}, 0  # name -> (first plane, count, view, over)
        for name, (count, view, over) in entries.items():
            self.spans[name] = (self.spans[over][0] if over else self.planes, count, view, over)
            self.planes += 0 if over else count

    def cut(self, work):
        """The named views of work, as attributes."""
        return SimpleNamespace(**{name: view(work[first : first + count]) for name, (first, count, view, _) in self.spans.items()})

    def over(self, name):
        """This layout as an alias entry over the entry `name` of another layout."""
        return self.planes, self.cut, name


# A sweep's latitude tables (algebra.sweep): each z2-only factor of a kernel,
# evaluated once per latitude of the mesh, reaches a chunk as lat = (tables,
# runs), runs being the chunk's latitude runs (j, k, m): lanes k to k + m - 1
# lie on latitude j.


def _fill_tables(plane, lat, name):
    """Write the latitude table `name` of lat into a chunk's plane, run by run; returns plane."""
    table = lat[0][name]
    for j, k, m in lat[1]:
        plane[..., k : k + m] = table[..., j, None]
    return plane


def _table_run(lat, name):
    """The lanes of the chunk's run of the one latitude the bool table `name` marks, as a slice."""
    table = lat[0][name]
    for j, k, m in lat[1]:
        if table[j]:
            return slice(k, k + m)
    return slice(0, 0)


def mat_mul(x, y, out=None, work=None):
    """Matrix product of two Fields (literal multiplication, no shortcuts); work: 1 plane."""
    x00, x01, x10, x11 = _entries(x)
    y00, y01, y10, y11 = _entries(y)
    shape = np.broadcast(x00, y00).shape
    out, (o00, o01, o10, o11) = field_buffer(out, shape)
    (t,) = _rows(workspace(work, 1, shape))
    np.multiply(x00, y00, out=o00)
    np.add(o00, np.multiply(x01, y10, out=t), out=o00)
    np.multiply(x00, y01, out=o01)
    np.add(o01, np.multiply(x01, y11, out=t), out=o01)
    np.multiply(x10, y00, out=o10)
    np.add(o10, np.multiply(x11, y10, out=t), out=o10)
    np.multiply(x10, y01, out=o11)
    np.add(o11, np.multiply(x11, y11, out=t), out=o11)
    return out


def sort_pair(r1, r2, out=None, work=None):
    """(lo, hi) as a (2, ...) array: the two values ordered lexicographically by (re, im).

    work: 1 plane.
    """
    shape = np.broadcast(r1, r2).shape
    out = buffer(out, (2,) + shape, np.result_type(r1, r2))
    swap, tie, above = carve(workspace(work, 1, shape)[0, ...], bool)[:3]
    # swap = (r1.real > r2.real) | ((r1.real == r2.real) & (r1.imag > r2.imag))
    np.greater(r1.real, r2.real, out=swap)
    np.equal(r1.real, r2.real, out=tie)
    np.greater(r1.imag, r2.imag, out=above)
    np.logical_or(swap, np.logical_and(tie, above, out=tie), out=swap)
    lo, hi = _rows(out)
    np.copyto(lo, r1)
    np.copyto(lo, r2, where=swap)
    np.copyto(hi, r2)
    np.copyto(hi, r1, where=swap)
    return out


def eig2(m, out=None, work=None):
    """Both eigenvalues of each 2x2 matrix of the Field m, as an array of shape (2, ...).

    Roots of lambda^2 - tr*lambda + det via the stable quadratic formula:
    the half-discriminant is added to the mean with the sign that avoids
    cancellation, giving the larger-magnitude root first; the second root
    is det/root1 (exact product relation), or 0 when root1 is 0, which
    happens only for the zero-trace, zero-det case. The returned pair is
    sorted by sort_pair so set comparisons are deterministic. work: 4 planes.
    """
    a, b, c, d = _entries(m)
    work = workspace(work, 4, a.shape)
    mid, disc, t, flags = _rows(work)
    # mid = (a + d)/2, disc = sqrt(((a - d)/2)^2 + bc)
    np.multiply(0.5, np.add(a, d, out=mid), out=mid)
    np.square(np.multiply(np.subtract(a, d, out=disc), 0.5, out=disc), out=disc)
    np.sqrt(np.add(disc, np.multiply(b, c, out=t), out=disc), out=disc)
    # pick the sign of the discriminant that grows |mid + disc|
    flip = carve(flags, bool)[0]
    np.less(np.multiply(np.conjugate(disc, out=t), mid, out=t).real, 0.0, out=flip)
    np.copyto(disc, _negate(disc, t), where=flip)
    r1 = np.add(mid, disc, out=mid)
    det = np.subtract(np.multiply(a, d, out=disc), np.multiply(b, c, out=t), out=disc)
    # r2 = det/r1, or 0 where r1 = 0 (dividing by 1 there instead)
    zero = flip
    np.equal(r1, 0, out=zero)
    np.copyto(t, r1)
    np.copyto(t, 1.0, where=zero)
    r2 = np.divide(det, t, out=det)
    np.copyto(r2, 0.0 + 0.0j, where=zero)
    return sort_pair(r1, r2, out=out, work=work[3:])


def op_norm(m, out=None, work=None):
    """Largest singular value, from the closed-form eigenvalues of the 2x2 Gram matrix.

    work: 2 planes.
    """
    a, b, c, d = _entries(m)
    out = buffer(out, a.shape, np.float64)
    g01, t = _rows(workspace(work, 2, a.shape))
    # g01 = conj(a) b + conj(c) d
    np.multiply(np.conjugate(a, out=g01), b, out=g01)
    np.add(g01, np.multiply(np.conjugate(c, out=t), d, out=t), out=g01)
    # g00 = |a|^2 + |c|^2, g11 = |b|^2 + |d|^2 (out is scratch until mid)
    g00, g11 = carve(t, np.float64)
    np.add(np.square(np.abs(a, out=g00), out=g00), np.square(np.abs(c, out=g11), out=g11), out=g00)
    np.add(np.square(np.abs(b, out=g11), out=g11), np.square(np.abs(d, out=out), out=out), out=g11)
    # mid = (g00 + g11)/2 in out, rad = sqrt(((g00 - g11)/2)^2 + |g01|^2) in g00
    mid = np.multiply(0.5, np.add(g00, g11, out=out), out=out)
    rad = np.square(np.multiply(0.5, np.subtract(g00, g11, out=g00), out=g00), out=g00)
    np.sqrt(np.add(rad, np.square(np.abs(g01, out=g11), out=g11), out=rad), out=rad)
    return np.sqrt(np.maximum(np.add(mid, rad, out=out), 0.0, out=out), out=out)


def _conditioning(m, cond, work):
    """det, smax^2 and |det| of each matrix of the Field m; cond2's value goes into cond.

    Uses the 4 planes of work: det stays in the first, smax^2 and |det| in
    the two float planes of the last. cond may be carved from the third.
    """
    a, b, c, d = _entries(m)
    det, t, _, floats = _rows(work)
    s2, absdet = carve(floats, np.float64)
    np.subtract(np.multiply(a, d, out=det), np.multiply(b, c, out=t), out=det)
    np.square(op_norm(m, out=s2, work=work[1:3]), out=s2)
    # cond = smax^2/|det|, inf where det = 0 (dividing by 1 there instead)
    zero = carve(t, bool)[0]
    np.equal(det, 0, out=zero)
    np.copyto(cond, np.abs(det, out=absdet))
    np.copyto(cond, 1.0, where=zero)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(s2, cond, out=cond)
    np.copyto(cond, np.inf, where=zero)
    return det, s2, absdet


def cond2(m, out=None, work=None):
    """2-norm condition number sigma_max/sigma_min = sigma_max^2/|det| (inf when singular).

    work: 4 planes.
    """
    shape = _entries(m)[0].shape
    out = buffer(out, shape, np.float64)
    _conditioning(m, out, workspace(work, 4, shape))
    return out


def mat_inv(m, cond_limit=np.inf, out=None, ok=None, work=None):
    """Adjugate inverse of each matrix in the Field m, guarded on its conditioned lanes.

    The conditioned lanes are ~(cond2(m) > cond_limit), so a nan lane is
    one of them; if a bool array ok is given, they are written into it.
    det and op_norm are computed once, for both the mask and the guard.
    Raises SingularMatrix if |det| <= SINGULARITY_RTOL * op_norm^2 for any
    conditioned lane (by default, every lane). The other lanes are
    inverted without the guard and may come out inf or nan; callers that
    set a limit discard them. For condition numbers below 1e6 the residual
    ||m @ mat_inv(m) - I|| stays within a small multiple of machine epsilon
    times the condition number. work: 4 planes.
    """
    a, b, c, d = _entries(m)
    shape = a.shape
    out, (o00, o01, o10, o11) = field_buffer(out, shape)
    ok = buffer(ok, shape, bool)
    work = workspace(work, 4, shape)
    t, u = _rows(work)[1:3]
    cond = carve(u, np.float64)[0]
    det, s2, absdet = _conditioning(m, cond, work)
    np.logical_not(np.greater(cond, cond_limit, out=ok), out=ok)
    singular = carve(t, bool)[0]
    bound = np.multiply(SINGULARITY_RTOL, s2, out=s2)
    np.less_equal(absdet, bound, out=singular)
    if np.any(np.logical_and(singular, ok, out=singular)):
        raise SingularMatrix("matrix below invertibility threshold")
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(d, det, out=o00)
        np.divide(_negate(b, t), det, out=o01)
        np.divide(_negate(c, t), det, out=o10)
        np.divide(a, det, out=o11)
    return out
