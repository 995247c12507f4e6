"""The counterexample pair a, b in C(S^4, M2(C)) and its exact identities.

The two elements are rank-one matrix fields over the embedded 4-sphere,

    a(z0, z1, z2) = [[z0, 0], [z1, 0]] / (1 + i z2),
    b(z0, z1, z2) = [[conj z0, conj z1], [0, 0]] / (1 + i z2),

and everything of interest happens to their normalized products:

  * 1 - 2ab equals, pointwise, the unitary-valued map

        c = I - 2/(1 + i z2)^2 * [[z0 conj z0, z0 conj z1],
                                  [z1 conj z0, z1 conj z1]],

  * 1 - 2ba equals diag(phi(z2), 1) with
    phi(z2) = -((1 - i z2)/(1 + i z2))^2, a unit-modulus scalar that
    traverses the full unit circle as z2 runs over [-1, 1].

Both equalities are checked here by literal matrix multiplication of the
operand evaluations against the closed forms, never the other way round:
the closed forms are the oracle side. The shared nonzero pointwise
eigenvalue of ab and ba is (1 - z2^2)/(1 + i z2)^2, which parameterizes
the circle of radius 1/2 centred at 1/2.

The classical inverse identity -- if 1 - ab is invertible with inverse u
then 1 + b u a inverts 1 - ba -- is exposed with a scalar probe mu
(replace a by mu*a) so that spectral points lambda = 1/mu other than 1
can be exercised. All evaluators broadcast over arrays of coordinates and
return linalg2 Fields.
"""

from dataclasses import astuple, dataclass

import numpy as np

# cond2 is unused here but stays importable as expspec.algebra.cond2, a
# kernel that perfbench/tracer.py wraps at this module
from .linalg2 import (  # noqa: F401
    buffer,
    carve,
    cond2,
    eig2,
    eye_like,
    field_buffer,
    fields,
    mat_inv,
    mat_mul,
    op_norm,
    planar,
    sort_pair,
    workspace,
)

__all__ = [
    "DomainError",
    "phi",
    "field_one",
    "field_a",
    "field_b",
    "field_c",
    "field_ab",
    "field_ba",
    "field_one_minus_2ab",
    "field_one_minus_2ba",
    "product_eigenvalue",
    "inverse_identity_sweep",
    "identity_residuals",
    "IdentityResiduals",
    "ELEMENTS",
    "MU_PROBES",
    "CHUNK",
    "sweep",
]

# fixed probe multipliers for the inverse identity; 1/mu probes the
# spectral point lambda = 1/mu (mu = 1 is singular exactly on the equator)
MU_PROBES = (0.0, 0.5, 1.0, 2.0, -1.0, 1j, -2j, 1 + 1j)

# the inverse-identity sweep skips a probe where cond(I - mu ab) exceeds this
COND_LIMIT = 1e6

# sweep granularity: a chunk plane of 2^13 points is 128 KiB and a chunk Field
# 512 KiB, so the planes a kernel hands from one ufunc step to the next stay in
# a 2 MiB L2 cache. The value came from a scan of 2^11 to 2^19 (CHANGES.md);
# results do not depend on CHUNK. The algebra sweeps write every such plane
# into one workspace allocated per sweep: a fresh 128 KiB temporary per step
# sits at glibc's mmap threshold and is zero-filled again on first touch.
CHUNK = 1 << 13


class DomainError(ValueError):
    """Argument outside the function's documented domain."""


def sweep(kernel, mesh, planes=0):
    """Apply kernel to the consecutive CHUNK-long point ranges of a mesh.

    mesh is a sphere.SphereMesh4, read only through its chunks(): the
    kernel gets (z0, z1, z2) for each range, as views of buffers that the
    next chunk overwrites, so it must not keep them.
    Returns the per-chunk results in mesh order. Every kernel given here is
    pointwise, so the folded results do not depend on CHUNK.

    With planes > 0 the kernel also gets, as its last argument, one
    workspace for the whole sweep: `planes` complex planes of CHUNK points
    (fewer for a shorter sweep). It holds the previous chunk's values, so a
    kernel slices it to its own chunk's length and writes every lane it reads.
    """
    work = (np.empty((planes, min(len(mesh), CHUNK)), np.complex128),) if planes else ()
    return [kernel(*chunk, *work) for chunk in mesh.chunks(CHUNK)]


def _coords(z0, z1, z2):
    z0 = np.asarray(z0, dtype=np.complex128)
    z1 = np.asarray(z1, dtype=np.complex128)
    z2 = np.asarray(z2, dtype=np.float64)
    return z0, z1, z2


def _reciprocal(z2, out):
    """w = 1/(1 + i z2), written into out."""
    return np.divide(1.0, np.add(1.0, np.multiply(1j, z2, out=out), out=out), out=out)


def phi(z2, out=None, work=None):
    """phi(z2) = -((1 - i z2)/(1 + i z2))^2, unit modulus on [-1, 1].

    phi(0) = -1, phi(+-1) = 1. Inputs within 1e-12 of the interval are
    clamped (guards one-ulp overshoot in convex combinations); anything
    further out raises DomainError. out and work (1 plane) as in linalg2.
    """
    z2 = np.asarray(z2, dtype=np.float64)
    out = buffer(out, z2.shape, np.complex128)
    t = workspace(work, 1, z2.shape)[0, ...]
    # |z2|, then the clamped z2, in the bytes of out until w overwrites them
    x = carve(out, np.float64)[0]
    big = carve(t, bool)[0]
    if np.any(np.greater(np.abs(z2, out=x), 1.0 + 1e-12, out=big)):
        raise DomainError("phi requires z2 in [-1, 1]")
    iz = np.multiply(1j, np.clip(z2, -1.0, 1.0, out=x), out=t)
    # w = (1 - i z2)/(1 + i z2), phi = -(w w)
    w = np.divide(np.subtract(1.0, iz, out=out), np.add(1.0, iz, out=iz), out=out)
    return np.negative(np.multiply(w, w, out=w), out=w)


def field_one(z0, z1, z2):
    z0, z1, z2 = _coords(z0, z1, z2)
    return planar(np.ones(np.broadcast(z0, z1, z2).shape), 0.0, 0.0, 1.0)


def _field_out(out, z0, z1, z2):
    """out, or a new Field over the broadcast coordinates, and its entry planes."""
    return field_buffer(out, np.broadcast_shapes(z0.shape, z1.shape, z2.shape))


def field_a(z0, z1, z2, out=None):
    """First column (z0, z1)/(1 + i z2), second column zero."""
    z0, z1, z2 = _coords(z0, z1, z2)
    out, (o00, o01, o10, o11) = _field_out(out, z0, z1, z2)
    w = _reciprocal(z2, out=o01)
    np.multiply(z0, w, out=o00)
    np.multiply(z1, w, out=o10)
    o01.fill(0.0)
    o11.fill(0.0)
    return out


def field_b(z0, z1, z2, out=None):
    """First row (conj z0, conj z1)/(1 + i z2), second row zero."""
    z0, z1, z2 = _coords(z0, z1, z2)
    out, (o00, o01, o10, o11) = _field_out(out, z0, z1, z2)
    w = _reciprocal(z2, out=o10)
    np.multiply(np.conjugate(z0, out=o00), w, out=o00)
    np.multiply(np.conjugate(z1, out=o01), w, out=o01)
    o10.fill(0.0)
    o11.fill(0.0)
    return out


def field_c(z0, z1, z2, out=None, work=None):
    """The closed-form unitary map c (oracle for 1 - 2ab, never its computation path).

    c = I - 2 beta [[z0 conj z0, z0 conj z1], [z1 conj z0, z1 conj z1]] with
    beta = 1/(1 + i z2)^2, each entry multiplied left to right. out and
    work (1 plane) as in linalg2.
    """
    z0, z1, z2 = _coords(z0, z1, z2)
    out, (c00, c01, c10, c11) = _field_out(out, z0, z1, z2)
    conj = workspace(work, 1, c00.shape)[0, ...]
    beta = _reciprocal(z2, out=c11)
    np.multiply(beta, beta, out=beta)
    two_beta = np.multiply(2.0, beta, out=c00)
    minus_two_beta = np.multiply(-2.0, beta, out=c01)
    # c11 = 1 - 2 beta z1 conj(z1), c10 = -2 beta z1 conj(z0), then the z0 row
    np.conjugate(z1, out=conj)
    np.subtract(1.0, np.multiply(np.multiply(two_beta, z1, out=c11), conj, out=c11), out=c11)
    np.multiply(np.multiply(minus_two_beta, z1, out=c10), np.conjugate(z0, out=conj), out=c10)
    np.subtract(1.0, np.multiply(np.multiply(two_beta, z0, out=c00), conj, out=c00), out=c00)
    np.multiply(np.multiply(minus_two_beta, z0, out=c01), np.conjugate(z1, out=conj), out=c01)
    return out


def field_ab(z0, z1, z2):
    return mat_mul(field_a(z0, z1, z2), field_b(z0, z1, z2))


def field_ba(z0, z1, z2):
    return mat_mul(field_b(z0, z1, z2), field_a(z0, z1, z2))


def field_one_minus_2ab(z0, z1, z2):
    """I - 2 a(x) b(x), computed by literal matrix multiplication."""
    ab = field_ab(z0, z1, z2)
    return eye_like(ab) - 2.0 * ab


def field_one_minus_2ba(z0, z1, z2, out=None, work=None):
    """I - 2 b(x) a(x); equals diag(phi(z2), 1) pointwise.

    out and work (9 planes) as in linalg2.
    """
    z0, z1, z2 = _coords(z0, z1, z2)
    work = workspace(work, 9, np.broadcast(z0, z1, z2).shape)
    b, a = fields(work[:8])
    ba = mat_mul(field_b(z0, z1, z2, out=b), field_a(z0, z1, z2, out=a), out=out, work=work[8:])
    return np.subtract(eye_like(ba), np.multiply(2.0, ba, out=ba), out=ba)


def product_eigenvalue(z2, out=None, work=None):
    """The shared nonzero eigenvalue (1 - z2^2)/(1 + i z2)^2 of ab and ba.

    out and work (2 planes) as in linalg2.
    """
    z2 = np.asarray(z2, dtype=np.float64)
    out = buffer(out, z2.shape, np.complex128)
    work = workspace(work, 2, z2.shape)
    w, t = work[0, ...], work[1, ...]
    _reciprocal(z2, out=w)
    s = carve(t, np.float64)[0]
    np.subtract(1.0, np.multiply(z2, z2, out=s), out=s)
    # ((1 - z2^2) w) w
    return np.multiply(np.multiply(s, w, out=out), w, out=out)


# the built-in elements of C(S^4, M2), by name, with their planar evaluators
ELEMENTS = {
    "one": field_one,
    "a": field_a,
    "b": field_b,
    "ab": field_ab,
    "ba": field_ba,
    "one-minus-2ab": field_one_minus_2ab,
    "one-minus-2ba": field_one_minus_2ba,
}


def _inverse_identity_residual(a, b, ba, u, mu, out=None, work=None):
    """Pointwise ||(I - mu ba)(I + mu b u a) - I|| with u = (I - mu ab)^{-1}.

    out and work (14 planes) as in linalg2.
    """
    work = workspace(work, 14, u.shape[1:])
    x, y, z = fields(work[:12])
    scratch = work[12:]
    eye = eye_like(u)
    mat_mul(b, mat_mul(u, a, out=x, work=scratch), out=y, work=scratch)
    np.add(eye, np.multiply(mu, y, out=y), out=y)
    np.subtract(eye, np.multiply(mu, ba, out=x), out=x)
    lhs = mat_mul(x, y, out=z, work=scratch)
    return op_norm(np.subtract(lhs, eye, out=lhs), out=out, work=scratch)


# workspace planes of one inverse-identity chunk: six Fields (a, b, ab, ba,
# m, u), the masks, the residual, and the residual's own 14 planes
_INVERSE_PLANES = 24 + 1 + 1 + 14


def _inverse_identity_chunk(z0, z1, z2, work, mus):
    work = work[:, : len(z2)]
    a, b, ab, ba, m, u = fields(work[:24])
    ok, skip = carve(work[24], bool)[:2]
    res = carve(work[25], np.float64)[0]
    scratch = work[26:]
    field_a(z0, z1, z2, out=a)
    field_b(z0, z1, z2, out=b)
    mat_mul(a, b, out=ab, work=scratch)
    mat_mul(b, a, out=ba, work=scratch)
    eye = eye_like(ab)
    worst = 0.0
    skipped = 0
    for mu in mus:
        np.subtract(eye, np.multiply(mu, ab, out=m), out=m)
        # unconditioned lanes may overflow to inf or nan; the mask drops them
        with np.errstate(over="ignore", invalid="ignore"):
            mat_inv(m, COND_LIMIT, out=u, ok=ok, work=scratch)
            skipped += int(np.count_nonzero(np.logical_not(ok, out=skip)))
            if not np.any(ok):
                continue
            _inverse_identity_residual(a, b, ba, u, mu, out=res, work=scratch)
            np.copyto(res, 0.0, where=skip)
            # np.maximum, unlike max(), keeps a nan from a conditioned lane
            worst = np.maximum(worst, res.max())
    return float(worst), skipped


def inverse_identity_sweep(mesh, mus=MU_PROBES):
    """Max inverse-identity residual over mesh x probe values, conditioned cases only.

    Points where cond(I - mu ab) exceeds COND_LIMIT are skipped; a point
    whose condition number is nan is not, so its nan reaches the maximum.
    A conditioned point below the singularity threshold still raises
    SingularMatrix. Returns (max_residual, skipped_count).
    """
    parts = sweep(
        lambda z0, z1, z2, work: _inverse_identity_chunk(z0, z1, z2, work, mus),
        mesh,
        planes=_INVERSE_PLANES,
    )
    return float(np.max([w for w, _ in parts])), sum(s for _, s in parts)


@dataclass(frozen=True)
class IdentityResiduals:
    """Worst-case deviations of the closed-form identities over a mesh (operator norm)."""

    ab_vs_c: float
    ba_vs_diag: float
    phi_unit_modulus: float
    a_rank_one: float
    b_rank_one: float
    ab_eigenvalues: float

    def worst(self):
        # np.maximum, unlike max(), keeps a nan from any field
        return float(np.maximum.reduce(astuple(self)))


# workspace planes of one identity chunk: five Fields (a, b, ab and two
# temporaries), w, one spare plane, the residual, and 4 kernel planes
_IDENTITY_PLANES = 20 + 1 + 1 + 1 + 4


def _identity_chunk(x0, x1, x2, work):
    work = work[:, : len(x2)]
    t_planes, c_planes = work[12:16], work[16:20]
    a, b, ab, t, c = fields(work[:20])
    w, s = work[20], work[21]
    r = carve(work[22], np.float64)[0]
    scratch = work[23:]
    field_a(x0, x1, x2, out=a)
    field_b(x0, x1, x2, out=b)
    mat_mul(a, b, out=ab, work=scratch)
    eye = eye_like(ab)

    # 1 - 2ab = c
    np.subtract(eye, np.multiply(2.0, ab, out=t), out=t)
    np.subtract(t, field_c(x0, x1, x2, out=c, work=scratch), out=t)
    r_ab = op_norm(t, out=r, work=scratch).max()

    # 1 - 2ba = diag(phi, 1), and |phi| = 1
    ph = phi(x2, out=c_planes[0], work=scratch)
    planar(ph, 0.0, 0.0, 1.0, out=c)
    np.subtract(eye, np.multiply(2.0, mat_mul(b, a, out=t, work=scratch), out=t), out=t)
    r_ba = op_norm(np.subtract(t, c, out=t), out=r, work=scratch).max()
    r_phi = np.abs(np.subtract(np.abs(ph, out=r), 1.0, out=r), out=r).max()

    # a^2 = (z0 w) a and b^2 = (conj(z0) w) b, w = 1/(1 + i z2)
    _reciprocal(x2, out=w)
    np.multiply(np.multiply(x0, w, out=s), a, out=c)
    mat_mul(a, a, out=t, work=scratch)
    r_a2 = op_norm(np.subtract(t, c, out=t), out=r, work=scratch).max()
    np.multiply(np.multiply(np.conjugate(x0, out=s), w, out=s), b, out=c)
    mat_mul(b, b, out=t, work=scratch)
    r_b2 = op_norm(np.subtract(t, c, out=t), out=r, work=scratch).max()

    # eig(ab) = {0, product eigenvalue}, both sorted
    lam = product_eigenvalue(x2, out=w, work=scratch)
    s.fill(0.0)
    lo_hi = sort_pair(s, lam, out=c_planes[:2], work=scratch)
    got = eig2(ab, out=t_planes[:2], work=scratch)
    np.subtract(got, lo_hi, out=got)
    r_eig = np.maximum(np.abs(got[0], out=r).max(), np.abs(got[1], out=r).max())
    return tuple(float(v) for v in (r_ab, r_ba, r_phi, r_a2, r_b2, r_eig))


def identity_residuals(mesh):
    """Sweep the algebra identities over a mesh, returning per-identity maxima.

    Checked against closed forms derived by hand:
    a^2 = (z0/(1+i z2)) a, b^2 = (conj z0/(1+i z2)) b (rank-one algebra),
    1-2ab = c, 1-2ba = diag(phi, 1), and eig(ab) = {product eigenvalue, 0}.
    """
    parts = sweep(_identity_chunk, mesh, planes=_IDENTITY_PLANES)
    # np.maximum, unlike max(), keeps a nan from any chunk
    return IdentityResiduals(*(float(np.maximum.reduce(column)) for column in zip(*parts)))
