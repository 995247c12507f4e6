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

from dataclasses import dataclass
from functools import partial

import numpy as np

from .fork import _two_halves

# cond2 is unused here but stays importable as expspec.algebra.cond2, a
# kernel that perfbench/tracer.py wraps at this module
from .linalg2 import (  # noqa: F401
    FIELD,
    FLOAT,
    PLANE,
    Layout,
    _fill_tables,
    aligned,
    carved,
    cond2,
    eig2,
    eye_like,
    field_buffer,
    mat_inv,
    mat_mul,
    op_norm,
    planar,
    planes,
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
    "SPLIT_POINTS",
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
# results do not depend on CHUNK from 2 up (see sweep). The algebra sweeps
# write every such plane into one workspace per sweep and process: a fresh
# 128 KiB temporary per step sits at glibc's mmap threshold and is
# zero-filled again on first touch.
CHUNK = 1 << 13

# a sweep of at least this many points runs its back half in one forked
# helper process. A forked sweep costs about 10 ms on a 2-vCPU VM (fork and
# wait 1.5-2.5 ms, then copy-on-write faults and the two CPUs slowing each
# other). The cheapest kernels, certify's path start and f/Eh pass when each
# had its own sweep, lost at 224,194 points (path 32 -> 43 ms, gap 25 -> 30 ms)
# and won from 339,906 (path 54 -> 34 ms, gap 43 -> 28 ms); a 3-chunk spectrum
# sweep lost 9.0 -> 13.7 ms.
SPLIT_POINTS = 1 << 18

class DomainError(ValueError):
    """Argument outside the function's documented domain."""


def sweep(kernel, mesh, layout, tables, rules):
    """Fold a kernel's results on the consecutive CHUNK-long point ranges of a mesh.

    mesh is a sphere.SphereMesh4, read only through its z2_values and its
    chunks(). For each range the kernel gets (z0, z1, z2, ws, lat) and
    returns a tuple, one value per field of the result; sweep returns
    fork.fold(parts, rules) of these tuples, in mesh order. Every rule is
    associative, so the fold runs as the chunks come, and a process holds
    at most isqrt(chunk count) + 1 chunks' results at once: 1,016 at the
    largest mesh the CLI accepts, where holding every chunk's would take
    about 0.3 GiB.

    z0, z1, z2 are views of buffers that the next chunk overwrites, so the
    kernel must not keep them. Every kernel given here is pointwise, so the
    folded results do not depend on CHUNK, for chunks of 2 or more points.
    On numpy's AVX-512 kernels a ufunc run on a 1-element array can round
    differently from the same point among 2 or more lanes (field_c, for
    one). A CHUNK of 2 or more leaves at most a lone last point, the south
    pole, where the evaluators are exact.

    ws holds the named views of layout, a linalg2.Layout, on the workspace,
    cut to the chunk's length. Each process allocates one workspace of
    layout.planes complex planes per sweep, with linalg2.aligned. The
    planes still hold the previous chunk's values, so a kernel writes every
    lane it reads. A kernel that needs no workspace takes Layout().

    lat = (tab, runs): tab = tables(mesh.z2_values), the kernel's z2-only
    factors evaluated on the latitude cosines once per sweep, here, before
    any fork, so a factor's error comes before the first chunk; runs the
    chunk's latitude runs, by which linalg2._fill_tables writes a table
    into a plane as the mesh writes z2. A table of lat_count >= 3 lanes is,
    by the rule above, bit for bit the factor at each point of a chunk of 2
    or more points. A kernel without such factors takes tables that build
    nothing.

    Every sweep runs as fork._two_halves, whose blocks are the chunks, with
    the rules; one of at least SPLIT_POINTS points forks, once per sweep,
    so once for all of certify's mesh evidence. The chunks and the kernel
    arithmetic are those of one process, so every per-chunk result is bit
    for bit the same; each process folds its own chunks, the helper sends
    its one fold, and this process folds its fold and the helper's.
    """

    tab = tables(mesh.z2_values)

    def run(start, stop):
        work = aligned((layout.planes, min(stop - start, CHUNK)))
        for z0, z1, z2, runs in mesh.chunks(CHUNK, start, stop):
            yield kernel(z0, z1, z2, layout.cut(work[:, : len(z2)]), (tab, runs))

    return _two_halves(len(mesh), CHUNK, run, len(mesh) >= SPLIT_POINTS, rules)


def _coords(z0, z1, z2):
    z0 = np.asarray(z0, dtype=np.complex128)
    z1 = np.asarray(z1, dtype=np.complex128)
    z2 = np.asarray(z2, dtype=np.float64)
    return z0, z1, z2


def _times_i(x, out):
    """i x for a float x, written into the complex out; returns out.

    The complex product 1j * x has the parts 0 * x and 0 + x, bit for bit
    (nan, inf and signed zeros included); float ufuncs write them in place,
    where 1j * x would first cast x to complex in a temporary buffer.
    """
    np.multiply(0.0, x, out=out.real)
    np.add(0.0, x, out=out.imag)
    return out


def _reciprocal(z2, out):
    """w = 1/(1 + i z2), written into out."""
    return np.divide(1.0, np.add(1.0, _times_i(z2, out), out=out), out=out)


def phi(z2):
    """phi(z2) = -((1 - i z2)/(1 + i z2))^2, unit modulus on [-1, 1].

    phi(0) = -1, phi(+-1) = 1. Inputs within 1e-12 of the interval are
    clamped (guards one-ulp overshoot in convex combinations); anything
    further out raises DomainError.
    """
    z2 = np.asarray(z2, dtype=np.float64)
    if np.any(np.greater(np.abs(z2), 1.0 + 1e-12)):
        raise DomainError("phi requires z2 in [-1, 1]")
    iz = _times_i(np.clip(z2, -1.0, 1.0), np.empty(z2.shape, np.complex128))
    # w = (1 - i z2)/(1 + i z2), phi = -(w w)
    w = np.divide(np.subtract(1.0, iz), np.add(1.0, iz))
    return np.negative(np.multiply(w, w))


def field_one(z0, z1, z2):
    z0, z1, z2 = _coords(z0, z1, z2)
    return planar(np.ones(np.broadcast(z0, z1, z2).shape), 0.0, 0.0, 1.0)


def _field_out(out, z0, z1, z2):
    """out, or a new Field over the broadcast coordinates, and its entry planes."""
    return field_buffer(out, np.broadcast(z0, z1, z2).shape)


def field_a(z0, z1, z2, out=None, lat=None):
    """First column (z0, z1)/(1 + i z2), second column zero.

    With a sweep's lat (see sweep), w = 1/(1 + i z2) comes from its table.
    """
    z0, z1, z2 = _coords(z0, z1, z2)
    out, (o00, o01, o10, o11) = _field_out(out, z0, z1, z2)
    w = _reciprocal(z2, out=o01) if lat is None else _fill_tables(o01, lat, "w")
    np.multiply(z0, w, out=o00)
    np.multiply(z1, w, out=o10)
    o01.fill(0.0)
    o11.fill(0.0)
    return out


def field_b(z0, z1, z2, out=None, lat=None):
    """First row (conj z0, conj z1)/(1 + i z2), second row zero; lat as in field_a."""
    z0, z1, z2 = _coords(z0, z1, z2)
    out, (o00, o01, o10, o11) = _field_out(out, z0, z1, z2)
    w = _reciprocal(z2, out=o10) if lat is None else _fill_tables(o10, lat, "w")
    np.multiply(np.conjugate(z0, out=o00), w, out=o00)
    np.multiply(np.conjugate(z1, out=o01), w, out=o01)
    o10.fill(0.0)
    o11.fill(0.0)
    return out


def _beta(z2, out):
    """beta = 1/(1 + i z2)^2, written into out."""
    w = _reciprocal(z2, out=out)
    return np.multiply(w, w, out=w)


def _c_factors(z2, c00, c01, c10, c11):
    """c's z2 factors into its four entry planes: 2 beta on the diagonal, -2 beta off it."""
    # beta in the bytes of c01, which is written last
    beta = _beta(z2, out=c01)
    np.multiply(2.0, beta, out=c00)
    np.multiply(-2.0, beta, out=c10)
    np.multiply(2.0, beta, out=c11)
    np.multiply(-2.0, beta, out=c01)


def _c_column(x0, x1, p0, p1, conj):
    """One column of c from its z2 factors, -2 beta in p0 and 2 beta in p1, multiplied left to right.

    p1 = 1 - ((2 beta) x1) conj(x1) is the diagonal entry and
    p0 = ((-2 beta) x0) conj(x1) the other one: (x0, x1) = (z0, z1) gives
    c's second column (c01, c11), and (z1, z0) its first (c10, c00). conj
    receives conj(x1).
    """
    np.conjugate(x1, out=conj)
    np.subtract(1.0, np.multiply(np.multiply(p1, x1, out=p1), conj, out=p1), out=p1)
    np.multiply(np.multiply(p0, x0, out=p0), conj, out=p0)


def field_c(z0, z1, z2, out=None, work=None, lat=None):
    """The closed-form unitary map c (oracle for 1 - 2ab, never its computation path).

    c = I - 2 beta [[z0 conj z0, z0 conj z1], [z1 conj z0, z1 conj z1]] with
    beta = 1/(1 + i z2)^2, each entry multiplied left to right. Both columns
    come from _c_column, the one place that arithmetic is written, which
    homotopy.f_map shares for the second. out and work (1 plane) as in
    linalg2; lat as in field_a, for the factors of _c_factors.
    """
    z0, z1, z2 = _coords(z0, z1, z2)
    out, (c00, c01, c10, c11) = _field_out(out, z0, z1, z2)
    conj = workspace(work, 1, c00.shape)[0, ...]
    _c_factors(z2, c00, c01, c10, c11) if lat is None else _fill_tables(out, lat, "c")
    _c_column(z1, z0, c10, c00, conj)
    _c_column(z0, z1, c01, c11, conj)
    return out


def field_ab(z0, z1, z2):
    return mat_mul(field_a(z0, z1, z2), field_b(z0, z1, z2))


def field_ba(z0, z1, z2):
    return mat_mul(field_b(z0, z1, z2), field_a(z0, z1, z2))


def field_one_minus_2ab(z0, z1, z2):
    """I - 2 a(x) b(x), computed by literal matrix multiplication."""
    ab = field_ab(z0, z1, z2)
    return eye_like(ab) - 2.0 * ab


def field_one_minus_2ba(z0, z1, z2):
    """I - 2 b(x) a(x); equals diag(phi(z2), 1) pointwise."""
    ba = field_ba(z0, z1, z2)
    return eye_like(ba) - 2.0 * ba


def product_eigenvalue(z2):
    """The shared nonzero eigenvalue (1 - z2^2)/(1 + i z2)^2 of ab and ba."""
    z2 = np.asarray(z2, dtype=np.float64)
    w = _reciprocal(z2, out=np.empty(z2.shape, np.complex128))
    # ((1 - z2^2) w) w
    return np.multiply(np.multiply(np.subtract(1.0, np.multiply(z2, z2)), w), w)


def _tables(z2):
    """The latitude tables of the algebra sweeps over the cosines z2 (see sweep).

    w = 1/(1 + i z2), c's factors (_c_factors), phi and the product eigenvalue.
    """
    c, planes = field_buffer(None, z2.shape)
    _c_factors(z2, *planes)
    w = _reciprocal(z2, out=np.empty(z2.shape, np.complex128))
    return dict(w=w, c=c, phi=phi(z2), lam=product_eigenvalue(z2))


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


# the workspace of one inverse-identity chunk, 32 planes. Within a probe, u
# takes b (u a) once u is dead, and m the product (I - mu ba)(I + mu b u a)
_INVERSE_LAYOUT = Layout(
    a=FIELD, b=FIELD, ab=FIELD, ba=FIELD, m=FIELD, u=FIELD,
    masks=carved(bool, 2),  # ok, skip
    res=FLOAT,
    x=FIELD,
    rest=planes(2),
    # the kernels' scratch: mat_inv's 4 planes are also the Field x
    scratch=planes(6, over="x"),
)


def _inverse_identity_chunk(z0, z1, z2, ws, lat, mus):
    """The inverse-identity residual on one chunk, max over the probes.

    For each mu in mus, with u = (I - mu ab)^{-1}, the residual is
    ||(I - mu ba)(I + mu b u a) - I|| on the lanes that mat_inv conditions.
    ws is _INVERSE_LAYOUT cut to the chunk and lat the chunk's _tables (see
    sweep). Returns (max residual, skipped count); see inverse_identity_sweep.
    """
    ok, skip = ws.masks
    field_a(z0, z1, z2, out=ws.a, lat=lat)
    field_b(z0, z1, z2, out=ws.b, lat=lat)
    mat_mul(ws.a, ws.b, out=ws.ab, work=ws.scratch)
    mat_mul(ws.b, ws.a, out=ws.ba, work=ws.scratch)
    eye = eye_like(ws.ab)
    worst, skipped = 0.0, 0
    for mu in mus:
        np.subtract(eye, np.multiply(mu, ws.ab, out=ws.m), out=ws.m)
        # unconditioned lanes may overflow to inf or nan; the mask drops them
        with np.errstate(over="ignore", invalid="ignore"):
            mat_inv(ws.m, COND_LIMIT, out=ws.u, ok=ok, work=ws.scratch)
            skipped += int(np.count_nonzero(np.logical_not(ok, out=skip)))
            if not np.any(ok):
                continue
            # u is dead once u a is formed, so b (u a) goes into its planes
            mat_mul(ws.b, mat_mul(ws.u, ws.a, out=ws.x, work=ws.rest), out=ws.u, work=ws.rest)
            np.add(eye, np.multiply(mu, ws.u, out=ws.u), out=ws.u)
            np.subtract(eye, np.multiply(mu, ws.ba, out=ws.x), out=ws.x)
            # m is dead after mat_inv, so (I - mu ba)(I + mu b u a) goes into it
            lhs = mat_mul(ws.x, ws.u, out=ws.m, work=ws.rest)
            op_norm(np.subtract(lhs, eye, out=lhs), out=ws.res, work=ws.rest)
            np.copyto(ws.res, 0.0, where=skip)
            # np.maximum, unlike max(), keeps a nan from a conditioned lane
            worst = np.maximum(worst, ws.res.max())
    return float(worst), skipped


def inverse_identity_sweep(mesh, mus=MU_PROBES):
    """Max inverse-identity residual over mesh x probe values, conditioned cases only.

    Points where cond(I - mu ab) exceeds COND_LIMIT are skipped; a point
    whose condition number is nan is not, so its nan reaches the maximum.
    mat_inv's SingularMatrix guard cannot fire here: a lane kept at
    cond = smax^2 / |det| <= COND_LIMIT = 1e6 has |det| >= 1e-6 smax^2,
    while the guard fires only at |det| <= 1e-14 smax^2 (SINGULARITY_RTOL),
    eight orders lower, and a nan lane fails the guard's <=. Returns
    (max_residual, skipped_count), which sweep folds by np.maximum and sum.
    """
    return sweep(partial(_inverse_identity_chunk, mus=mus), mesh, _INVERSE_LAYOUT, _tables, (np.maximum, sum))


@dataclass(frozen=True)
class IdentityResiduals:
    """Worst-case deviations of the closed-form identities over a mesh (operator norm)."""

    ab_vs_c: float
    ba_vs_diag: float
    phi_unit_modulus: float
    a_rank_one: float
    b_rank_one: float
    ab_eigenvalues: float


def _ba_residual(b, a, ba, diag, r, work, norm_work):
    """max ||(1 - 2ba) - diag(x)|| over a chunk, as a float: for the identities and certify's path start.

    ba receives b a, then 1 - 2ba, then the difference, and r the norms;
    work is mat_mul's scratch (1 plane) and norm_work op_norm's (2).
    diag() returns the Field to subtract, diag(phi, 1) or H(x, 0); it is
    called once b a is formed, so it may write into the planes of a or b.
    """
    np.subtract(eye_like(ba), np.multiply(2.0, mat_mul(b, a, out=ba, work=work), out=ba), out=ba)
    return float(op_norm(np.subtract(ba, diag(), out=ba), out=r, work=norm_work).max())


# the workspace of one identity chunk, 27 planes
_IDENTITY_LAYOUT = Layout(
    a=FIELD, b=FIELD, ab=FIELD, t=FIELD, c=FIELD,
    w=PLANE,
    s=PLANE,
    r=FLOAT,
    scratch=planes(4),
    # the eigenvalue pairs, expected and computed, in planes of c and t
    lo_hi=planes(2, over="c"),
    got=planes(2, over="t"),
)


def _identity_chunk(x0, x1, x2, ws, lat):
    """identity_residuals' six maxima on one chunk; ws is _IDENTITY_LAYOUT cut to it, lat its _tables."""
    field_a(x0, x1, x2, out=ws.a, lat=lat)
    field_b(x0, x1, x2, out=ws.b, lat=lat)
    mat_mul(ws.a, ws.b, out=ws.ab, work=ws.scratch)
    eye = eye_like(ws.ab)

    # 1 - 2ab = c
    np.subtract(eye, np.multiply(2.0, ws.ab, out=ws.t), out=ws.t)
    np.subtract(ws.t, field_c(x0, x1, x2, out=ws.c, work=ws.scratch, lat=lat), out=ws.t)
    r_ab = op_norm(ws.t, out=ws.r, work=ws.scratch).max()

    # 1 - 2ba = diag(phi, 1), and |phi| = 1; phi in w, which is free until
    # w = 1/(1 + i z2) below
    r_ba = _ba_residual(ws.b, ws.a, ws.t, lambda: planar(_fill_tables(ws.w, lat, "phi"), 0.0, 0.0, 1.0, out=ws.c),
                        ws.r, ws.scratch, ws.scratch)
    r_phi = np.abs(np.subtract(np.abs(ws.w, out=ws.r), 1.0, out=ws.r), out=ws.r).max()

    # a^2 = (z0 w) a and b^2 = (conj(z0) w) b, w = 1/(1 + i z2)
    _fill_tables(ws.w, lat, "w")
    np.multiply(np.multiply(x0, ws.w, out=ws.s), ws.a, out=ws.c)
    mat_mul(ws.a, ws.a, out=ws.t, work=ws.scratch)
    r_a2 = op_norm(np.subtract(ws.t, ws.c, out=ws.t), out=ws.r, work=ws.scratch).max()
    np.multiply(np.multiply(np.conjugate(x0, out=ws.s), ws.w, out=ws.s), ws.b, out=ws.c)
    mat_mul(ws.b, ws.b, out=ws.t, work=ws.scratch)
    r_b2 = op_norm(np.subtract(ws.t, ws.c, out=ws.t), out=ws.r, work=ws.scratch).max()

    # eig(ab) = {0, product eigenvalue}, both sorted
    lam = _fill_tables(ws.w, lat, "lam")
    ws.s.fill(0.0)
    lo_hi = sort_pair(ws.s, lam, out=ws.lo_hi, work=ws.scratch)
    lo, hi = np.subtract(eig2(ws.ab, out=ws.got, work=ws.scratch), lo_hi, out=ws.got)
    r_eig = np.maximum(np.abs(lo, out=ws.r).max(), np.abs(hi, out=ws.r).max())
    # a tuple display, not tuple() of a generator (see linalg2._rows)
    return float(r_ab), r_ba, float(r_phi), float(r_a2), float(r_b2), float(r_eig)


def identity_residuals(mesh):
    """Sweep the algebra identities over a mesh, returning per-identity maxima.

    Checked against closed forms derived by hand:
    a^2 = (z0/(1+i z2)) a, b^2 = (conj z0/(1+i z2)) b (rank-one algebra),
    1-2ab = c, 1-2ba = diag(phi, 1), and eig(ab) = {product eigenvalue, 0}.
    sweep folds each maximum over the chunks by np.maximum, so a nan at any
    point reaches it.
    """
    return IdentityResiduals(*sweep(_identity_chunk, mesh, _IDENTITY_LAYOUT, _tables, (np.maximum,) * 6))
