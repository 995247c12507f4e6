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

from .linalg2 import cond2, eig2, eye_like, mat_inv, mat_mul, op_norm, planar, sort_pair

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
    "check_inverse_identity",
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

# sweep granularity: a chunk Field of 2^13 points is 512 KiB, so the planes a
# kernel hands from one ufunc step to the next stay in a 2 MiB L2 cache. The
# value came from a scan of 2^11 to 2^19 (CHANGES.md); results do not depend
# on CHUNK.
CHUNK = 1 << 13


class DomainError(ValueError):
    """Argument outside the function's documented domain."""


def sweep(kernel, *arrays):
    """Apply kernel to consecutive CHUNK-long slices of equal-length arrays.

    Returns the per-chunk results in array order. The slices are views, so
    a kernel can write its output into the slice of an array passed for
    that purpose. Every kernel given here is pointwise, so the folded
    results do not depend on CHUNK.
    """
    return [kernel(*(x[i : i + CHUNK] for x in arrays)) for i in range(0, len(arrays[0]), CHUNK)]


def _coords(z0, z1, z2):
    z0 = np.asarray(z0, dtype=np.complex128)
    z1 = np.asarray(z1, dtype=np.complex128)
    z2 = np.asarray(z2, dtype=np.float64)
    return z0, z1, z2


def phi(z2):
    """phi(z2) = -((1 - i z2)/(1 + i z2))^2, unit modulus on [-1, 1].

    phi(0) = -1, phi(+-1) = 1. Inputs within 1e-12 of the interval are
    clamped (guards one-ulp overshoot in convex combinations); anything
    further out raises DomainError.
    """
    z2 = np.asarray(z2, dtype=np.float64)
    if np.any(np.abs(z2) > 1.0 + 1e-12):
        raise DomainError("phi requires z2 in [-1, 1]")
    z2 = np.clip(z2, -1.0, 1.0)
    w = (1.0 - 1j * z2) / (1.0 + 1j * z2)
    return -(w * w)


def field_one(z0, z1, z2):
    z0, z1, z2 = _coords(z0, z1, z2)
    return planar(np.ones(np.broadcast(z0, z1, z2).shape), 0.0, 0.0, 1.0)


def field_a(z0, z1, z2):
    """First column (z0, z1)/(1 + i z2), second column zero."""
    z0, z1, z2 = _coords(z0, z1, z2)
    w = 1.0 / (1.0 + 1j * z2)
    return planar(z0 * w, 0.0, z1 * w, 0.0)


def field_b(z0, z1, z2):
    """First row (conj z0, conj z1)/(1 + i z2), second row zero."""
    z0, z1, z2 = _coords(z0, z1, z2)
    w = 1.0 / (1.0 + 1j * z2)
    return planar(np.conj(z0) * w, np.conj(z1) * w, 0.0, 0.0)


def field_c(z0, z1, z2):
    """The closed-form unitary map c (oracle for 1 - 2ab, never its computation path)."""
    z0, z1, z2 = _coords(z0, z1, z2)
    w = 1.0 / (1.0 + 1j * z2)
    beta = w * w
    return planar(
        1.0 - 2.0 * beta * z0 * np.conj(z0),
        -2.0 * beta * z0 * np.conj(z1),
        -2.0 * beta * z1 * np.conj(z0),
        1.0 - 2.0 * beta * z1 * np.conj(z1),
    )


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
    w = 1.0 / (1.0 + 1j * z2)
    return (1.0 - z2 * z2) * w * w


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


def _inverse_identity_residual(a, b, ba, m, mu, where=True):
    """Pointwise ||(I - mu ba)(I + mu b u a) - I|| with u = m^{-1}, m = I - mu ab.

    Only the lanes selected by `where` are guarded by mat_inv's
    singularity threshold; the others may come out inf or nan.
    """
    eye = eye_like(m)
    u = mat_inv(m, where=where)
    lhs = mat_mul(eye - mu * ba, eye + mu * mat_mul(b, mat_mul(u, a)))
    return op_norm(lhs - eye)


def check_inverse_identity(z0, z1, z2, mu):
    """Residual ||(I - mu ba)(I + mu b u a) - I|| with u = (I - mu ab)^{-1}.

    Zero in exact arithmetic whenever I - mu ab is invertible; raises
    SingularMatrix (from mat_inv) when it is not. For condition numbers
    up to 1e6 the residual stays below 1e-10.
    """
    a = field_a(z0, z1, z2)
    b = field_b(z0, z1, z2)
    ab = mat_mul(a, b)
    return _inverse_identity_residual(a, b, mat_mul(b, a), eye_like(ab) - mu * ab, mu)


def _inverse_identity_chunk(z0, z1, z2, mus, cond_limit):
    a = field_a(z0, z1, z2)
    b = field_b(z0, z1, z2)
    ab = mat_mul(a, b)
    ba = mat_mul(b, a)
    eye = eye_like(ab)
    worst = 0.0
    skipped = 0
    for mu in mus:
        m = eye - mu * ab
        ok = cond2(m) <= cond_limit
        skipped += int(np.count_nonzero(~ok))
        if not np.any(ok):
            continue
        # unconditioned lanes may overflow to inf or nan; the mask drops them
        with np.errstate(over="ignore", invalid="ignore"):
            res = _inverse_identity_residual(a, b, ba, m, mu, where=ok)
            # np.maximum, unlike max(), keeps a nan from a conditioned lane
            worst = np.maximum(worst, np.where(ok, res, 0.0).max())
    return float(worst), skipped


def inverse_identity_sweep(mesh, mus=MU_PROBES, cond_limit=1e6):
    """Max inverse-identity residual over mesh x probe values, conditioned cases only.

    Points where cond(I - mu ab) exceeds cond_limit are skipped; a
    conditioned point below the singularity threshold still raises
    SingularMatrix. Returns (max_residual, skipped_count).
    """
    parts = sweep(lambda *x: _inverse_identity_chunk(*x, mus, cond_limit), *mesh.arrays())
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


def _identity_chunk(x0, x1, x2):
    a = field_a(x0, x1, x2)
    b = field_b(x0, x1, x2)
    ab = mat_mul(a, b)
    eye = eye_like(ab)

    r_ab = op_norm((eye - 2.0 * ab) - field_c(x0, x1, x2)).max()

    ph = phi(x2)
    r_ba = op_norm((eye - 2.0 * mat_mul(b, a)) - planar(ph, 0.0, 0.0, 1.0)).max()
    r_phi = np.abs(np.abs(ph) - 1.0).max()

    w = 1.0 / (1.0 + 1j * x2)
    r_a2 = op_norm(mat_mul(a, a) - (x0 * w) * a).max()
    r_b2 = op_norm(mat_mul(b, b) - (np.conj(x0) * w) * b).max()

    lam = product_eigenvalue(x2)
    lo, hi = sort_pair(np.zeros_like(lam), lam)
    got_lo, got_hi = eig2(ab)
    r_eig = np.maximum(np.abs(got_lo - lo).max(), np.abs(got_hi - hi).max())
    return tuple(float(r) for r in (r_ab, r_ba, r_phi, r_a2, r_b2, r_eig))


def identity_residuals(mesh):
    """Sweep the algebra identities over a mesh, returning per-identity maxima.

    Checked against closed forms derived by hand:
    a^2 = (z0/(1+i z2)) a, b^2 = (conj z0/(1+i z2)) b (rank-one algebra),
    1-2ab = c, 1-2ba = diag(phi, 1), and eig(ab) = {product eigenvalue, 0}.
    """
    parts = sweep(_identity_chunk, *mesh.arrays())
    # np.maximum, unlike max(), keeps a nan from any chunk
    return IdentityResiduals(*(float(np.maximum.reduce(column)) for column in zip(*parts)))
