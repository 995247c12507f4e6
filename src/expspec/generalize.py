"""The same construction one matrix dimension up: C(S^{2n}, Mn(C)).

With z = (z_0, ..., z_{n-1}) the complex part of a point of S^{2n} and
zn its real latitude coordinate,

    a(z, zn) = (z outer e1) / (1 + i zn)   -- first column z, rest zero,
    b(z, zn) = (e1 outer z) / (1 + i zn)   -- first row conj(z), rest zero.

The n = 2 case reduces bitwise to the algebra module. The identities
survive verbatim: 1 - 2ba = diag(phi(zn), 1, ..., 1), 1 - 2ab =
I - 2 z z^H / (1 + i zn)^2, and the nonzero pointwise eigenvalue of both
products is (1 - zn^2)/(1 + i zn)^2. Only this algebraic layer is
machine-checked (for n in {2, 3}); the homotopy obstruction in higher
dimensions is out of scope here and the reports label it as asserted,
not verified.

Meshes are offset product grids: latitudes zn = cos(psi_j) inclusive of
the poles (stored once), crossed with a hyperspherical grid on S^{2n-1}
whose modulus angles sit on half-offset grids (no degenerate rings) and
whose n phases are equispaced on [0, 2pi).

family_identity_check runs in blocks of BLOCK_POINTS mesh points. Each
matrix's SVD and eigenvalues depend on that matrix alone and a max is
exact in any order, so the blocks change no value.
"""

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .algebra import phi

__all__ = [
    "UnsupportedN",
    "GenMesh",
    "mesh_s2n",
    "eval_a_n",
    "eval_b_n",
    "family_identity_check",
]

SUPPORTED_N = (2, 3)
BLOCK_POINTS = 2048  # mesh points per block of family_identity_check


class UnsupportedN(ValueError):
    """Matrix dimension outside the verified range."""


@dataclass(frozen=True)
class GenMesh:
    """Points of S^{2n}: complex coordinates z (N, n) and real latitude zn (N,)."""

    n: int
    z: np.ndarray
    zn: np.ndarray

    def __len__(self):
        return self.z.shape[0]


def _moduli_rows(n, moduli_count):
    """Radius vectors (rho_1..rho_n) from half-offset spherical angles."""
    angles = (np.arange(moduli_count) + 0.5) * (np.pi / 2) / moduli_count
    rows = []
    for combo in product(range(moduli_count), repeat=n - 1):
        rho = []
        sin_prod = 1.0
        for k in range(n - 1):
            eta = angles[combo[k]]
            rho.append(sin_prod * math.cos(eta))
            sin_prod *= math.sin(eta)
        rho.append(sin_prod)
        rows.append(rho)
    return np.array(rows)


def mesh_s2n(n, lat_count, moduli_count, phase_count):
    """Deterministic product mesh on S^{2n} (poles stored once)."""
    if lat_count < 3:
        raise ValueError("lat_count must be >= 3")
    rho = _moduli_rows(n, moduli_count)  # (R, n)
    phases = np.exp(2j * np.pi * np.arange(phase_count) / phase_count)
    # all phase combinations for the n coordinates
    grids = np.meshgrid(*([phases] * n), indexing="ij")
    ph = np.stack([g.ravel() for g in grids], axis=-1)  # (P^n, n)
    shell = (rho[:, None, :] * ph[None, :, :]).reshape(-1, n)  # (R*P^n, n)

    zs, zns = [], []
    for j in range(lat_count):
        psi = math.pi * j / (lat_count - 1)
        c, s = math.cos(psi), math.sin(psi)
        if j == 0 or j == lat_count - 1:
            zs.append(np.zeros((1, n), dtype=np.complex128))
            zns.append(np.array([1.0 if j == 0 else -1.0]))
        else:
            zs.append(s * shell)
            zns.append(np.full(shell.shape[0], c))
    return GenMesh(n=n, z=np.concatenate(zs), zn=np.concatenate(zns))


def eval_a_n(z, zn):
    """Stack of n x n matrices with first column z/(1 + i zn), other columns zero."""
    z = np.asarray(z, dtype=np.complex128)
    zn = np.asarray(zn, dtype=np.float64)
    n = z.shape[-1]
    w = 1.0 / (1.0 + 1j * zn)
    out = np.zeros(z.shape[:-1] + (n, n), dtype=np.complex128)
    out[..., :, 0] = z * w[..., None]
    return out


def eval_b_n(z, zn, _conjugate=True):
    """Stack of n x n matrices with first row conj(z)/(1 + i zn), other rows zero.

    The transpose of eval_a_n(conj(z), zn), so its row conj(z) w is the
    product that forms a_n's column. The copy keeps b @ a on the matmul
    path of a C-contiguous b. `_conjugate=False` is a sabotage hook for
    negative-control tests.
    """
    z = np.asarray(z, dtype=np.complex128)
    return np.ascontiguousarray(eval_a_n(np.conj(z) if _conjugate else z, zn).swapaxes(-1, -2))


def _finite_lanes(fn, m):
    """fn over a stack of matrices, with a nan row for each non-finite matrix.

    np.linalg.svd and eigvals raise LinAlgError for a whole stack that
    holds one nan or inf entry; only the finite matrices reach fn, so one
    bad point reads as a nan residual, not a traceback.
    """
    finite = np.isfinite(m).all(axis=(-2, -1))
    values = fn(m[finite])
    out = np.full(m.shape[:-1], np.nan, dtype=values.dtype)
    out[finite] = values
    return out


def _op_norm_n(m):
    return _finite_lanes(lambda f: np.linalg.svd(f, compute_uv=False), m)[..., 0]


def _block_residuals(z, zn, conjugate):
    """The three identity residuals, each a max over one block of points."""
    n = z.shape[-1]
    a = eval_a_n(z, zn)
    b = eval_b_n(z, zn, _conjugate=conjugate)
    eye = np.eye(n, dtype=np.complex128)
    w = 1.0 / (1.0 + 1j * zn)

    ba = eye - 2.0 * (b @ a)
    diag = np.zeros_like(ba)
    diag[..., range(n), range(n)] = 1.0
    diag[..., 0, 0] = phi(zn)
    r1 = _op_norm_n(ba - diag).max()

    ab = eye - 2.0 * (a @ b)
    outer = z[..., :, None] * np.conj(z)[..., None, :]
    closed = eye - 2.0 * (w * w)[..., None, None] * outer
    r2 = _op_norm_n(ab - closed).max()

    lam = (1.0 - zn * zn) * w * w
    expected = np.zeros(z.shape[:-1] + (n,), dtype=np.complex128)
    expected[..., 0] = lam
    expected = np.sort(expected)
    got = np.sort(_finite_lanes(np.linalg.eigvals, a @ b))
    r3 = np.abs(got - expected).max()
    return np.array([r1, r2, r3])


def family_identity_check(n, mesh, _conjugate=True):
    """Max deviation over the mesh of the three closed-form identities.

    Verifies 1-2ba against diag(phi, 1, ..., 1), 1-2ab against the
    rank-one closed form, and the eigenvalues of ab against
    {(1-zn^2)/(1+i zn)^2, 0, ...}. `_conjugate=False`, eval_b_n's
    sabotage hook, builds b without the conjugation, which must push the
    residual above 0.1. A point with a non-finite z coordinate makes the
    result nan, with no floating-point warning; a zn outside [-1, 1], an
    infinite one included, raises DomainError from phi.
    """
    if n not in SUPPORTED_N:
        raise UnsupportedN(f"n must be one of {SUPPORTED_N}")
    if mesh.n != n:
        raise ValueError("mesh dimension does not match n")
    blocks = [slice(i, i + BLOCK_POINTS) for i in range(0, len(mesh), BLOCK_POINTS)]
    # inf * 0 and inf - inf in a block's products give the nan lanes that the fold keeps
    with np.errstate(invalid="ignore", over="ignore"):
        worst = [_block_residuals(mesh.z[rows], mesh.zn[rows], _conjugate) for rows in blocks]
    # np.maximum, unlike max(), keeps a nan from any block and any residual
    return float(np.maximum.reduce(worst).max())
