"""Spheres in complex coordinates and deterministic product meshes.

The 3-sphere is {(w0, w1) in C^2 : |w0|^2 + |w1|^2 = 1}; the 4-sphere is
embedded as {(z0, z1, z2) in C^2 x R : |z0|^2 + |z1|^2 + z2^2 = 1}, i.e.
the last complex coordinate is restricted to be real.

Meshes are closed-form product grids. Latitudes take z2 = cos(psi_j) for
psi_j equispaced on [0, pi] (lat_count values, endpoints included), and
each non-polar latitude carries a copy of an S^3 grid in Hopf coordinates

    w0 = cos(eta) e^{i xi1},   w1 = sin(eta) e^{i xi2},

with xi1, xi2 equispaced on [0, 2pi) (shell_count values each) and eta
equispaced on [0, pi/2] with K = max(2, ceil(shell_count/4)) steps, so the
eta spacing pi/(2K) matches the phase spacing 2pi/shell_count. The rows
eta = 0 and eta = pi/2 degenerate to circles and are emitted once each:

    shell point count = (K - 1) * shell_count^2 + 2 * shell_count.

The poles (0, 0, +-1) are stored once each, and the latitude cosines are
snapped so the poles and the equator ring are exact (z2 in {1, 0, -1}
bitwise, sin(psi) = 1 exactly on the equator). lat_count must therefore
be odd, so that the equator latitude exists.

The covering radius of the full mesh (largest geodesic distance from any
point of the sphere to the mesh) is bounded by

    pi/(2 (lat_count-1)) + 0.5 * hypot(d_eta, d_xi),

with d_eta = pi/(2K) and d_xi = 2pi/shell_count. Proof: write a point x
of S^4 as (sin(psi) w, cos(psi)) with w = (cos(eta) e^{i xi1},
sin(eta) e^{i xi2}) in S^3, so the metric is

    |dx|^2 = dpsi^2 + sin^2(psi) (deta^2 + cos^2(eta) dxi1^2
                                         + sin^2(eta) dxi2^2).

  * The latitude move: hold w and move psi to the nearest psi_j. That
    meridian arc has length |psi - psi_j| <= pi/(2 (lat_count-1)). If
    psi_j is a pole, the arc ends on the stored pole.
  * The move on the latitude sphere, of radius sin(psi_j) <= 1: move
    (eta, xi1, xi2) along a straight coordinate path to the nearest grid
    values, with |d eta| <= d_eta/2 and |d xi1|, |d xi2| <= d_xi/2 (the
    phases wrap around). The speed squared along it is at most
    (d_eta/2)^2 + (cos^2(eta) + sin^2(eta)) (d_xi/2)^2, so the path is no
    longer than hypot(d_eta/2, d_xi/2). Where the nearest eta row is 0 or
    pi/2, the endpoint's unused phase does not change the point, so it is
    the stored ring point.

The two paths join x to a mesh point, so their total length bounds the
geodesic distance. The bound is stored on the mesh and drives every
discretization-slack argument downstream.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "InvalidResolution",
    "SpherePoint3",
    "SpherePoint4",
    "SphereMesh4",
    "s3_shell_grid",
    "shell_point_count",
    "mesh_s4",
    "equator_mesh",
]


class InvalidResolution(ValueError):
    """Mesh resolution parameters outside the documented bounds."""


class SpherePoint3(NamedTuple):
    w0: complex
    w1: complex


class SpherePoint4(NamedTuple):
    z0: complex
    z1: complex
    z2: float


def s3_shell_grid(shell_count):
    """The documented S^3 Hopf-coordinate grid as two complex arrays (w0, w1)."""
    if shell_count < 8:
        raise InvalidResolution("shell_count must be >= 8")
    s = int(shell_count)
    k = max(2, math.ceil(s / 4))
    phases = np.exp(2j * np.pi * np.arange(s) / s)
    w0_parts = [phases]  # eta = 0 ring: (e^{i xi1}, 0)
    w1_parts = [np.zeros(s, dtype=np.complex128)]
    for m in range(1, k):
        eta = (np.pi / 2) * (m / k)
        ce, se = math.cos(eta), math.sin(eta)
        # xi1 varies along rows, xi2 along columns; row-major flatten
        w0 = np.repeat(ce * phases, s)
        w1 = np.tile(se * phases, s)
        w0_parts.append(w0)
        w1_parts.append(w1)
    w0_parts.append(np.zeros(s, dtype=np.complex128))  # eta = pi/2 ring: (0, e^{i xi2})
    w1_parts.append(phases)
    return np.concatenate(w0_parts), np.concatenate(w1_parts)


def shell_point_count(shell_count):
    k = max(2, math.ceil(shell_count / 4))
    return (k - 1) * shell_count**2 + 2 * shell_count


@dataclass(frozen=True)
class SphereMesh4:
    """Deterministic product mesh on the 4-sphere (immutable, shareable).

    Points are stored flat, ordered north pole, latitudes north to south
    (each latitude one shell-grid copy in fixed order), south pole.
    """

    lat_count: int
    shell_count: int
    z0: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    covering_radius: float
    lat_slices: tuple = field(repr=False)
    z2_values: np.ndarray = field(repr=False)

    def __len__(self):
        return self.z0.shape[0]

    def point(self, i):
        return SpherePoint4(complex(self.z0[i]), complex(self.z1[i]), float(self.z2[i]))

    @property
    def equator_slice(self):
        return self.lat_slices[(self.lat_count - 1) // 2]

    def arrays(self):
        return self.z0, self.z1, self.z2


def _latitude_cos_sin(j, lat_count):
    # snapped so poles and equator are exact
    if j == 0:
        return 1.0, 0.0
    if j == lat_count - 1:
        return -1.0, 0.0
    if 2 * j == lat_count - 1:
        return 0.0, 1.0
    psi = math.pi * j / (lat_count - 1)
    return math.cos(psi), math.sin(psi)


def mesh_s4(lat_count, shell_count):
    """Build the product mesh; lat_count odd >= 3, shell_count >= 8."""
    lat_count = int(lat_count)
    shell_count = int(shell_count)
    if lat_count < 3 or lat_count % 2 == 0:
        raise InvalidResolution("lat_count must be an odd integer >= 3")
    if shell_count < 8:
        raise InvalidResolution("shell_count must be >= 8")
    w0, w1 = s3_shell_grid(shell_count)
    n_shell = w0.shape[0]
    k = max(2, math.ceil(shell_count / 4))

    z0_parts, z1_parts, z2_parts, slices = [], [], [], []
    start = 0
    for j in range(lat_count):
        c, s = _latitude_cos_sin(j, lat_count)
        if s == 0.0:  # poles stored once
            z0_parts.append(np.zeros(1, dtype=np.complex128))
            z1_parts.append(np.zeros(1, dtype=np.complex128))
            z2_parts.append(np.full(1, c))
            size = 1
        else:
            z0_parts.append(s * w0)
            z1_parts.append(s * w1)
            z2_parts.append(np.full(n_shell, c))
            size = n_shell
        slices.append(slice(start, start + size))
        start += size

    d_eta = (math.pi / 2) / k
    d_xi = 2 * math.pi / shell_count
    covering = math.pi / (2 * (lat_count - 1)) + 0.5 * math.hypot(d_eta, d_xi)
    return SphereMesh4(
        lat_count=lat_count,
        shell_count=shell_count,
        z0=np.concatenate(z0_parts),
        z1=np.concatenate(z1_parts),
        z2=np.concatenate(z2_parts),
        covering_radius=covering,
        lat_slices=tuple(slices),
        z2_values=np.array([_latitude_cos_sin(j, lat_count)[0] for j in range(lat_count)]),
    )


def equator_mesh(shell_count):
    """The S^3 grid embedded at z2 = 0, as arrays (z0, z1, z2).

    Bit-identical to the equator latitude of any mesh_s4 with the same
    shell_count (sin(psi) is snapped to exactly 1 there).
    """
    w0, w1 = s3_shell_grid(shell_count)
    return w0.copy(), w1.copy(), np.zeros(w0.shape[0])
