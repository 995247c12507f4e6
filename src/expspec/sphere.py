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

The poles (0, 0, +-1) appear once each, and the latitude cosines are
snapped so the poles and the equator ring are exact (z2 in {1, 0, -1}
bitwise, sin(psi) = 1 exactly on the equator). lat_count must therefore
be odd, so that the equator latitude exists.

A mesh stores no points. SphereMesh4 is a closed-form description: the
counts, the latitude cosines and sines, the phase table
e^{2 pi i k / shell_count} and the shell coordinates cos(eta) e^{i xi1},
sin(eta) e^{i xi2} of the interior eta rows, one table row per eta. The
points are numbered flat, north pole first, then the latitudes north to
south (each one shell grid in the order above, eta rows outermost, then
xi1, then xi2), then the south pole. The coordinates of any index range
are computed on demand, each as s * w with s = sin(psi_j) and the shell
coordinate w = cos(eta) e^{i xi1} (or sin(eta) e^{i xi2}) formed first,
so a point does not depend on which range it was computed in. Latitude
j, 0 < j < lat_count - 1, is the range [1 + (j - 1) S, 1 + j S) with S
the shell point count, and its first point is (sin(psi_j), 0, cos(psi_j)).
Every read of a mesh goes through SphereMesh4.chunks, which yields
consecutive ranges in three reused buffers, so a sweep's memory does not
grow with the mesh: --lat 2049 --shell 256 is 8.45e9 points.

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

from .linalg2 import aligned

__all__ = [
    "InvalidResolution",
    "SpherePoint3",
    "SpherePoint4",
    "SphereMesh4",
    "shell_point_count",
    "mesh_s4",
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


def _eta_steps(shell_count):
    return max(2, math.ceil(shell_count / 4))


def shell_point_count(shell_count):
    return (_eta_steps(shell_count) - 1) * shell_count**2 + 2 * shell_count


def _spread(dst, table, offset, width, outer):
    """dst[t] = table[(offset + t) // width] if outer, else table[(offset + t) % width]."""
    row, col = divmod(offset, width)
    n = len(dst)
    head = min(n, width - col) if col else 0
    if head:
        dst[:head] = table[row] if outer else table[col : col + head]
        row += 1
    full = (n - head) // width
    body = dst[head : head + full * width].reshape(full, width)
    body[...] = table[row : row + full, None] if outer else table
    tail = n - head - full * width
    if tail:
        dst[n - tail :] = table[row + full] if outer else table[:tail]


@dataclass(frozen=True)
class SphereMesh4:
    """Deterministic product mesh on the 4-sphere: a closed-form description.

    It stores no point arrays (see the module docstring for the order of
    the points). len(mesh) is exact, point(i) is closed form, and chunks()
    yields the coordinates of consecutive index ranges with their latitude
    runs. Every route gives the same bits for the same point. The chunks
    are views of buffers that the next chunk overwrites, so a kernel must
    not keep them.
    """

    lat_count: int
    shell_count: int
    covering_radius: float
    z2_values: np.ndarray = field(repr=False)  # cos(psi_j), one per latitude
    lat_sines: np.ndarray = field(repr=False)  # sin(psi_j), one per latitude
    phases: np.ndarray = field(repr=False)  # e^{2 pi i k / shell_count}
    cos_rows: np.ndarray = field(repr=False)  # cos(eta_m) * phases, interior eta rows m = 1 .. K-1
    sin_rows: np.ndarray = field(repr=False)  # sin(eta_m) * phases

    @property
    def shell_size(self):
        return shell_point_count(self.shell_count)

    def __len__(self):
        return 2 + (self.lat_count - 2) * self.shell_size

    def point(self, i):
        if not 0 <= i < len(self):
            raise IndexError(f"mesh index {i} out of range")
        z0, z1, z2, _ = next(self.chunks(1, i, i + 1))
        return SpherePoint4(complex(z0[0]), complex(z1[0]), float(z2[0]))

    def chunks(self, size, start=0, stop=None):
        """Yield (z0, z1, z2, runs) for the index ranges [i, i + size) of [start, stop).

        runs is latitude_runs of the range, by which _fill writes z2 and a
        sweep fills its latitude tables (linalg2._fill_tables). The arrays
        are views of three buffers that every chunk overwrites, so a
        consumer must not keep them past its own chunk. Each buffer starts
        on a 64-byte boundary (linalg2.aligned).
        """
        stop = len(self) if stop is None else stop
        b0, b1, b2 = [aligned((min(size, stop - start),), dtype) for dtype in (np.complex128, np.complex128, np.float64)]
        for i in range(start, stop, size):
            # a tuple display: tuple() of a generator would leave one more
            # tuple on CPython's free list per chunk (see linalg2._rows)
            n = min(size, stop - i)
            chunk = (b0[:n], b1[:n], b2[:n], self.latitude_runs(i, n))
            self._fill(i, *chunk)
            yield chunk

    def arrays(self):
        """Every point as three new arrays (z0, z1, z2).

        A materializing helper for tests and demos: it holds the whole mesh
        in memory, so no module of the package calls it.
        """
        # the only chunk of a generator dropped at once: nothing overwrites it
        return next(self.chunks(len(self)))[:3]

    def latitude_runs(self, i, n):
        """The latitude runs of the points [i, i + n): a list of (j, k, m), in mesh order.

        The points k .. k + m - 1 of the range lie on latitude j, so their z2
        is z2_values[j]. The runs cover the range; a pole is a run of one
        point, and the other runs are cut at the range's ends and at the
        latitude boundaries only.
        """
        shell = self.shell_size
        last = 1 + (self.lat_count - 2) * shell  # the south pole
        runs, k = [], 0
        while k < n:
            p = i + k
            if p == 0 or p == last:
                j, m = (0 if p == 0 else self.lat_count - 1), 1
            else:
                j, r = divmod(p - 1, shell)
                j, m = j + 1, min(n - k, shell - r)
            runs.append((j, k, m))
            k += m
        return runs

    def _fill(self, i, z0, z1, z2, runs):
        """Write the points [i, i + len(z2)), whose latitude runs are runs, into z0, z1, z2."""
        for j, k, m in runs:
            x0, x1 = z0[k : k + m], z1[k : k + m]
            z2[k : k + m] = self.z2_values[j]
            if j == 0 or j == self.lat_count - 1:
                x0[...] = 0.0
                x1[...] = 0.0
            else:
                self._fill_shell(i + k - 1 - (j - 1) * self.shell_size, x0, x1)
                s = float(self.lat_sines[j])
                np.multiply(s, x0, out=x0)
                np.multiply(s, x1, out=x1)

    def _fill_shell(self, r, w0, w1):
        """Write the shell grid points [r, r + len(w0)) into w0, w1."""
        s = self.shell_count
        last = self.shell_size - s  # start of the eta = pi/2 ring
        k, n = 0, len(w0)
        while k < n:
            if r < s:  # eta = 0 ring: (e^{i xi1}, 0)
                m = min(n - k, s - r)
                w0[k : k + m] = self.phases[r : r + m]
                w1[k : k + m] = 0.0
            elif r >= last:  # eta = pi/2 ring: (0, e^{i xi2})
                m = n - k
                w0[k:] = 0.0
                w1[k:] = self.phases[r - last : r - last + m]
            else:  # interior row: xi1 varies along rows, xi2 along columns
                row, q = divmod(r - s, s * s)
                m = min(n - k, s * s - q)
                _spread(w0[k : k + m], self.cos_rows[row], q, s, outer=True)
                _spread(w1[k : k + m], self.sin_rows[row], q, s, outer=False)
            k += m
            r += m


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
    """Describe the product mesh; lat_count odd >= 3, shell_count >= 8."""
    lat_count = int(lat_count)
    shell_count = int(shell_count)
    if lat_count < 3 or lat_count % 2 == 0:
        raise InvalidResolution("lat_count must be an odd integer >= 3")
    if shell_count < 8:
        raise InvalidResolution("shell_count must be >= 8")
    k = _eta_steps(shell_count)
    etas = [(math.pi / 2) * (m / k) for m in range(1, k)]
    phases = np.exp(2j * np.pi * np.arange(shell_count) / shell_count)
    lat = np.array([_latitude_cos_sin(j, lat_count) for j in range(lat_count)])
    d_eta = (math.pi / 2) / k
    d_xi = 2 * math.pi / shell_count
    covering = math.pi / (2 * (lat_count - 1)) + 0.5 * math.hypot(d_eta, d_xi)
    return SphereMesh4(
        lat_count=lat_count,
        shell_count=shell_count,
        covering_radius=covering,
        z2_values=lat[:, 0].copy(),
        lat_sines=lat[:, 1].copy(),
        phases=phases,
        cos_rows=np.array([math.cos(eta) for eta in etas])[:, None] * phases,
        sin_rows=np.array([math.sin(eta) for eta in etas])[:, None] * phases,
    )
