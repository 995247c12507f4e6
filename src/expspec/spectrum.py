"""Sampled global spectra and Hausdorff comparisons against analytic targets.

For a matrix-valued f on a compact space, the spectrum of f as a Banach
algebra element is the closure of the union over x of the pointwise
eigenvalues. On a mesh this becomes a finite eigenvalue cloud, collected
with the closed-form 2x2 solver, deduplicated on a 1e-12 grid, and sorted
lexicographically -- a deterministic under-approximation whose outer
error is controlled by the mesh covering radius times an eigenvalue
continuity factor that the module also reports.

The analytic targets here are the circle C with centre 1/2 and radius
1/2 (the spectrum of both ab and ba), the unit circle T (the spectrum of
both normalized products), and the closed disk D bounded by C. For the
two built-in products the nonzero cloud values land exactly on C, which
is what makes the commutativity comparison (nonzero spectrum of ab
versus ba) essentially exact; the genuinely different behaviour of the
two elements only appears in the exponential spectrum, certified in the
homotopy module, with the disk verdict for ab resting on the boundary
inclusion chain (the boundary of the exponential spectrum is contained
in the spectrum, which is contained in the exponential spectrum).
"""

from dataclasses import dataclass

import numpy as np

from .algebra import ELEMENTS, MU_PROBES, inverse_identity_sweep, sweep
from .linalg2 import eig2

__all__ = [
    "SpectrumEstimate",
    "TargetSet",
    "CIRCLE_C",
    "DISK_D",
    "UNIT_CIRCLE_T",
    "sample_spectrum",
    "drop_zeros",
    "hausdorff_to_target",
    "cloud_hausdorff",
    "eigenvalue_lipschitz",
    "commutativity_check",
    "cloud_to_csv",
    "cloud_to_svg",
    "DEDUP_DECIMALS",
    "ZERO_DROP_TOL",
]

DEDUP_DECIMALS = 12      # cloud values are rounded to this many decimals and deduplicated
ZERO_DROP_TOL = 1e-10    # |lambda| below this counts as the removable zero eigenvalue
TARGET_SAMPLES = 4096    # boundary discretization for target-to-cloud distances


@dataclass(frozen=True)
class TargetSet:
    """An analytic target region: a circle or a closed disk."""

    kind: str  # "circle" | "disk"
    centre: complex
    radius: float

    def __post_init__(self):
        if self.kind not in ("circle", "disk"):
            raise ValueError(f"unknown target kind {self.kind!r}")
        if not self.radius > 0:
            raise ValueError("radius must be positive")

    def distance(self, values):
        """Exact pointwise distance from complex values to the target set."""
        d = np.abs(np.asarray(values) - self.centre)
        if self.kind == "circle":
            return np.abs(d - self.radius)
        return np.maximum(d - self.radius, 0.0)

    def samples(self, count=TARGET_SAMPLES):
        """Deterministic point samples of the target (boundary, plus rings for disks)."""
        if count < 8:
            raise ValueError("need at least 8 target samples")
        th = 2.0 * np.pi * np.arange(count) / count
        boundary = self.centre + self.radius * np.exp(1j * th)
        if self.kind == "circle":
            return boundary
        rings = [np.array([self.centre])]
        n_rings = 64
        for k in range(1, n_rings + 1):
            r = self.radius * k / n_rings
            m = max(8, int(count * k / n_rings))
            rings.append(self.centre + r * np.exp(2j * np.pi * np.arange(m) / m))
        return np.concatenate(rings)

    def boundary(self):
        return TargetSet("circle", self.centre, self.radius)


CIRCLE_C = TargetSet("circle", 0.5 + 0.0j, 0.5)
DISK_D = TargetSet("disk", 0.5 + 0.0j, 0.5)
UNIT_CIRCLE_T = TargetSet("circle", 0.0 + 0.0j, 1.0)


@dataclass(frozen=True)
class SpectrumEstimate:
    """Deduplicated eigenvalue cloud of one element over one mesh."""

    element: str
    cloud: np.ndarray
    lat_count: int
    shell_count: int
    covering_radius: float

    def __len__(self):
        return self.cloud.shape[0]


def _dedup(values):
    q = np.round(values.real, DEDUP_DECIMALS) + 1j * np.round(values.imag, DEDUP_DECIMALS)
    return np.unique(q)  # sorts by (re, im)


def sample_spectrum(element, mesh):
    """Eigenvalue cloud of a built-in element over a mesh.

    `element` is a name from algebra.ELEMENTS or an Element. The cloud is
    every pointwise eigenvalue, rounded to the 1e-12 grid and
    deduplicated (np.unique order: lexicographic by real then imaginary
    part).
    """
    el = ELEMENTS[element] if isinstance(element, str) else element
    z0, z1, z2 = mesh.arrays()
    if len(z0) == 0:
        raise ValueError("empty mesh")
    chunks = sweep(lambda *x: _dedup(eig2(el.field(*x)).ravel()), z0, z1, z2)
    return SpectrumEstimate(
        element=el.name,
        cloud=_dedup(np.concatenate(chunks)),
        lat_count=mesh.lat_count,
        shell_count=mesh.shell_count,
        covering_radius=mesh.covering_radius,
    )


def drop_zeros(cloud, tol=ZERO_DROP_TOL):
    """Remove the spectral point 0 (anything of modulus below tol)."""
    cloud = np.asarray(cloud)
    return cloud[np.abs(cloud) >= tol]


def _cloud_of(est):
    return est.cloud if isinstance(est, SpectrumEstimate) else np.asarray(est)


def hausdorff_to_target(est, target, target_samples=TARGET_SAMPLES):
    """Symmetric Hausdorff distance between a cloud and an analytic target.

    Cloud-to-target uses the exact point-to-set distance; target-to-cloud
    discretizes the target at `target_samples` points and takes the worst
    nearest-cloud distance.
    """
    cloud = _cloud_of(est)
    if cloud.size == 0:
        raise ValueError("empty cloud")
    d_ct = float(target.distance(cloud).max())
    samples = target.samples(target_samples)
    d_tc = 0.0
    for i in range(0, samples.size, 4096):
        block = samples[i : i + 4096]
        d_tc = max(d_tc, float(np.abs(block[:, None] - cloud[None, :]).min(axis=1).max()))
    return max(d_ct, d_tc)


def cloud_hausdorff(est_a, est_b):
    """Symmetric Hausdorff distance between two finite clouds."""
    a, b = _cloud_of(est_a), _cloud_of(est_b)
    if a.size == 0 or b.size == 0:
        raise ValueError("empty cloud")
    d_ab = 0.0
    for i in range(0, a.size, 4096):
        d_ab = max(d_ab, float(np.abs(a[i : i + 4096, None] - b[None, :]).min(axis=1).max()))
    d_ba = 0.0
    for i in range(0, b.size, 4096):
        d_ba = max(d_ba, float(np.abs(b[i : i + 4096, None] - a[None, :]).min(axis=1).max()))
    return max(d_ab, d_ba)


def eigenvalue_lipschitz(mesh, element):
    """Empirical eigenvalue continuity factor of an element across latitudes.

    Max over adjacent latitudes of the sorted-eigenvalue-pair deviation
    divided by the latitude arc spacing; reported so users can turn the
    covering radius into an outer error bar for the sampled spectrum.
    """
    el = ELEMENTS[element] if isinstance(element, str) else element
    z0, z1, z2 = mesh.arrays()
    reps = [sl.start for sl in mesh.lat_slices]
    vals = eig2(el.field(z0[reps], z1[reps], z2[reps]))
    dpsi = np.pi / (mesh.lat_count - 1)
    diffs = np.abs(np.diff(vals, axis=1)).max(axis=0)
    return float(diffs.max() / dpsi)


def commutativity_check(mesh, mus=MU_PROBES):
    """Compare the nonzero spectra of ab and ba and sweep the inverse identity.

    Returns (hausdorff distance between the zero-filtered clouds of ab
    and ba, max inverse-identity residual over mesh x probes, conditioned
    cases only). The first component is bounded by twice the covering
    radius times the reported eigenvalue continuity factor.
    """
    est_ab = sample_spectrum("ab", mesh)
    est_ba = sample_spectrum("ba", mesh)
    dist = cloud_hausdorff(drop_zeros(est_ab.cloud), drop_zeros(est_ba.cloud))
    residual, _ = inverse_identity_sweep(mesh, mus)
    return dist, residual


def cloud_to_csv(est, path):
    """Write a cloud as CSV rows re,im (17 significant digits)."""
    cloud = _cloud_of(est)
    np.savetxt(
        path,
        np.column_stack([cloud.real, cloud.imag]),
        fmt="%.17g",
        delimiter=",",
        header="re,im",
        comments="",
    )


SVG_VIEW = 400          # square viewport in px
SVG_DATA_HALF_WIDTH = 1.25  # data square [-1.25, 1.25]^2 maps onto the viewport


def cloud_to_svg(est, path):
    """Minimal static SVG scatter of a cloud.

    Data-to-viewport map: px = (re + 1.25) / 2.5 * 400,
    py = 400 - (im + 1.25) / 2.5 * 400 (y axis flipped).
    """
    cloud = _cloud_of(est)
    scale = SVG_VIEW / (2.0 * SVG_DATA_HALF_WIDTH)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_VIEW}" height="{SVG_VIEW}" '
        f'viewBox="0 0 {SVG_VIEW} {SVG_VIEW}">',
        f'<rect width="{SVG_VIEW}" height="{SVG_VIEW}" fill="white"/>',
    ]
    for v in cloud:
        px = (v.real + SVG_DATA_HALF_WIDTH) * scale
        py = SVG_VIEW - (v.imag + SVG_DATA_HALF_WIDTH) * scale
        parts.append(f'<circle cx="{px:.3f}" cy="{py:.3f}" r="1.5" fill="black"/>')
    parts.append("</svg>\n")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
