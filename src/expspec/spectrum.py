"""Sampled global spectra and Hausdorff comparisons against analytic targets.

For a matrix-valued f on a compact space, the spectrum of f as a Banach
algebra element is the closure of the union over x of the pointwise
eigenvalues. On a mesh this becomes a finite eigenvalue cloud, collected
with the closed-form 2x2 solver, deduplicated on a 1e-12 grid, and sorted
lexicographically -- a deterministic under-approximation whose outer
error is controlled by the mesh covering radius times an eigenvalue
continuity factor that the module also reports.

The analytic targets here are the circle C with centre 1/2 and radius
1/2 (the spectrum of both ab and ba) and the unit circle T (the spectrum
of both normalized products). For the two built-in products the nonzero
cloud values land exactly on C, which is what makes the commutativity
comparison (nonzero spectrum of ab versus ba) essentially exact; the
genuinely different behaviour of the two elements only appears in the
exponential spectrum, certified in the homotopy module.

The nearest-point searches of the Hausdorff distances run in row blocks
of BLOCK_ELEMENTS pair distances, so their memory is bounded at any mesh;
a min or max is exact in any order, so the blocks change no value.
"""

from dataclasses import dataclass

import numpy as np

from .algebra import ELEMENTS, field_ab, sweep
from .linalg2 import Layout, eig2

__all__ = [
    "TargetSet",
    "CIRCLE_C",
    "UNIT_CIRCLE_T",
    "sample_spectrum",
    "drop_zeros",
    "hausdorff_to_target",
    "cloud_hausdorff",
    "eigenvalue_lipschitz",
    "cloud_to_csv",
    "cloud_to_svg",
    "DEDUP_DECIMALS",
    "ZERO_DROP_TOL",
]

DEDUP_DECIMALS = 12      # cloud values are rounded to this many decimals and deduplicated
ZERO_DROP_TOL = 1e-10    # |lambda| below this counts as the removable zero eigenvalue
TARGET_SAMPLES = 4096    # boundary discretization for target-to-cloud distances
# Pair distances per row block of the nearest-point search: 512 KiB of
# complex128 differences.
BLOCK_ELEMENTS = 2**15


@dataclass(frozen=True)
class TargetSet:
    """An analytic target: the circle with this centre and radius."""

    centre: complex
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("radius must be positive")

    def distance(self, values):
        """Exact pointwise distance from complex values to the circle."""
        return np.abs(np.abs(np.asarray(values) - self.centre) - self.radius)

    def samples(self):
        """TARGET_SAMPLES deterministic, equally spaced point samples of the circle."""
        th = 2.0 * np.pi * np.arange(TARGET_SAMPLES) / TARGET_SAMPLES
        return self.centre + self.radius * np.exp(1j * th)


CIRCLE_C = TargetSet(0.5 + 0.0j, 0.5)
UNIT_CIRCLE_T = TargetSet(0.0 + 0.0j, 1.0)


def _dedup(values):
    """The distinct values on the 1e-12 grid, sorted by (re, im), any nan last.

    Every value with a nan part collapses onto the first such value in
    input order, as np.unique(equal_nan=True) collapses them.
    """
    q = np.round(values.real, DEDUP_DECIMALS) + 1j * np.round(values.imag, DEDUP_DECIMALS)
    # + 0.0 turns a part rounded to -0.0 into 0.0: the sort keeps either of
    # two equal zeros, so a signed one would make the cloud depend on chunking
    q += 0.0
    nan = np.isnan(q)
    s = np.sort(q[~nan])  # by (re, im)
    # the first of each run of equal values, then the first nan lane
    return np.concatenate((s[:1], s[1:][s[1:] != s[:-1]], q[nan][:1]))


def sample_spectrum(element, mesh):
    """Eigenvalue cloud of a built-in element over a mesh.

    `element` is a name from algebra.ELEMENTS. The cloud is every pointwise
    eigenvalue, rounded to the 1e-12 grid and deduplicated, in
    lexicographic order by real then imaginary part (see _dedup). The
    kernel needs no workspace and no latitude tables; sweep merges its
    per-chunk clouds by the same _dedup, which is associative: deduplicating
    each half's merge, then the pair, gives the merge of all the chunks.
    """
    field = ELEMENTS[element]
    if len(mesh) == 0:
        raise ValueError("empty mesh")
    (cloud,) = sweep(lambda z0, z1, z2, ws, lat: (_dedup(eig2(field(z0, z1, z2)).ravel()),), mesh, Layout(),
                     lambda z2: None, (lambda clouds: _dedup(np.concatenate(clouds)),))
    return cloud


def drop_zeros(cloud):
    """Remove the spectral point 0 (anything of modulus below ZERO_DROP_TOL)."""
    cloud = np.asarray(cloud)
    return cloud[np.abs(cloud) >= ZERO_DROP_TOL]


def _farthest_nearest(a, b):
    """Max over a of the distance to the nearest point of b.

    Walks a in blocks of BLOCK_ELEMENTS // b.size rows, at least one row.
    """
    step = max(1, BLOCK_ELEMENTS // b.size)
    worst = [np.abs(a[i : i + step, None] - b[None, :]).min(axis=1).max()
             for i in range(0, a.size, step)]
    # np.maximum, unlike max(), keeps a nan from any block
    return np.maximum.reduce(worst)


def hausdorff_to_target(cloud, target):
    """Symmetric Hausdorff distance between a cloud and an analytic target.

    Cloud-to-target uses the exact point-to-set distance; target-to-cloud
    discretizes the target at TARGET_SAMPLES points and takes the worst
    nearest-cloud distance.
    """
    if cloud.size == 0:
        raise ValueError("empty cloud")
    d_ct = target.distance(cloud).max()
    return float(np.maximum(d_ct, _farthest_nearest(target.samples(), cloud)))


def cloud_hausdorff(a, b):
    """Symmetric Hausdorff distance between two finite clouds."""
    if a.size == 0 or b.size == 0:
        raise ValueError("empty cloud")
    return float(np.maximum(_farthest_nearest(a, b), _farthest_nearest(b, a)))


def eigenvalue_lipschitz(mesh):
    """Empirical eigenvalue continuity factor of ab across latitudes.

    The factor of ab's eigenvalue, the element the commutativity record
    compares with ba (their nonzero eigenvalue is the same function of z2).
    Max over adjacent latitudes of the sorted-eigenvalue-pair deviation
    divided by the latitude arc spacing; reported so users can turn the
    covering radius into an outer error bar for the sampled spectrum.
    """
    # the first point of each latitude, (sin(psi_j), 0, cos(psi_j)), as in the sphere module
    reps = (mesh.lat_sines.astype(np.complex128), 0j, mesh.z2_values)
    vals = eig2(field_ab(*reps))
    dpsi = np.pi / (mesh.lat_count - 1)
    diffs = np.abs(np.diff(vals, axis=1)).max(axis=0)
    return float(diffs.max() / dpsi)


def cloud_to_csv(cloud, path):
    """Write a cloud as CSV rows re,im (17 significant digits)."""
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


def cloud_to_svg(cloud, path):
    """Minimal static SVG scatter of a cloud.

    Data-to-viewport map: px = (re + 1.25) / 2.5 * 400,
    py = 400 - (im + 1.25) / 2.5 * 400 (y axis flipped).
    """
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
