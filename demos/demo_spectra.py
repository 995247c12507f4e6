"""
Sampled spectra: same circle for ab and ba
==========================================

The spectrum of a matrix-valued function is the union of its pointwise
eigenvalues. For the counterexample pair, ab and ba share the nonzero
pointwise eigenvalue (1 - z2^2)/(1 + i z2)^2, so both spectra are the
circle C of radius 1/2 centred at 1/2 -- the ordinary spectrum cannot
tell the two products apart. The script samples both clouds, measures
Hausdorff distances to the analytic targets, and writes CSV/SVG scatter
files next to this script.
"""

from pathlib import Path

import numpy as np

from expspec import (
    CIRCLE_C,
    UNIT_CIRCLE_T,
    cloud_hausdorff,
    hausdorff_to_target,
    mesh_s4,
    sample_spectrum,
)
from expspec.spectrum import cloud_to_csv, cloud_to_svg, drop_zeros

out_dir = Path(__file__).resolve().parent
mesh = mesh_s4(257, 8)  # spectra depend on latitudes only, so shells stay coarse

clouds = {}
for element in ("ab", "ba", "one-minus-2ab", "one-minus-2ba"):
    cloud = sample_spectrum(element, mesh)
    clouds[element] = cloud
    csv = out_dir / f"{element}.cloud.csv"
    svg = out_dir / f"{element}.cloud.svg"
    cloud_to_csv(cloud, csv)
    cloud_to_svg(cloud, svg)
    print(f"{element:15s} cloud of {len(cloud):4d} values -> {csv.name}, {svg.name}")

d_ab = hausdorff_to_target(drop_zeros(clouds["ab"]), CIRCLE_C)
d_ba = hausdorff_to_target(drop_zeros(clouds["ba"]), CIRCLE_C)
print(f"Hausdorff(spectrum ab, C)  = {d_ab:.4f}")
print(f"Hausdorff(spectrum ba, C)  = {d_ba:.4f}")

sym = cloud_hausdorff(drop_zeros(clouds["ab"]), drop_zeros(clouds["ba"]))
print(f"nonzero clouds of ab vs ba = {sym:.2e}  (commutativity of the spectrum)")

d_t = hausdorff_to_target(clouds["one-minus-2ba"], UNIT_CIRCLE_T)
mod = np.abs(np.abs(clouds["one-minus-2ba"]) - 1).max()
print(f"spectrum of 1-2ba vs unit circle: Hausdorff {d_t:.4f}, modulus deviation {mod:.1e}")
