"""expspec: numerical certification that the exponential spectrum is not commutative.

An explicit pair a, b of 2x2-matrix-valued maps on the 4-sphere has
products ab and ba with identical spectra (the circle of radius 1/2
centred at 1/2) but different exponential spectra: 1 - 2ba is
null-homotopic through invertibles by an explicit path, while 1 - 2ab
is homotopic to the suspended Hopf map's frame and therefore essential,
modulo the classical Freudenthal suspension step, which every
certificate carries as its single explicit assumption.

The package verifies the exact algebra identities, samples the spectra,
certifies the homotopy evidence (equator coincidence, hemisphere
preservation, a positive antipodal gap, the Hopf invariant as a fiber
linking number), and repeats the algebraic layer one matrix dimension up.
"""

__version__ = "0.1.0"

# The names the demos, the tests and the README quick start import from the
# package itself; everything else is imported from its module.
from .algebra import field_a, field_b, identity_residuals, inverse_identity_sweep, phi
from .generalize import eval_a_n, eval_b_n, family_identity_check, mesh_s2n
from .homotopy import build_certificates
from .linking import hopf_fiber, hopf_invariant_of_h, stereographic
from .sphere import mesh_s4
from .spectrum import CIRCLE_C, UNIT_CIRCLE_T, cloud_hausdorff, hausdorff_to_target, sample_spectrum

__all__ = [
    "__version__",
    "field_a",
    "field_b",
    "identity_residuals",
    "inverse_identity_sweep",
    "phi",
    "eval_a_n",
    "eval_b_n",
    "family_identity_check",
    "mesh_s2n",
    "build_certificates",
    "hopf_fiber",
    "hopf_invariant_of_h",
    "stereographic",
    "mesh_s4",
    "CIRCLE_C",
    "UNIT_CIRCLE_T",
    "cloud_hausdorff",
    "hausdorff_to_target",
    "sample_spectrum",
]
