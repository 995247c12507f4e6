"""Verification suites and their deterministic reports.

Each runner builds a Report: a list of named check records, each carrying
the mathematical claim being tested, the measured value, the threshold
and the verdict. Reports serialize to versioned JSON (schema 1) or a
flat CSV summary, contain nothing volatile (no timestamps, no host
info), and are byte-identical across repeated runs with the same
configuration.
"""

import json
import math
from dataclasses import asdict, dataclass, field, replace
from operator import itemgetter

import numpy as np

from . import __version__
from .algebra import field_a, field_b, identity_residuals, inverse_identity_sweep
from .fork import _two_halves
from .generalize import eval_a_n, eval_b_n, family_identity_check, mesh_s2n
from .homotopy import SABOTAGE_TAGS, Check, build_certificates, check_records
from .sphere import InvalidResolution, mesh_s4
from .spectrum import (
    CIRCLE_C,
    UNIT_CIRCLE_T,
    cloud_hausdorff,
    cloud_to_csv,
    cloud_to_svg,
    drop_zeros,
    eigenvalue_lipschitz,
    hausdorff_to_target,
    sample_spectrum,
)

__all__ = [
    "UsageError",
    "RunConfig",
    "Report",
    "run_identities",
    "run_spectrum",
    "run_certify",
    "run_generalize",
    "run_all",
    "SPECTRUM_ELEMENTS",
    "GEN_MESH_PARAMS",
]

SCHEMA_VERSION = 1

# fixed generalize-mesh resolutions: n -> (lat, moduli, phases); sizes 1794 / 13610
GEN_MESH_PARAMS = {2: (9, 4, 8), 3: (9, 3, 6)}

MAX_LAT = 2049
MAX_SHELL = 256
MAX_SEGMENTS = 4096


class UsageError(ValueError):
    """Bad configuration; maps to exit code 2 in the CLI."""


@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration for one verification run."""

    lat: int = 65
    shell: int = 64
    segments: int = 256
    tol_identity: float = 1e-13
    tol_hausdorff: float = 0.05
    # spectrum clouds depend only on the latitude count for every built-in
    # element, so the spectrum suite defaults to a latitude-dense mesh
    spectrum_lat: int = 257
    spectrum_shell: int = 8
    out: str | None = None
    fmt: str = "json"
    sabotage: str | None = None

    def validate(self):
        if self.lat < 3 or self.lat % 2 == 0 or self.lat > MAX_LAT:
            raise UsageError(f"--lat must be odd, within [3, {MAX_LAT}]")
        if not (8 <= self.shell <= MAX_SHELL):
            raise UsageError(f"--shell must lie in [8, {MAX_SHELL}]")
        if self.spectrum_lat < 3 or self.spectrum_lat % 2 == 0 or self.spectrum_lat > MAX_LAT:
            raise UsageError(f"spectrum --lat must be odd, within [3, {MAX_LAT}]")
        if not (8 <= self.spectrum_shell <= MAX_SHELL):
            raise UsageError(f"spectrum --shell must lie in [8, {MAX_SHELL}]")
        if not (64 <= self.segments <= MAX_SEGMENTS):
            raise UsageError(f"--segments must lie in [64, {MAX_SEGMENTS}]")
        # an infinite tolerance passes every check it bounds, and JSON has no Infinity
        if not all(t > 0 and math.isfinite(t) for t in (self.tol_identity, self.tol_hausdorff)):
            raise UsageError("tolerances must be positive and finite")
        if self.fmt not in ("json", "csv-summary"):
            raise UsageError("--format must be json or csv-summary")
        if self.sabotage not in (None, *SABOTAGE_TAGS):
            raise UsageError(f"--sabotage must be {' or '.join(SABOTAGE_TAGS)}")
        return self


@dataclass
class Report:
    command: str
    config: dict
    checks: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    artifacts: dict = field(default_factory=dict)

    @property
    def overall_pass(self):
        return all(c.passed for c in self.checks)

    def to_json_dict(self):
        return {
            "schema": SCHEMA_VERSION,
            "tool": {"name": "expspec", "version": __version__},
            "command": self.command,
            "config": self.config,
            "checks": [asdict(c) for c in self.checks],
            "notes": list(self.notes),
            "artifacts": self.artifacts,
            "overall_pass": self.overall_pass,
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    def to_csv_summary(self):
        lines = ["name,value,threshold,comparison,pass"]
        for c in self.checks:
            lines.append(f"{c.name},{c.value!r},{c.threshold!r},{c.comparison},{c.passed}")
        return "\n".join(lines) + "\n"

    def render(self, fmt):
        return self.to_json() if fmt == "json" else self.to_csv_summary()

    def merge(self, other, prefix):
        self.checks.extend(replace(c, name=f"{prefix}.{c.name}") for c in other.checks)
        self.notes.extend(f"{prefix}: {n}" for n in other.notes)
        if other.artifacts:
            self.artifacts[prefix] = other.artifacts


# The check tables. Each suite gathers an evidence mapping (its measurements
# plus the configuration its thresholds read) and check_records turns the rows
# into report records.

IDENTITY_CHECKS = (
    Check("identity_ab_vs_c", "ab_vs_c",
          "1 - 2ab equals the closed-form unitary map c at every mesh point",
          itemgetter("tol_identity"), "<="),
    Check("identity_ba_vs_diag", "ba_vs_diag",
          "1 - 2ba equals diag(phi(z2), 1) at every mesh point",
          itemgetter("tol_identity"), "<="),
    Check("phi_unit_modulus", "phi_unit_modulus", "|phi(z2)| = 1 on [-1, 1]", 1e-14, "<="),
    Check("a_rank_one", "a_rank_one",
          "a(x)^2 = (z0/(1+i z2)) a(x): a is pointwise rank one", 1e-13, "<="),
    Check("b_rank_one", "b_rank_one",
          "b(x)^2 = (conj(z0)/(1+i z2)) b(x): b is pointwise rank one", 1e-13, "<="),
    Check("ab_eigenvalues_closed_form", "ab_eigenvalues",
          "eigenvalues of ab(x) are {(1 - z2^2)/(1 + i z2)^2, 0}", 1e-12, "<="),
)

_NEAR_CIRCLE_C = Check(
    "hausdorff_to_target", "cloud",
    lambda e: f"sampled spectrum of {e['element']} approximates the circle of radius 1/2 "
              "centred at 1/2",
    itemgetter("tol_hausdorff"), "<=",
    lambda cloud: hausdorff_to_target(drop_zeros(cloud), CIRCLE_C),
)
_NEAR_UNIT_CIRCLE = Check(
    "hausdorff_to_target", "cloud",
    lambda e: f"sampled spectrum of {e['element']} approximates the unit circle",
    itemgetter("tol_hausdorff"), "<=", lambda cloud: hausdorff_to_target(cloud, UNIT_CIRCLE_T),
)
_UNIT_MODULUS = Check(
    "unit_modulus", "cloud", lambda e: f"every spectral sample of {e['element']} has modulus 1",
    1e-12, "<=", lambda cloud: np.abs(np.abs(cloud) - 1.0).max(),
)
# the rows of each element's spectrum report; "one" is a debugging aid
SPECTRUM_CHECKS = {
    "ab": (_NEAR_CIRCLE_C,),
    "ba": (_NEAR_CIRCLE_C,),
    "one-minus-2ab": (_NEAR_UNIT_CIRCLE, _UNIT_MODULUS),
    "one-minus-2ba": (_NEAR_UNIT_CIRCLE, _UNIT_MODULUS),
    "one": (Check("cloud_is_one", "cloud", "the spectrum of the identity element is {1}",
                  1e-12, "<=", lambda cloud: np.abs(cloud - 1.0).max()),),
}
SPECTRUM_ELEMENTS = tuple(SPECTRUM_CHECKS)

COMMUTATIVITY_CHECKS = (
    Check("commutativity.nonzero_spectra_match", "nonzero_distance",
          "the nonzero sampled spectra of ab and ba coincide (Hausdorff)",
          itemgetter("tol_hausdorff"), "<="),
    Check("commutativity.discretization_contract", "nonzero_distance",
          "cloud distance is within twice the covering radius times the eigenvalue "
          "continuity factor",
          lambda e: 2.0 * e["covering_radius"] * e["lipschitz"], "<="),
    Check("commutativity.inverse_identity", "inverse_identity",
          "(1 - mu ba)^{-1} = 1 + mu b (1 - mu ab)^{-1} a at every conditioned mesh point "
          "and probe", 1e-10, "<="),
)

# derived from the certificate records, so evaluated after them
CERTIFY_HEADLINE = (
    Check("headline", "records",
          "1/2 lies in the exponential spectrum of ab [modulo the Freudenthal suspension "
          "assumption] and not in the exponential spectrum of ba [unconditional]",
          1.0, ">=", lambda records: all(r.passed for r in records)),
)

GENERALIZE_CHECKS = (
    Check("family_identities_n2", "family_n2",
          lambda e: "1-2ba, 1-2ab and the ab eigenvalues match their closed forms for n=2 "
                    f"({e['points_n2']} mesh points)", 1e-13, "<="),
    Check("family_identities_n3", "family_n3",
          lambda e: "1-2ba, 1-2ab and the ab eigenvalues match their closed forms for n=3 "
                    f"({e['points_n3']} mesh points)", 1e-12, "<="),
    Check("n2_bit_identity", "n2_bit_difference",
          "the n=2 family evaluates bit-identically to the 2x2 construction", 0.0, "<="),
)


def _mesh_from(cfg, spectrum=False):
    try:
        if spectrum:
            return mesh_s4(cfg.spectrum_lat, cfg.spectrum_shell)
        return mesh_s4(cfg.lat, cfg.shell)
    except InvalidResolution as exc:
        raise UsageError(str(exc)) from exc


def run_identities(cfg, mesh=None):
    """Algebra-module invariants on the configured mesh."""
    mesh = mesh if mesh is not None else _mesh_from(cfg)
    evidence = {**asdict(identity_residuals(mesh)), "tol_identity": cfg.tol_identity}
    return Report("verify-identities", asdict(cfg), check_records(IDENTITY_CHECKS, evidence))


def _spectrum_report(cfg, element, mesh, cloud):
    """The records of one element's cloud, sampled on mesh, against its analytic target."""
    evidence = {"element": element, "cloud": cloud, "tol_hausdorff": cfg.tol_hausdorff}
    rep = Report("spectrum", {**asdict(cfg), "element": element},
                 check_records(SPECTRUM_CHECKS[element], evidence))
    rep.notes.append(f"cloud size {len(cloud)} at lat {mesh.lat_count} x shell {mesh.shell_count}")
    return rep


def run_spectrum(cfg, element):
    """Sample one element's spectrum, compare to its analytic target, export the cloud."""
    if element not in SPECTRUM_CHECKS:
        raise UsageError(f"unknown element {element!r}; choose from {', '.join(SPECTRUM_ELEMENTS)}")
    mesh = _mesh_from(cfg, spectrum=True)
    cloud = sample_spectrum(element, mesh)
    rep = _spectrum_report(cfg, element, mesh, cloud)
    if cfg.out:
        base = cfg.out[: -len(".json")] if cfg.out.endswith(".json") else cfg.out
        csv_path, svg_path = base + ".cloud.csv", base + ".cloud.svg"
        cloud_to_csv(cloud, csv_path)
        cloud_to_svg(cloud, svg_path)
        rep.notes.append(f"cloud exported to {csv_path} and {svg_path}")
    return rep


def run_certify(cfg, mesh=None):
    """Report every certificate bound, a headline derived from them, and the deduction chain.

    The records are build_certificates' own, one per row of
    CERTIFICATE_CHECKS, also when a bound fails; the notes and the
    certificates are written only when build_certificates returns them.
    """
    mesh = mesh if mesh is not None else _mesh_from(cfg)
    records, certs = build_certificates(mesh, segments=cfg.segments, sabotage=cfg.sabotage)
    rep = Report("certify", asdict(cfg), records + check_records(CERTIFY_HEADLINE, {"records": records}))
    if certs is None:
        return rep
    ba_cert, ab_cert = certs
    rep.notes.append(
        "deduction chain: 1-2ba is null-homotopic through invertibles (explicit path), "
        "so 1/2 is outside the exponential spectrum of ba; 1-2ab = c is homotopic to the "
        "suspended Hopf map composed into GL2 evidence (equator + hemispheres + antipodal "
        "gap), h has Hopf invariant +-1, and modulo the listed suspension assumption c is "
        "essential, so 1/2 lies in the exponential spectrum of ab"
    )
    rep.notes.append("assumptions[ab] = " + "; ".join(ab_cert.assumptions))
    rep.notes.append(
        "exponential spectra: epsilon(ba) = C and epsilon(ab) = D (the closed disk "
        "bounded by C). The disk verdict is a deduction from the two homotopy verdicts "
        "plus the boundary inclusion chain (the boundary of the exponential spectrum "
        "lies in the spectrum, which lies in the exponential spectrum); it is not a "
        "separate computation"
    )
    rep.artifacts["certificates"] = [asdict(ba_cert), asdict(ab_cert)]
    return rep


def run_generalize(cfg):
    """Algebraic identity checks for the n = 2 and n = 3 families."""
    mesh2 = mesh_s2n(2, *GEN_MESH_PARAMS[2])
    family_n2 = family_identity_check(2, mesh2)
    mesh3 = mesh_s2n(3, *GEN_MESH_PARAMS[3])
    family_n3 = family_identity_check(3, mesh3)
    # bit-identity of the n=2 family with the 2x2 evaluators on shared inputs;
    # an (N, 2, 2) stack flattens row-major to the Field planes m00, m01, m10, m11
    z0, z1 = mesh2.z[:, 0], mesh2.z[:, 1]
    a_diff = np.abs(eval_a_n(mesh2.z, mesh2.zn).reshape(-1, 4).T - field_a(z0, z1, mesh2.zn)).max()
    b_diff = np.abs(eval_b_n(mesh2.z, mesh2.zn).reshape(-1, 4).T - field_b(z0, z1, mesh2.zn)).max()
    evidence = {
        "family_n2": family_n2,
        "points_n2": len(mesh2),
        "family_n3": family_n3,
        "points_n3": len(mesh3),
        # np.maximum, unlike max(), keeps a nan in either difference
        "n2_bit_difference": np.maximum(a_diff, b_diff),
    }
    rep = Report("generalize", asdict(cfg), check_records(GENERALIZE_CHECKS, evidence))
    rep.notes.append(
        "the exponential-spectrum separation for n >= 3 is asserted by the underlying "
        "theory but not machine-checked here; only the algebraic layer is verified"
    )
    return rep


def _mesh_suites(cfg, mesh):
    """The suites that sweep the verification mesh: identities, inverse identity, certify."""
    return run_identities(cfg, mesh=mesh), inverse_identity_sweep(mesh), run_certify(cfg, mesh=mesh)


def _side_suites(cfg, spec_mesh):
    """The suites that need only the spectrum mesh: spectra, ab/ba distance, slope, generalize."""
    # sampled once each: the ab and ba clouds serve the commutativity records too
    elements = ("ab", "ba", "one-minus-2ab", "one-minus-2ba")
    clouds = {element: sample_spectrum(element, spec_mesh) for element in elements}
    spectra = {element: _spectrum_report(cfg, element, spec_mesh, cloud) for element, cloud in clouds.items()}
    dist = cloud_hausdorff(drop_zeros(clouds["ab"]), drop_zeros(clouds["ba"]))
    return spectra, dist, eigenvalue_lipschitz(spec_mesh), run_generalize(cfg)


def run_all(cfg):
    """Every suite in one report: identities, spectra, commutativity, certificates, families.

    The suites run as two tasks of fork._two_halves, one block each.
    The first, _mesh_suites, sweeps the verification mesh in this process
    (its sweeps fork their own helpers). The second, _side_suites, runs
    meanwhile in one helper, forked once both mesh descriptions are built
    and before any sweep. The helper starts from this process's footprint
    at the fork, so the side suites' clouds and LAPACK buffers add nothing
    to this process's peak memory. The records, notes and artifacts are
    then put together in the order of the suites above, so the report is
    the same bytes whether the helper ran or not.

    The error order, the kill-and-reap and the one-process fallback are
    _two_halves': where both tasks fail, the first task's error is raised.
    """
    rep = Report("report-all", asdict(cfg))
    mesh = _mesh_from(cfg)
    spec_mesh = _mesh_from(cfg, spectrum=True)

    def run(start, stop):
        for task in range(start, stop):
            yield _mesh_suites(cfg, mesh) if task == 0 else _side_suites(cfg, spec_mesh)

    (identities, (worst, skipped), certify), (spectra, dist, lip, generalize) = _two_halves(2, 1, run, True)

    rep.merge(identities, "identities")
    for element, spec in spectra.items():
        rep.merge(spec, f"spectrum.{element}")
    evidence = {
        "nonzero_distance": dist,
        "covering_radius": spec_mesh.covering_radius,
        "lipschitz": lip,
        "inverse_identity": worst,
        "tol_hausdorff": cfg.tol_hausdorff,
    }
    rep.checks += check_records(COMMUTATIVITY_CHECKS, evidence)
    rep.notes.append(f"inverse-identity sweep skipped {skipped} ill-conditioned point/probe pairs")

    rep.merge(certify, "certify")
    rep.merge(generalize, "generalize")
    return rep
