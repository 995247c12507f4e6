"""Verification suites and their deterministic reports.

Each runner builds a Report: a list of named check records, each carrying
the mathematical claim being tested, the measured value, the threshold
and the verdict. Reports serialize to versioned JSON (schema 1) or a
flat CSV summary, contain nothing volatile (no timestamps, no host
info), and are byte-identical across repeated runs with the same
configuration.
"""

import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__
from .algebra import field_a, field_b, identity_residuals, inverse_identity_sweep
from .generalize import eval_a_n, eval_b_n, family_identity_check, mesh_s2n
from .homotopy import CertificateFailure, CheckRecord, build_certificates, certificate_records
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
SPECTRUM_ELEMENTS = ("ab", "ba", "one-minus-2ab", "one-minus-2ba", "one")

# fixed generalize-mesh resolutions: n -> (lat, moduli, phases); sizes 514 / 13610
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
            raise UsageError(f"--spectrum-lat must be odd, within [3, {MAX_LAT}]")
        if not (8 <= self.spectrum_shell <= MAX_SHELL):
            raise UsageError(f"--spectrum-shell must lie in [8, {MAX_SHELL}]")
        if not (64 <= self.segments <= MAX_SEGMENTS):
            raise UsageError(f"--segments must lie in [64, {MAX_SEGMENTS}]")
        if not (self.tol_identity > 0 and self.tol_hausdorff > 0):
            raise UsageError("tolerances must be positive")
        if self.fmt not in ("json", "csv-summary"):
            raise UsageError("--format must be json or csv-summary")
        if self.sabotage not in (None, "flip-f", "fiber"):
            raise UsageError("--sabotage must be flip-f or fiber")
        return self

    def to_dict(self):
        return asdict(self)

    def without_out(self):
        return RunConfig(**{**self.to_dict(), "out": None})


def _plain(obj):
    """Recursively convert numpy scalars/arrays so json can serialize the tree."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


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

    def add(self, *args, **kwargs):
        self.checks.append(CheckRecord.of(*args, **kwargs))

    def to_json_dict(self):
        return _plain(
            {
                "schema": SCHEMA_VERSION,
                "tool": {"name": "expspec", "version": __version__},
                "command": self.command,
                "config": self.config,
                "checks": [asdict(c) for c in self.checks],
                "notes": list(self.notes),
                "artifacts": self.artifacts,
                "overall_pass": self.overall_pass,
            }
        )

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
    r = identity_residuals(mesh)
    rep = Report("verify-identities", cfg.to_dict())
    rep.add(
        "identity_ab_vs_c",
        "1 - 2ab equals the closed-form unitary map c at every mesh point",
        r.ab_vs_c,
        cfg.tol_identity,
        "<=",
    )
    rep.add(
        "identity_ba_vs_diag",
        "1 - 2ba equals diag(phi(z2), 1) at every mesh point",
        r.ba_vs_diag,
        cfg.tol_identity,
        "<=",
    )
    rep.add(
        "phi_unit_modulus",
        "|phi(z2)| = 1 on [-1, 1]",
        r.phi_unit_modulus,
        1e-14,
        "<=",
    )
    rep.add(
        "a_rank_one",
        "a(x)^2 = (z0/(1+i z2)) a(x): a is pointwise rank one",
        r.a_rank_one,
        1e-13,
        "<=",
    )
    rep.add(
        "b_rank_one",
        "b(x)^2 = (conj(z0)/(1+i z2)) b(x): b is pointwise rank one",
        r.b_rank_one,
        1e-13,
        "<=",
    )
    rep.add(
        "ab_eigenvalues_closed_form",
        "eigenvalues of ab(x) are {(1 - z2^2)/(1 + i z2)^2, 0}",
        r.ab_eigenvalues,
        1e-12,
        "<=",
    )
    return rep


def _spectrum_target(element):
    if element in ("ab", "ba"):
        return CIRCLE_C, "the circle of radius 1/2 centred at 1/2"
    if element in ("one-minus-2ab", "one-minus-2ba"):
        return UNIT_CIRCLE_T, "the unit circle"
    return None, None


def run_spectrum(cfg, element, mesh=None):
    """Sample one element's spectrum, compare to its analytic target, export the cloud."""
    if element not in SPECTRUM_ELEMENTS:
        raise UsageError(f"unknown element {element!r}; choose from {', '.join(SPECTRUM_ELEMENTS)}")
    mesh = mesh if mesh is not None else _mesh_from(cfg, spectrum=True)
    cloud = sample_spectrum(element, mesh)
    rep = Report("spectrum", {**cfg.to_dict(), "element": element})
    if element == "one":
        rep.add(
            "cloud_is_one",
            "the spectrum of the identity element is {1}",
            float(np.abs(cloud - 1.0).max()),
            1e-12,
            "<=",
        )
    else:
        target, target_desc = _spectrum_target(element)
        compared = drop_zeros(cloud) if element in ("ab", "ba") else cloud
        rep.add(
            "hausdorff_to_target",
            f"sampled spectrum of {element} approximates {target_desc}",
            hausdorff_to_target(compared, target),
            cfg.tol_hausdorff,
            "<=",
        )
        if element in ("one-minus-2ab", "one-minus-2ba"):
            rep.add(
                "unit_modulus",
                f"every spectral sample of {element} has modulus 1",
                float(np.abs(np.abs(cloud) - 1.0).max()),
                1e-12,
                "<=",
            )
    rep.notes.append(f"cloud size {len(cloud)} at lat {mesh.lat_count} x shell {mesh.shell_count}")
    if cfg.out:
        base = cfg.out[: -len(".json")] if cfg.out.endswith(".json") else cfg.out
        csv_path, svg_path = base + ".cloud.csv", base + ".cloud.svg"
        cloud_to_csv(cloud, csv_path)
        cloud_to_svg(cloud, svg_path)
        rep.notes.append(f"cloud exported to {csv_path} and {svg_path}")
    return rep


def run_certify(cfg, mesh=None):
    """Report every certificate bound, a headline derived from them, and the deduction chain.

    Every row of CERTIFICATE_CHECKS becomes a record, also when a bound
    fails; the notes and the certificates are written only when all hold.
    """
    mesh = mesh if mesh is not None else _mesh_from(cfg)
    rep = Report("certify", cfg.to_dict())
    try:
        certs = build_certificates(mesh, segments=cfg.segments, sabotage=cfg.sabotage)
        evidence = {**certs[0].evidence, **certs[1].evidence}
    except CertificateFailure as exc:
        certs, evidence = None, exc.evidence
    rep.checks.extend(certificate_records(evidence, cfg.segments))
    rep.add(
        "headline",
        "1/2 lies in the exponential spectrum of ab [modulo the Freudenthal suspension "
        "assumption] and not in the exponential spectrum of ba [unconditional]",
        float(rep.overall_pass),
        1.0,
        ">=",
    )
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
    rep.artifacts["certificates"] = [ba_cert.to_json_dict(), ab_cert.to_json_dict()]
    return rep


def run_generalize(cfg):
    """Algebraic identity checks for the n = 2 and n = 3 families."""
    rep = Report("generalize", cfg.to_dict())
    for n in (2, 3):
        mesh = mesh_s2n(n, *GEN_MESH_PARAMS[n])
        tol = 1e-13 if n == 2 else 1e-12
        rep.add(
            f"family_identities_n{n}",
            f"1-2ba, 1-2ab and the ab eigenvalues match their closed forms for n={n} "
            f"({len(mesh)} mesh points)",
            family_identity_check(n, mesh),
            tol,
            "<=",
        )
    # bit-identity of the n=2 family with the 2x2 evaluators on shared inputs;
    # an (N, 2, 2) stack flattens row-major to the Field planes m00, m01, m10, m11
    mesh = mesh_s2n(2, *GEN_MESH_PARAMS[2])
    z0, z1 = mesh.z[:, 0], mesh.z[:, 1]
    a_diff = np.abs(eval_a_n(mesh.z, mesh.zn).reshape(-1, 4).T - field_a(z0, z1, mesh.zn)).max()
    b_diff = np.abs(eval_b_n(mesh.z, mesh.zn).reshape(-1, 4).T - field_b(z0, z1, mesh.zn)).max()
    rep.add(
        "n2_bit_identity",
        "the n=2 family evaluates bit-identically to the 2x2 construction",
        float(max(a_diff, b_diff)),
        0.0,
        "<=",
    )
    rep.notes.append(
        "the exponential-spectrum separation for n >= 3 is asserted by the underlying "
        "theory but not machine-checked here; only the algebraic layer is verified"
    )
    return rep


def run_all(cfg):
    """Every suite in one report: identities, spectra, commutativity, certificates, families."""
    rep = Report("report-all", cfg.to_dict())
    mesh = _mesh_from(cfg)
    spec_mesh = _mesh_from(cfg, spectrum=True)

    rep.merge(run_identities(cfg, mesh=mesh), "identities")
    for element in ("ab", "ba", "one-minus-2ab", "one-minus-2ba"):
        sub = run_spectrum(cfg.without_out(), element, mesh=spec_mesh)
        rep.merge(sub, f"spectrum.{element}")

    ab = drop_zeros(sample_spectrum("ab", spec_mesh))
    ba = drop_zeros(sample_spectrum("ba", spec_mesh))
    dist = cloud_hausdorff(ab, ba)
    lip = eigenvalue_lipschitz(spec_mesh, "ab")
    rep.add(
        "commutativity.nonzero_spectra_match",
        "the nonzero sampled spectra of ab and ba coincide (Hausdorff)",
        dist,
        cfg.tol_hausdorff,
        "<=",
    )
    rep.add(
        "commutativity.discretization_contract",
        "cloud distance is within twice the covering radius times the eigenvalue "
        "continuity factor",
        dist,
        2.0 * spec_mesh.covering_radius * lip,
        "<=",
    )
    worst, skipped = inverse_identity_sweep(mesh)
    rep.add(
        "commutativity.inverse_identity",
        "(1 - mu ba)^{-1} = 1 + mu b (1 - mu ab)^{-1} a at every conditioned mesh point "
        "and probe",
        worst,
        1e-10,
        "<=",
    )
    rep.notes.append(f"inverse-identity sweep skipped {skipped} ill-conditioned point/probe pairs")

    rep.merge(run_certify(cfg, mesh=mesh), "certify")
    rep.merge(run_generalize(cfg), "generalize")
    return rep
