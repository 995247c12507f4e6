"""Command-line front end.

Subcommands: verify-identities, spectrum, certify, generalize, report-all.
Exit codes: 0 all checks pass, 1 a verification check failed or a
computation left its domain (one line on stderr, no traceback), 2 usage or
configuration error. Reports go to stdout or, with --out, to a file;
--format selects JSON (schema 1) or a flat CSV summary.
"""

import argparse
import sys
from dataclasses import asdict

from .algebra import DomainError
from .homotopy import SABOTAGE_TAGS, DegenerateProjection
from .linalg2 import SingularMatrix
from .linking import CurvesTooClose, NearPole
from .report import (
    IDENTITY_CHECKS,
    RunConfig,
    SPECTRUM_ELEMENTS,
    UsageError,
    run_all,
    run_certify,
    run_generalize,
    run_identities,
    run_spectrum,
)

__all__ = ["main", "build_parser"]

# raised by the numerics when an input leaves their domain; a failed run, not a crash
DOMAIN_ERRORS = (
    SingularMatrix,
    DegenerateProjection,
    DomainError,
    NearPole,
    CurvesTooClose,
)


_DEFAULT = RunConfig()

# RunConfig field -> (flag, add_argument options); defaults come from RunConfig
_FLAGS = {
    "lat": ("--lat", dict(
        type=int, help=f"latitude count of the verification mesh (odd, default {_DEFAULT.lat})")),
    "shell": ("--shell", dict(
        type=int, help=f"S3-shell resolution of the verification mesh (default {_DEFAULT.shell})")),
    "spectrum_lat": ("--lat", dict(
        type=int, metavar="LAT",
        help=f"latitude count of the spectrum mesh (odd, default {_DEFAULT.spectrum_lat})")),
    "spectrum_shell": ("--shell", dict(
        type=int, metavar="SHELL",
        help=f"S3-shell resolution of the spectrum mesh (default {_DEFAULT.spectrum_shell})")),
    "segments": ("--segments", dict(
        type=int, help=f"fiber segments for the Gauss linking sum (default {_DEFAULT.segments})")),
    "tol_identity": ("--tol-identity", dict(
        type=float, help="threshold of identity_ab_vs_c and identity_ba_vs_diag "
        f"(default {_DEFAULT.tol_identity:g}); the other identity checks have fixed thresholds: "
        + ", ".join(f"{c.name} {c.threshold:g}"
                    for c in IDENTITY_CHECKS if not callable(c.threshold)))),
    "tol_hausdorff": ("--tol-hausdorff", dict(
        type=float, help="threshold of the Hausdorff distances of the spectra to their targets "
        f"and to each other (default {_DEFAULT.tol_hausdorff:g})")),
    "out": ("--out", dict(help="write the report to this path instead of stdout")),
    "fmt": ("--format", dict(
        choices=("json", "csv-summary"), help=f"report format (default {_DEFAULT.fmt})")),
    # negative-control hook for tests
    "sabotage": ("--sabotage", dict(choices=SABOTAGE_TAGS, help=argparse.SUPPRESS)),
}

# subcommand -> (help, the RunConfig fields it reads besides out and fmt)
_SUBCOMMANDS = {
    "verify-identities": ("check the closed-form algebra identities",
                          ("lat", "shell", "tol_identity")),
    "spectrum": ("sample one element's spectrum and compare to its target",
                 ("spectrum_lat", "spectrum_shell", "tol_hausdorff")),
    "certify": ("build the homotopy certificates for both products",
                ("lat", "shell", "segments", "sabotage")),
    "generalize": ("verify the n = 2, 3 higher-dimensional families", ()),
    "report-all": ("run every suite into one report",
                   ("lat", "shell", "segments", "tol_identity", "tol_hausdorff")),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="expspec",
        description="Numerical verification that the exponential spectrum is not "
        "commutative: exact identities, sampled spectra, homotopy certificates and "
        "the Hopf linking number for an explicit pair of matrix-valued maps on the 4-sphere.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_, names) in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=help_)
        if command == "spectrum":
            p.add_argument("element", metavar="ELEMENT", choices=SPECTRUM_ELEMENTS,
                           help=f"one of: {', '.join(SPECTRUM_ELEMENTS)}; one is the identity element, a debugging aid")
        for name in (*names, "out", "fmt"):
            flag, options = _FLAGS[name]
            # an absent flag leaves no attribute, so RunConfig supplies its default
            p.add_argument(flag, dest=name, default=argparse.SUPPRESS, **options)
    return parser


def _config_from(args):
    config_fields = asdict(_DEFAULT)
    kwargs = {k: v for k, v in vars(args).items() if k in config_fields}
    # the spectrum subcommand's mesh flags are echoed as the verification mesh too
    for name in ("lat", "shell"):
        if f"spectrum_{name}" in kwargs:
            kwargs[name] = kwargs[f"spectrum_{name}"]
    return RunConfig(**kwargs).validate()


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from(args)
        if args.command == "verify-identities":
            report = run_identities(cfg)
        elif args.command == "spectrum":
            report = run_spectrum(cfg, args.element)
        elif args.command == "certify":
            report = run_certify(cfg)
        elif args.command == "generalize":
            report = run_generalize(cfg)
        else:
            report = run_all(cfg)
        text = report.render(cfg.fmt)
        if cfg.out:
            with open(cfg.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except UsageError as exc:
        print(f"expspec: {exc}", file=sys.stderr)
        return 2
    except DOMAIN_ERRORS as exc:
        print(f"expspec: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"expspec: cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0 if report.overall_pass else 1


if __name__ == "__main__":
    sys.exit(main())
