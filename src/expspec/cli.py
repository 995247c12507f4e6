"""Command-line front end.

Subcommands: verify-identities, spectrum, certify, generalize, report-all.
Exit codes: 0 all checks pass, 1 a verification check failed or a
computation left its domain (one line on stderr, no traceback), 2 usage or
configuration error. Reports go to stdout or, with --out, to a file;
--format selects JSON (schema 1) or a flat CSV summary.
"""

import argparse
import sys

from .algebra import DomainError
from .homotopy import DegenerateNormalization, DegenerateProjection
from .linalg2 import SingularMatrix
from .linking import CurvesTooClose, NearPole
from .report import (
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
    DegenerateNormalization,
    DomainError,
    NearPole,
    CurvesTooClose,
)


def _add_common(p, spectrum_defaults=False):
    p.add_argument("--lat", type=int, default=None,
                   help="latitude count of the verification mesh (odd, default 65)")
    p.add_argument("--shell", type=int, default=None,
                   help="S3-shell resolution of the verification mesh (default 64)")
    p.add_argument("--segments", type=int, default=256,
                   help="fiber segments for the Gauss linking sum (default 256)")
    p.add_argument("--tol-identity", type=float, default=1e-13,
                   help="tolerance for the exact-identity checks (default 1e-13)")
    p.add_argument("--tol-hausdorff", type=float, default=0.05,
                   help="tolerance for spectrum-to-target Hausdorff distances (default 0.05)")
    p.add_argument("--out", default=None, help="write the report to this path instead of stdout")
    p.add_argument("--format", dest="fmt", choices=("json", "csv-summary"), default="json",
                   help="report format (default json)")
    p.set_defaults(spectrum_defaults=spectrum_defaults)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="expspec",
        description="Numerical verification that the exponential spectrum is not "
        "commutative: exact identities, sampled spectra, homotopy certificates and "
        "the Hopf linking number for an explicit pair of matrix-valued maps on the 4-sphere.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-identities", help="check the closed-form algebra identities")
    _add_common(p)

    p = sub.add_parser("spectrum", help="sample one element's spectrum and compare to its target")
    p.add_argument("element", metavar="ELEMENT", choices=SPECTRUM_ELEMENTS,
                   help="one of: ab, ba, one-minus-2ab, one-minus-2ba")
    _add_common(p, spectrum_defaults=True)

    p = sub.add_parser("certify", help="build the homotopy certificates for both products")
    _add_common(p)
    p.add_argument("--sabotage", choices=("flip-f", "fiber"), default=None,
                   help=argparse.SUPPRESS)  # negative-control hook for tests

    p = sub.add_parser("generalize", help="verify the n = 2, 3 higher-dimensional families")
    _add_common(p)

    p = sub.add_parser("report-all", help="run every suite into one report")
    _add_common(p)
    return parser


def _config_from(args):
    kwargs = {
        "segments": args.segments,
        "tol_identity": args.tol_identity,
        "tol_hausdorff": args.tol_hausdorff,
        "out": args.out,
        "fmt": args.fmt,
        "sabotage": getattr(args, "sabotage", None),
    }
    if args.lat is not None:
        kwargs["lat"] = args.lat
    if args.shell is not None:
        kwargs["shell"] = args.shell
    # the spectrum subcommand reads resolution flags as its own mesh
    if getattr(args, "spectrum_defaults", False):
        if args.lat is not None:
            kwargs["spectrum_lat"] = args.lat
        if args.shell is not None:
            kwargs["spectrum_shell"] = args.shell
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
