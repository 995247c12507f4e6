"""Acceptance suite: every criterion at its stated tolerance, one line printed each.

Run with `pytest tests/test_acceptance.py -v -s`. The heavy artifacts
(the default 65 x 64 mesh and the certification report built on it) are
computed once per module.
"""

import json
import time

import numpy as np
import pytest

from expspec.algebra import (
    CHUNK,
    field_c,
    field_one_minus_2ab,
    identity_residuals,
    inverse_identity_sweep,
)
from expspec.generalize import eval_a_n, eval_b_n, family_identity_check, mesh_s2n
from expspec.homotopy import build_certificates
from expspec.linalg2 import op_norm
from expspec.linking import hopf_invariant_of_h
from expspec.report import RunConfig, run_certify
from expspec.sphere import mesh_s4
from expspec.spectrum import (
    CIRCLE_C,
    UNIT_CIRCLE_T,
    cloud_hausdorff,
    drop_zeros,
    hausdorff_to_target,
    sample_spectrum,
)
from expspec import cli, field_a, field_b

from conftest import as_stack

# measured once on the default mesh and regression-tested thereafter
FROZEN_DEFAULT_MIN_GAP = 1.234545874837916


def report(num, ok, name, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num}: {name}: {detail}"


@pytest.fixture(scope="module")
def default_mesh():
    return mesh_s4(65, 64)


@pytest.fixture(scope="module")
def spectrum_mesh():
    return mesh_s4(257, 8)


@pytest.fixture(scope="module")
def residuals(default_mesh):
    return identity_residuals(default_mesh)


@pytest.fixture(scope="module")
def certify_report(default_mesh):
    cfg = RunConfig().validate()
    return run_certify(cfg, mesh=default_mesh)


def evidence(certify_report, subject):
    certs = certify_report.artifacts["certificates"]
    return next(c for c in certs if c["subject"] == subject)


def test_criterion_01_identity_reproduction(default_mesh):
    start = time.perf_counter()
    worst = 0.0
    for *x, _ in default_mesh.chunks(CHUNK):
        worst = max(worst, float(op_norm(field_one_minus_2ab(*x) - field_c(*x)).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-13 and elapsed <= 10.0
    report(1, ok, "identity reproduction 1-2ab = c",
           f"max residual {worst:.3e} <= 1e-13 on {len(default_mesh)} points, {elapsed:.2f}s <= 10s")


def test_criterion_02_diagonalization(residuals):
    worst = residuals.ba_vs_diag
    report(2, worst <= 1e-13, "diagonalization 1-2ba = diag(phi, 1)",
           f"max residual {worst:.3e} <= 1e-13")


def test_criterion_03_spectrum_unit_circle(spectrum_mesh):
    cloud = sample_spectrum("one-minus-2ba", spectrum_mesh)
    mod_dev = float(np.abs(np.abs(cloud) - 1.0).max())
    dist = hausdorff_to_target(cloud, UNIT_CIRCLE_T)
    ok = mod_dev <= 1e-12 and dist <= 0.05
    report(3, ok, "spectrum of 1-2ba is the unit circle",
           f"modulus deviation {mod_dev:.3e} <= 1e-12, Hausdorff {dist:.4f} <= 0.05")


def test_criterion_04_product_spectra_match_circle(spectrum_mesh):
    ab = drop_zeros(sample_spectrum("ab", spectrum_mesh))
    ba = drop_zeros(sample_spectrum("ba", spectrum_mesh))
    d_ab = hausdorff_to_target(ab, CIRCLE_C)
    d_ba = hausdorff_to_target(ba, CIRCLE_C)
    d_sym = cloud_hausdorff(ab, ba)
    ok = d_ab <= 0.05 and d_ba <= 0.05 and d_sym <= 0.05
    report(4, ok, "spectra of ab and ba approximate the circle C",
           f"ab {d_ab:.4f}, ba {d_ba:.4f}, symmetric {d_sym:.2e}, all <= 0.05")


def test_criterion_05_inverse_identity(default_mesh):
    worst, skipped = inverse_identity_sweep(default_mesh)
    report(5, worst <= 1e-10, "inverse identity (1-mu ba)^{-1} = 1 + mu b u a",
           f"max residual {worst:.3e} <= 1e-10 over mesh x 8 probes ({skipped} unconditioned skipped)")


def test_criterion_06_equator_coincidence(certify_report):
    dev = evidence(certify_report, "ONE_MINUS_2AB")["evidence"]["equator_max_deviation"]
    report(6, dev <= 1e-12, "f coincides with Eh on the equator",
           f"max |f - Eh| = {dev:.3e} <= 1e-12")


def test_criterion_07_hemisphere_preservation(certify_report):
    worst = evidence(certify_report, "ONE_MINUS_2AB")["evidence"]["hemisphere_worst_violation"]
    report(7, worst >= -1e-13, "hemisphere preservation for f and Eh",
           f"worst signed violation {worst:.3e} >= -1e-13")


def test_criterion_08_antipodal_gap(certify_report):
    ev = evidence(certify_report, "ONE_MINUS_2AB")["evidence"]
    measured = ev["antipodal_min_gap"]
    certified = ev["antipodal_certified_lower_bound"]
    drift = abs(measured - FROZEN_DEFAULT_MIN_GAP)
    ok = measured > 0 and certified > 0 and drift <= 1e-9
    report(8, ok, "antipodal gap of f and Eh",
           f"measured {measured:.15f} (frozen {FROZEN_DEFAULT_MIN_GAP}, drift {drift:.1e}), "
           f"certified bound {certified:.4f} > 0")


def test_criterion_09_hopf_invariant():
    start = time.perf_counter()
    r128 = hopf_invariant_of_h(128)
    r256 = hopf_invariant_of_h(256)
    elapsed = time.perf_counter() - start
    ok = (
        abs(r256.rounded) == 1
        and r256.residual <= 0.05
        and r256.residual <= r128.residual / 2
        and elapsed <= 20.0
    )
    report(9, ok, "Hopf invariant of h by fiber linking",
           f"rounded {r256.rounded}, residual {r256.residual:.2e} <= 0.05, "
           f"halving {r128.residual:.2e} -> {r256.residual:.2e}, {elapsed:.2f}s <= 20s")


def test_criterion_10_null_homotopy_of_ba(certify_report):
    ev = evidence(certify_report, "ONE_MINUS_2BA")["evidence"]
    det_dev = ev["path_max_abs_det_deviation"]
    e0, e1 = ev["endpoint_residual_start"], ev["endpoint_residual_end"]
    ok = det_dev <= 1e-13 and e0 <= 1e-13 and e1 <= 1e-13
    report(10, ok, "explicit null homotopy of 1-2ba",
           f"|det| deviation {det_dev:.3e} <= 1e-13 (mesh x 33 t), endpoints {e0:.3e}, {e1:.3e}")


def test_criterion_11_conditional_obstruction(certify_report):
    ab = evidence(certify_report, "ONE_MINUS_2AB")
    ok = (
        certify_report.overall_pass
        and ab["verdict"] == "OBSTRUCTED_MODULO_SUSPENSION"
        and len(ab["assumptions"]) == 1
        and "Freudenthal" in ab["assumptions"][0]
    )
    # negative controls must flip the outcome
    mesh = mesh_s4(33, 32)
    flips = 0
    for sabotage, blamed in (("flip-f", "ab_equator_coincidence"), ("fiber", "ab_hopf_linking_magnitude")):
        records, certificates = build_certificates(mesh, sabotage=sabotage)
        flips += certificates is None and [r.name for r in records if not r.passed] == [blamed]
    ok = ok and flips == 2
    report(11, ok, "conditional obstruction certificate",
           f"verdict {ab['verdict']}, {len(ab['assumptions'])} assumption(s), "
           f"{flips}/2 negative controls failed as required")


def test_criterion_12_generalized_family(mesh9):
    gen3 = mesh_s2n(3, 9, 3, 6)
    res3 = family_identity_check(3, gen3)
    z0, z1, z2 = mesh9.arrays()
    z = np.stack([z0, z1], axis=-1)
    bit_identical = np.array_equal(eval_a_n(z, z2), as_stack(field_a(z0, z1, z2))) and np.array_equal(
        eval_b_n(z, z2), as_stack(field_b(z0, z1, z2))
    )
    ok = len(gen3) >= 1000 and res3 <= 1e-12 and bit_identical
    report(12, ok, "generalized family on S^6 and bit-identity at n=2",
           f"n=3 residual {res3:.3e} <= 1e-12 on {len(gen3)} points, "
           f"n=2 bit-identical: {bit_identical}")


def test_criterion_13_determinism(tmp_path):
    out = tmp_path / "report.json"
    args = ["report-all", "--lat", "33", "--shell", "32", "--segments", "128",
            "--out", str(out)]
    code1 = cli.main(args)
    first = out.read_bytes()
    code2 = cli.main(args)
    identical = out.read_bytes() == first
    ok = code1 == 0 and code2 == 0 and identical
    doc = json.loads(first)
    prefixes = {c["name"].split(".")[0] for c in doc["checks"]}
    every_suite = prefixes == {"identities", "spectrum", "commutativity", "certify", "generalize"}
    report(13, ok and doc["overall_pass"] and every_suite,
           "report-all determinism",
           f"two runs byte-identical: {identical}, exit codes {code1}/{code2}, "
           f"{len(doc['checks'])} checks all passing, suites {sorted(prefixes)}")
