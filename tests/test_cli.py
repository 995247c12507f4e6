import json

import pytest

from expspec import cli

FAST = ["--lat", "9", "--shell", "8"]
CERT = ["--lat", "33", "--shell", "32"]


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_identities_passes(capsys):
    code, out, _ = run(["verify-identities", *FAST], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["overall_pass"] is True
    assert all(set(c) == {"name", "claim", "value", "threshold", "comparison", "passed"}
               for c in doc["checks"])


def test_unachievable_tolerance_fails(capsys):
    code, out, _ = run(["verify-identities", *FAST, "--tol-identity", "1e-20"], capsys)
    assert code == 1
    assert json.loads(out)["overall_pass"] is False


def test_spectrum_with_exports(tmp_path, capsys):
    out_path = tmp_path / "ba.json"
    code, _, _ = run(
        ["spectrum", "ba", "--lat", "65", "--shell", "8", "--out", str(out_path)], capsys
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["overall_pass"] is True
    assert (tmp_path / "ba.cloud.csv").exists()
    assert (tmp_path / "ba.cloud.svg").exists()


def test_spectrum_hidden_debug_element(capsys):
    code, out, _ = run(["spectrum", "one", "--lat", "9", "--shell", "8"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"][0]["name"] == "cloud_is_one"


def test_spectrum_unknown_element_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "bogus"])
    assert exc.value.code == 2


def test_certify_passes(capsys):
    code, out, _ = run(["certify", *CERT, "--segments", "128"], capsys)
    assert code == 0
    doc = json.loads(out)
    certs = doc["artifacts"]["certificates"]
    assert [c["verdict"] for c in certs] == [
        "NULL_HOMOTOPIC",
        "OBSTRUCTED_MODULO_SUSPENSION",
    ]
    assert len(certs[1]["assumptions"]) == 1


CERTIFY_RECORDS = [
    "ba_path_invertibility",
    "ba_endpoint_start",
    "ba_endpoint_end",
    "ab_equator_coincidence",
    "ab_hemisphere_preservation",
    "ab_antipodal_min_gap",
    "ab_antipodal_certified",
    "ab_hopf_linking_magnitude",
    "ab_hopf_linking_residual",
    "headline",
]


def test_certify_sabotage_exits_1(capsys):
    # on the 33x32 mesh every bound holds without sabotage, so each control
    # must fail exactly the record it targets and the headline derived from it
    controls = (("flip-f", "ab_equator_coincidence"), ("fiber", "ab_hopf_linking_magnitude"))
    for sabotage, failing in controls:
        code, out, _ = run(["certify", *CERT, "--sabotage", sabotage], capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["overall_pass"] is False
        assert [c["name"] for c in doc["checks"]] == CERTIFY_RECORDS
        assert [c["name"] for c in doc["checks"] if not c["passed"]] == [failing, "headline"]


def test_certify_rejects_linking_number_two(monkeypatch, capsys, mesh33):
    # |lk| = 2 is not the Hopf invariant of h; the report must not pass what
    # the certificate rejects
    from expspec import linking
    from expspec.homotopy import CertificateFailure, build_certificates

    monkeypatch.setattr(
        linking, "hopf_invariant_of_h", lambda *a, **k: linking.LinkingResult(2.0, 2, 0.0)
    )
    with pytest.raises(CertificateFailure, match="hopf_linking_rounded"):
        build_certificates(mesh33)
    code, out, _ = run(["certify", *CERT], capsys)
    assert code == 1
    assert json.loads(out)["overall_pass"] is False


def test_generalize(capsys):
    code, out, _ = run(["generalize", *FAST], capsys)
    assert code == 0
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert names == ["family_identities_n2", "family_identities_n3", "n2_bit_identity"]


def test_report_all_deterministic(tmp_path, capsys):
    out = tmp_path / "report.json"
    args = ["report-all", *CERT, "--segments", "64", "--out", str(out)]
    assert cli.main(args) == 0
    first = out.read_bytes()
    assert cli.main(args) == 0
    assert out.read_bytes() == first
    doc = json.loads(out.read_text())
    assert doc["overall_pass"] is True
    prefixes = {c["name"].split(".")[0] for c in doc["checks"]}
    assert prefixes == {"identities", "spectrum", "commutativity", "certify", "generalize"}


def test_csv_summary_format(capsys):
    code, out, _ = run(["verify-identities", *FAST, "--format", "csv-summary"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "name,value,threshold,comparison,pass"
    assert all(line.endswith("True") for line in lines[1:])


def test_bad_lat_exits_2(capsys):
    code, _, err = run(["verify-identities", "--lat", "4"], capsys)
    assert code == 2
    assert "odd" in err


def test_unwritable_out_exits_2(capsys):
    code, _, err = run(
        ["verify-identities", *FAST, "--out", "/nonexistent-dir/report.json"], capsys
    )
    assert code == 2
    assert "cannot write" in err


def test_version_recorded(capsys):
    import expspec

    code, out, _ = run(["generalize", *FAST], capsys)
    assert json.loads(out)["tool"] == {"name": "expspec", "version": expspec.__version__}


def test_domain_error_exits_1_without_traceback(monkeypatch, capsys):
    from expspec import report
    from expspec.linalg2 import SingularMatrix

    def singular(mesh):
        raise SingularMatrix("matrix below invertibility threshold")

    monkeypatch.setattr(report, "identity_residuals", singular)
    code, out, err = run(["verify-identities", *FAST], capsys)
    assert code == 1
    assert out == ""
    assert err == "expspec: SingularMatrix: matrix below invertibility threshold\n"
