import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from expspec import algebra, cli, fork, report
from expspec.algebra import DomainError
from expspec.linalg2 import SingularMatrix
from expspec.report import RunConfig

from conftest import assert_no_child_left

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


@pytest.mark.parametrize("lat, shell", [(33, 32), (97, 32), (65, 64)])
def test_certify_memory_stays_bounded(lat, shell):
    # the mesh is streamed in chunks, so the traced peak does not grow with
    # it: 224k, 687k and 3.9M points (the whole 65x64 mesh was 155 MiB)
    import tracemalloc

    from expspec.report import run_certify

    cfg = RunConfig(lat=lat, shell=shell).validate()
    tracemalloc.start()
    try:
        rep = run_certify(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(c.passed for c in rep.checks)
    assert peak < 8 << 20


@pytest.mark.parametrize("lat, shell", [(97, 32), (65, 64)])
def test_certify_memory_stays_bounded_in_the_back_half(lat, shell, monkeypatch):
    # these meshes are large enough that each sweep forks a helper for its
    # back half, which tracemalloc here cannot see; a fork that fails runs
    # that back half's range in this process, under the same bound
    import tracemalloc

    from expspec.report import run_certify

    def no_fork():
        forks.append(1)
        raise OSError("fork refused")

    forks = []
    monkeypatch.setattr(fork, "_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    cfg = RunConfig(lat=lat, shell=shell).validate()
    tracemalloc.start()
    try:
        rep = run_certify(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert forks
    assert all(c.passed for c in rep.checks)
    assert peak < 8 << 20


@pytest.mark.parametrize(
    "argv, code",
    [([], 0), (["--sabotage", "fiber"], 1), (["--segments", "4096"], 0)],
    ids=["pass", "fail", "linking"],
)
def test_certify_leaves_no_process_running(argv, code, tmp_path):
    # 687,042 points: every mesh sweep forks a helper, and at 4096 segments so
    # does the linking pass; none may outlive the run
    script = "import sys\nfrom expspec import cli\nsys.exit(cli.main(sys.argv[1:]))\n"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.Popen([sys.executable, "-c", script, "certify", "--lat", "97", "--shell", "32", *argv],
                            cwd=tmp_path, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            start_new_session=True)
    _, err = proc.communicate(timeout=300)
    assert proc.returncode == code, err
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


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
    from expspec.homotopy import build_certificates

    monkeypatch.setattr(
        linking, "hopf_invariant_of_h", lambda *a, **k: linking.LinkingResult(2.0, 2, 0.0)
    )
    records, certificates = build_certificates(mesh33)
    assert certificates is None
    assert [r.name for r in records if not r.passed] == ["ab_hopf_linking_magnitude"]
    code, out, _ = run(["certify", *CERT], capsys)
    assert code == 1
    assert json.loads(out)["overall_pass"] is False


def test_generalize(capsys):
    code, out, _ = run(["generalize"], capsys)
    assert code == 0
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert names == ["family_identities_n2", "family_identities_n3", "n2_bit_identity"]


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

    code, out, _ = run(["generalize"], capsys)
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


@pytest.mark.parametrize("argv", [
    ["verify-identities", "--segments", "64"],
    ["verify-identities", "--tol-hausdorff", "0.1"],
    ["spectrum", "ab", "--segments", "64"],
    ["spectrum", "ab", "--tol-identity", "1e-13"],
    ["certify", "--tol-identity", "1e-13"],
    ["certify", "--tol-hausdorff", "0.1"],
    ["generalize", "--lat", "9"],
    ["generalize", "--segments", "64"],
    ["generalize", "--tol-identity", "1e-13"],
    ["report-all", "--sabotage", "fiber"],
])
def test_flag_a_subcommand_ignores_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
@pytest.mark.parametrize("argv", [
    ["verify-identities", *FAST, "--tol-identity"],
    ["spectrum", "ab", *FAST, "--tol-hausdorff"],
])
def test_tolerance_must_be_positive_and_finite(argv, value, capsys):
    # an infinite tolerance would pass its checks vacuously and write Infinity,
    # which is not JSON
    code, out, err = run([*argv, value], capsys)
    assert code == 2
    assert out == ""
    assert err == "expspec: tolerances must be positive and finite\n"


@pytest.mark.parametrize("argv", [
    ["verify-identities"], ["spectrum", "ab"], ["certify"], ["generalize"], ["report-all"],
])
def test_no_flags_parse_to_the_default_config(argv):
    assert cli._config_from(cli.build_parser().parse_args(argv)) == RunConfig()


def test_spectrum_mesh_flags_echo_as_the_verification_mesh():
    cfg = cli._config_from(cli.build_parser().parse_args(["spectrum", "ab", "--lat", "9"]))
    assert (cfg.lat, cfg.shell, cfg.spectrum_lat, cfg.spectrum_shell) == (9, 64, 9, 8)


@pytest.mark.parametrize("field, flag", [
    ("spectrum_lat", "spectrum --lat"), ("spectrum_shell", "spectrum --shell"),
])
def test_spectrum_mesh_errors_name_the_real_flag(field, flag):
    from expspec.report import UsageError

    with pytest.raises(UsageError, match=f"^{flag} "):
        RunConfig(**{field: 4}).validate()


# (name, claim, threshold, comparison) of every record of
# `report-all --lat 9 --shell 8 --segments 64`: the record definitions,
# not their values or verdicts
REPORT_ALL_ROWS = [
    ("identities.identity_ab_vs_c",
     "1 - 2ab equals the closed-form unitary map c at every mesh point", 1e-13, "<="),
    ("identities.identity_ba_vs_diag",
     "1 - 2ba equals diag(phi(z2), 1) at every mesh point", 1e-13, "<="),
    ("identities.phi_unit_modulus",
     "|phi(z2)| = 1 on [-1, 1]", 1e-14, "<="),
    ("identities.a_rank_one",
     "a(x)^2 = (z0/(1+i z2)) a(x): a is pointwise rank one", 1e-13, "<="),
    ("identities.b_rank_one",
     "b(x)^2 = (conj(z0)/(1+i z2)) b(x): b is pointwise rank one", 1e-13, "<="),
    ("identities.ab_eigenvalues_closed_form",
     "eigenvalues of ab(x) are {(1 - z2^2)/(1 + i z2)^2, 0}", 1e-12, "<="),
    ("spectrum.ab.hausdorff_to_target",
     "sampled spectrum of ab approximates the circle of radius 1/2 centred at 1/2", 0.05, "<="),
    ("spectrum.ba.hausdorff_to_target",
     "sampled spectrum of ba approximates the circle of radius 1/2 centred at 1/2", 0.05, "<="),
    ("spectrum.one-minus-2ab.hausdorff_to_target",
     "sampled spectrum of one-minus-2ab approximates the unit circle", 0.05, "<="),
    ("spectrum.one-minus-2ab.unit_modulus",
     "every spectral sample of one-minus-2ab has modulus 1", 1e-12, "<="),
    ("spectrum.one-minus-2ba.hausdorff_to_target",
     "sampled spectrum of one-minus-2ba approximates the unit circle", 0.05, "<="),
    ("spectrum.one-minus-2ba.unit_modulus",
     "every spectral sample of one-minus-2ba has modulus 1", 1e-12, "<="),
    ("commutativity.nonzero_spectra_match",
     "the nonzero sampled spectra of ab and ba coincide (Hausdorff)", 0.05, "<="),
    ("commutativity.discretization_contract",
     "cloud distance is within twice the covering radius times the eigenvalue "
     "continuity factor", 2.245590623595802, "<="),
    ("commutativity.inverse_identity",
     "(1 - mu ba)^{-1} = 1 + mu b (1 - mu ab)^{-1} a at every conditioned mesh point "
     "and probe", 1e-10, "<="),
    ("certify.ba_path_invertibility",
     "|det| = 1 along the explicit null homotopy of 1 - 2ba (latitudes x 33 t-values)",
     1e-13, "<="),
    ("certify.ba_endpoint_start",
     "the path starts at 1 - 2ba", 1e-13, "<="),
    ("certify.ba_endpoint_end",
     "the path ends at the identity", 1e-13, "<="),
    ("certify.ab_equator_coincidence",
     "f agrees with the suspended Hopf map on the equator", 1e-12, "<="),
    ("certify.ab_hemisphere_preservation",
     "f and Eh preserve hemispheres (signed imaginary part of the second coordinate)",
     -1e-13, ">="),
    ("certify.ab_antipodal_min_gap",
     "f(x) and Eh(x) are never antipodal: measured min |f + Eh|", 0.1, ">"),
    ("certify.ab_antipodal_certified",
     "certified lower bound for min |f + Eh| on S^4 (mesh minimum minus 2 x covering "
     "radius minus rounding)", 0.0, ">"),
    ("certify.ab_hopf_linking_magnitude",
     "the Hopf invariant of h (fiber linking number) has magnitude 1", 1.0, ">="),
    ("certify.ab_hopf_linking_residual",
     "the Gauss sum is close to its integer", 0.2, "<="),
    ("certify.headline",
     "1/2 lies in the exponential spectrum of ab [modulo the Freudenthal suspension "
     "assumption] and not in the exponential spectrum of ba [unconditional]", 1.0, ">="),
    ("generalize.family_identities_n2",
     "1-2ba, 1-2ab and the ab eigenvalues match their closed forms for n=2 (1794 mesh "
     "points)", 1e-13, "<="),
    ("generalize.family_identities_n3",
     "1-2ba, 1-2ab and the ab eigenvalues match their closed forms for n=3 (13610 mesh"
     " points)", 1e-12, "<="),
    ("generalize.n2_bit_identity",
     "the n=2 family evaluates bit-identically to the 2x2 construction", 0.0, "<="),

]


def _rows(doc):
    return [(c["name"], c["claim"], c["threshold"], c["comparison"]) for c in doc["checks"]]


def test_report_all_record_definitions(capsys):
    _, out, _ = run(["report-all", *FAST, "--segments", "64"], capsys)
    rows = _rows(json.loads(out))
    # the discretization contract's threshold is measured on the spectrum mesh
    i = [r[0] for r in REPORT_ALL_ROWS].index("commutativity.discretization_contract")
    name, claim, threshold, comparison = rows[i]
    assert threshold == pytest.approx(REPORT_ALL_ROWS[i][2], rel=1e-12)
    rows[i] = (name, claim, REPORT_ALL_ROWS[i][2], comparison)
    assert rows == REPORT_ALL_ROWS


# at 9x8 no mesh sweep and no linking pass forks, so report-all's one fork
# is the helper that runs its side suites (spectra, distances, generalize)
SIDE_SPLIT = ["report-all", *FAST, "--segments", "64"]


@pytest.fixture
def side_forks(monkeypatch):
    """Two CPUs, so report-all forks its side-suite helper; records each os.fork call."""
    calls = []
    real_fork = os.fork

    def recording_fork():
        calls.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(fork, "_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", recording_fork)
    return calls


def test_report_all_is_the_same_with_or_without_its_side_helper(side_forks, monkeypatch, capsys):
    forked = run(SIDE_SPLIT, capsys)
    assert side_forks == [os.getpid()]
    assert_no_child_left()
    # at --shell 8 the antipodal gap does not certify: a written report, exit 1
    assert forked[0] == 1 and json.loads(forked[1])["checks"]

    def refused():
        side_forks.append(os.getpid())
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", refused)
    assert run(SIDE_SPLIT, capsys) == forked
    assert len(side_forks) == 2
    monkeypatch.setattr(fork, "_cpus", lambda: 1)
    assert run(SIDE_SPLIT, capsys) == forked
    assert len(side_forks) == 2


def test_side_suite_error_reads_as_in_process(side_forks, monkeypatch, capsys):
    def outside(n, mesh, **kwargs):
        raise DomainError(f"n = {n} is outside the family's domain")

    monkeypatch.setattr(report, "family_identity_check", outside)
    forked = run(SIDE_SPLIT, capsys)
    assert side_forks
    assert_no_child_left()
    monkeypatch.setattr(fork, "_cpus", lambda: 1)
    assert run(SIDE_SPLIT, capsys) == forked == (1, "", "expspec: DomainError: n = 2 is outside the family's domain\n")


def test_main_task_error_kills_the_side_helper(side_forks, monkeypatch, capsys):
    # the helper's suites would take 10 s; the identity sweep's error here
    # must kill and reap it at once
    def singular(mesh):
        raise SingularMatrix("matrix below invertibility threshold")

    monkeypatch.setattr(report, "identity_residuals", singular)
    monkeypatch.setattr(report, "run_generalize", lambda cfg: time.sleep(10.0))
    start = time.monotonic()
    assert run(SIDE_SPLIT, capsys) == (1, "", "expspec: SingularMatrix: matrix below invertibility threshold\n")
    assert time.monotonic() - start < 5.0
    assert side_forks
    assert_no_child_left()


def test_report_all_builds_both_meshes_here_before_its_fork(side_forks, monkeypatch, capsys):
    # the benchmark gate counts the points of every report.mesh_s4 call in
    # this process; the helper forks after both and before any sweep
    events = []
    mesh_s4, fork, sweep = report.mesh_s4, os.fork, algebra.sweep

    def recording_mesh(lat, shell):
        events.append((os.getpid(), lat, shell))
        return mesh_s4(lat, shell)

    def recording_fork():
        events.append("fork")
        return fork()

    def recording_sweep(*args, **kwargs):
        events.append("sweep")
        return sweep(*args, **kwargs)

    monkeypatch.setattr(report, "mesh_s4", recording_mesh)
    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(algebra, "sweep", recording_sweep)
    run(SIDE_SPLIT, capsys)
    # the identity and inverse-identity sweeps, in this process
    assert events == [(os.getpid(), 9, 8), (os.getpid(), 257, 8), "fork", "sweep", "sweep"]
    assert_no_child_left()


def test_spectrum_help_names_every_element(monkeypatch, capsys):
    # wide enough that argparse breaks no element name over two lines
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as done:
        cli.main(["spectrum", "--help"])
    assert done.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert text.split("one of: ")[1].split(";")[0].split(", ") == list(report.SPECTRUM_ELEMENTS)
    assert "one is the identity element" in text


def test_spectrum_one_record_definitions(capsys):
    _, out, _ = run(["spectrum", "one", *FAST], capsys)
    assert _rows(json.loads(out)) == [
        ("cloud_is_one", "the spectrum of the identity element is {1}", 1e-12, "<="),
    ]


@pytest.mark.parametrize(
    "argv",
    [["report-all", "--lat", "9", "--shell", "16"], ["certify", "--lat", "9", "--shell", "16"], ["spectrum", "ab"]],
)
def test_run_path_does_not_import_numpy_ma(argv, tmp_path):
    # np.unique imports numpy.ma on its first call: 1.25 MiB of resident
    # memory and 10-13 ms per process. A fresh process shows what the run loaded.
    script = (
        "import sys\n"
        "from expspec import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "sys.exit(3 if 'numpy.ma' in sys.modules else code)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", script, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
