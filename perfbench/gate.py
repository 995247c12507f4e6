"""Per-run correctness gate: does one verifier run count as a correct result?

A workload's spec (workloads.json) records what its reports looked like
when the benchmark was defined: the echoed config, the checks with their
thresholds, and the exact work counts the trace sees. A later version may add
checks, add config fields and tighten thresholds; it may not drop a check,
loosen a threshold, change a configured value or do less work.

Each function returns a list of problems; an empty list means the run passes.
"""

import json

SCHEMA_VERSION = 1

# For each comparison, whether threshold ``new`` is at least as strict as ``ref``.
_NO_LOOSER = {
    "<=": lambda new, ref: new <= ref,
    ">=": lambda new, ref: new >= ref,
    ">": lambda new, ref: new >= ref,
}


def parse_report(stdout):
    """The schema-1 JSON report a run wrote to stdout, or a problem string."""
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return None, f"report is not JSON: {exc}"
    if not isinstance(report, dict) or report.get("schema") != SCHEMA_VERSION:
        return None, f"report schema is not {SCHEMA_VERSION}"
    return report, None


def _config_problems(spec, report):
    config = report.get("config", {})
    return [
        f"config {key} is {config.get(key, '<missing>')!r}, reference {value!r}"
        for key, value in spec["config"].items()
        if config.get(key, "<missing>") != value
    ]


def _check_problems(spec, report):
    checks = {c["name"]: c for c in report.get("checks", [])}
    problems = []
    for ref in spec["checks"]:
        got = checks.get(ref["name"])
        if got is None:
            problems.append(f"check {ref['name']} is missing")
            continue
        if not got["passed"]:
            problems.append(f"check {ref['name']} fails")
        if got["comparison"] != ref["comparison"]:
            problems.append(f"check {ref['name']} compares {got['comparison']}, reference {ref['comparison']}")
        elif not _NO_LOOSER[ref["comparison"]](got["threshold"], ref["threshold"]):
            problems.append(f"check {ref['name']} threshold {got['threshold']!r} is looser than {ref['threshold']!r}")
    return problems


def check_run(spec, exit_code, stdout):
    """Problems with one run's exit code and stdout bytes against its workload spec."""
    report, problem = parse_report(stdout)
    if spec["expect_exit"] == 0:
        if exit_code != 0:
            return [f"exit code {exit_code}, expected 0"] + ([problem] if problem else [])
        if problem:
            return [problem]
        problems = _config_problems(spec, report) + _check_problems(spec, report)
        if report.get("overall_pass") is not True:
            problems.append("overall_pass is not true")
        return problems

    # A negative control: the run must fail, write its report, and blame the linking evidence.
    problems = []
    if exit_code != spec["expect_exit"]:
        problems.append(f"exit code {exit_code}, expected {spec['expect_exit']}")
    if problem:
        return problems + [problem]
    problems += _config_problems(spec, report)
    if report.get("overall_pass") is not False:
        problems.append("overall_pass is not false")
    failing = [c for c in report.get("checks", []) if not c["passed"]]
    if not any(spec["failing_check_mentions"] in (c["name"] + " " + c["claim"]).lower() for c in failing):
        problems.append(f"no failing check mentions {spec['failing_check_mentions']!r}")
    return problems


def check_counts(spec, counts):
    """Problems with a traced run's work counts: none may drop below the reference."""
    return [
        f"{key} is {counts.get(key, 0)!r}, reference {ref!r}"
        for key, ref in spec["counts"].items()
        if counts.get(key, 0) < ref
    ]


def check_same_bytes(outputs):
    """Indices of runs whose stdout differs from the most common stdout of the set."""
    tally = {}
    for out in outputs:
        tally[out] = tally.get(out, 0) + 1
    common = max(tally, key=tally.get)
    return [i for i, out in enumerate(outputs) if out != common]
