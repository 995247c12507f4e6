"""Reports held to committed references, field by field.

Each golden file under tests/golden/ is the stdout of one CLI command. The
comparison is exact for everything but the measured values: names,
claims, thresholds, comparisons, verdicts, notes, config, the structure of
the artifacts and each value's class (type, sign bit, zero, nan, inf).
Each nonzero finite value must lie within VALUE_BUDGET units in the last
place of max(1, |value|) of its reference.

The budget exists because report values depend on numpy's SIMD dispatch:
with every dispatched CPU feature off (NPY_DISABLE_CPU_FEATURES), the
default-path residuals of these reports move by up to 1.5e-16 (generalize's
n = 2 record), less than one unit in the last place of 1, with the same
verdicts and exit codes.
CI runs this file on both dispatch paths.

A golden file changes only with a CHANGES.md entry that names the records
whose values move and why.
"""

import json
import math
import pathlib

import pytest

from expspec import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"

# units in the last place of max(1, |value|): 64 u is 1.4e-14 for the
# rounding residuals, below every 1e-13 and 1e-12 threshold they meet
VALUE_BUDGET = 64
ULP_OF_ONE = 2.0**-52

CASES = [
    ("certify_lat9_shell16.json", ["certify", "--lat", "9", "--shell", "16"], 0),
    # the equator record fails, and the headline with it
    ("certify_lat9_shell16_flip-f.json",
     ["certify", "--lat", "9", "--shell", "16", "--sabotage", "flip-f"], 1),
    # the linking magnitude record fails, and the headline with it
    ("certify_lat9_shell16_fiber.json",
     ["certify", "--lat", "9", "--shell", "16", "--sabotage", "fiber"], 1),
    ("generalize.json", ["generalize"], 0),
    ("spectrum_ab.json", ["spectrum", "ab"], 0),
]


def value_class(v):
    return type(v), math.copysign(1.0, v) < 0, v == 0, math.isnan(v), math.isinf(v)


def is_value(path):
    """A measured value: a check's value or a certificate's evidence entry."""
    return (path[:1] == ("checks",) and path[-1] == "value") or path[-2:-1] == ("evidence",)


def compare(got, want, path=()):
    where = "/".join(map(str, path))
    if is_value(path):
        assert value_class(got) == value_class(want), where
        if isinstance(want, float) and math.isfinite(want) and want != 0.0:
            budget = VALUE_BUDGET * ULP_OF_ONE * max(1.0, abs(want))
            assert abs(got - want) <= budget, f"{where}: {got!r} vs {want!r}"
        elif not (isinstance(want, float) and math.isnan(want)):
            assert got == want, where
    elif isinstance(want, dict):
        assert type(got) is dict and list(got) == list(want), where
        for key in want:
            compare(got[key], want[key], path + (key,))
    elif isinstance(want, list):
        assert type(got) is list and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            compare(g, w, path + (i,))
    else:
        assert type(got) is type(want) and got == want, where


@pytest.mark.parametrize("name, argv, code", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(name, argv, code, capsys):
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    assert err == ""
    compare(json.loads(out), json.loads((GOLDEN / name).read_text()))


def test_golden_comparison_catches_a_moved_value():
    want = json.loads((GOLDEN / CASES[0][0]).read_text())
    compare(want, want)
    for path, moved in [
        (("checks", 3, "value"), lambda v: v + 2e-14),  # a residual 45x its reference
        (("checks", 4, "value"), lambda v: -v),         # 0.0 -> -0.0
        (("checks", 3, "threshold"), lambda v: v * (1 + 2.0**-52)),
        (("artifacts", "certificates", 1, "evidence", "hopf_linking_rounded"), lambda v: -v),
    ]:
        got = json.loads(json.dumps(want))
        node = got
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = moved(node[path[-1]])
        with pytest.raises(AssertionError):
            compare(got, want)
