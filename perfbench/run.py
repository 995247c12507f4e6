"""Benchmark of the expspec batch verifier.

Usage (from the root of the repository):
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all [--seconds S] [--trace 0|1] [--out PATH]

One run of a workload launches fresh ``expspec`` processes (perfbench/child.py),
one at a time, until ``--seconds`` have passed (at least MIN_SAMPLES). Every
verifier process goes through the correctness gate (gate.py) against the
workload's spec in perfbench/workloads.json: its report, and the work counts
(mesh points, probes, segment pairs) that its wrapped functions saw. All of a
run's reports must be byte-identical.

With ``--trace 0`` the run reports the end-to-end metrics: median wall time of
one verifier process, median set-up time (launch until ``import expspec`` has
finished, in the same processes) and median peak RSS of the verifier process. With ``--trace 1`` it
alternates untraced and traced processes (tracer.py wraps the package's stages
from outside) and reports the per-layer metrics of the traced ones, the
tracing overhead, and checks that traced and untraced reports are identical.

The last line of stdout is one JSON object: correct, attempted (verifier
processes run), failed (processes that failed the gate) and metrics. The exit
status is 0 only when every process passed. The workloads' inputs are fixed
command lines of a deterministic program, so ``--seed`` is recorded but
changes nothing. ``--workload all`` runs every workload, prints a table, and
with ``--out`` saves host facts and every result as JSON (baseline.json).
"""

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import gate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORK = HERE / ".work"
WORKLOADS = json.loads((HERE / "workloads.json").read_text())

MIN_SAMPLES = 3        # verifier processes per run, whatever --seconds says
MIN_TRACED_PAIRS = 2   # untraced plus traced process pairs per traced run
RUN_LIMIT_S = 170.0    # a run must end within 180 s; no process outlives this
MIB = float(1 << 20)

KERNELS = ("mat_mul", "mat_inv", "cond2", "op_norm", "eig2")
HOMOTOPY = ("build_certificates", "path_invertibility", "hemisphere_preservation", "antipodal_gap")
LINKING = ("hopf_invariant_of_h", "gauss_linking", "curve_separation")
SPECTRUM = ("sample_spectrum", "hausdorff_to_target", "cloud_hausdorff")
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class ProgramUnavailable(RuntimeError):
    """The checkout has no runnable expspec (for example, no src/)."""


@dataclass
class Process:
    """One finished child process: exit code, timings, resources and output."""

    exit_code: int
    wall_s: float
    setup_s: float | None  # None when the process died before its import finished
    rss_mib: float
    cpu_s: float
    stdout: bytes
    stderr: bytes
    status: dict | None
    traced: bool
    spans: list | None
    layer: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def _child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def launch(opts, argv, deadline, src=ROOT / "src"):
    """Run child.py on the expspec under ``src`` and measure it; kill it at ``deadline`` (monotonic)."""
    WORK.mkdir(exist_ok=True)
    status_path, out_path, err_path, spans_path = (WORK / f"child.{ext}" for ext in ("status", "stdout", "stderr", "spans"))
    for p in (status_path, spans_path):
        p.unlink(missing_ok=True)
    if "--setup-only" not in opts:
        opts = opts + ["--spans", str(spans_path)]
    cmd = [sys.executable, str(CHILD), str(status_path), *opts, "--", *argv]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=_child_env(src))
        timer = threading.Timer(max(deadline - t0, 1.0), proc.kill)
        timer.start()
        try:
            _, wstatus, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(wstatus)
    status = json.loads(status_path.read_text()) if status_path.exists() else None
    return Process(
        exit_code=proc.returncode,
        wall_s=t1 - t0,
        setup_s=status["imported"] - t0 if status else None,
        rss_mib=usage.ru_maxrss / 1024.0,
        cpu_s=usage.ru_utime + usage.ru_stime,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
        status=status,
        traced="--trace" in opts,
        spans=json.loads(spans_path.read_text())["spans"] if spans_path.exists() else None,
    )


def probe(deadline):
    """An import-only process; raises ProgramUnavailable when expspec cannot be imported."""
    run = launch(["--setup-only"], [], deadline)
    if run.exit_code != 0 or run.status is None:
        tail = run.stderr.decode(errors="replace").strip().splitlines()[-1:]
        raise ProgramUnavailable(f"cannot import expspec from {ROOT / 'src'}: {' '.join(tail)}")
    return run


# ---------------------------------------------------------------- per-layer metrics


def _aggregate(spans):
    """Per span name: total wall, self time, peak traced bytes, calls and summed counts."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    agg = defaultdict(lambda: {"wall": 0.0, "self": 0.0, "peak": 0, "calls": 0, "counts": defaultdict(int)})
    for i, s in enumerate(spans):
        a = agg[s["name"]]
        dur = s["end"] - s["start"]
        a["wall"] += dur
        a["self"] += dur - covered[i]
        a["peak"] = max(a["peak"], s["peak_bytes"])
        a["calls"] += 1
        for key, value in s["counts"].items():
            a["counts"][key] += value
    return agg


def _per(n, d):
    return n / d if d > 0 else 0.0


def work_counts(agg):
    """The counts the gate checks (workloads.json "counts"), from aggregated spans."""
    sweep = agg["algebra.inverse_identity_sweep"]["counts"]
    return {
        "sphere.mesh_s4.points": agg["sphere.mesh_s4"]["counts"]["points"],
        "algebra.identity_residuals.points": agg["algebra.identity_residuals"]["counts"]["points"],
        "algebra.inverse_identity_sweep.pairs_attempted": sweep["pairs_attempted"],
        "algebra.inverse_identity_sweep.probes_per_point": _per(sweep["pairs_attempted"], sweep["points"]),
        "linking.segment_pairs": agg["linking.gauss_linking"]["counts"]["segment_pairs"],
    }


def layer_metrics(run, agg):
    """The per-layer metrics of one traced process, as {name: (value, unit)}."""
    m = {}

    def span(name, *fields):
        a = agg[name]
        for f in fields:
            if f == "wall_s":
                m[f"{name}.wall_s"] = (a["wall"], "s")
            elif f == "self_s":
                m[f"{name}.self_s"] = (a["self"], "s")
            elif f == "self_frac":
                m[f"{name}.self_frac"] = (_per(a["self"], a["wall"]), "ratio")
            elif f == "peak_mb":
                m[f"{name}.peak_mb"] = (a["peak"] / MIB, "MiB")
            elif f == "calls":
                m[f"{name}.calls"] = (a["calls"], "count")
            elif f == "points_per_s":
                m[f"{name}.points_per_s"] = (_per(a["counts"]["points"], a["wall"]), "1/s")
            else:
                m[f"{name}.{f}"] = (a["counts"][f], "count")
        return a

    def layer_self(layer, exclude=()):
        return sum(a["self"] for name, a in agg.items() if name.startswith(layer + ".") and name not in exclude)

    span("sphere.mesh_s4", "wall_s", "points", "peak_mb")

    m["linalg2.self_s"] = (layer_self("linalg2"), "s")
    for k in KERNELS:
        a = span(f"linalg2.{k}", "matrices")
        m[f"linalg2.{k}.bytes_computed"] = (a["counts"]["bytes_computed"], "B")
        m[f"linalg2.{k}.matrices_per_s"] = (_per(a["counts"]["matrices"], a["wall"]), "1/s")

    span("algebra.identity_residuals", "points", "points_per_s", "self_frac", "peak_mb")
    a = span("algebra.inverse_identity_sweep", "pairs_attempted", "pairs_skipped", "self_frac", "peak_mb")
    attempted, skipped = a["counts"]["pairs_attempted"], a["counts"]["pairs_skipped"]
    sweep = "algebra.inverse_identity_sweep"
    m[f"{sweep}.probes_per_point"] = (work_counts(agg)[f"{sweep}.probes_per_point"], "count")
    m[f"{sweep}.useful_ratio"] = (_per(attempted - skipped, attempted), "ratio")
    m[f"{sweep}.pairs_per_s"] = (_per(attempted, a["wall"]), "1/s")

    for f in HOMOTOPY:
        span(f"homotopy.{f}", "wall_s", "self_s", "points_per_s", "peak_mb")

    for f in LINKING:
        span(f"linking.{f}", "wall_s", "peak_mb")
    gauss = agg["linking.gauss_linking"]
    m["linking.segment_pairs"] = (gauss["counts"]["segment_pairs"], "count")
    m["linking.pairs_per_s"] = (_per(gauss["counts"]["segment_pairs"], gauss["wall"]), "1/s")

    for f in SPECTRUM:
        span(f"spectrum.{f}", "calls")
    m["spectrum.cloud_points"] = (agg["spectrum.sample_spectrum"]["counts"]["cloud_points"], "count")
    span("generalize.family_identity_check", "points")

    render = agg["report.render"]
    m["report.self_s"] = (layer_self("report", exclude=("report.render",)), "s")
    m["report.render_s"] = (render["wall"], "s")
    m["report.checks"] = (render["counts"]["checks"], "count")
    m["report.checks_failed"] = (render["counts"]["checks_failed"], "count")
    span("cli.main", "wall_s")

    top = sum(s["end"] - s["start"] for s in run.spans if s["parent"] is None)
    m["run.wall_s"] = (run.wall_s, "s")
    m["run.cpu_s"] = (run.cpu_s, "s")
    m["run.unattributed_s"] = (run.wall_s - top, "s")
    return m


# ---------------------------------------------------------------- one run of one workload


def measure(name, seconds, trace, log):
    """Run one workload for ``seconds``; returns (verifier processes, metrics)."""
    spec = WORKLOADS[name]
    if not (ROOT / "src" / "expspec").is_dir():
        raise ProgramUnavailable(f"no expspec package under {ROOT / 'src'}")
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    probe(deadline)  # warms the file cache, and fails fast on a checkout without the program
    runs = []
    modes = itertools.cycle([False, True] if trace else [False])
    min_runs = 2 * MIN_TRACED_PAIRS if trace else MIN_SAMPLES
    while True:
        traced = next(modes)
        run = launch(["--trace"] if traced else [], spec["argv"], deadline)
        run.problems = gate.check_run(spec, run.exit_code, run.stdout)
        if run.spans is None:
            run.problems.append("process wrote no spans: " + run.stderr.decode(errors="replace")[-400:])
        else:
            agg = _aggregate(run.spans)
            run.problems += gate.check_counts(spec, work_counts(agg))
            if traced:
                run.layer = layer_metrics(run, agg)
        runs.append(run)
        log(
            f"{name} {'traced' if traced else 'run'} {len(runs)}: wall {run.wall_s:.3f} s, "
            f"set-up {run.setup_s if run.setup_s is None else round(run.setup_s, 3)} s, "
            f"peak RSS {run.rss_mib:.1f} MiB, exit {run.exit_code}"
            + ("" if not run.problems else f", FAILED: {'; '.join(run.problems)}")
        )
        now = time.monotonic()
        typical = statistics.median(r.wall_s for r in runs)
        if now + typical >= deadline:
            break
        # stop when the next process would end after --seconds; a traced run ends on a traced process
        if len(runs) >= min_runs and traced == bool(trace) and now + typical - start > seconds:
            break

    for i in gate.check_same_bytes([r.stdout for r in runs]):
        runs[i].problems.append("report bytes differ from the other runs of this workload")
    if trace:
        return runs, _trace_metrics(runs)
    return runs, {
        "wall_s": (statistics.median(r.wall_s for r in runs), "s"),
        "setup_s": (statistics.median(r.setup_s for r in runs if r.setup_s is not None), "s"),
        "peak_rss_mb": (statistics.median(r.rss_mib for r in runs), "MiB"),
    }


def _trace_metrics(runs):
    """Medians of the traced processes' layer metrics, plus the tracing overhead."""
    traced = [r for r in runs if r.layer]
    untraced = [r for r in runs if not r.traced]
    if not traced or not untraced:
        for r in runs:
            r.problems.append("the run ended before a traced and an untraced process both finished")
        return {}
    metrics = {
        key: (statistics.median(r.layer[key][0] for r in traced), unit)
        for key, (_, unit) in traced[0].layer.items()
    }
    overhead = statistics.median(r.wall_s for r in traced) - statistics.median(r.wall_s for r in untraced)
    metrics["run.trace_overhead_s"] = (overhead, "s")
    return metrics


def result_line(runs, metrics):
    failed = sum(1 for r in runs if r.problems)
    return {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


# ---------------------------------------------------------------- host facts


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def host_facts(status):
    """CPU count and model, cache sizes, interpreter and numpy versions, BLAS thread variables."""
    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"L{level}"] = size
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cache_per_cpu0": caches,
        "python": status["python"],
        "numpy": status["numpy"],
        "expspec": status["expspec"],
        "blas_thread_vars": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


# ---------------------------------------------------------------- entry point


def _log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_all(seconds, trace, out):
    facts = host_facts(probe(time.monotonic() + RUN_LIMIT_S).status)
    results = {}
    for name in WORKLOADS:
        runs, metrics = measure(name, seconds, trace, _log)
        results[name] = result_line(runs, metrics)
    print(f"{'workload':<24} {'metric':<34} {'value':>14}  unit")
    for name, res in results.items():
        rows = dict(res["metrics"])
        rows["failed_frac"] = {"value": res["failed"] / res["attempted"], "unit": "ratio"}
        for key, v in rows.items():
            print(f"{name:<24} {key:<34} {v['value']:>14.6g}  {v['unit']}")
        print(f"{name:<24} {'runs (attempted / failed)':<34} {res['attempted']:>8d} / {res['failed']}")
    summary = {"host": facts, "seconds": seconds, "trace": trace, "workloads": results}
    if out:
        Path(out).write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps({"correct": all(r["correct"] for r in results.values()), "workloads": results}))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0, help="recorded; the workloads' inputs are fixed")
    p.add_argument("--seconds", type=float, default=30.0, help="how long one run measures")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="with --workload all: write host facts and results here")
    args = p.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args.seconds, args.trace, args.out)
        _log(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
        runs, metrics = measure(args.workload, args.seconds, args.trace, _log)
    except ProgramUnavailable as exc:
        _log(f"perfbench: {exc}")
        return 2
    res = result_line(runs, metrics)
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
