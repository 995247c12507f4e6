"""Outside-in stage trace of one expspec run.

The tracer wraps public functions of the expspec modules at the attribute
their caller resolves (for example ``expspec.report.inverse_identity_sweep``,
which ``run_all`` calls, rather than ``expspec.algebra.inverse_identity_sweep``).
Nothing inside the package changes, so the report bytes of a traced run must
equal those of an untraced one.

Each call becomes a span: name, start, end, parent, peak traced memory and
the exact work counts of that call. Spans are kept in memory and written
once, by ``Tracer.write``, when the run ends.

An untraced verifier process installs only ``COUNTED`` and never starts
tracemalloc: a handful of calls, so its timing is that of the bare program,
and its spans still carry the work counts the correctness gate checks.

Peak memory comes from ``tracemalloc``, which also sees numpy's buffers. A
span resets the tracemalloc peak when it starts, which erases the peak its
parent had reached so far, so each span folds the peak it read before the
reset, and its own peak when it ends, into its parent's.
"""

import functools
import importlib
import inspect
import json
import time
import tracemalloc

import numpy as np


def _ndarray_bytes(values):
    return sum(v.nbytes for v in values if isinstance(v, np.ndarray))


def _kernel(per_matrix):
    """Counts of a linalg2 kernel: matrices handled and logical bytes read plus written.

    ``per_matrix`` is how many output elements one 2x2 matrix yields
    (4 for a product or inverse, 2 for eigenvalue pairs, 1 for a norm).
    Bytes are computed from array sizes (64 B per complex128 2x2), so
    broadcast views count at full size and cache misses are not seen.
    """

    def count(args, result):
        return {
            "matrices": int(np.size(result)) // per_matrix,
            "bytes_computed": _ndarray_bytes(args.values()) + _ndarray_bytes([result]),
        }

    return count


def _mesh_points(args, result):
    return {"points": len(args["mesh"])}


def _result_points(args, result):
    return {"points": len(result)}


def _sweep_pairs(args, result):
    points = len(args["mesh"])
    attempted = points * len(args["mus"])
    return {"points": points, "pairs_attempted": attempted, "pairs_skipped": int(result[1])}


def _cloud_points(args, result):
    return {"cloud_points": len(result)}


def _segment_pairs(args, result):
    return {"segment_pairs": len(args["c1"].points) * len(args["c2"].points)}


def _report_checks(args, result):
    checks = args["self"].checks
    return {"checks": len(checks), "checks_failed": sum(not c.passed for c in checks)}


# Counters that read only the arguments, so they also count a call that raised
# (build_certificates raises on a failed certificate).
_ARGUMENT_COUNTERS = (_mesh_points, _segment_pairs, _report_checks)

# (module, attribute, span name, counter). One function may be reached
# through several modules; every such attribute is wrapped under one name.
TARGETS = (
    ("expspec.cli", "run_identities", "report.run_identities", None),
    ("expspec.cli", "run_certify", "report.run_certify", None),
    ("expspec.cli", "run_generalize", "report.run_generalize", None),
    ("expspec.cli", "run_spectrum", "report.run_spectrum", None),
    ("expspec.cli", "run_all", "report.run_all", None),
    ("expspec.report", "run_identities", "report.run_identities", None),
    ("expspec.report", "run_certify", "report.run_certify", None),
    ("expspec.report", "run_generalize", "report.run_generalize", None),
    ("expspec.report", "run_spectrum", "report.run_spectrum", None),
    ("expspec.report.Report", "render", "report.render", _report_checks),
    ("expspec.report", "mesh_s4", "sphere.mesh_s4", _result_points),
    ("expspec.report", "identity_residuals", "algebra.identity_residuals", _mesh_points),
    ("expspec.report", "inverse_identity_sweep", "algebra.inverse_identity_sweep", _sweep_pairs),
    ("expspec.algebra", "mat_mul", "linalg2.mat_mul", _kernel(4)),
    ("expspec.algebra", "mat_inv", "linalg2.mat_inv", _kernel(4)),
    ("expspec.algebra", "cond2", "linalg2.cond2", _kernel(1)),
    ("expspec.algebra", "op_norm", "linalg2.op_norm", _kernel(1)),
    ("expspec.algebra", "eig2", "linalg2.eig2", _kernel(2)),
    ("expspec.homotopy", "op_norm", "linalg2.op_norm", _kernel(1)),
    ("expspec.spectrum", "eig2", "linalg2.eig2", _kernel(2)),
    ("expspec.report", "sample_spectrum", "spectrum.sample_spectrum", _cloud_points),
    ("expspec.report", "hausdorff_to_target", "spectrum.hausdorff_to_target", None),
    ("expspec.report", "cloud_hausdorff", "spectrum.cloud_hausdorff", None),
    ("expspec.report", "build_certificates", "homotopy.build_certificates", _mesh_points),
    ("expspec.homotopy", "path_invertibility", "homotopy.path_invertibility", _mesh_points),
    ("expspec.homotopy", "hemisphere_preservation", "homotopy.hemisphere_preservation", _mesh_points),
    ("expspec.homotopy", "antipodal_gap", "homotopy.antipodal_gap", _mesh_points),
    ("expspec.linking", "hopf_invariant_of_h", "linking.hopf_invariant_of_h", None),
    ("expspec.linking", "gauss_linking", "linking.gauss_linking", _segment_pairs),
    ("expspec.linking", "curve_separation", "linking.curve_separation", None),
    ("expspec.report", "family_identity_check", "generalize.family_identity_check", _mesh_points),
)


# The targets whose counts the correctness gate reads. Every verifier process,
# traced or not, wraps these, so each one is checked for doing the full work.
COUNTED = tuple(
    t for t in TARGETS
    if t[2] in ("sphere.mesh_s4", "algebra.identity_residuals", "algebra.inverse_identity_sweep", "linking.gauss_linking")
)


def _resolve(path):
    """Import ``path`` as a module, or as a class inside the module it names."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, name = path.rpartition(".")
        return getattr(importlib.import_module(module), name)


class Tracer:
    """Spans of one process, kept in memory until ``write``."""

    def __init__(self):
        self.spans = []
        self._stack = []  # (span index, peak folded in so far)

    def _enter(self, name):
        current, peak = tracemalloc.get_traced_memory()
        if self._stack:
            parent, parent_peak = self._stack[-1]
            self._stack[-1] = (parent, max(parent_peak, peak))
        else:
            parent = None
        tracemalloc.reset_peak()
        self.spans.append({"name": name, "parent": parent, "start": time.perf_counter()})
        self._stack.append((len(self.spans) - 1, current))

    def _exit(self, counts):
        end = time.perf_counter()
        peak = tracemalloc.get_traced_memory()[1]
        index, folded = self._stack.pop()
        span = self.spans[index]
        span["end"] = end
        span["peak_bytes"] = max(folded, peak)
        span["counts"] = counts
        if self._stack:
            parent, parent_peak = self._stack[-1]
            self._stack[-1] = (parent, max(parent_peak, span["peak_bytes"]))

    def wrap(self, fn, name, counter=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self._enter(name)
            result, raised = None, True
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                counts = {}
                if counter is not None and (not raised or counter in _ARGUMENT_COUNTERS):
                    counts = counter(bound.arguments, result)
                self._exit(counts)

        return traced

    def install(self, targets=TARGETS):
        """Wrap every target; a missing target means the benchmark no longer fits the program."""
        for path, attr, name, counter in targets:
            owner = _resolve(path)
            fn = getattr(owner, attr)  # AttributeError names the missing target
            setattr(owner, attr, self.wrap(fn, name, counter))

    def call(self, name, fn, *args):
        """Run ``fn`` as a top-level span with tracemalloc on."""
        tracemalloc.start()
        try:
            self._enter(name)
            try:
                return fn(*args)
            finally:
                self._exit({})
        finally:
            tracemalloc.stop()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)
