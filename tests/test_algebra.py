import ast
import gc
import os
import select
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from contextlib import suppress
from dataclasses import astuple, is_dataclass
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from expspec import algebra, fork, homotopy, spectrum
from expspec.algebra import (
    _IDENTITY_LAYOUT,
    _INVERSE_LAYOUT,
    CHUNK,
    DomainError,
    MU_PROBES,
    _identity_chunk,
    _inverse_identity_chunk,
    _reciprocal,
    _tables,
    _times_i,
    field_a,
    field_b,
    field_c,
    field_one_minus_2ab,
    field_one_minus_2ba,
    fold,
    identity_residuals,
    inverse_identity_sweep,
    phi,
    product_eigenvalue,
)
from expspec.homotopy import f_map, null_homotopy_ba, suspension_eh
from expspec.linalg2 import Layout, SingularMatrix, eig2, eye_like, mat_inv, mat_mul, op_norm, planes
from expspec.sphere import mesh_s4

from conftest import as_field, as_stack, assert_no_child_left, poisoned

S = 1 / np.sqrt(2)


def check_inverse_identity(z0, z1, z2, mu):
    """Pointwise ||(I - mu ba)(I + mu b u a) - I|| with u = (I - mu ab)^{-1}.

    The oracle for inverse_identity_sweep, built from the public kernels
    only. Zero in exact arithmetic whenever I - mu ab is invertible; raises
    SingularMatrix (from mat_inv) when it is not. For condition numbers up
    to 1e6 the residual stays below 1e-10.
    """
    a = field_a(z0, z1, z2)
    b = field_b(z0, z1, z2)
    eye = eye_like(a)
    u = mat_inv(eye - mu * mat_mul(a, b))
    lhs = mat_mul(eye - mu * mat_mul(b, a), eye + mu * mat_mul(b, mat_mul(u, a)))
    return op_norm(lhs - eye)


def test_eval_a_points():
    assert_allclose(as_stack(field_a(1, 0, 0)), [[1, 0], [0, 0]])
    assert_allclose(as_stack(field_a(0, 0, 1)), np.zeros((2, 2)))
    assert_allclose(as_stack(field_a(0, 1, 0)), [[0, 0], [1, 0]])


def test_eval_b_points():
    assert_allclose(as_stack(field_b(1, 0, 0)), [[1, 0], [0, 0]])
    assert_allclose(as_stack(field_b(0, 0, -1)), np.zeros((2, 2)))
    assert_allclose(as_stack(field_b(0, 1, 0)), [[0, 1], [0, 0]])


def test_eval_c_points():
    assert_allclose(as_stack(field_c(0, 0, 1)), np.eye(2))
    assert_allclose(as_stack(field_c(1, 0, 0)), np.diag([-1.0, 1.0]))
    assert_allclose(as_stack(field_c(0, 1, 0)), np.diag([1.0, -1.0]))


def test_one_minus_2ab_points():
    assert_allclose(as_stack(field_one_minus_2ab(0, 0, 1)), np.eye(2))
    assert_allclose(as_stack(field_one_minus_2ab(S, S, 0)), [[0, -1], [-1, 0]], atol=1e-15)


def test_one_minus_2ba_points():
    assert_allclose(as_stack(field_one_minus_2ba(1, 0, 0)), np.diag([-1.0, 1.0]), atol=1e-15)
    # phi(+-1) = 1 exactly, so both poles give the identity exactly
    assert np.array_equal(as_stack(field_one_minus_2ba(0, 0, 1)), np.eye(2))
    assert np.array_equal(as_stack(field_one_minus_2ba(0, 0, -1)), np.eye(2))


def test_phi_values_and_domain():
    assert phi(0) == -1
    assert phi(1) == 1
    assert phi(-1) == 1
    z = np.linspace(-1, 1, 1001)
    assert np.abs(np.abs(phi(z)) - 1).max() <= 1e-14
    with pytest.raises(DomainError):
        phi(1.1)


def test_eig_of_one_minus_2ba_at_unit_point():
    ev = eig2(field_one_minus_2ba(1, 0, 0))
    assert_allclose(ev, [-1, 1], atol=1e-15)


def test_identity_residuals_on_mesh(mesh9):
    r = identity_residuals(mesh9)
    assert r.ab_vs_c <= 1e-13
    assert r.ba_vs_diag <= 1e-13
    assert r.phi_unit_modulus <= 1e-14
    assert r.a_rank_one <= 1e-13
    assert r.b_rank_one <= 1e-13
    assert r.ab_eigenvalues <= 1e-12


def test_product_eigenvalue_closed_form(mesh9):
    z0, z1, z2 = mesh9.arrays()
    lam = product_eigenvalue(z2)
    # the product by numpy's matmul, independent of linalg2.mat_mul
    got = eig2(as_field(as_stack(field_a(z0, z1, z2)) @ as_stack(field_b(z0, z1, z2))))
    # the closed form is one of the two eigenvalues, the other is ~0
    err = np.minimum(
        np.abs(got[0] - lam) + np.abs(got[1]),
        np.abs(got[1] - lam) + np.abs(got[0]),
    )
    assert err.max() <= 1e-12


def test_inverse_identity_trivial_mu():
    assert check_inverse_identity(0.6, 0.8j, 0.0, 0.0) == 0.0


def test_inverse_identity_zero_product_at_pole():
    # at the north pole a = b = 0, so u = I and the residual is exact zero
    assert check_inverse_identity(0, 0, 1, 2.0) <= 1e-12


def test_inverse_identity_singular_on_equator():
    # at mu = 1 the probe hits the spectral point 1, which ab attains
    # exactly on the equator: 1 - ab is singular there by construction
    with pytest.raises(SingularMatrix):
        check_inverse_identity(S, S, 0, 1.0)


def test_inverse_identity_conditioned_point():
    assert check_inverse_identity(0.5, 0.5, S, 1.0) <= 1e-10


def test_inverse_identity_sweep(mesh9):
    worst, skipped = inverse_identity_sweep(mesh9, MU_PROBES)
    assert worst <= 1e-10
    # mu = 1 is skipped exactly on the equator ring (80 points)
    assert skipped == 80


@pytest.mark.parametrize("mu", [mu for mu in MU_PROBES if mu != 1.0])
def test_inverse_identity_sweep_matches_oracle(mesh9, mu):
    # every point is conditioned at these probes, so the sweep's maximum is
    # the pointwise oracle's, bit for bit
    worst, skipped = inverse_identity_sweep(mesh9, (mu,))
    assert skipped == 0
    assert worst == check_inverse_identity(*mesh9.arrays(), mu).max()


def test_inverse_identity_random_mus(mesh9):
    rng = np.random.RandomState(2)
    mus = tuple(rng.uniform(-2, 2, 4) + 1j * rng.uniform(-2, 2, 4))
    worst, _ = inverse_identity_sweep(mesh9, mus)
    assert worst <= 1e-10


def test_inverse_identity_sweep_memory_stays_bounded():
    # 32 workspace planes of CHUNK points are 4 MiB; the mesh's chunk buffers
    # (0.3 MiB) and a ufunc's float-to-complex cast buffers (0.25 MiB) come on
    # top. With 40 planes the sweep traced 5.7 MiB.
    mesh = mesh_s4(9, 32)
    assert len(mesh) > CHUNK
    tracemalloc.start()
    try:
        worst, _ = inverse_identity_sweep(mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert worst <= 1e-10
    assert peak < 5 << 20


def test_inverse_identity_sweep_guards_conditioned_lanes(mesh9, monkeypatch):
    # with no conditioning cut the singular equator ring at mu = 1 is a
    # conditioned lane, so the singularity guard must fire
    monkeypatch.setattr(algebra, "COND_LIMIT", np.inf)
    with pytest.raises(SingularMatrix):
        inverse_identity_sweep(mesh9, (1.0,))


def test_sweeps_do_not_depend_on_chunking(mesh9, monkeypatch):
    def run_all_sweeps():
        return repr(
            (
                identity_residuals(mesh9),
                inverse_identity_sweep(mesh9),
                homotopy.hemisphere_preservation(mesh9),
                homotopy.antipodal_gap(mesh9),
                homotopy.path_invertibility(mesh9),
                [spectrum.sample_spectrum(name, mesh9).tolist() for name in algebra.ELEMENTS],
            )
        )

    default_chunk = algebra.CHUNK
    monkeypatch.setattr(algebra, "CHUNK", len(mesh9))
    one_chunk = run_all_sweeps()
    # at CHUNK = 3 the south pole, the last of the 562 points, is a chunk of
    # its own; the smallest chunks differ bit-wise only at one point (below)
    assert len(mesh9) % 7 != 0 and len(mesh9) % 3 == 1
    points = mesh9.arrays()
    for chunk in (default_chunk, 7, 3, 2):
        monkeypatch.setattr(algebra, "CHUNK", chunk)
        swept = algebra.sweep(lambda z0, z1, z2, ws, lat: (z0.copy(), z1.copy(), z2.copy()), mesh9, Layout(),
                              lambda z2: None, (np.concatenate,) * 3)
        for got, want in zip(swept, points, strict=True):
            assert np.array_equal(got, want)
        assert run_all_sweeps() == one_chunk


# the pointwise evaluators, each on (z0, z1, z2); the one-point calls of
# field_c, f_map and suspension_eh round differently on numpy's AVX-512 kernels
POINTWISE = {
    "phi": lambda z0, z1, z2: phi(z2),
    "product_eigenvalue": lambda z0, z1, z2: product_eigenvalue(z2),
    "field_c": field_c,
    "f_map": f_map,
    "suspension_eh": suspension_eh,
}


@pytest.mark.parametrize("name", POINTWISE)
def test_a_lone_south_pole_chunk_is_exact(name, mesh9):
    # a kernel run on a 1-element array may round differently from the same
    # point among 2 or more lanes (field_c, for one), so a sweep matches its
    # one-chunk run for chunks of 2 or more points. Its last chunk may still
    # hold one point, the south pole, where each evaluator is exact
    evaluate, last = POINTWISE[name], len(mesh9) - 1
    alone = np.asarray(evaluate(*next(mesh9.chunks(1, last))[:3]))[..., 0].copy()
    for lanes in (2, 3, 8):
        within = np.asarray(evaluate(*next(mesh9.chunks(lanes, last + 1 - lanes))[:3]))[..., -1]
        assert alone.tobytes() == within.tobytes()


# the z2-only functions, which the latitude tables and the det grid evaluate
Z2_ONLY = {
    "phi": phi,
    "product_eigenvalue": product_eigenvalue,
    "null_homotopy_ba": lambda z2: null_homotopy_ba(z2, 0.25),
}


@pytest.mark.parametrize("name", Z2_ONLY)
def test_z2_only_functions_round_alike_one_lane_at_a_time(name):
    # every lane of one call, bit for bit, whatever the array around it: a
    # 1-lane call included, on numpy's AVX-512 kernels as on its baseline ones.
    # At 8,049 values: the first 6,000 points of the 33x32 mesh and the 2,049
    # latitude cosines of the largest latitude count the CLI accepts
    z2 = np.concatenate([next(mesh_s4(33, 32).chunks(6000))[2], mesh_s4(2049, 8).z2_values])
    evaluate = Z2_ONLY[name]
    whole = evaluate(z2)
    alone = np.concatenate([evaluate(z2[i : i + 1]) for i in range(len(z2))], axis=-1)
    assert alone.tobytes() == whole.tobytes()


def test_many_chunk_sweep_leaves_no_tuples_behind(mesh9, monkeypatch):
    # 281 chunks of 2 points. A tuple built from a generator, in
    # SphereMesh4.chunks, _identity_chunk and planar's broadcast_shapes
    # arguments, left one more 3-, 6- and 4-tuple per chunk on CPython's
    # free list: 62 KiB more per sweep here. What stays is about 9.4 KiB
    # of the dict free list, which holds at most 80
    monkeypatch.setattr(algebra, "CHUNK", 2)

    def kernel(z0, z1, z2, ws, lat):
        _identity_chunk(z0, z1, z2, ws, lat)
        return ()

    algebra.sweep(kernel, mesh9, _IDENTITY_LAYOUT, _tables, ())
    enabled = gc.isenabled()
    gc.disable()
    gc.collect()  # empties the free lists
    tracemalloc.start()
    try:
        algebra.sweep(kernel, mesh9, _IDENTITY_LAYOUT, _tables, ())
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    assert kept < 16 << 10


class _Arrays:
    """A mesh stand-in: fixed coordinate arrays, swept in slices, with no latitudes."""

    def __init__(self, z0, z1, z2):
        self.z0, self.z1, self.z2, self.z2_values = z0, z1, z2, None

    def __len__(self):
        return len(self.z2)

    def chunks(self, size, start=0, stop=None):
        stop = len(self) if stop is None else stop
        for i in range(start, stop, size):
            j = min(i + size, stop)
            yield self.z0[i:j], self.z1[i:j], self.z2[i:j], None


class _Poisoned:
    """A mesh stand-in: the mesh's chunks and latitude runs, with z0 = nan at one point."""

    def __init__(self, mesh, index):
        self.mesh, self.index, self.z2_values = mesh, index, mesh.z2_values

    def __len__(self):
        return len(self.mesh)

    def chunks(self, size, start=0, stop=None):
        for i, chunk in zip(range(start, len(self), size), self.mesh.chunks(size, start, stop)):
            if 0 <= self.index - i < len(chunk[0]):
                chunk[0][self.index - i] = np.nan
            yield chunk


def test_inverse_identity_sweep_keeps_nan_lanes(mesh9):
    # a nan point has a nan condition number; it must reach the maximum,
    # not be skipped as ill-conditioned (the skip count stays the clean 80)
    worst, skipped = inverse_identity_sweep(_Poisoned(mesh9, len(mesh9) // 3))
    assert np.isnan(worst)
    assert skipped == 80


def test_chunk_kernels_ignore_stale_workspace_lanes(mesh9):
    # sweep hands a partial last chunk the views of work[:, :n] of the
    # workspace a full chunk used, so its lanes still hold that chunk's
    # values, here a nan; a fresh nan-filled workspace turns any lane read
    # before it is written into a nan result. The planes filled from the
    # latitude tables are among them, and tables spoiled at every latitude
    # the partial chunk does not hold must give the same result
    full, n = 300, 100
    z0, z1, z2 = (x[:full] for x in mesh9.arrays())
    tab, runs, part = _tables(mesh9.z2_values), mesh9.latitude_runs(0, full), mesh9.latitude_runs(0, n)
    z0_nan = z0.copy()
    z0_nan[5] = np.nan
    cases = (
        (_identity_chunk, _IDENTITY_LAYOUT, ()),
        (_inverse_identity_chunk, _INVERSE_LAYOUT, (MU_PROBES,)),
    )
    for chunk, layout, args in cases:
        work = np.full((layout.planes, full), complex(np.nan, np.nan))
        with np.errstate(invalid="ignore"):
            assert np.isnan(chunk(z0_nan, z1, z2, layout.cut(work), (tab, runs), *args)[0])
        stale = chunk(z0[:n], z1[:n], z2[:n], layout.cut(work[:, :n]), (tab, part), *args)
        fresh = np.full((layout.planes, n), complex(np.nan, np.nan))
        fresh = chunk(z0[:n], z1[:n], z2[:n], layout.cut(fresh), (tab, part), *args)
        spoiled = chunk(z0[:n], z1[:n], z2[:n], layout.cut(work[:, :n]), (poisoned(tab, part), part), *args)
        assert repr(stale) == repr(fresh) == repr(spoiled)
        assert not np.isnan(fresh).any()


# -------------------------------------------------------------- split sweeps


def _bits(part):
    """A sweep result, per chunk or folded, with every float as its hex and every array as bytes."""
    if isinstance(part, np.ndarray):
        return part.tobytes()
    if is_dataclass(part):
        part = astuple(part)
    if isinstance(part, tuple):
        return tuple(_bits(p) for p in part)
    return part if isinstance(part, int) else float(part).hex()


SWEEP_RUNS = {
    "identity": identity_residuals,
    "inverse": inverse_identity_sweep,
    "path start": homotopy.path_invertibility,
    "f/Eh": homotopy.antipodal_gap,
    "f/Eh flipped": lambda mesh: homotopy.antipodal_gap(mesh, _flip_equator=True),
    "spectrum": lambda mesh: spectrum.sample_spectrum("ab", mesh),
}


# a mesh of two or more chunks for each chunk size, None for the default
# CHUNK, cut inside its equator latitude: 562 points at CHUNK = 2 and 7 (cut
# at point 280, equator 241 to 320), 5,602 in 6 chunks of 1,021 (cut at
# 3,063, equator 2,401 to 3,200), and 50,626 in 7 chunks of 8,192 (cut at
# 24,576, equator 21,697 to 28,928)
SPLIT_MESHES = {2: (9, 8), 7: (9, 8), 1021: (9, 16), None: (9, 32)}


@pytest.mark.parametrize("chunk", SPLIT_MESHES)
@pytest.mark.parametrize("name", SWEEP_RUNS)
def test_split_sweep_matches_one_process_bit_for_bit(name, chunk, forks, monkeypatch):
    # the per-chunk parts and the folded result, forked and in one process;
    # sweep hands fold every chunk's parts, so they are recorded there
    mesh = mesh_s4(*SPLIT_MESHES[chunk])
    monkeypatch.setattr(algebra, "CHUNK", chunk or CHUNK)
    assert CHUNK == 8192 and len(mesh) > algebra.CHUNK
    real_fold, parts = algebra.fold, []

    def recording(chunks, rules):
        parts.append([_bits(p) for p in chunks])
        return real_fold(chunks, rules)

    monkeypatch.setattr(algebra, "fold", recording)

    def run(split_points):
        monkeypatch.setattr(algebra, "SPLIT_POINTS", split_points)
        parts.clear()
        folded = _bits(SWEEP_RUNS[name](mesh))
        return list(parts), folded

    one = run(len(mesh) + 1)
    assert not forks and one[0]
    split = run(0)
    assert len(forks) == len(split[0])
    assert split == one
    assert_no_child_left()


def test_fold_keeps_nans_and_reads_signed_zero_ties_as_zero(mesh9):
    parts = [(1.0, 2.0, 3), (-1.0, 5.0, 4), (0.5, -2.0, 0), (0.25, 0.0, 2)]
    cases = {(np.maximum, np.minimum, sum): (1.0, -2.0, 9), (np.minimum, np.maximum, sum): (-1.0, 5.0, 9)}
    for rules, want in cases.items():
        # _bits keeps the count an int
        assert _bits(fold(parts, rules)) == _bits(want)
        # a nan in any part and any field, whatever that part's place
        for i in range(len(parts)):
            for j in range(2):
                spoiled = [list(p) for p in parts]
                spoiled[i][j] = np.nan
                assert np.isnan(fold(spoiled, rules)[j]), (rules[j], i, j)
        # the fork's cut: each half's fold, then the pair's, is the fold of all parts
        for cut in range(1, len(parts)):
            halves = [fold(parts[:cut], rules), fold(parts[cut:], rules)]
            assert _bits(fold(halves, rules)) == _bits(fold(parts, rules))
    # a -0.0/0.0 tie reads 0.0 whichever zero comes first
    for tie in ([(-0.0,), (0.0,)], [(0.0,), (-0.0,)], [(-0.0,), (-0.0,)]):
        for rule in (np.maximum, np.minimum):
            assert _bits(fold(tie, (rule,))) == _bits((0.0,))
    # a callable rule: sample_spectrum's cloud merge, on the per-chunk clouds
    # of ab over mesh9 at 7 points a chunk (81 parts), each deduplicated as
    # its kernel does; a nan cloud value in any part must survive the merge
    merge = (lambda clouds: spectrum._dedup(np.concatenate(clouds)),)
    z0, z1, z2 = mesh9.arrays()
    parts = [(spectrum._dedup(eig2(algebra.field_ab(z0[i : i + 7], z1[i : i + 7], z2[i : i + 7])).ravel()),)
             for i in range(0, len(z2), 7)]
    (whole,) = fold(parts, merge)
    assert whole.tobytes() == spectrum._dedup(np.concatenate([p for p, in parts])).tobytes()
    assert whole.tobytes() == spectrum.sample_spectrum("ab", mesh9).tobytes()
    # the fork's cut: each half's fold, then the pair's, is the fold of all parts
    for cut in (1, 2, 40, len(parts) - 1):
        halves = [fold(parts[:cut], merge), fold(parts[cut:], merge)]
        assert _bits(fold(halves, merge)) == _bits((whole,))
    for i in (0, len(parts) // 2, len(parts) - 1):
        spoiled = [(np.append(p, complex(np.nan, 0.0)),) if j == i else (p,) for j, (p,) in enumerate(parts)]
        (cloud,) = fold(spoiled, merge)
        assert np.isnan(cloud[-1]) and cloud[:-1].tobytes() == whole.tobytes()
        cut = i or 1
        halves = [fold(spoiled[:cut], merge), fold(spoiled[cut:], merge)]
        assert _bits(fold(halves, merge)) == _bits((cloud,))


def test_failed_fork_runs_the_back_half_here(forks, monkeypatch, mesh9):
    # a fork that raises OSError leaves the whole sweep to this process
    monkeypatch.setattr(algebra, "CHUNK", 7)
    want = repr(inverse_identity_sweep(mesh9))
    assert forks

    def no_fork():
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", no_fork)
    assert repr(inverse_identity_sweep(mesh9)) == want
    assert_no_child_left()


def test_failed_fork_runs_the_whole_range_once(forks, monkeypatch):
    # no helper: the same single run(0, length) as an unsplit range
    def no_fork():
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", no_fork)
    calls = []

    def run(start, stop):
        calls.append((start, stop))
        yield from range(start, stop, 16)

    assert list(algebra._two_halves(160, 16, run, True)) == list(range(0, 160, 16))
    assert calls == [(0, 160)]
    assert_no_child_left()


def test_one_cpu_sweeps_in_one_process(forks, monkeypatch, mesh9):
    monkeypatch.setattr(algebra, "CHUNK", 7)
    monkeypatch.setattr(fork, "_cpus", lambda: 1)
    identity_residuals(mesh9)
    assert not forks


def _plain_sweep(kernel, mesh, rules):
    """algebra.sweep without a workspace or latitude tables."""
    return algebra.sweep(kernel, mesh, Layout(), lambda z2: None, rules)


def test_split_threshold_forks_only_large_meshes(forks, monkeypatch):
    monkeypatch.setattr(algebra, "SPLIT_POINTS", 1 << 18)
    count = lambda z0, z1, z2, ws, lat: ()  # noqa: E731
    _plain_sweep(count, mesh_s4(33, 32), ())  # 224,194 points
    assert not forks
    _plain_sweep(count, mesh_s4(97, 32), ())  # 687,042 points
    assert len(forks) == 1
    assert_no_child_left()


def _index_mesh(n):
    """n points whose z2 (and Re z0) is the point's index."""
    z2 = np.arange(n, dtype=np.float64)
    return _Arrays(z2.astype(np.complex128), np.zeros(n, np.complex128), z2)


@pytest.mark.parametrize("split", [False, True], ids=["one process", "forked"])
def test_sweep_cuts_the_workspace_to_each_chunk(split, forks, monkeypatch):
    # 170 points at CHUNK = 16: ten full chunks and a last one of 10 points,
    # forked at point 80; the shapes and the workspace's offset from a
    # 64-byte boundary come back as the kernel's results
    monkeypatch.setattr(algebra, "CHUNK", 16)
    if not split:
        monkeypatch.setattr(algebra, "SPLIT_POINTS", 171)

    def kernel(z0, z1, z2, ws, lat):
        return ws.work.shape, len(z2), ws.work.ctypes.data % 64

    shapes, sizes, offsets = algebra.sweep(kernel, _index_mesh(170), Layout(work=planes(3)), lambda z2: None, (list,) * 3)
    assert sizes == [16] * 10 + [10]
    assert shapes == [(3, n) for n in sizes]
    assert offsets == [0] * 11
    assert len(forks) == split
    assert_no_child_left()


def test_forked_sweep_warns_nothing(forks):
    # Python 3.12 and later warn (DeprecationWarning) when os.fork runs in a
    # process with other threads, and drop that warning under an error::
    # filter; recorded under "always", a fork that warns fails here
    def run(start, stop):
        yield from range(start, stop, 16)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert list(algebra._two_halves(160, 16, run, True)) == list(range(0, 160, 16))
    assert forks
    assert [str(w.message) for w in caught] == []
    assert_no_child_left()


def _singular_at(*points):
    """A kernel that raises SingularMatrix on the chunk holding any of points."""

    def kernel(z0, z1, z2, ws, lat):
        for i in points:
            if z2[0] <= i <= z2[-1]:
                raise SingularMatrix(f"singular at point {i}")
        return (float(z2.sum()),)

    return kernel


@pytest.mark.parametrize(
    "points, message",
    [((100,), "singular at point 100"), ((5,), "singular at point 5"), ((5, 100), "singular at point 5")],
    ids=["back half", "front half", "both halves"],
)
def test_split_sweep_raises_what_one_process_raises(points, message, forks, monkeypatch):
    # ten chunks of 16 points, cut at point 80; an error in the front half wins
    monkeypatch.setattr(algebra, "CHUNK", 16)
    with pytest.raises(SingularMatrix) as err:
        _plain_sweep(_singular_at(*points), _index_mesh(160), (list,))
    assert type(err.value) is SingularMatrix and str(err.value) == message
    assert forks
    assert_no_child_left()
    sums = [float(sum(range(i, i + 16))) for i in range(0, 160, 16)]
    assert _plain_sweep(_singular_at(), _index_mesh(160), (list,)) == (sums,)
    assert_no_child_left()


def test_helper_error_reaches_the_parent(forks, monkeypatch):
    # an error only the helper meets: the parent must raise it, not redo
    # the back half itself
    monkeypatch.setattr(algebra, "CHUNK", 16)
    main = os.getpid()

    def kernel(z0, z1, z2, ws, lat):
        if os.getpid() != main:
            raise SingularMatrix(f"singular in the helper at point {z2[0]:.0f}")
        return ()

    with pytest.raises(SingularMatrix, match="^singular in the helper at point 80$"):
        _plain_sweep(kernel, _index_mesh(160), ())
    assert_no_child_left()


def test_unreadable_helper_results_are_swept_here(forks, monkeypatch):
    # a result that does not pickle reaches the parent as nothing readable,
    # so the parent sweeps the back half itself
    monkeypatch.setattr(algebra, "CHUNK", 16)
    (parts,) = _plain_sweep(lambda z0, z1, z2, ws, lat: (lambda: float(z2[0]),), _index_mesh(160), (list,))
    assert [p() for p in parts] == [float(i) for i in range(0, 160, 16)]
    assert forks
    assert_no_child_left()


def test_interrupted_sweep_kills_its_helper(forks, monkeypatch):
    # the helper would sleep 10 s; the parent's KeyboardInterrupt must kill
    # and reap it at once
    monkeypatch.setattr(algebra, "CHUNK", 16)

    def kernel(z0, z1, z2, ws, lat):
        if z2[0] >= 80:
            time.sleep(2.0)
        else:
            raise KeyboardInterrupt

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        _plain_sweep(kernel, _index_mesh(160), ())
    assert time.monotonic() - start < 5.0
    assert forks
    assert_no_child_left()


def test_closed_two_halves_kills_its_helper(forks):
    # a consumer that stops after the first result closes the generator; the
    # helper, whose every block would sleep 2 s, must be killed and reaped
    def run(start, stop):
        for _ in range(start, stop, 16):
            if start:
                time.sleep(2.0)
            yield start

    start = time.monotonic()
    halves = algebra._two_halves(160, 16, run, True)
    assert next(halves) == 0
    halves.close()
    assert time.monotonic() - start < 5.0
    assert forks
    assert_no_child_left()


ORPHAN_SCRIPT = """
import os, sys, time
from expspec import algebra, fork, mesh_s4
from expspec.linalg2 import Layout
algebra.CHUNK, algebra.SPLIT_POINTS = 7, 0
fork._cpus = lambda: 2
fd, main = int(sys.argv[1]), os.getpid()

def kernel(z0, z1, z2, ws, lat):
    if os.getpid() != main:
        os.write(fd, b"x")
    time.sleep(0.2)
    return ()

algebra.sweep(kernel, mesh_s4(9, 8), Layout(), lambda z2: None, ())
"""


def test_helper_stops_when_its_parent_dies():
    # the helper's 41 chunks take 8 s; once its parent is killed it must exit
    # before its next chunk. It holds the write end of a pipe, so the read
    # end sees EOF when it exits, whoever reaps it.
    env = {**os.environ, "PYTHONPATH": str(Path(algebra.__file__).resolve().parents[1])}
    r, w = os.pipe()
    proc = subprocess.Popen([sys.executable, "-c", ORPHAN_SCRIPT, str(w)], env=env, pass_fds=(w,),
                            start_new_session=True)
    os.close(w)
    try:
        assert select.select([r], [], [], 60)[0] and os.read(r, 1) == b"x"
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + 3.0
        while select.select([r], [], [], max(deadline - time.monotonic(), 0))[0]:
            if not os.read(r, 4096):
                break
        else:
            pytest.fail("the helper outlived its parent by 3 s")
    finally:
        os.close(r)
        with suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


# what forks a helper, kills or reaps it, or reads back its results
FORK_NAMES = {"os.fork", "os.kill", "os.waitpid", "pickle"}


def _fork_names(path):
    """The FORK_NAMES a module's source names: as attributes of os, or imported."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            found.add(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
    return found & FORK_NAMES


def test_only_fork_py_forks():
    # the two-process runner is one module, so a change to how a helper is
    # forked, killed, reaped or read back changes fork.py alone
    package = Path(algebra.__file__).parent
    named = {path.name: _fork_names(path) for path in sorted(package.glob("*.py"))}
    assert named.pop("fork.py") == FORK_NAMES
    assert named and not any(named.values()), {name: found for name, found in named.items() if found}


# ---------------------------------------------------------------- i * z2


SPECIAL = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308])


def test_times_i_is_the_complex_product_bit_for_bit():
    x = np.concatenate([SPECIAL, np.random.RandomState(3).uniform(-1.0, 1.0, CHUNK)])
    with np.errstate(invalid="ignore"):
        want = np.multiply(1j, x)
        got = _times_i(x, np.empty_like(want))
        assert got.tobytes() == want.tobytes()
        recip = np.divide(1.0, np.add(1.0, np.multiply(1j, x)))
        assert _reciprocal(x, np.empty_like(want)).tobytes() == recip.tobytes()
    z2 = np.concatenate([SPECIAL[np.abs(SPECIAL) <= 1.0], np.linspace(-1.0, 1.0, 1001)])
    iz = np.multiply(1j, z2)
    assert phi(z2).tobytes() == np.negative(np.square((1.0 - iz) / (1.0 + iz))).tobytes()
    assert _times_i(np.float64(0.5), np.empty((), np.complex128)) == 0.5j


def test_times_i_allocates_no_cast_buffer():
    # 1j * x casts the float plane to complex in a 128 KiB buffer per call
    x = np.random.RandomState(4).uniform(-1.0, 1.0, CHUNK)
    out = np.empty(CHUNK, np.complex128)
    tracemalloc.start()
    try:
        _reciprocal(x, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 10


# a call of each evaluator on one chunk z = (z0, z1, z2), its buffers made by new(k)
NO_CAST_CASES = {
    "f_map": lambda z, new: partial(f_map, *z[:3], out=new(2), work=new(2)),
    "suspension_eh": lambda z, new: partial(suspension_eh, *z[:3], out=new(2), work=new(3)),
    "_identity_chunk": lambda z, new: partial(_identity_chunk, *z[:3], _IDENTITY_LAYOUT.cut(new(_IDENTITY_LAYOUT.planes)),
                                              (_tables(mesh_s4(65, 64).z2_values), z[3])),
}


@pytest.mark.parametrize("name", NO_CAST_CASES)
def test_buffered_evaluators_allocate_no_cast_buffer(name):
    # a float plane in a complex ufunc (s * w, or a complex plane divided by
    # a float one) is cast to complex in a 128 KiB buffer per call on a
    # chunk. The first call fills numpy's caches; the second is traced.
    z = next(mesh_s4(65, 64).chunks(CHUNK, 1 << 20))
    evaluate = NO_CAST_CASES[name](z, lambda k: np.empty((k, CHUNK), np.complex128))
    evaluate()
    tracemalloc.start()
    try:
        evaluate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 10
