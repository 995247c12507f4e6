import tracemalloc

import numpy as np
import pytest

from expspec import spectrum
from expspec.spectrum import (
    BLOCK_ELEMENTS,
    CIRCLE_C,
    DEDUP_DECIMALS,
    UNIT_CIRCLE_T,
    TargetSet,
    _dedup,
    cloud_hausdorff,
    cloud_to_csv,
    cloud_to_svg,
    drop_zeros,
    eigenvalue_lipschitz,
    hausdorff_to_target,
    sample_spectrum,
)
from expspec.sphere import mesh_s4


def test_identity_element_cloud(mesh9):
    cloud = sample_spectrum("one", mesh9)
    assert len(cloud) == 1
    assert cloud[0] == 1.0


def test_one_minus_2ba_cloud_on_unit_circle(mesh9):
    cloud = sample_spectrum("one-minus-2ba", mesh9)
    assert np.abs(np.abs(cloud) - 1.0).max() <= 1e-12


def test_ab_cloud_on_circle_c(mesh9):
    cloud = sample_spectrum("ab", mesh9)
    assert CIRCLE_C.distance(cloud).max() <= 1e-10


def test_cloud_is_deterministic_and_sorted(mesh9):
    a = sample_spectrum("ba", mesh9)
    b = sample_spectrum("ba", mesh9)
    assert np.array_equal(a, b)
    order = np.lexsort((a.imag, a.real))
    assert np.array_equal(order, np.arange(len(a)))


def test_dedup_drops_the_sign_of_zero():
    # the sort keeps either of two equal zeros, so a -0.0 from rounding
    # would make the cloud depend on the chunk boundaries
    q = _dedup(np.array([complex(-1e-15, -1e-15), complex(1e-15, 1e-15)]))
    assert q.size == 1 and not np.signbit(q.real).any() and not np.signbit(q.imag).any()


def unique_dedup(values):
    """The deduplication as np.unique forms it: the oracle for _dedup."""
    q = np.round(values.real, DEDUP_DECIMALS) + 1j * np.round(values.imag, DEDUP_DECIMALS)
    return np.unique(q + 0.0)


def _cloud(rng, size):
    """Values on a coarse grid (many duplicates), with 1e-13 noise, signed zeros and nan lanes."""
    re = rng.integers(-2, 3, size) + rng.choice([0.0, 1e-13, -1e-13], size)
    im = rng.integers(-2, 3, size) + rng.choice([0.0, 1e-13, -1e-13], size)
    pick = rng.random(size)
    re[pick < 0.1] = -0.0
    im[(pick > 0.05) & (pick < 0.15)] = -0.0
    re[(pick > 0.2) & (pick < 0.22)] = np.nan
    im[(pick > 0.21) & (pick < 0.23)] = np.nan
    # re + 1j * im would lose a -0.0 imaginary part
    values = np.empty(size, np.complex128)
    values.real, values.imag = re, im
    return values


NAN_LANES = [complex(np.nan, 0.0), complex(0.0, np.nan), complex(np.nan, np.nan)]


@pytest.mark.parametrize(
    "values",
    [
        np.array([], np.complex128),
        np.array([1 + 1j, 1 + 1j, complex(-0.0, -0.0), 0j, complex(-0.0, 1.0), complex(0.0, -0.0)]),
        np.array(NAN_LANES + [2.0, 2.0]),
        np.array([3.0] + NAN_LANES[::-1] + [-1.0]),
        np.array([complex(1.0, np.nan)] + NAN_LANES),
        *(_cloud(np.random.default_rng(seed), size) for seed, size in ((0, 1), (1, 50), (2, 20000))),
    ],
)
def test_dedup_matches_np_unique_bit_for_bit(values):
    # every nan lane collapses onto the first in input order, as in np.unique
    want = unique_dedup(values)
    got = _dedup(values)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_hausdorff_two_point_cloud_vs_circle():
    # farthest target point from {0, 1} sits at angle pi/2 on the circle,
    # at distance sin(pi/4); both cloud points lie on the circle
    cloud = np.array([0.0 + 0j, 1.0 + 0j])
    d = hausdorff_to_target(cloud, CIRCLE_C)
    assert d == pytest.approx(np.sqrt(2) / 2, abs=2e-3)


def test_hausdorff_dense_samples_vs_circle():
    th = 2 * np.pi * np.arange(1024) / 1024
    cloud = 0.5 + 0.5 * np.exp(1j * th)
    # bounded by the circle discretization gap
    assert hausdorff_to_target(cloud, CIRCLE_C) <= 2 * np.pi * 0.5 / 1024


def test_hausdorff_degenerate_inputs():
    with pytest.raises(ValueError):
        hausdorff_to_target(np.array([]), CIRCLE_C)


def test_target_validation_and_boundary():
    with pytest.raises(ValueError):
        TargetSet(0.0, -1.0)


def test_disk_distance_semantics():
    assert UNIT_CIRCLE_T.distance(0.0 + 0j) == pytest.approx(1.0)


def test_drop_zeros():
    cloud = np.array([0.0, 1e-12, 0.5 + 0.5j, 1.0])
    kept = drop_zeros(cloud)
    assert np.array_equal(kept, np.array([0.5 + 0.5j, 1.0]))


def _nonzero_spectra_distance(mesh):
    """Hausdorff distance between the nonzero sampled spectra of ab and ba."""
    ab = drop_zeros(sample_spectrum("ab", mesh))
    ba = drop_zeros(sample_spectrum("ba", mesh))
    return cloud_hausdorff(ab, ba)


def test_commutativity_check_coarse(mesh9):
    dist = _nonzero_spectra_distance(mesh9)
    assert dist <= 0.15
    # discretization contract: within twice covering radius times the
    # reported continuity factor
    lip = eigenvalue_lipschitz(mesh9)
    assert dist <= 2 * mesh9.covering_radius * lip


def test_commutativity_improves_under_refinement(mesh9):
    coarse = _nonzero_spectra_distance(mesh9)
    fine = _nonzero_spectra_distance(mesh_s4(17, 16))
    assert fine <= coarse + 1e-12


def test_cloud_hausdorff_self_is_zero(mesh9):
    cloud = sample_spectrum("one-minus-2ba", mesh9)
    assert cloud_hausdorff(cloud, cloud) == 0.0


def test_hausdorff_keeps_nan():
    # a nan that is not the first value folded must still reach the result
    assert np.isnan(cloud_hausdorff(np.array([0.0, np.nan]), np.array([0j])))
    assert np.isnan(cloud_hausdorff(np.array([0j]), np.array([0.0, np.nan])))
    assert np.isnan(hausdorff_to_target(np.array([0.5, np.nan]), CIRCLE_C))


def _one_block_farthest_nearest(a, b):
    """Max over a of the distance to the nearest point of b, all pairs at once."""
    return np.abs(a[:, None] - b[None, :]).min(axis=1).max()


def _cloud(rng, size):
    return 0.5 + rng.normal(size=size) + 1j * rng.normal(size=size)


@pytest.mark.parametrize("na, nb", [
    (7, 9),        # one block each way
    (33, 1000),    # 32- and 992-row blocks: both last blocks are partial
    (5, 40000),    # b.size > BLOCK_ELEMENTS: one row per block
])
def test_blocked_cloud_hausdorff_matches_one_block_reference(na, nb):
    rng = np.random.default_rng(na)
    a, b = _cloud(rng, na), _cloud(rng, nb)
    expected = np.maximum(_one_block_farthest_nearest(a, b), _one_block_farthest_nearest(b, a))
    assert cloud_hausdorff(a, b) == float(expected)
    assert cloud_hausdorff(b, a) == float(expected)


@pytest.mark.parametrize("block, size", [
    (BLOCK_ELEMENTS, 7),      # 4681-row blocks: the 4096 target samples in one
    (BLOCK_ELEMENTS, 33),     # 992-row blocks: the last has 128 rows
    (64, 100),                # cloud larger than the block: one row per block
])
def test_blocked_hausdorff_to_target_matches_one_block_reference(monkeypatch, block, size):
    monkeypatch.setattr(spectrum, "BLOCK_ELEMENTS", block)
    cloud = _cloud(np.random.default_rng(size), size)
    for target in (CIRCLE_C, UNIT_CIRCLE_T):
        farthest = _one_block_farthest_nearest(target.samples(), cloud)
        expected = np.maximum(target.distance(cloud).max(), farthest)
        assert hausdorff_to_target(cloud, target) == float(expected)


def test_hausdorff_memory_stays_bounded():
    # the 2048-point clouds of the largest latitude count: comparing all 4096
    # target samples in one block traced 192 MiB
    mesh = mesh_s4(2049, 8)
    ab = drop_zeros(sample_spectrum("ab", mesh))
    ba = drop_zeros(sample_spectrum("ba", mesh))
    assert ab.size > 2000
    tracemalloc.start()
    try:
        to_target = hausdorff_to_target(ab, CIRCLE_C)
        between = cloud_hausdorff(ab, ba)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert to_target < 2e-3 and between == 0.0
    assert peak < 4 << 20


def test_exports(tmp_path, mesh9):
    cloud = sample_spectrum("ba", mesh9)
    csv = tmp_path / "cloud.csv"
    svg = tmp_path / "cloud.svg"
    cloud_to_csv(cloud, csv)
    cloud_to_svg(cloud, svg)
    data = np.loadtxt(csv, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0] + 1j * data[:, 1], cloud)
    text = svg.read_text()
    assert text.startswith("<svg") and text.count("<circle") == len(cloud)
    # determinism
    cloud_to_svg(cloud, tmp_path / "cloud2.svg")
    assert (tmp_path / "cloud2.svg").read_bytes() == svg.read_bytes()
