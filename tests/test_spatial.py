import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeltop import ValidationError
from skeltop.spatial import min_dists_to_set

from conftest import brute_min_dists


def brute_in_blocks(queries, targets, block=500):
    """brute_min_dists over query blocks, to bound the all-pairs memory."""
    return np.concatenate([brute_min_dists(queries[i:i + block], targets)
                           for i in range(0, len(queries), block)])


@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 150), st.integers(1, 60))
@settings(max_examples=40, deadline=None)
def test_nearest_matches_bruteforce(seed, n_targets, n_queries):
    rng = np.random.default_rng(seed)
    targets = rng.uniform(-5, 20, size=(n_targets, 3))
    queries = rng.uniform(-15, 40, size=(n_queries, 3))
    got = min_dists_to_set(queries, targets)
    want = brute_min_dists(queries, targets)
    assert np.array_equal(got, want)


def test_nearest_far_query():
    targets = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    got = min_dists_to_set([[100.0, 0.0, 0.0]], targets)
    assert np.array_equal(got, brute_min_dists([[100.0, 0.0, 0.0]], targets))
    assert abs(got[0] - np.sqrt(99.0 ** 2 + 1.0 + 1.0)) < 1e-9


def test_nearest_identical_points():
    pts = np.zeros((5, 3))
    assert min_dists_to_set(pts, pts).max() == 0.0


def test_collinear_degenerate_extent():
    targets = np.array([[0.0, 0.0, i] for i in range(10)])
    got = min_dists_to_set(np.array([[0.0, 3.0, 4.5]]), targets)
    want = brute_min_dists(np.array([[0.0, 3.0, 4.5]]), targets)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", range(4))
def test_nearest_on_cell_borders_and_one_ulp_off(seed):
    # 16 lattice targets spanning [0, 4] on every axis make the first cell
    # exactly 1.0 from the origin, so integer and half-integer queries sit
    # on the cell borders of the first levels; their neighbors 1 ulp to
    # either side fall just inside the adjacent cells.
    rng = np.random.default_rng(seed)
    targets = np.concatenate(([[0.0, 0.0, 0.0], [4.0, 4.0, 4.0]],
                              rng.integers(0, 5, size=(14, 3)).astype(float)))
    borders = rng.integers(0, 9, size=(300, 3)) * 0.5
    queries = np.concatenate([borders, np.nextafter(borders, np.inf),
                              np.nextafter(borders, -np.inf)])
    assert np.array_equal(min_dists_to_set(queries, targets),
                          brute_min_dists(queries, targets))


def test_nearest_far_queries_need_several_doublings():
    rng = np.random.default_rng(11)
    targets = rng.uniform(0, 1, size=(60, 3))
    directions = rng.normal(size=(40, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    queries = 0.5 + directions * np.geomspace(2.0, 5e3, 40)[:, None]
    assert np.array_equal(min_dists_to_set(queries, targets),
                          brute_min_dists(queries, targets))


def test_nearest_speckle_like_clustered_targets():
    # a tube surface with isolated speckles around it, both as targets and
    # as queries, as in a noisy segmentation against its reference
    rng = np.random.default_rng(12)
    angle = rng.uniform(0, 2 * np.pi, 800)
    tube = np.stack((rng.uniform(5, 55, 800), 30 + 3 * np.cos(angle),
                     30 + 3 * np.sin(angle)), axis=1).round()
    speckle = rng.integers(0, 64, size=(60, 3)).astype(float)
    targets = np.concatenate((tube, speckle))
    queries = np.concatenate((tube[::3] + rng.integers(-2, 3, size=(267, 3)),
                              rng.integers(0, 64, size=(200, 3)).astype(float)))
    for q, t in ((queries, targets), (targets, queries)):
        assert np.array_equal(min_dists_to_set(q, t), brute_min_dists(q, t))


def test_nearest_more_queries_and_pairs_than_one_chunk():
    rng = np.random.default_rng(13)
    targets = rng.uniform(0, 6, size=(1500, 3))
    queries = rng.uniform(-2, 8, size=(9000, 3))
    assert np.array_equal(min_dists_to_set(queries, targets),
                          brute_in_blocks(queries, targets))


def test_nearest_single_query_scan_larger_than_one_chunk():
    # a far query ends up scanning every target: 70k pairs in one range
    rng = np.random.default_rng(14)
    targets = rng.uniform(0, 1, size=(70_000, 3))
    queries = np.array([[5e5, -3e5, 1e5], [0.5, 0.5, 0.5]])
    assert np.array_equal(min_dists_to_set(queries, targets),
                          brute_in_blocks(queries, targets, block=1))


def test_nearest_extreme_coordinate_finishes_fast():
    targets = np.random.default_rng(15).uniform(0, 10, size=(5000, 3))
    queries = np.array([[1e300, 0.0, 0.0], [5.0, 5.0, 5.0], [0.0, -1e300, 1e300]])
    start = time.perf_counter()
    got = min_dists_to_set(queries, targets)
    assert time.perf_counter() - start < 1.0
    # squared separations past the float range are inf, as in brute force
    assert got[0] == np.inf and got[2] == np.inf
    assert got[1] == brute_min_dists(queries[1:2], targets)[0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nearest_rejects_non_finite_points(bad):
    pts = np.array([[0.0, 0.0, 0.0], [1.0, bad, 0.0]])
    with pytest.raises(ValidationError):
        min_dists_to_set(pts, np.zeros((1, 3)))
    with pytest.raises(ValidationError):
        min_dists_to_set(np.zeros((1, 3)), pts)


def test_nearest_rejects_empty_targets():
    with pytest.raises(ValidationError):
        min_dists_to_set(np.zeros((2, 3)), np.empty((0, 3)))
