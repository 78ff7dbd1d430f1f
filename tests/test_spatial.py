import itertools
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nn_reference
from skeltop import BINARY, ValidationError, Volume3D, spatial
from skeltop.spatial import min_dists_to_set
from skeltop.volume import surface_voxel_array

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


def _unit_rows(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _cloud(kind, rng, n_q, n_t):
    """(queries, targets) of one input family the search has to stay exact on."""
    if kind == "clustered":
        centers = rng.uniform(0, 100, size=(6, 3))
        return [centers[rng.integers(0, 6, n)] + rng.normal(0, 2.0, size=(n, 3))
                for n in (n_q, n_t)]
    if kind == "speckled":  # a voxel tube surface plus 10% isolated speckles
        def noisy(n):
            a = rng.uniform(0, 2 * np.pi, n - n // 10)
            tube = np.stack((rng.uniform(5, 55, len(a)), 30 + 3 * np.cos(a), 30 + 3 * np.sin(a)), 1)
            return np.concatenate((tube.round(), rng.integers(0, 64, size=(n // 10, 3))))
        return noisy(n_q), noisy(n_t)
    if kind == "all-far":  # a shell of queries around a unit sphere of targets
        return _unit_rows(rng, n_q) * rng.uniform(3, 30, size=(n_q, 1)), _unit_rows(rng, n_t)
    if kind == "one-outlier":  # one target far out sets the extent and so the cells
        targets = rng.uniform(0, 1, size=(n_t, 3))
        targets[rng.integers(n_t)] = rng.uniform(20, 40, 3)
        return rng.uniform(-0.2, 1.2, size=(n_q, 3)), targets
    # dense-curve: random walks with short steps, as resampled traces
    return [np.cumsum(rng.normal(0, 0.25, size=(n, 3)), axis=0) for n in (n_q, n_t)]


# largest set sizes per family, kept where the level-doubling reference takes < 1 s
_SIZES = {"clustered": 20_000, "speckled": 20_000, "all-far": 3_000, "one-outlier": 6_000,
          "dense-curve": 6_000}


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_nearest_matches_level_doubling_reference(data):
    kind = data.draw(st.sampled_from(sorted(_SIZES)))
    n_q, n_t = (data.draw(st.integers(1, _SIZES[kind])) for _ in range(2))
    queries, targets = _cloud(kind, np.random.default_rng(data.draw(st.integers(0, 2 ** 31 - 1))),
                              n_q, n_t)
    assert np.array_equal(min_dists_to_set(queries, targets),
                          nn_reference.min_dists_to_set(queries, targets))


def _spy(monkeypatch, name):
    """Record the arguments of every call to spatial.<name>."""
    calls, real = [], getattr(spatial, name)
    monkeypatch.setattr(spatial, name, lambda *a: calls.append(a) or real(*a))
    return calls


@pytest.mark.parametrize("extra", [0, 1])
def test_all_pairs_up_to_the_pair_budget_then_the_grid(monkeypatch, extra):
    pairs = spatial._PAIR_BUDGET + extra
    n_t = max(d for d in range(1, int(pairs ** 0.5) + 1) if pairs % d == 0)
    rng = np.random.default_rng(21)
    queries = rng.uniform(0, 10, size=(pairs // n_t, 3))
    targets = rng.uniform(0, 10, size=(n_t, 3))
    grids = _spy(monkeypatch, "_sorted_cells")
    assert np.array_equal(min_dists_to_set(queries, targets), brute_min_dists(queries, targets))
    assert bool(grids) == bool(extra)


@pytest.mark.parametrize("units, grid", [(0, False), (1000, False), (2 ** 21, True)])
def test_subnormal_spans_take_the_scan_until_span_over_2_20_is_positive(monkeypatch, units, grid):
    rng = np.random.default_rng(units)
    a, b = (rng.integers(0, units + 1, size=(n, 3)) * 5e-324 for n in (300, 200))
    a[0], b[0] = 0.0, units * 5e-324  # the span is exactly `units` subnormal steps
    grids = _spy(monkeypatch, "_sorted_cells")
    assert np.array_equal(min_dists_to_set(a, b), brute_min_dists(a, b))
    d_a, d_b = spatial._min_dists_both(a, b)
    assert np.array_equal(d_a, brute_min_dists(a, b)) and np.array_equal(d_b, brute_min_dists(b, a))
    assert bool(grids) == grid


@pytest.mark.parametrize("seed", range(3))
def test_bounded_pass_on_box_faces_and_one_ulp_off(monkeypatch, seed):
    # lattice targets in a shell make every box face an integer; far integer
    # queries put coordinates on those faces, and their neighbors 1 ulp off
    rng = np.random.default_rng(seed)
    grid = np.stack(np.meshgrid(*[np.arange(-11.0, 12.0)] * 3, indexing="ij"), -1).reshape(-1, 3)
    targets = grid[np.abs(np.linalg.norm(grid, axis=1) - 10) < 0.5]
    faces = rng.integers(-11, 12, size=(300, 3)).astype(float)
    faces[np.arange(300), rng.integers(0, 3, 300)] = rng.choice([-1, 1], 300) * rng.integers(15, 30, 300)
    queries = np.concatenate([faces, np.nextafter(faces, np.inf), np.nextafter(faces, -np.inf)])
    passes = _spy(monkeypatch, "_bounded_pass")
    assert np.array_equal(min_dists_to_set(queries, targets), brute_min_dists(queries, targets))
    assert len(passes[0][3]) > 0.9 * len(queries)  # nearly every query takes the bounded pass


@pytest.mark.parametrize("budget", [64, 1000])
@pytest.mark.parametrize("kind", sorted(_SIZES))
def test_more_unsettled_queries_than_one_row_chunk(monkeypatch, budget, kind):
    # a small budget cuts the pair scans, the query blocks and the bounded
    # pass into many chunks; more unsettled queries than the budget means
    # more than one row chunk, whatever the number of cells
    monkeypatch.setattr(spatial, "_PAIR_BUDGET", budget)
    queries, targets = _cloud(kind, np.random.default_rng(budget), 3000, 1500)
    passes = _spy(monkeypatch, "_bounded_pass")
    assert np.array_equal(min_dists_to_set(queries, targets), brute_min_dists(queries, targets))
    if kind == "all-far":
        assert len(passes[0][3]) > budget


def test_single_target_and_coincident_points():
    rng = np.random.default_rng(22)
    queries = rng.uniform(-5, 5, size=(spatial._PAIR_BUDGET + 7, 3))
    target = [[0.25, -1.0, 3.0]]
    assert np.array_equal(min_dists_to_set(queries, target), brute_min_dists(queries, target))
    same = np.full((300, 3), 2.5)  # zero span
    assert min_dists_to_set(same, same).max() == 0.0
    # 40 distinct targets, each 100 times, and queries that repeat them
    targets = np.repeat(rng.uniform(0, 20, size=(40, 3)), 100, axis=0)
    queries = np.concatenate((targets[::7], rng.uniform(-5, 25, size=(2000, 3))))
    assert np.array_equal(min_dists_to_set(queries, targets), brute_in_blocks(queries, targets))


def test_squares_overflowing_to_inf():
    # separations near 1e154 square to about the float maximum: some pairs are
    # inf, some are not, and the box bounds overflow along with them
    rng = np.random.default_rng(23)
    targets = rng.uniform(-1e154, 1e154, size=(400, 3))
    queries = np.concatenate((rng.uniform(-1e154, 1e154, size=(300, 3)),
                              rng.uniform(3e154, 1e155, size=(5, 3))))
    with np.errstate(over="ignore"):
        want = brute_min_dists(queries, targets)
    assert np.isinf(want).any() and np.isfinite(want).any()
    assert np.array_equal(min_dists_to_set(queries, targets), want)


def test_box_overflowing_to_inf_takes_the_scan():
    # every coordinate is finite but hi - lo is inf, so no grid cell fits the box
    rng = np.random.default_rng(25)
    a = np.concatenate((rng.uniform(-1, 1, size=(150, 3)), [[1.5e308, 0.0, 0.0]]))
    b = np.concatenate((rng.uniform(-1, 1, size=(150, 3)), [[-1.5e308, 0.0, 0.0]]))
    assert len(a) * len(b) > spatial._PAIR_BUDGET
    with np.errstate(over="ignore"):
        want_a, want_b = brute_min_dists(a, b), brute_min_dists(b, a)
    assert np.isinf(want_a[-1]) and np.isinf(want_b[-1]) and np.isfinite(want_a[:-1]).all()
    assert np.array_equal(min_dists_to_set(a, b), want_a)
    d_a, d_b = spatial._min_dists_both(a, b)
    assert np.array_equal(d_a, want_a) and np.array_equal(d_b, want_b)


def test_far_cloud_onto_sphere_finishes_fast():
    # level doubling took 13-18 s here: far queries reached levels whose 27
    # cells held most of the sphere
    rng = np.random.default_rng(24)
    targets = _unit_rows(rng, 20_000) * 10
    queries = rng.uniform(-60, 60, size=(20_000, 3))
    start = time.perf_counter()
    got = min_dists_to_set(queries, targets)
    assert time.perf_counter() - start < 5.0
    assert np.array_equal(got[::50], brute_min_dists(queries[::50], targets))


@pytest.mark.parametrize("shape", [(1, 6), (2, 2), (6,), (2, 3, 1), ()])
def test_rejects_points_not_shaped_n_by_3(shape):
    bad, good = np.zeros(shape), np.zeros((2, 3))
    for q, t in ((bad, good), (good, bad)):
        with pytest.raises(ValidationError, match=r"\(n, 3\) array"):
            min_dists_to_set(q, t)


def test_empty_targets_keep_their_message():
    with pytest.raises(ValidationError, match="non-empty target set"):
        min_dists_to_set(np.zeros((2, 3), np.int64), np.empty((0, 3), np.int64))


def _spy_leftovers(monkeypatch):
    """Record, per call to spatial._lattice, the queries it left unsettled (best still inf)."""
    left, real = [], spatial._lattice

    def spy(best, *rest):
        real(best, *rest)
        left.append(np.flatnonzero(np.isinf(best)))

    monkeypatch.setattr(spatial, "_lattice", spy)
    return left


def _voxel_surfaces(rng, n):
    """Surfaces of two speckled blobs in an n^3 volume, plus far outliers."""
    zz, yy, xx = np.ogrid[:n, :n, :n]
    c, r = rng.uniform(n / 3, 2 * n / 3, 3), rng.uniform(n / 6, n / 3)
    ball = (zz - c[0]) ** 2 + (yy - c[1]) ** 2 + (xx - c[2]) ** 2 <= r * r
    out = []
    for _ in range(2):
        mask = (ball & (rng.random(ball.shape) > 0.05)) | (rng.random(ball.shape) < 0.01)
        outliers = rng.integers(-3 * n, 4 * n, size=(rng.integers(0, 5), 3))
        out.append(np.concatenate((surface_voxel_array(Volume3D(mask.astype("u1"), BINARY)),
                                   outliers)))
    return out


_SHELL_OFFSETS = np.array([(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1), (2, 0, 0), (2, 1, 0),
                           (0, 0, 1), (1, 0, 1), (0, 2, 0)])


def _lattice_cloud(kind, rng, n_q, n_t):
    """Integer (queries, targets) of one family, with negative coordinates."""
    if kind == "uniform":  # a small box: many coincident points
        return [rng.integers(-6, 6, size=(n, 3)) for n in (n_q, n_t)]
    if kind == "coincident":  # repeated targets; queries repeat some of them
        targets = np.repeat(rng.integers(-40, 40, size=(max(1, n_t // 8), 3)), 8, axis=0)
        return np.concatenate((targets[:n_q // 2], rng.integers(-45, 45, size=(n_q - n_q // 2, 3)))), targets
    if kind == "shells":  # targets 4 apart; queries at d2 = 0, 1, 2, 3 exactly, or 4, 5
        targets = rng.integers(-20, 20, size=(n_t, 3)) * 4
        offsets = _SHELL_OFFSETS[rng.integers(0, len(_SHELL_OFFSETS), n_q)]
        return targets[rng.integers(0, n_t, n_q)] + offsets * rng.choice([-1, 1], (n_q, 3)), targets
    if kind == "surfaces":
        return _voxel_surfaces(rng, int(rng.integers(14, 30)))
    # wide: about 10**7 on every axis, so the padded box holds ~10**21 ids
    return [rng.integers(-5 * 10 ** 6, 5 * 10 ** 6, size=(n, 3)) for n in (n_q, n_t)]


# integer dtypes per family; int16 and uint16 cannot hold the wide family
_LATTICE_DTYPES = {**dict.fromkeys(("uniform", "coincident", "shells", "surfaces"),
                                   ("int16", "int32", "int64", "uint16")),
                   "wide": ("int32", "int64")}


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_lattice_stage_matches_brute_force_and_reference(data):
    kind = data.draw(st.sampled_from(sorted(_LATTICE_DTYPES)))
    dtype = data.draw(st.sampled_from(_LATTICE_DTYPES[kind]))
    n_q, n_t = (data.draw(st.integers(130, 1200)) for _ in range(2))  # past the pair budget
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31 - 1)))
    queries, targets = _lattice_cloud(kind, rng, n_q, n_t)
    if dtype == "uint16":  # shift the common box to start at 0
        low = min(queries.min(), targets.min())
        queries, targets = queries - low, targets - low
    queries, targets = queries.astype(dtype), targets.astype(dtype)
    got = min_dists_to_set(queries, targets)
    assert np.array_equal(got, brute_in_blocks(queries, targets))
    assert np.array_equal(got, nn_reference.min_dists_to_set(queries, targets))


def test_lattice_stage_settles_surface_queries_in_the_cube(monkeypatch):
    # only queries with no target within d2 = 3 reach the grid search
    queries, targets = _voxel_surfaces(np.random.default_rng(31), 40)
    left = _spy_leftovers(monkeypatch)
    got = min_dists_to_set(queries, targets)
    assert np.array_equal(got, brute_in_blocks(queries, targets))
    assert 0 < len(left[0]) < len(queries) // 2
    assert np.array_equal(np.flatnonzero(got >= 2.0), left[0])


def test_shell_d2_3_settles_and_d2_4_falls_back(monkeypatch):
    targets = np.stack(np.meshgrid(*[np.arange(0, 60, 4)] * 3, indexing="ij"), -1).reshape(-1, 3)
    queries = np.concatenate((targets + (1, 1, 1), targets + (2, 0, 0), targets - (1, 1, 1)))
    left = _spy_leftovers(monkeypatch)
    got = min_dists_to_set(queries, targets)
    assert np.array_equal(got, brute_in_blocks(queries, targets))
    assert np.array_equal(np.unique(got), [np.sqrt(3.0), 2.0])
    assert np.array_equal(left[0], np.arange(len(targets), 2 * len(targets)))


def test_wide_box_falls_back_without_overflow(monkeypatch):
    rng = np.random.default_rng(32)
    queries, targets = (rng.integers(-5 * 10 ** 6, 5 * 10 ** 6, size=(n, 3)) for n in (400, 300))
    targets[:150] = queries[:150] + rng.integers(-1, 2, size=(150, 3))  # lattice neighbours
    left = _spy_leftovers(monkeypatch)
    assert np.array_equal(min_dists_to_set(queries, targets), brute_min_dists(queries, targets))
    assert np.array_equal(left[0], np.arange(len(queries)))  # none settled


def test_coordinates_beyond_float_precision_skip_the_lattice(monkeypatch):
    # 2**60 + 1 rounds to 2**60 in float64, where brute force reads distance 0;
    # exact integer arithmetic would say 1, so such inputs take the float path
    rng = np.random.default_rng(33)
    targets = rng.integers(0, 40, size=(200, 3)) + 2 ** 60
    queries = np.concatenate((targets + (1, 0, 0), rng.integers(0, 40, size=(100, 3)) + 2 ** 60))
    left = _spy_leftovers(monkeypatch)
    got = min_dists_to_set(queries, targets)
    assert np.array_equal(got, brute_min_dists(queries, targets))
    assert got[0] == 0.0 and left == []
    edge = rng.integers(0, 40, size=(200, 3)) + (2 ** 53 - 40, 0, 0)  # up to 2**53, exact
    edge[0, 0] = 2 ** 53
    q_edge = np.concatenate((edge[1:], [edge[0] + (1, 0, 0)]))  # 2**53 + 1 reads as 2**53
    assert min_dists_to_set(q_edge, edge)[-1] == 0.0 and left == []
    uint = targets.astype(np.uint64) + np.uint64(2 ** 63)  # wraps if cast to int64
    assert np.array_equal(min_dists_to_set(uint, uint[::-1]), np.zeros(len(uint)))
    assert left == []


def test_integer_and_float_inputs_mixed_take_the_float_path(monkeypatch):
    rng = np.random.default_rng(34)
    ints = rng.integers(-10, 10, size=(400, 3))
    floats = ints[::-2] + rng.uniform(-0.6, 0.6, size=(200, 3))
    left = _spy_leftovers(monkeypatch)
    for q, t in ((ints, floats), (floats, ints)):
        assert np.array_equal(min_dists_to_set(q, t), brute_min_dists(q, t))
    assert left == []


def _two_calls(a, b):
    return min_dists_to_set(a, b), min_dists_to_set(b, a)


def _border_points(rng):
    """The lattice targets and cell-border queries (and their 1-ulp neighbours) of
    test_nearest_on_cell_borders_and_one_ulp_off."""
    targets = np.concatenate(([[0.0, 0.0, 0.0], [4.0, 4.0, 4.0]],
                              rng.integers(0, 5, size=(14, 3)).astype(float)))
    borders = rng.integers(0, 9, size=(300, 3)) * 0.5
    return np.concatenate([borders, np.nextafter(borders, np.inf),
                           np.nextafter(borders, -np.inf)]), targets


def _pair_sets(kind, rng, n_a, n_b):
    """(a, b) of one family that _min_dists_both must match two calls on."""
    if kind == "floats":
        return rng.uniform(-15, 40, size=(n_a, 3)), rng.uniform(-5, 20, size=(n_b, 3))
    if kind == "jittered-curves":  # a trace and its jittered copy, 0.25 apart along the curve
        walk = np.cumsum(rng.normal(0, 1, size=(max(n_a, n_b) // 8 + 2, 3)), axis=0)
        steps = np.linspace(0, len(walk) - 1, max(n_a, n_b))
        curve = np.stack([np.interp(steps, np.arange(len(walk)), c) for c in walk.T], 1)
        return curve[:n_a] + rng.normal(0, 0.4, size=(n_a, 3)), curve[:n_b]
    if kind == "borders":
        a, b = _border_points(rng)
        return a[:n_a], b
    if kind == "duplicates":  # repeated points on both sides, some shared
        pts = rng.uniform(0, 20, size=(30, 3))
        return pts[rng.integers(0, 30, n_a)], pts[rng.integers(0, 30, n_b)]
    if kind == "collinear":
        return [np.stack((np.zeros(n), np.zeros(n), rng.uniform(0, 50, n)), 1) for n in (n_a, n_b)]
    if kind == "identical":  # zero span
        return np.full((n_a, 3), 2.5), np.full((n_b, 3), 2.5)
    if kind == "far-apart":  # two clouds far apart: every point of both sides is left over
        return rng.uniform(0, 1, size=(n_a, 3)), rng.uniform(0, 1, size=(n_b, 3)) + (9, 0, 40)
    if kind == "partly-far":  # a far cluster on each side next to a shared one
        a, b = rng.uniform(0, 5, size=(n_a, 3)), rng.uniform(0, 5, size=(n_b, 3))
        a[: n_a // 5] += (30, 0, 0)
        b[: n_b // 5] -= (0, 30, 0)
        return a, b
    # integer: voxel surfaces with speckle and outliers
    a, b = _voxel_surfaces(rng, 24)
    return a[:n_a], b[:n_b]


_PAIR_KINDS = ("floats", "jittered-curves", "borders", "duplicates", "collinear", "identical",
               "far-apart", "partly-far", "integer")


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_both_directions_match_two_calls_and_brute_force(data):
    kind = data.draw(st.sampled_from(_PAIR_KINDS))
    n_a, n_b = (data.draw(st.integers(1, 1500)) for _ in range(2))
    a, b = _pair_sets(kind, np.random.default_rng(data.draw(st.integers(0, 2 ** 31 - 1))), n_a, n_b)
    d_a, d_b = spatial._min_dists_both(a, b)
    want_a, want_b = _two_calls(a, b)
    assert np.array_equal(d_a, want_a) and np.array_equal(d_b, want_b)
    assert np.array_equal(d_a, brute_in_blocks(a, b)) and np.array_equal(d_b, brute_in_blocks(b, a))


@pytest.mark.parametrize("kind", _PAIR_KINDS)
@pytest.mark.parametrize("extra", [0, 1])
def test_both_directions_on_either_side_of_the_pair_budget(monkeypatch, kind, extra):
    pairs = spatial._PAIR_BUDGET + extra
    n_b = max(d for d in range(1, int(pairs ** 0.5) + 1) if pairs % d == 0)
    a, b = _pair_sets(kind, np.random.default_rng(41), pairs // n_b, n_b)
    a, b = a[:pairs // n_b], b[:n_b]
    levels = _spy(monkeypatch, "_level")
    d_a, d_b = spatial._min_dists_both(a, b)
    assert np.array_equal(d_a, brute_min_dists(a, b)) and np.array_equal(d_b, brute_min_dists(b, a))
    if len(a) * len(b) <= spatial._PAIR_BUDGET:
        assert levels == []  # one all-pairs scan serves both sides


@pytest.mark.parametrize("seed", range(4))
def test_both_directions_on_cell_borders_and_one_ulp_off(seed):
    a, b = _border_points(np.random.default_rng(seed))
    for x, y in ((a, b), (b, a)):
        d_x, d_y = spatial._min_dists_both(x, y)
        assert np.array_equal(d_x, brute_min_dists(x, y)) and np.array_equal(d_y, brute_min_dists(y, x))


def test_both_directions_share_the_first_level(monkeypatch):
    # nearly all of the shared cluster settles in the one shared level; only the far
    # cluster of each side is searched again, in its own direction
    a, b = _pair_sets("partly-far", np.random.default_rng(42), 3000, 2500)
    levels = _spy(monkeypatch, "_level")
    d_a, d_b = spatial._min_dists_both(a, b)
    assert np.array_equal(d_a, brute_in_blocks(a, b)) and np.array_equal(d_b, brute_in_blocks(b, a))
    assert levels[0][7] is not None  # the first level carries the reverse side
    assert all(call[7] is None for call in levels[1:])
    for n_t, n_q in ((len(b), len(a)), (len(a), len(b))):
        again = [len(call[3]) for call in levels[1:] if call[2].shape[1] == n_t]
        assert again and 0 < again[0] < n_q


@pytest.mark.parametrize("seed", range(3))
def test_each_direction_scans_each_cell_once(monkeypatch, seed):
    # far leftovers on both sides go on from the next doubled cell, never a cell again
    a, b = _pair_sets("partly-far", np.random.default_rng(seed), 2000, 1500)
    levels = _spy(monkeypatch, "_level")
    d_a, d_b = spatial._min_dists_both(a, b)
    assert np.array_equal(d_a, brute_in_blocks(a, b)) and np.array_equal(d_b, brute_in_blocks(b, a))
    for n_t in (len(b), len(a)):
        cells = [call[5] for call in levels if call[2].shape[1] == n_t]
        assert len(cells) >= 2 and all(c0 < c1 for c0, c1 in zip(cells, cells[1:]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("side", [0, 1])
def test_both_directions_raise_as_two_calls_do(bad, side):
    good = np.random.default_rng(43).uniform(0, 5, size=(200, 3))
    poisoned = good.copy()
    poisoned[7, 1] = bad
    cases = [(np.empty((0, 3)), good), (good, np.empty((0, 3))), (np.empty((0, 3)),) * 2,
             (np.zeros((2, 2)), good), (good, np.zeros(6)), (poisoned, good)]
    for a, b in cases:
        a, b = (a, b) if side == 0 else (b, a)
        with pytest.raises(ValidationError) as want:
            _two_calls(a, b)
        with pytest.raises(ValidationError, match=re.escape(str(want.value))):
            spatial._min_dists_both(a, b)


@pytest.mark.parametrize("bad", [[["a", "b", "c"]], np.array([[1 + 2j, 0, 0]]),
                                 np.array([[1, 2, 3]], dtype=object),
                                 np.array([["2026-01-01"] * 3], dtype="datetime64[D]")])
def test_rejects_points_that_are_not_numbers(bad):
    good = np.zeros((2, 3))
    for q, t in ((bad, good), (good, bad)):
        with pytest.raises(ValidationError, match="bool, integer or float"):
            min_dists_to_set(q, t)
        with pytest.raises(ValidationError, match="bool, integer or float"):
            spatial._min_dists_both(q, t)
    assert np.array_equal(min_dists_to_set(np.ones((2, 3), bool), good), np.full(2, np.sqrt(3.0)))


def _speckled_surface(rng, d2s):
    """A voxel sphere surface, and queries on it plus one speckle voxel at each
    squared distance in d2s from a random surface voxel, outward along a lattice
    offset of that length (so no other surface voxel is nearer)."""
    zz, yy, xx = np.ogrid[:40, :40, :40]
    ball = (zz - 20) ** 2 + (yy - 20) ** 2 + (xx - 20) ** 2 <= 12 ** 2
    surface = surface_voxel_array(Volume3D(ball.astype("u1"), BINARY))
    speckle = []
    for d2 in d2s:
        offsets = np.array([o for o in itertools.product(range(-7, 8), repeat=3)
                            if np.dot(o, o) == d2])
        ends = (surface[rng.permutation(len(surface))[:40], None] + offsets).reshape(-1, 3)
        nearest = np.array([((surface - p) ** 2).sum(1).min() for p in ends])
        speckle.append(ends[np.flatnonzero(nearest == d2)[0]])  # one end nearest its own voxel
    return np.concatenate((surface[::2], speckle)), surface


@pytest.mark.parametrize("seed", range(3))
def test_lattice_leftovers_at_squared_distance_4_5_8_9_and_beyond_40(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    d2s = [4, 5, 8, 9, 41, 50, 72, 98]
    queries, targets = _speckled_surface(rng, d2s)
    left, levels = _spy_leftovers(monkeypatch), _spy(monkeypatch, "_level")
    got = min_dists_to_set(queries, targets)
    assert np.array_equal(got, brute_in_blocks(queries, targets))
    assert np.array_equal(got, nn_reference.min_dists_to_set(queries, targets))
    assert np.array_equal(np.sort(np.rint(got[left[0]] ** 2)), d2s)  # the speckle, and only it
    cell = levels[0][5]  # the first level can settle a leftover at d2 = 4
    assert cell * (1.0 - 2.0 ** -20) >= 2.0 and cell / 2.0 * (1.0 - 2.0 ** -20) < 2.0
    for q, t in ((queries.astype(np.int32), targets.astype(np.int32)), (targets, queries)):
        assert np.array_equal(min_dists_to_set(q, t), brute_in_blocks(q, t))


def _typed(a, b, dtype):
    """a and b as dtype; for uint16 their common box is shifted to start at 0."""
    if dtype == "uint16":
        low = min(a.min(), b.min())
        a, b = a - low, b - low
    return a.astype(dtype), b.astype(dtype)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_both_directions_over_the_lattice_families(data):
    kind = data.draw(st.sampled_from(sorted(_LATTICE_DTYPES)))
    dtype = data.draw(st.sampled_from(_LATTICE_DTYPES[kind]))
    n_a, n_b = (data.draw(st.integers(130, 1200)) for _ in range(2))  # past the pair budget
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31 - 1)))
    a, b = _typed(*_lattice_cloud(kind, rng, n_a, n_b), dtype)
    d_a, d_b = spatial._min_dists_both(a, b)
    want_a, want_b = _two_calls(a, b)
    assert np.array_equal(d_a, want_a) and np.array_equal(d_b, want_b)
    assert np.array_equal(d_a, brute_in_blocks(a, b)) and np.array_equal(d_b, brute_in_blocks(b, a))
    assert np.array_equal(d_a, nn_reference.min_dists_to_set(a, b))
    assert np.array_equal(d_b, nn_reference.min_dists_to_set(b, a))


def test_both_directions_beyond_float_precision_or_mixed_take_the_float_path(monkeypatch):
    rng = np.random.default_rng(35)
    big = rng.integers(0, 40, size=(300, 3)) + 2 ** 60  # 2**60 + 1 reads as 2**60
    ints = rng.integers(-10, 10, size=(400, 3))
    floats = ints[::-2] + rng.uniform(-0.6, 0.6, size=(200, 3))
    left = _spy_leftovers(monkeypatch)
    for a, b in ((big, big[::-1] + (1, 0, 0)), (ints, floats), (floats, ints)):
        d_a, d_b = spatial._min_dists_both(a, b)
        want_a, want_b = _two_calls(a, b)
        assert np.array_equal(d_a, want_a) and np.array_equal(d_b, want_b)
        assert np.array_equal(d_a, brute_min_dists(a, b)) and np.array_equal(d_b, brute_min_dists(b, a))
        assert np.array_equal(d_a, nn_reference.min_dists_to_set(a, b))
        assert np.array_equal(d_b, nn_reference.min_dists_to_set(b, a))
    assert left == []


class _CountedBoxes:
    """numpy, recording the size of each uint8 array np.zeros makes: the lattice's slabs."""

    def __init__(self):
        self.sizes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def zeros(self, shape, dtype=float):
        if np.dtype(dtype) == np.uint8:
            self.sizes.append(shape)
        return np.zeros(shape, dtype)


def _slab_points(rng):
    """Integer sets in a box of 30 z-planes of 10 x 10 (12 x 12 padded): a column with
    queries on odd and targets on even planes, so that pairs at squared distance 1 meet
    across every plane edge, plus random points."""
    column = np.stack((np.arange(30), np.full(30, 5), np.full(30, 5)), 1)
    queries = np.concatenate((column[1::2], rng.integers(0, 10, size=(300, 3)) * (3, 1, 1)))
    targets = np.concatenate((column[::2], rng.integers(0, 10, size=(200, 3)) * (3, 1, 1)))
    return queries, targets


@pytest.mark.parametrize("depth, n_slabs", [(32, 1), (20, 2), (3, None)])
def test_lattice_slabs_one_two_and_many(monkeypatch, depth, n_slabs):
    # a slab of `depth` planes of 144 cells: the box's 32 padded planes make
    # one slab, two, or one slab per probing plane
    monkeypatch.setattr(spatial, "_SLAB", depth * 144)
    queries, targets = _slab_points(np.random.default_rng(depth))
    boxes, grids = _CountedBoxes(), _spy(monkeypatch, "_grid")
    monkeypatch.setattr(spatial, "np", boxes)
    got = min_dists_to_set(queries, targets)
    one_way = len(boxes.sizes)
    d_q, d_t = spatial._min_dists_both(queries, targets)
    monkeypatch.setattr(spatial, "np", np)
    assert np.array_equal(got, brute_min_dists(queries, targets)) and np.array_equal(d_q, got)
    assert np.array_equal(d_t, brute_min_dists(targets, queries))
    for (_, _, _, todo, *_), d in zip(grids, (got, d_q, d_t)):  # only d2 >= 4 is left over
        assert np.array_equal(todo, np.flatnonzero(d >= 2.0))
    assert max(boxes.sizes) <= depth * 144
    two_way = len(boxes.sizes) - one_way
    if n_slabs is None:  # one slab per plane holding points of a probing side
        assert (one_way, two_way) == (len(np.unique(queries[:, 0])), 30)
    else:
        assert one_way == two_way == n_slabs


@pytest.mark.parametrize("slab", [144 * 3 - 1, 143])
def test_box_with_a_plane_over_a_third_of_a_slab_skips_the_lattice(monkeypatch, slab):
    monkeypatch.setattr(spatial, "_SLAB", slab)
    queries, targets = _slab_points(np.random.default_rng(slab))
    left, grids = _spy_leftovers(monkeypatch), _spy(monkeypatch, "_grid")
    got = min_dists_to_set(queries, targets)
    d_q, d_t = spatial._min_dists_both(queries, targets)
    assert np.array_equal(got, brute_min_dists(queries, targets)) and np.array_equal(d_q, got)
    assert np.array_equal(d_t, brute_min_dists(targets, queries))
    assert np.array_equal(left[0], np.arange(len(queries)))  # every query goes to the grid
    for _, q, _, todo, *_ in grids:
        assert np.array_equal(todo, np.arange(q.shape[1]))


@pytest.mark.parametrize("planes, n_slabs", [(256, 1), (257, 2)])
def test_box_of_one_slab_and_one_plane_more(monkeypatch, planes, n_slabs):
    # padded sides (planes, 256, 256): exactly _SLAB cells, then one plane more
    rng = np.random.default_rng(planes)
    hi = np.array([planes - 3, 253, 253])
    queries = np.concatenate(([[0, 0, 0], hi], rng.integers(0, hi + 1, size=(400, 3))))
    targets = np.concatenate((queries[::3] + rng.integers(-1, 2, size=(134, 3)),
                              rng.integers(0, hi + 1, size=(300, 3))))
    targets = targets.clip(0, hi)
    boxes = _CountedBoxes()
    monkeypatch.setattr(spatial, "np", boxes)
    got = min_dists_to_set(queries, targets)
    d_q, d_t = spatial._min_dists_both(queries, targets)
    monkeypatch.setattr(spatial, "np", np)
    assert np.array_equal(got, brute_min_dists(queries, targets)) and np.array_equal(d_q, got)
    assert np.array_equal(d_t, brute_min_dists(targets, queries))
    assert len(boxes.sizes) == 2 * n_slabs and max(boxes.sizes) <= spatial._SLAB == 1 << 24
