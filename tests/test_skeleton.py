import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeltop import (BINARY, SkeletonGraph, ValidationError, Volume3D,
                     connected_components, graph_from_skeleton,
                     graph_from_skeleton_bruteforce, skeletonize)
from skeltop.skeleton import _graph_from_nodes

from conftest import count_components_26, has_2x2x2_block


def binary_volume(m):
    return Volume3D(np.asarray(m, dtype="u1"), BINARY)


def brute_pairs(points, r):
    pts = np.asarray(points, dtype=np.float64)
    out = set()
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if ((pts[i] - pts[j]) ** 2).sum() <= r * r:
                out.add((i, j))
    return out


def edge_set(g):
    return set(map(tuple, g.edges.tolist()))


def assert_same_graph(vol, r):
    fast = graph_from_skeleton(vol, r)
    slow = graph_from_skeleton_bruteforce(vol, r)
    assert np.array_equal(fast.nodes, slow.nodes)
    assert np.array_equal(fast.edges, slow.edges)
    return fast


def random_voxel_volume(seed, n, dims=(32, 32, 32)):
    rng = np.random.default_rng(seed)
    total = dims[0] * dims[1] * dims[2]
    flat = rng.choice(total, size=min(n, total), replace=False)
    m = np.zeros(total, dtype="u1")
    m[flat] = 1
    return binary_volume(m.reshape(dims))


class TestSkeletonize:
    def test_thin_line_unchanged(self):
        m = np.zeros((3, 3, 12))
        m[1, 1, 1:11] = 1
        vol = binary_volume(m)
        out = skeletonize(vol)
        assert np.array_equal(out.data, vol.data)

    def test_solid_cube_center_kept(self):
        m = np.zeros((9, 9, 9))
        m[2:7, 2:7, 2:7] = 1
        out = skeletonize(binary_volume(m))
        skel = out.bool_data()
        assert skel[4, 4, 4]
        assert not (skel & ~m.astype(bool)).any()
        assert count_components_26(skel) == 1
        assert not has_2x2x2_block(skel)

    def test_two_blobs_two_components(self):
        m = np.zeros((24, 24, 24), dtype=bool)
        zz, yy, xx = np.meshgrid(*(np.arange(24),) * 3, indexing="ij")
        m |= ((zz - 6) ** 2 + (yy - 6) ** 2 + (xx - 6) ** 2) <= 16
        m |= ((zz - 17) ** 2 + (yy - 17) ** 2 + (xx - 17) ** 2) <= 9
        out = skeletonize(binary_volume(m))
        assert count_components_26(out.bool_data()) == 2

    def test_empty_mask(self):
        out = skeletonize(binary_volume(np.zeros((4, 4, 4))))
        assert out.foreground_count() == 0

    def test_even_width_bar_survives(self):
        # regression guard: symmetric even-width shapes must not vanish
        m = np.zeros((10, 10, 20))
        m[4:6, 4:6, 3:16] = 1
        out = skeletonize(binary_volume(m))
        assert out.foreground_count() > 0
        assert count_components_26(out.bool_data()) == 1

    def test_corpus_contract(self, shape_corpus):
        for name, vol in shape_corpus:
            fg = vol.bool_data()
            out = skeletonize(vol)
            skel = out.bool_data()
            assert not (skel & ~fg).any(), f"{name}: skeleton not a subset"
            assert count_components_26(skel) == count_components_26(fg), \
                f"{name}: component count changed"
            assert not has_2x2x2_block(skel), f"{name}: 2x2x2 block survived"
            again = skeletonize(out)
            assert np.array_equal(again.data, out.data), f"{name}: not idempotent"

    def test_requires_binary(self):
        vol = Volume3D(np.zeros((2, 2, 2), dtype="<f4"), "probability")
        with pytest.raises(ValidationError):
            skeletonize(vol)

    def test_preserves_spacing(self):
        m = np.zeros((3, 3, 8))
        m[1, 1, 1:7] = 1
        vol = Volume3D(m.astype("u1"), BINARY, spacing=(2.0, 1.0, 0.5))
        assert skeletonize(vol).spacing == (2.0, 1.0, 0.5)


class TestGraphFromSkeleton:
    def test_collinear_three(self):
        m = np.zeros((1, 1, 3))
        m[0, 0, :] = 1
        g = graph_from_skeleton(binary_volume(m), 2.0)
        assert g.n_nodes == 3
        assert edge_set(g) == {(0, 1), (0, 2), (1, 2)}

    def test_distance_three_no_edge(self):
        m = np.zeros((1, 1, 4))
        m[0, 0, 0] = 1
        m[0, 0, 3] = 1
        g = graph_from_skeleton(binary_volume(m), 2.0)
        assert g.n_nodes == 2 and g.n_edges == 0

    def test_r_boundary_values(self):
        # sqrt(3) diagonal and axial 2 connect at r=2; sqrt(5) does not
        m = np.zeros((3, 3, 5))
        m[0, 0, 0] = 1
        m[1, 1, 1] = 1
        m[1, 1, 3] = 1
        m[0, 2, 4] = 1
        g = graph_from_skeleton(binary_volume(m), 2.0)
        dist = {(i, j): np.linalg.norm(g.nodes[i] - g.nodes[j])
                for i in range(4) for j in range(i + 1, 4)}
        expected = {pair for pair, d in dist.items() if d <= 2.0}
        assert edge_set(g) == expected

    def test_empty_skeleton(self):
        g = graph_from_skeleton(binary_volume(np.zeros((3, 3, 3))), 2.0)
        assert g.n_nodes == 0 and g.n_edges == 0

    def test_seeded_500_matches_bruteforce(self):
        vol = random_voxel_volume(1234, 500)
        fast = graph_from_skeleton(vol, 2.0)
        slow = graph_from_skeleton_bruteforce(vol, 2.0)
        assert np.array_equal(fast.nodes, slow.nodes)
        assert np.array_equal(fast.edges, slow.edges)

    @given(st.integers(0, 2 ** 31 - 1), st.integers(0, 400))
    @settings(max_examples=30, deadline=None)
    def test_accelerated_equals_bruteforce(self, seed, n):
        vol = random_voxel_volume(seed, n, dims=(16, 16, 16))
        fast = graph_from_skeleton(vol, 2.0)
        slow = graph_from_skeleton_bruteforce(vol, 2.0)
        assert edge_set(fast) == edge_set(slow)

    def test_pairs_small_known(self):
        m = np.zeros((1, 1, 6))
        m[0, 0, [0, 1, 2, 5]] = 1
        g = graph_from_skeleton(binary_volume(m), 2.0)
        assert edge_set(g) == {(0, 1), (0, 2), (1, 2)}

    def test_pairs_sorted_output(self):
        g = graph_from_skeleton(random_voxel_volume(5, 80, dims=(10, 10, 10)), 2.0)
        order = np.lexsort((g.edges[:, 1], g.edges[:, 0]))
        assert g.n_edges > 0 and np.array_equal(g.edges, g.edges[order])
        assert (g.edges[:, 0] < g.edges[:, 1]).all()

    @given(st.integers(0, 2 ** 31 - 1), st.integers(0, 120), st.floats(0.5, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_pairs_match_bruteforce(self, seed, n, r):
        g = graph_from_skeleton(random_voxel_volume(seed, n, dims=(12, 12, 12)), r)
        assert edge_set(g) == brute_pairs(g.nodes, r)

    @given(dims=st.tuples(*[st.integers(1, 16)] * 3), seed=st.integers(0, 2 ** 31 - 1),
           n=st.integers(0, 600), r=st.floats(0.5, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_random_volumes_equal_bruteforce(self, dims, seed, n, r):
        # up to 600 voxels keeps the brute force's all-pairs array small
        assert_same_graph(random_voxel_volume(seed, n, dims), r)

    def test_more_lookups_than_one_block(self):
        # 1200 nodes times about 60 runs at r = 6 exceed one lookup block
        assert_same_graph(random_voxel_volume(23, 1200, dims=(12, 12, 12)), 6.0)

    @pytest.mark.parametrize("r", [1.0, math.sqrt(2), math.sqrt(3), 2.0, math.sqrt(5)])
    def test_lattice_distance_radii(self, r):
        # r * r rounds to 2.0000000000000004, 2.9999999999999996 and
        # 5.000000000000001 for the square roots, so the brute force's float
        # test admits offsets at distance sqrt(2) and sqrt(5) but not sqrt(3)
        m = np.random.default_rng(21).random((9, 11, 13)) < 0.3
        m[:3, :3, :3] = True
        assert_same_graph(binary_volume(m), r)

    @pytest.mark.parametrize("r", [30.0, 1e6, 1e300])
    def test_radius_beyond_the_diagonal(self, r):
        m = np.random.default_rng(22).random((8, 7, 9)) < 0.4
        g = assert_same_graph(binary_volume(m), r)
        n = g.n_nodes
        assert g.n_edges == n * (n - 1) // 2

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 40.0])
    @pytest.mark.parametrize("voxels", [[], [(2, 1, 3)], [(0, 0, 0), (0, 0, 1)],
                                        [(0, 0, 0), (3, 3, 3)], [(1, 0, 2), (0, 2, 0)]])
    def test_empty_one_and_two_voxels(self, voxels, r):
        m = np.zeros((4, 4, 4))
        for v in voxels:
            m[v] = 1
        g = assert_same_graph(binary_volume(m), r)
        assert g.n_nodes == len(voxels)

    @given(dims=st.tuples(*[st.integers(1, 12)] * 3), seed=st.integers(0, 2 ** 31 - 1),
           n=st.integers(0, 300), r=st.floats(0.5, 4.0))
    @settings(max_examples=30, deadline=None)
    def test_graph_from_nodes_equals_bruteforce(self, dims, seed, n, r):
        # the node-list entry point TASL uses, on the nodes the volume gives
        vol = random_voxel_volume(seed, n, dims)
        slow = graph_from_skeleton_bruteforce(vol, r)
        fast = _graph_from_nodes(np.argwhere(vol.data).astype(np.int64), r)
        assert np.array_equal(fast.nodes, slow.nodes)
        assert np.array_equal(fast.edges, slow.edges)
        assert fast.radius_r == slow.radius_r

    def test_invalid_radius(self):
        with pytest.raises(ValidationError):
            graph_from_skeleton(binary_volume(np.zeros((2, 2, 2))), 0.0)
        for r in (float("nan"), float("inf")):
            for fill in (np.zeros, np.ones):
                with pytest.raises(ValidationError):
                    graph_from_skeleton(binary_volume(fill((2, 2, 2))), r)


class TestSkeletonGraphValidation:
    @pytest.mark.parametrize("edge", [[0, 2], [-1, 1]])
    def test_rejects_edge_endpoint_out_of_range(self, edge):
        with pytest.raises(ValidationError, match="edge endpoint id out of range"):
            SkeletonGraph(np.array([[0, 0, 0], [0, 0, 1]]), np.array([edge]), 2.0)

    def test_rejects_self_loop(self):
        with pytest.raises(ValidationError):
            SkeletonGraph(np.array([[0, 0, 0], [0, 0, 1]]), np.array([[0, 0]]), 2.0)

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValidationError):
            SkeletonGraph(np.array([[0, 0, 0], [0, 0, 1]]),
                          np.array([[0, 1], [1, 0]]), 2.0)

    def test_rejects_long_edge(self):
        with pytest.raises(ValidationError):
            SkeletonGraph(np.array([[0, 0, 0], [0, 0, 9]]), np.array([[0, 1]]), 2.0)

    def test_rejects_duplicate_nodes(self):
        with pytest.raises(ValidationError):
            SkeletonGraph(np.array([[0, 0, 0], [0, 0, 0]]),
                          np.empty((0, 2), dtype=int), 2.0)

    def test_json_round_trip(self):
        g = SkeletonGraph(np.array([[0, 0, 0], [0, 0, 2], [5, 5, 5]]),
                          np.array([[0, 1]]), 2.0)
        obj = g.to_json_obj()
        back = SkeletonGraph(np.array(obj["nodes"]), np.array(obj["edges"]), obj["r"])
        assert np.array_equal(back.nodes, g.nodes)
        assert np.array_equal(back.edges, g.edges)
        assert back.radius_r == g.radius_r


def union_find_components(n, edges):
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in edges:
        ri, rj = find(int(i)), find(int(j))
        if ri != rj:
            parent[rj] = ri
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted([tuple(sorted(g)) for g in groups.values()])


class TestConnectedComponents:
    def test_three_nodes_one_edge(self):
        g = SkeletonGraph(np.array([[0, 0, 0], [0, 0, 1], [0, 0, 9]]),
                          np.array([[0, 1]]), 2.0)
        part = connected_components(g)
        assert part.components == ((0, 1), (2,))
        assert part.m == 2
        assert part.mean_size == 1.5

    def test_fully_connected_four(self):
        nodes = np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0], [0, 1, 1]])
        edges = np.array([[i, j] for i in range(4) for j in range(i + 1, 4)])
        part = connected_components(SkeletonGraph(nodes, edges, 2.0))
        assert part.m == 1 and part.mean_size == 4.0

    def test_empty_graph(self):
        g = SkeletonGraph(np.empty((0, 3), dtype=int), np.empty((0, 2), dtype=int), 2.0)
        part = connected_components(g)
        assert part.m == 0 and part.mean_size == 0.0

    def test_seeded_200_matches_union_find(self):
        vol = random_voxel_volume(777, 200)
        g = graph_from_skeleton(vol, 2.0)
        part = connected_components(g)
        assert sorted(part.components) == union_find_components(g.n_nodes, g.edges)
        # deterministic ordering: by smallest contained node id
        firsts = [c[0] for c in part.components]
        assert firsts == sorted(firsts)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_union_find(self, seed):
        vol = random_voxel_volume(seed, 120, dims=(12, 12, 12))
        g = graph_from_skeleton(vol, 2.0)
        part = connected_components(g)
        assert sorted(part.components) == union_find_components(g.n_nodes, g.edges)

    def test_path_of_500_with_isolated_nodes(self):
        # a chain is the longest label propagation; isolated nodes sit
        # before, inside and after it in id order
        path = [[0, 0, x] for x in range(500)]
        nodes = np.array([[0, 5, 0]] + path + [[7, 7, 7], [9, 9, 9]])
        edges = np.array([[i, i + 1] for i in range(1, 500)])
        g = SkeletonGraph(nodes, edges, 2.0)
        part = connected_components(g)
        assert part.components == ((0,), tuple(range(1, 501)), (501,), (502,))
        assert part.m == 4 and part.mean_size == 503 / 4
        assert sorted(part.components) == union_find_components(g.n_nodes, g.edges)

    def test_isolated_nodes_only(self):
        g = SkeletonGraph(np.array([[0, 0, 0], [0, 0, 5], [3, 0, 0]]),
                          np.empty((0, 2), dtype=int), 2.0)
        part = connected_components(g)
        assert part.components == ((0,), (1,), (2,))
        assert part.m == 3 and part.mean_size == 1.0
