import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeltop import (BINARY, SkeletonGraph, ValidationError, Volume3D,
                     connected_components, graph_from_skeleton,
                     graph_from_skeleton_bruteforce, skeletonize)

from conftest import count_components_26, has_2x2x2_block


def binary_volume(m):
    return Volume3D(np.asarray(m, dtype="u1"), BINARY)


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
        assert g.edge_set() == {(0, 1), (0, 2), (1, 2)}

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
        assert g.edge_set() == expected

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
        assert fast.edge_set() == slow.edge_set()

    def test_invalid_radius(self):
        with pytest.raises(ValidationError):
            graph_from_skeleton(binary_volume(np.zeros((2, 2, 2))), 0.0)
        for r in (float("nan"), float("inf")):
            for fill in (np.zeros, np.ones):
                with pytest.raises(ValidationError):
                    graph_from_skeleton(binary_volume(fill((2, 2, 2))), r)


class TestSkeletonGraphValidation:
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
        back = SkeletonGraph.from_json_obj(g.to_json_obj())
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
