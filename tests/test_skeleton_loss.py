from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tasl_reference
from skeltop import (BINARY, PROBABILITY, EmptyGraphError, SkeletonGraph,
                     SkeletonLossWeights, ValidationError, Volume3D,
                     edge_discrepancy, graph_from_skeleton, node_discrepancy,
                     path_discrepancy, skeleton_loss, skeletonize, spatial, threshold)
from skeltop.skeleton_loss import SkeletonLossBreakdown
from skeltop.swc import Morphology, SwcRecord
from skeltop.synth import SynthSpec, generate_tree, rasterize

EPS = 1e-8


def graph_of(coords, edges, r=2.0):
    return SkeletonGraph(np.asarray(coords, dtype=np.int64),
                         np.asarray(edges, dtype=np.int64).reshape(-1, 2), r)


def binary_volume(m):
    return Volume3D(np.asarray(m, dtype="u1"), BINARY)


NO_EDGES = np.empty((0, 2), dtype=np.int64)


class TestNodeDiscrepancy:
    def test_identical_singletons(self):
        g = graph_of([[0, 0, 0]], NO_EDGES)
        assert node_discrepancy(g, g) == 0.0

    def test_singletons_apart(self):
        a = graph_of([[0, 0, 0]], NO_EDGES)
        b = graph_of([[0, 0, 3]], NO_EDGES, r=4.0)
        assert node_discrepancy(a, b) == 3.0

    def test_two_vs_one(self):
        pred = graph_of([[0, 0, 0], [0, 0, 4]], NO_EDGES, r=5.0)
        gt = graph_of([[0, 0, 0]], NO_EDGES)
        assert node_discrepancy(pred, gt) == pytest.approx(1.0, abs=1e-12)

    def test_empty_graph_error(self):
        g = graph_of([[0, 0, 0]], NO_EDGES)
        empty = graph_of(np.empty((0, 3), dtype=np.int64), NO_EDGES)
        with pytest.raises(EmptyGraphError):
            node_discrepancy(g, empty)
        with pytest.raises(EmptyGraphError):
            node_discrepancy(empty, g)

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 40), st.integers(1, 40))
    @settings(max_examples=25, deadline=None)
    def test_symmetry(self, seed, na, nb):
        rng = np.random.default_rng(seed)
        a = graph_of(rng.integers(0, 12, size=(1, 3)), NO_EDGES)
        # distinct coordinates required: sample without replacement
        flat = rng.choice(12 ** 3, size=na + nb, replace=False)
        coords = np.stack(np.unravel_index(flat, (12, 12, 12)), axis=1)
        a = graph_of(coords[:na], NO_EDGES)
        b = graph_of(coords[na:], NO_EDGES)
        assert node_discrepancy(a, b) == pytest.approx(node_discrepancy(b, a), abs=1e-12)


    @pytest.mark.parametrize("seed", range(3))
    def test_equals_two_one_way_calls_bit_for_bit(self, monkeypatch, seed):
        # skeletons of a tree and of its noisy prediction, past the pair budget,
        # so one two-way lattice stage runs and speckle is left to the grid
        spec = SynthSpec(seed=seed, dims=(40, 40, 40), n_branch_points=8,
                         segment_length=(6.0, 10.0), tube_radius=1.6, noise_sigma=0.2,
                         blur_sigma=0.8)
        mask, prob = rasterize(generate_tree(spec), spec)
        g_gt = graph_from_skeleton(skeletonize(mask))
        g_pred = graph_from_skeleton(skeletonize(threshold(prob, 0.5)))
        assert g_pred.n_nodes * g_gt.n_nodes > spatial._PAIR_BUDGET
        calls, real = [], spatial._lattice
        monkeypatch.setattr(spatial, "_lattice", lambda *a: calls.append(len(a)) or real(*a))
        got = node_discrepancy(g_pred, g_gt)
        assert calls == [6]  # one stage, both directions
        fwd = spatial.min_dists_to_set(g_pred.nodes, g_gt.nodes)
        bwd = spatial.min_dists_to_set(g_gt.nodes, g_pred.nodes)
        assert (fwd >= 2.0).any()  # speckle nodes go on to the grid
        assert got == 0.5 * (float(fwd.mean()) + float(bwd.mean()))


class TestEdgeDiscrepancy:
    def _with_edges(self, n_edges):
        # chain graph with the requested number of edges
        coords = [[0, 0, i] for i in range(n_edges + 1)]
        edges = [[i, i + 1] for i in range(n_edges)]
        return graph_of(coords, np.asarray(edges, dtype=np.int64).reshape(-1, 2))

    def test_equal_counts(self):
        g = self._with_edges(8)
        assert edge_discrepancy(g, g, EPS) == 0.0

    def test_six_vs_eight(self):
        assert edge_discrepancy(self._with_edges(6), self._with_edges(8), EPS) == \
            pytest.approx(0.25, abs=1e-9)

    def test_empty_gt_blows_up(self):
        pred = self._with_edges(5)
        gt = graph_of([[0, 0, 0]], NO_EDGES)
        assert edge_discrepancy(pred, gt, EPS) == pytest.approx(5e8, rel=1e-9)

    def test_epsilon_validated(self):
        g = self._with_edges(1)
        with pytest.raises(ValidationError):
            edge_discrepancy(g, g, 0.0)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_non_finite_epsilon_rejected(self, eps):
        g = self._with_edges(1)
        with pytest.raises(ValidationError):
            edge_discrepancy(g, g, eps)
        with pytest.raises(ValidationError):
            path_discrepancy(g, g, eps)


class TestPathDiscrepancy:
    def test_identical(self):
        g = graph_of([[0, 0, 0], [0, 0, 1]], [[0, 1]])
        assert path_discrepancy(g, g, EPS) == 0.0

    def test_two_two_vs_five(self):
        gt = graph_of([[0, 0, i] for i in range(5)],
                      [[i, i + 1] for i in range(4)])
        pred = graph_of([[0, 0, 0], [0, 0, 1], [0, 5, 0], [0, 5, 1]],
                        [[0, 1], [2, 3]])
        assert path_discrepancy(pred, gt, EPS) == pytest.approx(0.6, abs=1e-8)

    def test_bridge_removed_from_nine(self):
        # single 9-node chain; prediction misses the middle node
        gt_coords = [[0, 0, 2 * i] for i in range(9)]
        gt = graph_of(gt_coords, [[i, i + 1] for i in range(8)])
        pred_coords = gt_coords[:4] + gt_coords[5:]
        pred_edges = [[0, 1], [1, 2], [2, 3], [4, 5], [5, 6], [6, 7]]
        pred = graph_of(pred_coords, pred_edges)
        assert path_discrepancy(pred, gt, EPS) == pytest.approx(5.0 / 9.0, abs=1e-6)


class TestPipeline:
    def test_identity_zero(self, shape_corpus):
        name, vol = shape_corpus[0]
        breakdown = skeleton_loss(vol, vol)
        assert breakdown.total == 0.0
        assert (breakdown.l_node, breakdown.l_edge, breakdown.l_path) == (0.0, 0.0, 0.0)
        assert not breakdown.degenerate

    def test_weighted_sum_worked_example(self):
        w = SkeletonLossWeights()
        total = w.lambda_node * 1.0 + w.lambda_edge * 0.25 + w.lambda_path * 0.6
        assert total == pytest.approx(1.425, abs=1e-12)

    def test_y_tree_branch_deleted_golden(self):
        recs = [
            SwcRecord(1, 1, 4.0, 14.0, 14.0, 1.5, -1),
            SwcRecord(2, 3, 10.0, 14.0, 14.0, 1.5, 1),
            SwcRecord(3, 3, 16.0, 14.0, 14.0, 1.5, 2),
            SwcRecord(4, 3, 20.0, 17.0, 16.0, 1.5, 3),
            SwcRecord(5, 3, 24.0, 20.0, 18.0, 1.5, 4),
            SwcRecord(6, 3, 20.0, 11.0, 12.0, 1.5, 3),
            SwcRecord(7, 3, 24.0, 8.0, 10.0, 1.5, 6),
        ]
        full = Morphology(tuple(recs))
        pruned = Morphology(tuple(r for r in recs if r.id not in (6, 7)))
        spec = SynthSpec(seed=0, dims=(28, 28, 28), tube_radius=1.5)
        mask_full, _ = rasterize(full, spec)
        mask_pruned, _ = rasterize(pruned, spec)
        breakdown = skeleton_loss(mask_pruned, mask_full)
        assert breakdown.total > 0.0
        assert breakdown.l_path > 0.0
        # golden numbers frozen from the pipeline oracle run
        assert breakdown.l_node == pytest.approx(1.2097695326709277, abs=1e-12)
        assert breakdown.l_edge == pytest.approx(0.23076923071005917, abs=1e-12)
        assert breakdown.l_path == pytest.approx(0.32258064505723205, abs=1e-12)
        assert breakdown.total == pytest.approx(1.4864444705545732, abs=1e-12)

    def test_dim_mismatch(self):
        a = binary_volume(np.zeros((3, 3, 3)))
        b = binary_volume(np.zeros((3, 3, 4)))
        with pytest.raises(ValidationError):
            skeleton_loss(a, b)

    def test_degenerate_empty_gt(self):
        m = np.zeros((6, 6, 6))
        m[2, 2, 2] = 1
        breakdown = skeleton_loss(binary_volume(m), binary_volume(np.zeros((6, 6, 6))))
        assert breakdown.degenerate
        assert breakdown.total == 0.0

    def test_empty_pred_saturates_node_term(self):
        gt = np.zeros((8, 8, 12))
        gt[4, 4, 2:10] = 1
        breakdown = skeleton_loss(binary_volume(np.zeros((8, 8, 12))), binary_volume(gt))
        assert not breakdown.degenerate
        # gt skeleton spans (4,4,2)..(4,4,9): bounding-box diameter 7
        assert breakdown.l_node == pytest.approx(7.0, abs=1e-12)
        assert breakdown.l_edge == pytest.approx(1.0, rel=1e-6)
        assert breakdown.l_path == pytest.approx(1.0, rel=1e-6)
        assert breakdown.total > 0

    def test_probability_input_thresholded(self):
        m = np.zeros((6, 6, 10))
        m[3, 3, 2:8] = 1
        prob = Volume3D((m * 0.9).astype("<f4"), "probability")
        breakdown = skeleton_loss(prob, binary_volume(m))
        assert breakdown.total == 0.0

    def test_translation_invariance(self):
        base = np.zeros((16, 16, 20))
        base[5:8, 5:8, 3:14] = 1
        pred = np.zeros_like(base)
        pred[5:8, 5:8, 3:12] = 1
        b0 = skeleton_loss(binary_volume(pred), binary_volume(base))
        shifted_pred = np.roll(pred, (4, 3, 2), axis=(0, 1, 2))
        shifted_gt = np.roll(base, (4, 3, 2), axis=(0, 1, 2))
        b1 = skeleton_loss(binary_volume(shifted_pred), binary_volume(shifted_gt))
        assert b1.l_node == pytest.approx(b0.l_node, abs=1e-12)
        assert b1.l_edge == pytest.approx(b0.l_edge, abs=1e-12)
        assert b1.l_path == pytest.approx(b0.l_path, abs=1e-12)

    def test_total_is_weighted_recombination(self):
        m = np.zeros((10, 10, 14))
        m[4:6, 4:6, 2:12] = 1
        p = np.zeros_like(m)
        p[4:6, 4:6, 2:8] = 1
        w = SkeletonLossWeights(lambda_node=2.0, lambda_edge=0.25, lambda_path=3.0)
        b = skeleton_loss(binary_volume(p), binary_volume(m), w)
        assert b.total == pytest.approx(
            2.0 * b.l_node + 0.25 * b.l_edge + 3.0 * b.l_path, abs=1e-12)

    def test_weights_validation(self):
        with pytest.raises(ValidationError):
            SkeletonLossWeights(lambda_node=0.0, lambda_edge=0.0, lambda_path=0.0)
        with pytest.raises(ValidationError):
            SkeletonLossWeights(epsilon=0.0)
        with pytest.raises(ValidationError):
            SkeletonLossWeights(tau=1.0)
        with pytest.raises(ValidationError):
            SkeletonLossWeights(lambda_edge=-0.1)
        for field in ("lambda_node", "lambda_edge", "lambda_path", "epsilon", "r"):
            for bad in (float("nan"), float("inf")):
                with pytest.raises(ValidationError):
                    SkeletonLossWeights(**{field: bad})


def composed_skeleton_loss(pred, gt, w):
    """skeleton_loss from its public stages, each volume skeletonized alone."""
    pred_bin = threshold(pred, w.tau) if pred.kind == PROBABILITY else pred
    g_pred = graph_from_skeleton(skeletonize(pred_bin), w.r)
    g_gt = graph_from_skeleton(skeletonize(gt), w.r)
    if g_gt.is_empty():
        return SkeletonLossBreakdown(0.0, 0.0, 0.0, 0.0, degenerate=True)
    if g_pred.is_empty():
        span = (g_gt.nodes.max(axis=0) - g_gt.nodes.min(axis=0)).astype(np.float64)
        l_node = float(np.sqrt((span ** 2).sum()))
    else:
        l_node = node_discrepancy(g_pred, g_gt)
    l_edge = edge_discrepancy(g_pred, g_gt, w.epsilon)
    l_path = path_discrepancy(g_pred, g_gt, w.epsilon)
    total = w.lambda_node * l_node + w.lambda_edge * l_edge + w.lambda_path * l_path
    return SkeletonLossBreakdown(l_node, l_edge, l_path, total)


class TestMatchesPublicStages:
    """One stacked thinning pass gives what skeletonize gives each side."""

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_synth_pairs(self, seed):
        dims = ((32, 32, 32), (24, 40, 28), (16, 16, 16))[seed % 3]
        spec = SynthSpec(seed=seed, dims=dims, n_branch_points=2, segment_length=(4.0, 8.0),
                         tube_radius=1.6, noise_sigma=0.15, blur_sigma=0.8)
        mask, prob = rasterize(generate_tree(spec), spec)
        other_mask, other_prob = rasterize(generate_tree(replace(spec, seed=seed + 100)), spec)
        w = SkeletonLossWeights(lambda_node=1.5, lambda_edge=0.25, lambda_path=0.75,
                                tau=0.4, r=(2.0, 1.5, 3.0)[seed % 3])
        for pred, gt in ((prob, mask), (other_prob, mask), (other_mask, mask),
                         (mask, other_mask), (prob, other_mask)):
            assert skeleton_loss(pred, gt, w) == composed_skeleton_loss(pred, gt, w)

    def test_empty_sides(self):
        line = np.zeros((8, 8, 12))
        line[4, 4, 2:10] = 1
        empty = np.zeros_like(line)
        w = SkeletonLossWeights()
        for pred, gt in ((empty, line), (line, empty), (empty, empty)):
            pred, gt = binary_volume(pred), binary_volume(gt)
            assert skeleton_loss(pred, gt, w) == composed_skeleton_loss(pred, gt, w)


def remove_node(g: SkeletonGraph, victim: int) -> SkeletonGraph:
    """Drop one node and its incident edges, remapping ids."""
    keep = [i for i in range(g.n_nodes) if i != victim]
    remap = {old: new for new, old in enumerate(keep)}
    edges = [[remap[int(i)], remap[int(j)]] for i, j in g.edges
             if int(i) != victim and int(j) != victim]
    return SkeletonGraph(g.nodes[keep],
                         np.asarray(edges, dtype=np.int64).reshape(-1, 2), g.radius_r)


class TestFragmentation:
    def test_articulation_removal_closed_form(self):
        # single chain of n nodes; removing an interior node splits it in two
        n = 9
        coords = [[0, 0, 3 * i] for i in range(n)]
        gt = graph_of(coords, [[i, i + 1] for i in range(n - 1)], r=3.0)
        pred = remove_node(gt, 4)
        from skeltop import connected_components
        assert connected_components(pred).m == 2
        lp = path_discrepancy(pred, gt, EPS)
        assert lp == pytest.approx((n + 1) / (2 * n), abs=1e-6)
        w = SkeletonLossWeights()
        total = (w.lambda_node * node_discrepancy(pred, gt)
                 + w.lambda_edge * edge_discrepancy(pred, gt, EPS)
                 + w.lambda_path * lp)
        assert total > 0


def block_max(a, f):
    d, h, w = a.shape
    return a.reshape(d // f, f, h // f, f, w // f, f).max(axis=(1, 3, 5))


class TestMatchesVolumeReference:
    """skeleton_loss from node lists equals the frozen volume pipeline
    (threshold, skeleton volumes, graph_from_skeleton) exactly."""

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_synth_pyramids(self, seed):
        dims = ((32, 32, 32), (24, 40, 28))[seed % 2]
        spec = SynthSpec(seed=seed, dims=dims, n_branch_points=2, segment_length=(4.0, 8.0),
                         tube_radius=1.6, noise_sigma=0.15, blur_sigma=0.8)
        mask, prob = rasterize(generate_tree(spec), spec)
        w = SkeletonLossWeights(tau=(0.5, 0.4)[seed % 2], r=(2.0, 3.0)[seed % 2])
        for f in (1, 2, 4):
            p = Volume3D(block_max(prob.data, f), PROBABILITY)
            g = Volume3D(block_max(mask.data, f), BINARY)
            for pred in (p, g):
                assert skeleton_loss(pred, g, w) == tasl_reference.skeleton_loss(pred, g, w), f

    def test_binary_prediction_is_not_thresholded(self):
        rng = np.random.default_rng(3)
        pred, gt = (binary_volume(rng.random((10, 12, 9)) < 0.5) for _ in range(2))
        for tau in (0.1, 0.5, 0.9):
            w = SkeletonLossWeights(tau=tau)
            assert skeleton_loss(pred, gt, w) == tasl_reference.skeleton_loss(pred, gt, w)

    def test_probabilities_exactly_at_tau(self):
        # value == tau is background; one ulp above is foreground
        gt = np.zeros((7, 8, 9))
        gt[3, 4, 1:8] = 1
        gt[1:6, 2, 4] = 1
        tau = np.float32(0.25)
        p = np.where(gt > 0, tau, 0.0).astype("<f4")
        p[3, 4, 2:5] = np.nextafter(tau, np.float32(1))
        w = SkeletonLossWeights(tau=float(tau))
        pred = Volume3D(p, PROBABILITY)
        got = skeleton_loss(pred, binary_volume(gt), w)
        assert got == tasl_reference.skeleton_loss(pred, binary_volume(gt), w)
        assert got.l_node > 0  # only the three voxels above tau survive

    def test_empty_prediction_and_empty_ground_truth(self):
        line = np.zeros((6, 9, 11))
        line[2, 3, 1:10] = 1
        line[1:5, 7, 4] = 1
        empty = Volume3D(np.full(line.shape, 0.3, dtype="<f4"), PROBABILITY)
        w = SkeletonLossWeights()
        got = skeleton_loss(empty, binary_volume(line), w)
        assert got == tasl_reference.skeleton_loss(empty, binary_volume(line), w)
        assert got.l_node == float(np.sqrt(3 ** 2 + 4 ** 2 + 8 ** 2))  # bbox diameter
        for pred in (binary_volume(line), empty):
            got = skeleton_loss(pred, binary_volume(np.zeros_like(line)), w)
            assert got.degenerate and got == tasl_reference.skeleton_loss(
                pred, binary_volume(np.zeros_like(line)), w)

    @pytest.mark.parametrize("p, g", [(0.7, 1), (0.2, 1), (0.7, 0), (1.0, 1), (0.0, 0)])
    def test_single_voxel_volumes(self, p, g):
        pred = Volume3D(np.full((1, 1, 1), p, dtype="<f4"), PROBABILITY)
        gt = binary_volume(np.full((1, 1, 1), g))
        assert skeleton_loss(pred, gt) == tasl_reference.skeleton_loss(pred, gt)

    def test_input_buffers_unchanged(self):
        rng = np.random.default_rng(17)
        pred = Volume3D(rng.random((9, 10, 11)).astype("<f4"), PROBABILITY)
        gt = binary_volume(rng.random((9, 10, 11)) < 0.5)
        other = binary_volume(rng.random((9, 10, 11)) < 0.5)
        copies = [v.data.copy() for v in (pred, gt, other)]
        skeleton_loss(pred, gt)
        skeleton_loss(other, gt)
        for vol, before in zip((pred, gt, other), copies):
            assert not vol.data.flags.writeable
            assert np.array_equal(vol.data, before) and vol.data.dtype == before.dtype
