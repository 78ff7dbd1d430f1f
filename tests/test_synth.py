import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synth_reference
from skeltop import (GenerationError, ValidationError, parse_swc, pds,
                     skeleton_loss, synth, threshold, write_swc)
from skeltop.segmetrics import precision_recall_f1
from skeltop.swc import Morphology, SwcRecord
from skeltop.synth import SynthSpec, generate_tree, rasterize

from conftest import count_components_26

CORPUS_SEEDS = range(300, 310)


def corpus_spec(seed, **kw):
    base = dict(seed=seed, dims=(26, 30, 30), n_branch_points=2,
                segment_length=(4.0, 7.0), tube_radius=1.8)
    base.update(kw)
    return SynthSpec(**base)


class TestGenerateTree:
    def test_deterministic(self):
        spec = corpus_spec(1)
        assert generate_tree(spec).records == generate_tree(spec).records

    def test_different_seeds_differ(self):
        assert generate_tree(corpus_spec(1)).records != generate_tree(corpus_spec(2)).records

    def test_no_branches_is_path(self):
        tree = generate_tree(corpus_spec(3, n_branch_points=0))
        parents = [r.parent for r in tree.records]
        # every node except the root is the parent of at most one child
        assert parents.count(-1) == 1
        from collections import Counter
        counts = Counter(p for p in parents if p != -1)
        assert all(v == 1 for v in counts.values())

    def test_is_tree(self):
        tree = generate_tree(corpus_spec(4, n_branch_points=3))
        n_edges = sum(1 for r in tree.records if r.parent != -1)
        assert n_edges == len(tree) - 1

    def test_swc_round_trip(self):
        tree = generate_tree(corpus_spec(5))
        assert parse_swc(write_swc(tree)).records == tree.records

    def test_fits_with_margin(self):
        spec = corpus_spec(6)
        tree = generate_tree(spec)
        pos = tree.node_positions()
        d, h, w = spec.dims
        margin = spec.tube_radius
        assert (pos[:, 0] >= margin).all() and (pos[:, 0] <= w - 1 - margin).all()
        assert (pos[:, 1] >= margin).all() and (pos[:, 1] <= h - 1 - margin).all()
        assert (pos[:, 2] >= margin).all() and (pos[:, 2] <= d - 1 - margin).all()

    def test_infeasible_spec(self):
        with pytest.raises(GenerationError):
            generate_tree(SynthSpec(seed=0, dims=(4, 4, 4), tube_radius=2.0))

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            SynthSpec(seed=0, segment_length=(5.0, 2.0))
        with pytest.raises(ValidationError):
            SynthSpec(seed=0, tube_radius=0.0)
        with pytest.raises(ValidationError):
            SynthSpec(seed=0, n_branch_points=-1)
        for bad in ({"seed": "abc"}, {"seed": 0, "dims": ("a", 8, 8)},
                    {"seed": 0, "tube_radius": float("nan")}, {"seed": 0, "n_branch_points": 1.5}):
            with pytest.raises(ValidationError):
                SynthSpec(**bad)

    @pytest.mark.parametrize("kw, message", [
        (dict(seed=-1), "seed must be >= 0, got -1"),
        (dict(dims=(8, 0, 8)), r"dims must be 3 positive integers .*got \(8, 0, 8\)"),
        (dict(noise_sigma=-0.1), "noise_sigma and blur_sigma must be non-negative"),
        (dict(blur_sigma=-0.1), "noise_sigma and blur_sigma must be non-negative"),
    ])
    def test_spec_validation_messages(self, kw, message):
        with pytest.raises(ValidationError, match=message):
            SynthSpec(**{"seed": 0, **kw})

    def test_voxel_cap(self, monkeypatch):
        monkeypatch.setattr("skeltop.synth.MAX_VOXELS", 1000)
        assert SynthSpec(seed=0, dims=(10, 10, 10)).dims == (10, 10, 10)
        with pytest.raises(ValidationError, match="at most 1000 voxels"):
            SynthSpec(seed=0, dims=(10, 10, 11))

    def test_huge_dims_are_refused_before_allocating(self):
        with pytest.raises(ValidationError, match="voxels in all"):
            SynthSpec(seed=0, dims=(100000, 100000, 100000))

    def test_segments_longer_than_the_interior(self):
        spec = SynthSpec(seed=0, dims=(8, 8, 8), segment_length=(10.0, 10.0))
        with pytest.raises(GenerationError, match=r"could not keep the tree inside dims \(8, 8, 8\)"):
            generate_tree(spec)

    def test_numpy_numbers_pass_booleans_do_not(self):
        spec = SynthSpec(seed=np.int64(3), dims=np.array([8, 9, 10]),
                         segment_length=(np.float32(2.0), 3), tube_radius=np.float64(1.5))
        assert spec == SynthSpec(seed=3, dims=(8, 9, 10), segment_length=(2.0, 3.0))
        assert type(spec.seed) is int and type(spec.tube_radius) is float
        for bad in ({"seed": np.True_}, {"seed": 0, "dims": (8, np.False_, 8)},
                    {"seed": 0, "noise_sigma": np.False_}, {"seed": False}):
            with pytest.raises(ValidationError, match="must be an? (integer|finite number)"):
                SynthSpec(**bad)


def _grown(generate, spec):
    """The tree's records, or the GenerationError message."""
    try:
        return generate(spec).records
    except GenerationError as err:
        return str(err)


# the benchmark's fixture specs: train-step and cli-batch, and eval-case's two cube sizes
_BENCH_SPECS = [dict(dims=(64, 64, 64), tube_radius=2.0, noise_sigma=0.1, blur_sigma=1.0)] + [
    dict(dims=(edge,) * 3, n_branch_points=8, segment_length=(6.0, 10.0), tube_radius=2.0,
         blur_sigma=1.0) for edge in (64, 96)]


class TestGrowthMatchesNumpyReference:
    """generate_tree on float tuples against the NumPy 3-vector formulation."""

    @pytest.mark.parametrize("fields", _BENCH_SPECS)
    def test_benchmark_specs(self, fields):
        seeds = list(range(12)) + [int(s) for s in np.random.SeedSequence(23).generate_state(12)]
        for seed in seeds:
            spec = SynthSpec(seed=seed, **fields)
            assert _grown(generate_tree, spec) == _grown(synth_reference.generate_tree, spec)

    def test_drawn_specs_including_the_inward_fallback(self, monkeypatch):
        cones, real = [], synth._cap_direction
        monkeypatch.setattr(synth, "_cap_direction", lambda *a: cones.append(a[2]) or real(*a))

        @given(st.integers(0, 2 ** 63), st.tuples(*[st.integers(5, 48)] * 3), st.integers(0, 8),
               st.floats(0.5, 12.0), st.floats(0.0, 6.0), st.floats(0.5, 4.0))
        @settings(max_examples=150, deadline=None)
        def check(seed, dims, n_branch_points, shortest, spread, tube_radius):
            spec = SynthSpec(seed=seed, dims=dims, n_branch_points=n_branch_points,
                             segment_length=(shortest, shortest + spread), tube_radius=tube_radius)
            assert _grown(generate_tree, spec) == _grown(synth_reference.generate_tree, spec)

        check()
        assert 0.8 in cones  # some drawn case ran past attempt 32, to the inward cap


class TestRasterize:
    def test_zero_length_segment_stamps_a_ball(self):
        spec = SynthSpec(seed=0, dims=(9, 9, 9), tube_radius=2.0)
        x, y, z = 4.3, 3.6, 4.1
        tree = Morphology((SwcRecord(1, 1, x, y, z, 2.0, -1), SwcRecord(2, 3, x, y, z, 2.0, 1)))
        mask, _ = rasterize(tree, spec)
        zz, yy, xx = np.mgrid[0:9, 0:9, 0:9]
        ball = (xx - x) ** 2 + (yy - y) ** 2 + (zz - z) ** 2 <= 4.0
        assert ball.sum() > 1 and np.array_equal(mask.bool_data(), ball)

    def test_single_component(self):
        spec = corpus_spec(10)
        mask, _ = rasterize(generate_tree(spec), spec)
        assert count_components_26(mask.bool_data()) == 1

    def test_node_voxels_foreground(self):
        spec = corpus_spec(11, tube_radius=0.6)
        tree = generate_tree(spec)
        mask, _ = rasterize(tree, spec)
        m = mask.bool_data()
        for x, y, z in tree.node_positions():
            assert m[int(round(z)), int(round(y)), int(round(x))]

    def test_noise_free_prob_equals_mask(self):
        spec = corpus_spec(12, noise_sigma=0.0, blur_sigma=0.0)
        mask, prob = rasterize(generate_tree(spec), spec)
        assert np.array_equal(prob.data, mask.data.astype("<f4"))

    def test_noise_deterministic(self):
        spec = corpus_spec(13, noise_sigma=0.05, blur_sigma=0.5)
        tree = generate_tree(spec)
        _, p1 = rasterize(tree, spec)
        _, p2 = rasterize(tree, spec)
        assert np.array_equal(p1.data, p2.data)

    def test_threshold_recovers_mask_f1(self):
        # golden bound measured over the seeded corpus (min observed 99.9%)
        worst = 1.0
        for seed in CORPUS_SEEDS:
            spec = corpus_spec(seed, noise_sigma=0.05, blur_sigma=0.5)
            tree = generate_tree(spec)
            mask, prob = rasterize(tree, spec)
            _, _, f1, _ = precision_recall_f1(threshold(prob, 0.5), mask)
            worst = min(worst, f1)
        assert worst >= 0.99

    def test_out_of_bounds_morphology_rejected(self):
        spec = corpus_spec(14)
        tree = generate_tree(spec)
        bad_spec = SynthSpec(seed=14, dims=(8, 8, 8), tube_radius=1.8)
        with pytest.raises(ValidationError):
            rasterize(tree, bad_spec)


def prune_one_branch(tree: Morphology) -> Morphology:
    """Remove the subtree hanging off the last child of the first node
    with two or more children."""
    children = {}
    for r in tree.records:
        children.setdefault(r.parent, []).append(r.id)
    branch_roots = [rid for rid, kids in sorted(children.items())
                    if rid != -1 and len(kids) >= 2]
    assert branch_roots, "corpus tree has no branch point"
    victim_root = children[branch_roots[0]][-1]
    doomed = set()
    stack = [victim_root]
    while stack:
        node = stack.pop()
        doomed.add(node)
        stack.extend(children.get(node, []))
    return Morphology(tuple(r for r in tree.records if r.id not in doomed))


class TestPipelineSanity:
    def test_identity_zero_over_corpus(self):
        for seed in list(CORPUS_SEEDS)[:4]:
            spec = corpus_spec(seed)
            mask, _ = rasterize(generate_tree(spec), spec)
            assert skeleton_loss(mask, mask).total == 0.0

    def test_branch_deletion_strictly_increases_loss_and_pds(self):
        for seed in CORPUS_SEEDS:
            spec = corpus_spec(seed)
            tree = generate_tree(spec)
            pruned = prune_one_branch(tree)
            assert len(pruned) < len(tree)
            full_mask, _ = rasterize(tree, spec)
            pruned_mask, _ = rasterize(pruned, spec)
            breakdown = skeleton_loss(pruned_mask, full_mask)
            assert breakdown.total > 0.0, f"seed {seed}: loss not increased"
            assert pds(pruned, tree, 2.0) > 0.0, f"seed {seed}: pds not increased"
