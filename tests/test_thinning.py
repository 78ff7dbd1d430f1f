"""Differential tests: the bit-code thinning against the flood-fill reference.

`thin_reference` is the straightforward formulation (per-row min-label
flood fill and a sequential conflict scan). The library must reproduce it
bit for bit, both the simple-point decision on single neighborhoods and
the whole skeleton.
"""

import inspect
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

import thin_reference
from skeltop import threshold, thinning
from skeltop.synth import SynthSpec, generate_tree, rasterize


def code_rows(codes):
    """27-bit codes to the reference's (n, 27) boolean neighborhood rows."""
    return ((np.asarray(codes, dtype=np.int64)[:, None] >> np.arange(27)) & 1).astype(bool)


def assert_same_simple(codes):
    codes = np.asarray(codes, dtype=np.int64)
    got = thinning._simple(codes)
    want = thin_reference.simple_mask(code_rows(codes))
    bad = np.flatnonzero(got != want)
    assert len(bad) == 0, f"{len(bad)} codes differ, first {int(codes[bad[0]]):#09x}"


def assert_same_skeleton(mask):
    got = thinning.thin(mask)
    want = thin_reference.thin(mask)
    assert got.dtype == bool and got.shape == want.shape
    assert np.array_equal(got, want), f"{int((got != want).sum())} voxels differ"


class TestSimplePoint:
    def test_random_codes(self):
        rng = np.random.default_rng(20260)
        density = rng.uniform(0.0, 1.0, size=(100_000, 1))
        rows = rng.random((100_000, 27)) < density
        assert_same_simple(np.packbits(rows, axis=1, bitorder="little").view("<u4")[:, 0])

    def test_codes_with_at_most_three_bits_and_all_ones(self):
        codes = [0, (1 << 27) - 1]
        for k in (1, 2, 3):
            codes += [sum(1 << b for b in bits) for bits in itertools.combinations(range(27), k)]
        assert len(codes) == 2 + 27 + 351 + 2925
        assert_same_simple(codes)

    def test_complements_of_sparse_codes(self):
        full = (1 << 27) - 1
        codes = [full ^ sum(1 << b for b in bits)
                 for k in (1, 2, 3) for bits in itertools.combinations(range(27), k)]
        assert_same_simple(codes)

    def test_textbook_cases(self):
        center, face = 1 << 13, 1 << 4
        assert not thinning._simple(np.array([center]))[0]          # isolated voxel
        assert thinning._simple(np.array([center | face]))[0]       # curve end
        assert not thinning._simple(np.array([(1 << 27) - 1]))[0]   # interior voxel


class TestThinMatchesReference:
    def test_shape_corpus(self, shape_corpus):
        for name, vol in shape_corpus:
            assert_same_skeleton(vol.bool_data())

    @pytest.mark.parametrize("size", [32, 64, 96, 128])
    def test_synth_fixtures(self, size):
        spec = SynthSpec(seed=3, dims=(size,) * 3, n_branch_points=3,
                         segment_length=(size / 12, size / 6), tube_radius=1.0 + size / 64,
                         noise_sigma=0.1, blur_sigma=1.0)
        mask, prob = rasterize(generate_tree(spec), spec)
        assert_same_skeleton(mask.bool_data())
        assert_same_skeleton(threshold(prob, 0.5).bool_data())

    @settings(max_examples=20, deadline=None)
    @given(dims=st.tuples(*[st.integers(1, 24)] * 3), seed=st.integers(0, 2**32 - 1),
           level=st.floats(0.3, 0.7), smooth=st.sampled_from([0.0, 0.8, 1.5]))
    def test_random_masks(self, dims, seed, level, smooth):
        field = np.random.default_rng(seed).random(dims)
        if smooth:
            field = ndimage.gaussian_filter(field, smooth)
            field = (field - field.min()) / max(float(np.ptp(field)), 1e-12)
        assert_same_skeleton(field > level)

    def test_degenerate_shapes(self):
        for shape in [(0, 4, 4), (1, 1, 1), (1, 5, 5), (3, 1, 7)]:
            assert_same_skeleton(np.ones(shape, dtype=bool))


def assert_same_stack(stack):
    """thin on a stack equals thin and the reference on each member alone."""
    got = thinning.thin(stack)
    assert got.dtype == bool and got.shape == stack.shape
    for i, member in enumerate(stack):
        alone = thinning.thin(member)
        assert np.array_equal(got[i], alone), f"member {i}: {int((got[i] != alone).sum())} differ"
        assert np.array_equal(alone, thin_reference.thin(member)), f"member {i} vs reference"


class TestThinStack:
    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(1, 3), dims=st.tuples(*[st.integers(1, 16)] * 3),
           seed=st.integers(0, 2**32 - 1), smooth=st.sampled_from([0.0, 0.8, 1.5]),
           fill=st.lists(st.sampled_from(["random", "empty", "ones"]), min_size=3, max_size=3))
    def test_random_stacks(self, k, dims, seed, smooth, fill):
        rng = np.random.default_rng(seed)
        stack = np.empty((k, *dims), dtype=bool)
        for i in range(k):
            field = rng.random(dims)
            if smooth:
                field = ndimage.gaussian_filter(field, smooth)
                field = (field - field.min()) / max(float(np.ptp(field)), 1e-12)
            stack[i] = {"random": field > rng.uniform(0.3, 0.7), "empty": False, "ones": True}[fill[i]]
        assert_same_stack(stack)

    def test_members_touching_every_face(self):
        # foreground on all six faces of each member: only the background
        # plane between members keeps their neighborhoods apart
        rng = np.random.default_rng(7)
        stack = rng.random((3, 9, 8, 7)) < 0.6
        for face in (np.s_[:, 0], np.s_[:, -1], np.s_[:, :, 0], np.s_[:, :, -1],
                     np.s_[:, :, :, 0], np.s_[:, :, :, -1]):
            stack[face] = True
        assert_same_stack(stack)
        assert_same_stack(np.ones((3, 5, 6, 4), dtype=bool))

    def test_shape_corpus_as_one_stack(self, shape_corpus):
        shapes = {}
        for _, vol in shape_corpus:
            shapes.setdefault(vol.dims, []).append(vol.bool_data())
        for members in shapes.values():
            assert_same_stack(np.stack(members))

    @pytest.mark.parametrize("shape", [(0, 4, 4, 4), (2, 0, 4, 4), (2, 3, 0, 5), (3, 2, 4, 0)])
    def test_zero_size_dims(self, shape):
        got = thinning.thin(np.ones(shape, dtype=bool))
        assert got.dtype == bool and got.shape == shape

    def test_3d_input_gives_3d_output(self):
        mask = np.ones((4, 5, 6), dtype=bool)
        assert thinning.thin(mask).shape == (4, 5, 6)
        assert np.array_equal(thinning.thin(mask), thinning.thin(mask[None])[0])


def naive_first_independent(mask):
    """Scan the voxels of `mask` in argwhere order with a set of the chosen
    ones; a voxel is chosen unless a chosen voxel is among its 26 neighbors.
    Returns the chosen voxels as a boolean array."""
    chosen = set()
    for v in map(tuple, np.argwhere(mask).tolist()):
        near = {(v[0] + a, v[1] + b, v[2] + c) for a, b, c in itertools.product((-1, 0, 1), repeat=3)}
        if not near & chosen:
            chosen.add(v)
    out = np.zeros_like(mask, dtype=bool)
    for v in chosen:
        out[v] = True
    return out


def first_independent_mask(mask):
    """thinning._first_independent on the flat ids of a zero-padded copy."""
    d, h, w = mask.shape
    padded = np.zeros((d + 2, h + 2, w + 2), dtype=bool)
    padded[1:-1, 1:-1, 1:-1] = mask
    offs = thinning._OFFSETS @ np.array([(h + 2) * (w + 2), w + 2, 1])
    out = np.zeros(padded.size, dtype=bool)
    out[thinning._first_independent(np.flatnonzero(padded), offs[:thinning._CENTER])] = True
    return out.reshape(padded.shape)[1:-1, 1:-1, 1:-1]


class TestFirstIndependent:
    @settings(max_examples=40, deadline=None)
    @given(dims=st.tuples(*[st.integers(1, 12)] * 3), seed=st.integers(0, 2**32 - 1),
           density=st.floats(0.0, 1.0))
    def test_random_candidate_sets(self, dims, seed, density):
        mask = np.random.default_rng(seed).random(dims) < density
        assert np.array_equal(first_independent_mask(mask), naive_first_independent(mask))

    @pytest.mark.parametrize("voxels", [[], [(1, 2, 0)]])
    def test_empty_and_one_candidate(self, voxels):
        mask = np.zeros((3, 4, 2), dtype=bool)
        for v in voxels:
            mask[v] = True
        assert np.array_equal(first_independent_mask(mask), mask)

    def test_200_voxel_line(self):
        # one-voxel-thick lines are the longest chains of conflicts: every
        # other voxel is chosen, each only once its predecessor is settled
        for shape, line in (((1, 1, 200), np.s_[0, 0, :]),
                            ((200, 200, 1), (np.arange(200), np.arange(200), 0))):
            mask = np.zeros(shape, dtype=bool)
            mask[line] = True
            got = first_independent_mask(mask)
            assert np.array_equal(got, naive_first_independent(mask))
            assert np.array_equal(got[line], np.arange(200) % 2 == 0)


def assert_same_nodes(masks):
    """_skeleton_nodes on a sequence of masks gives, per mask, the argwhere
    of thin and of the reference on that mask alone."""
    got = thinning._skeleton_nodes(masks)
    assert len(got) == len(masks)
    for i, (mask, nodes) in enumerate(zip(masks, got)):
        want = np.argwhere(thinning.thin(mask))
        assert nodes.dtype == np.int64 and nodes.shape == want.shape, f"member {i}"
        assert np.array_equal(nodes, want), f"member {i} vs thin"
        assert np.array_equal(nodes, np.argwhere(thin_reference.thin(mask))), f"member {i} vs reference"


def touching_all_faces(mask):
    mask = mask.copy()
    for face in (np.s_[0], np.s_[-1], np.s_[:, 0], np.s_[:, -1], np.s_[:, :, 0], np.s_[:, :, -1]):
        mask[face] = True
    return mask


class TestSkeletonNodes:
    """The node path reads skeleton voxels off thin's surviving flat ids."""

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(1, 4),
           dims=st.tuples(*[st.sampled_from([1, 2, 3, 5, 8, 11])] * 3),
           seed=st.integers(0, 2**32 - 1), smooth=st.sampled_from([0.0, 0.8]),
           fill=st.lists(st.sampled_from(["random", "empty", "ones", "faces"]),
                         min_size=4, max_size=4))
    def test_random_stacks(self, k, dims, seed, smooth, fill):
        rng = np.random.default_rng(seed)
        masks = []
        for i in range(k):
            field = rng.random(dims)
            if smooth:
                field = ndimage.gaussian_filter(field, smooth)
                field = (field - field.min()) / max(float(np.ptp(field)), 1e-12)
            random = field > rng.uniform(0.3, 0.7)
            masks.append({"random": random, "empty": np.zeros(dims, bool),
                          "ones": np.ones(dims, bool), "faces": touching_all_faces(random)}[fill[i]])
        assert_same_nodes(masks)

    @pytest.mark.parametrize("dims", [(1, 1, 1), (1, 6, 9), (7, 1, 4), (5, 8, 1), (3, 12, 5)])
    def test_thin_axes_and_non_cubic_shapes(self, dims):
        rng = np.random.default_rng(sum(dims))
        assert_same_nodes([np.ones(dims, bool), touching_all_faces(rng.random(dims) < 0.4),
                           np.zeros(dims, bool), rng.random(dims) < 0.7])

    def test_synth_pair_as_a_tuple_of_views(self):
        # the TASL call: a thresholded prediction and a uint8 mask's bool view
        spec = SynthSpec(seed=3, dims=(20, 24, 16), n_branch_points=2, tube_radius=1.6)
        mask, prob = rasterize(generate_tree(spec), spec)
        assert_same_nodes((prob.data > 0.5, mask.data.view(bool)))

    def test_masks_are_not_written(self):
        rng = np.random.default_rng(5)
        masks = [rng.random((6, 7, 8)) < 0.6 for _ in range(3)]
        before = [m.copy() for m in masks]
        thinning._skeleton_nodes(masks)
        assert all(np.array_equal(m, b) for m, b in zip(masks, before))

    def test_one_fixpoint_loop_shared_with_thin(self, monkeypatch):
        assert inspect.getsource(thinning).count("while changed") == 1
        calls = []
        core = thinning._thin_stack

        def counting(masks, shape):
            calls.append(len(masks))
            return core(masks, shape)

        monkeypatch.setattr(thinning, "_thin_stack", counting)
        mask = np.ones((4, 5, 6), dtype=bool)
        thinning.thin(mask)
        thinning._skeleton_nodes((mask, mask))
        assert calls == [1, 2]
