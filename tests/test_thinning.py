"""Differential tests: the bit-matrix thinning against the flood-fill reference.

`thin_reference` is the straightforward formulation (per-row min-label
flood fill and a sequential conflict scan). The library must reproduce it
bit for bit, both the simple-point decision on single neighborhoods and
the whole skeleton.
"""

import inspect
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

import thin_reference
from skeltop import ValidationError, threshold, thinning
from skeltop.synth import SynthSpec, generate_tree, rasterize


def code_rows(codes):
    """27-bit codes to the reference's (n, 27) boolean neighborhood rows."""
    return ((np.asarray(codes, dtype=np.int64)[:, None] >> np.arange(27)) & 1).astype(bool)


def assert_same_simple(codes):
    codes = np.asarray(codes, dtype=np.int64)
    got = thinning._simple(code_rows(codes).T)
    want = thin_reference.simple_mask(code_rows(codes))
    bad = np.flatnonzero(got != want)
    assert len(bad) == 0, f"{len(bad)} codes differ, first {int(codes[bad[0]]):#09x}"


def bit_matrix(m):
    """A uint64 bit matrix (row i in byte i) as an (8, 8) bool array."""
    return np.array([(int(m) >> k) & 1 for k in range(64)], dtype=bool).reshape(8, 8)


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
        assert not thinning._simple(code_rows([center]).T)[0]          # isolated voxel
        assert thinning._simple(code_rows([center | face]).T)[0]       # curve end
        assert not thinning._simple(code_rows([(1 << 27) - 1]).T)[0]   # interior voxel


class TestBitMatrixConstruction:
    """The tables behind the simple-point test, checked against adjacency
    computed from cell offsets."""

    cells = np.array(thin_reference._OFFSETS)
    punctured = [c for c in range(27) if c != thinning._CENTER]

    def test_outer_product_table(self):
        for v in range(256):
            bits = ((v >> np.arange(8)) & 1).astype(bool)
            assert np.array_equal(bit_matrix(thinning._Q[v]), np.outer(bits, bits)), v

    def test_cells_sharing_an_octant_are_26_adjacent(self):
        links = [bit_matrix(m) for m in thinning._TABLE[:, 0, 0]]
        assert not links[thinning._CENTER].any()
        octants = [np.diag(m) for m in links]
        for c in self.punctured:
            assert np.array_equal(links[c], np.outer(octants[c], octants[c]))
            assert octants[c].sum() == 2 ** (3 - np.abs(self.cells[c]).sum())
        for p, q in itertools.permutations(self.punctured, 2):
            adjacent = np.abs(self.cells[p] - self.cells[q]).max() == 1
            assert (octants[p] & octants[q]).any() == adjacent, (p, q)

    def test_background_table_is_6_adjacency_on_n18(self):
        n18 = [c for c in self.punctured if np.abs(self.cells[c]).sum() <= 2]
        faces = [c for c in n18 if np.abs(self.cells[c]).sum() == 1]
        assert np.array_equal(self.cells[faces], thinning._FACES)

        def six(p, q):
            return np.abs(self.cells[p] - self.cells[q]).sum() == 1

        # each entry (i, j) of the octahedron: the N18 cells it needs background
        needs = {}
        for i, j in itertools.product(range(6), repeat=2):
            via = [c for c in n18 if i != j and six(c, faces[i]) and six(c, faces[j])]
            if i == j or via:
                needs[i, j] = {faces[i], faces[j], *via}
        octahedron = bit_matrix(thinning._OCTAHEDRON)
        assert octahedron.sum() == len(needs) == 6 + 24
        for c in range(27):
            broken = bit_matrix(thinning._TABLE[c, 1, 0])
            for i, j in itertools.product(range(8), repeat=2):
                assert octahedron[i, j] == ((i, j) in needs)
                assert broken[i, j] == (c in needs.get((i, j), ())), (c, i, j)

    def test_structured_sweep_matches_reference(self):
        # all 64 face patterns x edge patterns with at most two cells set or
        # clear x corners all clear or all set, centre set
        norm = np.abs(self.cells).sum(axis=1)
        faces, edges, corners = (np.flatnonzero(norm == k) for k in (1, 2, 3))
        sparse = [set(b) for k in (0, 1, 2) for b in itertools.combinations(range(12), k)]
        edge_sets = sparse + [set(range(12)) - b for b in sparse]
        rows = []
        for f, e, full in itertools.product(range(64), edge_sets, (False, True)):
            row = np.zeros(27, dtype=bool)
            row[[thinning._CENTER, *faces[((f >> np.arange(6)) & 1).astype(bool)], *edges[sorted(e)]]] = True
            row[corners] = full
            rows.append(row)
        rows = np.array(rows)
        assert len(rows) == 64 * 158 * 2
        assert np.array_equal(thinning._simple(rows.T), thin_reference.simple_mask(rows))


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


class TestBlocks:
    def test_block_size_does_not_change_the_skeleton(self, monkeypatch):
        rng = np.random.default_rng(11)
        field = ndimage.gaussian_filter(rng.random((2, 14, 15, 16)), 0.8)
        stack = field > np.median(field)
        whole = thinning.thin(stack)
        assert np.array_equal(whole[0], thin_reference.thin(stack[0]))
        for block in (1, 7):
            monkeypatch.setattr(thinning, "_BLOCK", block)
            assert np.array_equal(thinning.thin(stack), whole), block

    def test_blocks_bound_the_neighborhood_temporaries(self, monkeypatch):
        # 200k border voxels: unblocked, the (27, n) int64 gather indices
        # alone would hold 216 bytes per voxel
        rng = np.random.default_rng(2)
        image = np.zeros((6, 302, 302), dtype=bool)
        image[1:-1, 1:-1, 1:-1] = rng.random((4, 300, 300)) < 0.6
        flat = image.ravel()
        border = np.flatnonzero(flat)
        offs = thinning._OFFSETS @ np.array([302 * 302, 302, 1])
        widths = []
        simple = thinning._simple

        def recording(nb):
            widths.append(nb.shape[1])
            return simple(nb)

        monkeypatch.setattr(thinning, "_simple", recording)
        tracemalloc.start()
        try:
            found = thinning._deletable(flat, border, offs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(border) > 50 * thinning._BLOCK and len(found) > 0
        assert len(widths) == -(-len(border) // thinning._BLOCK)
        assert peak < 16 * len(border) + 1024 * thinning._BLOCK, peak

    def test_large_mask_holds_little_beyond_the_image(self):
        spec = SynthSpec(seed=3, dims=(160,) * 3, n_branch_points=3, segment_length=(13.3, 26.7),
                         tube_radius=3.5, noise_sigma=0.1, blur_sigma=1.0)
        mask = rasterize(generate_tree(spec), spec)[0].bool_data()
        tracemalloc.start()
        try:
            thinning.thin(mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        padded = np.prod(np.add(mask.shape, 2))  # the zero-padded image thin works on
        assert peak < padded + mask.size + 2**20, peak

    def test_conflict_pass_holds_one_block_of_pairs(self, monkeypatch):
        # all 32768 voxels of a (2, 128, 128) slab are candidates; held for all
        # candidates at once, the pairs and keep flags took about 1 kB each
        monkeypatch.setattr(thinning, "_BLOCK", 256)
        slab = np.zeros((4, 130, 130), dtype=bool)
        slab[1:3, 1:-1, 1:-1] = True
        idx = np.flatnonzero(slab)
        offs = thinning._OFFSETS @ np.array([130 * 130, 130, 1])
        tracemalloc.start()
        try:
            got = thinning._first_independent(idx, offs[:thinning._CENTER])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        chosen = np.zeros_like(slab)
        chosen[1, 1:-1:2, 1:-1:2] = True  # the first plane's even rows and columns
        assert np.array_equal(got, np.flatnonzero(chosen))
        assert peak < 16 * len(idx) + 1024 * thinning._BLOCK, peak
        mask = np.random.default_rng(5).random((3, 20, 20)) < 0.5  # about 600 candidates: 3 blocks
        assert np.array_equal(first_independent_mask(mask), naive_first_independent(mask))


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

    @pytest.mark.parametrize("shape", [(4, 5), (2, 3, 4, 5, 6), ()])
    def test_other_ranks_raise_validation_error(self, shape):
        with pytest.raises(ValidationError, match="3D"):
            thinning.thin(np.ones(shape, dtype=bool))

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
