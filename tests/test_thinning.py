"""Differential tests: the bit-code thinning against the flood-fill reference.

`thin_reference` is the straightforward formulation (per-row min-label
flood fill and a sequential conflict scan). The library must reproduce it
bit for bit, both the simple-point decision on single neighborhoods and
the whole skeleton.
"""

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
