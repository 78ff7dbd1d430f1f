import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeltop import (BINARY, UndefinedMetricError, ValidationError, Volume3D,
                     evaluate_segmentation, hd95, nearest_rank_percentile,
                     precision_recall_f1)
from skeltop import spatial
from skeltop.segmetrics import DIRECTED, SYMMETRIC

from conftest import brute_min_dists, brute_surface_voxels


def binary(m):
    return Volume3D(np.asarray(m, dtype="u1"), BINARY)


class TestPrecisionRecallF1:
    def test_identity(self):
        m = np.zeros((4, 4, 4))
        m[1:3, 1:3, 1:3] = 1
        p, r, f1, counts = precision_recall_f1(binary(m), binary(m))
        assert (p, r, f1) == (1.0, 1.0, 1.0)
        assert counts == (8, 0, 0)

    def test_half_coverage(self):
        gt = np.zeros((2, 2, 4))
        gt[:, :, :2] = 1
        pred = np.zeros_like(gt)
        pred[:, :, 0] = 1
        p, r, f1, _ = precision_recall_f1(binary(pred), binary(gt))
        assert p == 1.0 and r == 0.5
        assert 100 * f1 == pytest.approx(66.67, abs=0.01)

    def test_disjoint(self):
        a = np.zeros((3, 3, 3))
        a[0, 0, 0] = 1
        b = np.zeros((3, 3, 3))
        b[2, 2, 2] = 1
        assert precision_recall_f1(binary(a), binary(b))[2] == 0.0

    def test_both_empty(self):
        z = binary(np.zeros((2, 2, 2)))
        assert precision_recall_f1(z, z) == (0.0, 0.0, 0.0, (0, 0, 0))

    def test_dim_mismatch(self):
        with pytest.raises(ValidationError):
            precision_recall_f1(binary(np.zeros((2, 2, 2))), binary(np.zeros((2, 2, 3))))

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_swap_exchanges_precision_recall(self, seed):
        rng = np.random.default_rng(seed)
        a = binary(rng.random((4, 4, 4)) < 0.4)
        b = binary(rng.random((4, 4, 4)) < 0.4)
        pa, ra, _, _ = precision_recall_f1(a, b)
        pb, rb, _, _ = precision_recall_f1(b, a)
        assert pa == rb and ra == pb

    @given(st.integers(0, 2 ** 31 - 1), st.integers(0, 2), st.integers(0, 2))
    @settings(max_examples=25, deadline=None)
    def test_translation_invariance(self, seed, oz, oy):
        rng = np.random.default_rng(seed)
        a = rng.random((4, 4, 4)) < 0.4
        b = rng.random((4, 4, 4)) < 0.4
        pad = np.zeros((8, 8, 8), dtype=bool)
        a_big, b_big = pad.copy(), pad.copy()
        a_big[:4, :4, :4] = a
        b_big[:4, :4, :4] = b
        a_shift, b_shift = pad.copy(), pad.copy()
        a_shift[oz:oz + 4, oy:oy + 4, 1:5] = a
        b_shift[oz:oz + 4, oy:oy + 4, 1:5] = b
        f_base = precision_recall_f1(binary(a_big), binary(b_big))[2]
        f_shift = precision_recall_f1(binary(a_shift), binary(b_shift))[2]
        assert f_base == pytest.approx(f_shift, abs=1e-12)


    @given(st.integers(0, 2 ** 31 - 1), st.floats(0.0, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_counts_match_masked_passes(self, seed, density):
        rng = np.random.default_rng(seed)
        p, g = (rng.random((7, 5, 6)) < density for _ in range(2))
        want = tuple(int(np.count_nonzero(m)) for m in (p & g, p & ~g, ~p & g))
        assert precision_recall_f1(binary(p), binary(g))[3] == want


class TestNearestRankPercentile:
    def test_spec_example(self):
        values = np.array([0.0] * 94 + [10.0] * 6)
        assert nearest_rank_percentile(values, 0.95) == 10.0

    def test_small_samples(self):
        assert nearest_rank_percentile(np.array([3.0]), 0.95) == 3.0
        assert nearest_rank_percentile(np.array([1.0, 2.0]), 0.95) == 2.0

    def test_sorted_index_oracle(self):
        rng = np.random.default_rng(19)
        values = rng.random(137)
        got = nearest_rank_percentile(values, 0.95)
        v = sorted(values.tolist())
        k = int(np.ceil(0.95 * len(v)))
        assert got == v[k - 1]

    @given(st.lists(st.sampled_from([0.0, 1.0, 1.5, 2.0, np.inf]) | st.floats(0, 50), min_size=1,
                    max_size=60), st.floats(0.0, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_matches_index_into_sorted_copy(self, values, q):
        values = np.array(values)
        before = values.copy()
        k = max(1, int(np.ceil(q * len(values))))
        assert nearest_rank_percentile(values, q) == np.sort(values)[k - 1]
        assert np.array_equal(values, before)

    @pytest.mark.parametrize("q", [1.2, 1.5, np.nextafter(1.0, 2.0)])
    def test_q_above_one_raises_validation_error(self, q):
        for values in ([1.0, 2.0, 3.0], [1.0, 2.0]):
            with pytest.raises(ValidationError, match="<= 1"):
                nearest_rank_percentile(np.array(values), q)
        assert nearest_rank_percentile(np.array([1.0, 2.0, 3.0]), 1.0) == 3.0


    def test_empty_sample_is_undefined(self):
        with pytest.raises(UndefinedMetricError, match="percentile of an empty sample"):
            nearest_rank_percentile(np.array([]), 0.95)

    @pytest.mark.parametrize("q", [-1.0, -1e-300, np.nan, np.inf, -np.inf])
    def test_rejects_negative_or_non_finite_q(self, q):
        with pytest.raises(ValidationError, match="finite and >= 0"):
            nearest_rank_percentile(np.array([1.0, 2.0, 3.0]), q)


class TestHd95:
    def test_unknown_mode_rejected(self):
        m = np.zeros((3, 3, 3))
        m[1, 1, 1] = 1
        with pytest.raises(ValidationError, match="mode must be 'directed' or 'symmetric', got 'both'"):
            hd95(binary(m), binary(m), "both")

    def test_identical(self):
        m = np.zeros((5, 5, 5))
        m[1:4, 1:4, 1:4] = 1
        assert hd95(binary(m), binary(m)) == 0.0
        assert hd95(binary(m), binary(m), "symmetric") == 0.0

    def test_singletons_five_apart(self):
        a = np.zeros((2, 2, 8))
        a[0, 0, 0] = 1
        b = np.zeros((2, 2, 8))
        b[0, 0, 5] = 1
        assert hd95(binary(a), binary(b)) == 5.0
        assert hd95(binary(a), binary(b), "symmetric") == 5.0

    def test_94_at_zero_6_at_ten(self):
        # thin line of 94 shared voxels; 6 pred voxels exactly 10 away
        dims = (3, 14, 96)
        gt = np.zeros(dims)
        gt[1, 1, 1:95] = 1
        pred = gt.copy()
        pred[1, 11, 1:7] = 1
        assert hd95(binary(pred), binary(gt)) == 10.0

    def test_empty_mask_undefined(self):
        m = np.zeros((3, 3, 3))
        m[1, 1, 1] = 1
        with pytest.raises(UndefinedMetricError):
            hd95(binary(np.zeros((3, 3, 3))), binary(m))
        with pytest.raises(UndefinedMetricError):
            hd95(binary(m), binary(np.zeros((3, 3, 3))))

    def test_symmetric_is_max_of_directed(self):
        rng = np.random.default_rng(31)
        a = binary(rng.random((6, 6, 6)) < 0.3)
        b = binary(rng.random((6, 6, 6)) < 0.3)
        if a.foreground_count() and b.foreground_count():
            fwd = hd95(a, b)
            bwd = hd95(b, a)
            assert hd95(a, b, "symmetric") == max(fwd, bwd)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_directed_matches_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.random((5, 6, 5)) < 0.35
        b = rng.random((5, 6, 5)) < 0.35
        if not a.any() or not b.any():
            return
        got = hd95(binary(a), binary(b))
        sa = np.array(sorted(brute_surface_voxels(a)), dtype=np.float64)
        sb = np.array(sorted(brute_surface_voxels(b)), dtype=np.float64)
        dists = sorted(brute_min_dists(sa, sb).tolist())
        k = int(np.ceil(0.95 * len(dists)))
        assert got == pytest.approx(dists[k - 1], abs=1e-9)

    def test_spacing_flag(self):
        a = np.zeros((2, 2, 8))
        a[0, 0, 0] = 1
        b = np.zeros((2, 2, 8))
        b[0, 0, 5] = 1
        va = Volume3D(a.astype("u1"), BINARY, spacing=(1.0, 1.0, 0.5))
        vb = Volume3D(b.astype("u1"), BINARY, spacing=(1.0, 1.0, 0.5))
        assert hd95(va, vb, use_spacing=True) == 2.5

    def test_each_side_in_its_own_spacing(self):
        """Each surface is scaled by its own volume's spacing. Scaling both
        by the prediction's spacing would give 4.82 / 6.0, by the ground
        truth's 6.0 / 6.0."""
        pm = np.zeros((8, 9, 10))
        pm[2:6, 1:5, 3:9] = 1
        pm[6, 7, 1] = 1
        gm = np.zeros((8, 9, 10))
        gm[1:4, 3:8, 2:6] = 1
        gm[5:7, 6:8, 7:9] = 1
        pred = Volume3D(pm.astype("u1"), BINARY, spacing=(0.5, 2.0, 1.25))
        gt = Volume3D(gm.astype("u1"), BINARY, spacing=(3.0, 0.75, 1.5))
        want = {False: (3.605551275463989, 3.605551275463989),
                True: (3.75, 15.5161206491829)}
        for use_spacing, (directed, symmetric) in want.items():
            assert hd95(pred, gt, DIRECTED, use_spacing) == directed
            assert hd95(pred, gt, SYMMETRIC, use_spacing) == symmetric
            report = evaluate_segmentation(pred, gt, use_spacing=use_spacing)
            assert (report.hd95_directed, report.hd95_symmetric) == (directed, symmetric)

    def test_report_reads_foreground_from_counts(self, monkeypatch):
        """evaluate_segmentation takes the foreground counts from tp + fp and
        tp + fn; HD95 is None exactly when one of them is 0."""
        calls = []
        real = Volume3D.foreground_count
        monkeypatch.setattr(Volume3D, "foreground_count",
                            lambda self: calls.append(1) or real(self))
        m = np.zeros((6, 6, 6))
        m[1:4, 1:4, 1:4] = 1
        empty = np.zeros((6, 6, 6))
        report = evaluate_segmentation(binary(m), binary(np.roll(m, 1, axis=0)))
        assert report.hd95_directed == 1.0 and report.hd95_symmetric == 1.0
        for pred, gt in ((m, empty), (empty, m), (empty, empty)):
            report = evaluate_segmentation(binary(pred), binary(gt))
            assert report.hd95_directed is None and report.hd95_symmetric is None
        assert calls == []

    @pytest.mark.parametrize("seed", range(4))
    def test_unit_spacing_equals_voxel_units(self, monkeypatch, seed):
        """use_spacing with spacing (1, 1, 1) searches float coordinates and
        use_spacing=False integer ones; both give the same HD95 bit for bit."""
        rng = np.random.default_rng(seed)
        gt = np.zeros((24, 22, 26), dtype=bool)
        gt[5:18, 4:17, 6:21] = True
        pred = (np.roll(gt, seed, axis=2) & (rng.random(gt.shape) > 0.05)) \
            | (rng.random(gt.shape) < 0.01)
        p, g = binary(pred), binary(gt)
        lattice = []
        real = spatial._lattice
        monkeypatch.setattr(spatial, "_lattice", lambda *a: lattice.append(1) or real(*a))
        for mode in (DIRECTED, SYMMETRIC):
            lattice.clear()
            assert hd95(p, g, mode, use_spacing=True) == hd95(p, g, mode, use_spacing=False)
            assert len(lattice) == 1  # voxel units only; symmetric takes one two-way pass

    def test_nn_queries_per_call(self, monkeypatch):
        """Directed hd95 makes one nearest-neighbour query; symmetric hd95
        and evaluate_segmentation make one two-way query."""
        calls = []
        for name in ("min_dists_to_set", "_min_dists_both"):
            real = getattr(spatial, name)
            monkeypatch.setattr(spatial, name, lambda q, t, name=name, real=real:
                                calls.append((name, len(q), len(t))) or real(q, t))
        m = np.zeros((6, 6, 6))
        m[1:4, 1:4, 1:4] = 1
        n = np.zeros((6, 6, 6))
        n[2:5, 2:5, 1:2] = 1
        for run, want in ((lambda: hd95(binary(m), binary(n)), [("min_dists_to_set", 26, 9)]),
                          (lambda: hd95(binary(m), binary(n), SYMMETRIC),
                           [("_min_dists_both", 26, 9)]),
                          (lambda: evaluate_segmentation(binary(m), binary(n)),
                           [("_min_dists_both", 26, 9)])):
            calls.clear()
            run()
            assert calls == want


class TestSegReport:
    def test_identity_report(self):
        m = np.zeros((4, 4, 4))
        m[1:3, 1:3, 1:3] = 1
        report = evaluate_segmentation(binary(m), binary(m))
        assert report.f1 == 100.0
        assert report.hd95_directed == 0.0 and report.hd95_symmetric == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_report_equals_separate_hd95_calls(self, seed):
        # speckled prediction around a solid reference, with and without spacing
        rng = np.random.default_rng(seed)
        gt = np.zeros((20, 22, 24), dtype=bool)
        gt[6:14, 5:17, 4:20] = True
        pred = (gt & (rng.random(gt.shape) > 0.05)) | (rng.random(gt.shape) < 0.02)
        spacing = (1.0, 0.5, 2.0)
        p = Volume3D(pred.astype("u1"), BINARY, spacing)
        g = Volume3D(gt.astype("u1"), BINARY, spacing)
        for use_spacing in (False, True):
            report = evaluate_segmentation(p, g, use_spacing)
            assert report.hd95_directed == hd95(p, g, "directed", use_spacing)
            assert report.hd95_symmetric == hd95(p, g, "symmetric", use_spacing)

    def test_empty_pred_yields_null_hd95(self):
        m = np.zeros((3, 3, 3))
        m[1, 1, 1] = 1
        report = evaluate_segmentation(binary(np.zeros((3, 3, 3))), binary(m))
        assert report.hd95_directed is None and report.hd95_symmetric is None
        assert report.f1 == 0.0
        obj = report.to_json_obj()
        assert obj["hd95_directed"] is None
