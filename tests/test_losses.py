import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeltop import (BINARY, PROBABILITY, DeepSupervisionConfig, ScaleLoss,
                     ValidationError, Volume3D, ce_loss,
                     default_scale_weights, dice_loss, total_loss)


def prob(values):
    return Volume3D(np.asarray(values, dtype="<f4"), PROBABILITY)


def binary(values):
    return Volume3D(np.asarray(values, dtype="u1"), BINARY)


class TestDiceLoss:
    def test_identity_near_zero(self):
        m = np.zeros((4, 4, 4))
        m.ravel()[:10] = 1
        vol = binary(m)
        assert dice_loss(prob(vol.data), vol) <= 1e-9

    def test_closed_form_half(self):
        n = (4, 5, 5)
        p = prob(np.full(n, 0.5))
        g = binary(np.ones(n))
        assert dice_loss(p, g) == pytest.approx(0.2, abs=1e-9)

    def test_seeded_matches_scalar_loop(self):
        rng = np.random.default_rng(11)
        pv = rng.random((8, 8, 8)).astype("<f4")
        gv = (rng.random((8, 8, 8)) < 0.5).astype("u1")
        got = dice_loss(prob(pv), binary(gv), 1e-8)
        num = den_p = den_g = 0.0
        for a, b in zip(pv.ravel(), gv.ravel()):
            num += float(a) * float(b)
            den_p += float(a) * float(a)
            den_g += float(b) * float(b)
        want = 1.0 - 2.0 * num / (den_p + den_g + 1e-8)
        assert got == pytest.approx(want, abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValidationError):
            dice_loss(prob(np.zeros((2, 2, 2))), binary(np.zeros((2, 2, 3))))

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
    def test_epsilon_must_be_positive_and_finite(self, eps):
        with pytest.raises(ValidationError):
            dice_loss(prob(np.zeros((2, 2, 2))), binary(np.zeros((2, 2, 2))), eps)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_symmetric_for_binary(self, seed):
        rng = np.random.default_rng(seed)
        a = binary(rng.random((4, 4, 4)) < 0.5)
        b = binary(rng.random((4, 4, 4)) < 0.5)
        assert dice_loss(prob(a.data), b) == pytest.approx(
            dice_loss(prob(b.data), a), abs=1e-12)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_bounded(self, seed):
        rng = np.random.default_rng(seed)
        p = prob(rng.random((4, 4, 4)).astype("<f4"))
        g = binary(rng.random((4, 4, 4)) < 0.5)
        assert 0.0 <= dice_loss(p, g) <= 1.0


class TestCeLoss:
    def test_perfect_prediction_near_zero(self):
        delta = 1e-7
        p = prob(np.full((1, 1, 1), 1.0 - delta))
        g = binary(np.ones((1, 1, 1)))
        assert 0.0 <= ce_loss(p, g) <= 2 * delta

    def test_half_is_ln2(self):
        p = prob(np.full((1, 1, 1), 0.5))
        g = binary(np.ones((1, 1, 1)))
        assert ce_loss(p, g) == pytest.approx(math.log(2.0), abs=1e-6)

    def test_seeded_matches_scalar_loop(self):
        rng = np.random.default_rng(23)
        pv = rng.uniform(0.01, 0.99, (8, 8, 8)).astype("<f4")
        gv = (rng.random((8, 8, 8)) < 0.5).astype("u1")
        got = ce_loss(prob(pv), binary(gv))
        want = 0.0
        for a, b in zip(pv.ravel(), gv.ravel()):
            a = min(max(float(a), 1e-7), 1 - 1e-7)
            want -= float(b) * math.log(a) + (1.0 - float(b)) * math.log(1.0 - a)
        assert got == pytest.approx(want, abs=1e-10)

    def test_extreme_values_clamped(self):
        p = prob(np.array([0.0, 1.0]).reshape(1, 1, 2))
        g = binary(np.array([0, 1]).reshape(1, 1, 2))
        assert np.isfinite(ce_loss(p, g))

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        p = prob(rng.random((3, 3, 3)).astype("<f4"))
        g = binary(rng.random((3, 3, 3)) < 0.5)
        assert ce_loss(p, g) >= 0.0


def two_log_ce(p, g, clamp=1e-7):
    """The general formula, applied to every voxel whatever g's kind."""
    pv = np.clip(p.data.ravel().astype(np.float64), clamp, 1.0 - clamp)
    gv = g.data.ravel().astype(np.float64)
    return float(-np.sum(gv * np.log(pv) + (1.0 - gv) * np.log1p(-pv)))


def edge_probabilities():
    """0, 1, float32 values at and one ulp either side of both clamp
    edges, and the smallest and largest float32 values inside (0, 1)."""
    f = np.float32
    lo, hi = f(1e-7), f(1 - 1e-7)
    return np.array([0.0, 1.0, lo, hi, np.nextafter(lo, f(0)), np.nextafter(lo, f(1)),
                     np.nextafter(hi, f(0)), np.nextafter(hi, f(1)),
                     np.finfo(f).smallest_subnormal, np.nextafter(f(1), f(0)), 0.5], dtype=f)


class TestCeBinaryForm:
    """A binary g takes one logarithm per voxel; the sum must equal the
    two-log formula bit for bit."""

    @pytest.mark.parametrize("density", [0.0, 0.002, 0.3, 0.5, 1.0])
    def test_million_voxels(self, density):
        rng = np.random.default_rng(int(density * 1000) + 5)
        pv = rng.random(1_000_000).astype("<f4")
        edges = edge_probabilities()
        pv[rng.choice(len(pv), 20 * len(edges), replace=False)] = np.repeat(edges, 20)
        pv = pv.reshape(100, 100, 100)
        g = binary(rng.random((100, 100, 100)) < density)
        assert ce_loss(prob(pv), g) == two_log_ce(prob(pv), g)

    def test_every_term_alone(self):
        # one voxel per call, so no sum can hide a term that is one ulp off
        rng = np.random.default_rng(29)
        values = np.concatenate((edge_probabilities(), rng.random(300).astype("<f4"),
                                 rng.random(100).astype("<f4") * np.float32(1e-6)))
        for v in values:
            p = prob(np.full((1, 1, 1), v))
            for label in (0, 1):
                g = binary(np.full((1, 1, 1), label))
                got, want = ce_loss(p, g), two_log_ce(p, g)
                assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), (v, label)

    def test_soft_target_takes_the_general_path(self):
        rng = np.random.default_rng(31)
        p = prob(rng.random((6, 7, 8)).astype("<f4"))
        soft = prob(rng.random((6, 7, 8)).astype("<f4"))
        assert ce_loss(p, soft) == two_log_ce(p, soft)
        hard = binary(rng.random((6, 7, 8)) < 0.4)
        assert ce_loss(p, prob(hard.data)) == ce_loss(p, hard)


class TestTotalLoss:
    def test_beta_zero_reduction(self):
        cfg = DeepSupervisionConfig(scale_weights=(1.0, 0.5, 0.25), beta=0.0)
        scales = [ScaleLoss(0.1, 0.7, 5.0), ScaleLoss(0.2, 0.3, 2.0),
                  ScaleLoss(0.4, 0.1, 9.0)]
        want = 1.0 * (0.1 + 0.7) + 0.5 * (0.2 + 0.3) + 0.25 * (0.4 + 0.1)
        assert total_loss(scales, cfg) == want

    def test_single_scale_worked_example(self):
        cfg = DeepSupervisionConfig(scale_weights=(1.0,), beta=1.0)
        assert total_loss([ScaleLoss(0.4, 0.6, 0.5)], cfg) == pytest.approx(1.5, abs=1e-12)

    def test_two_scale_worked_example(self):
        cfg = DeepSupervisionConfig(scale_weights=(1.0, 0.5), beta=2.0)
        scales = [ScaleLoss(0.4, 0.6, 0.5), ScaleLoss(0.9, 1.1, 0.0)]
        assert total_loss(scales, cfg) == 3.0

    def test_length_mismatch(self):
        cfg = DeepSupervisionConfig(scale_weights=(1.0, 0.5))
        with pytest.raises(ValidationError):
            total_loss([ScaleLoss(0.1, 0.1, 0.0)], cfg)

    @given(st.floats(0.0, 4.0), st.floats(0.0, 3.0), st.floats(0.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_tasl(self, beta, t_lo, extra):
        cfg = DeepSupervisionConfig(scale_weights=(1.0, 0.5), beta=beta)
        base = [ScaleLoss(0.3, 0.5, t_lo), ScaleLoss(0.2, 0.4, 1.0)]
        bumped = [ScaleLoss(0.3, 0.5, t_lo + extra), ScaleLoss(0.2, 0.4, 1.0)]
        assert total_loss(bumped, cfg) >= total_loss(base, cfg)

    def test_scale_inputs_validated(self):
        with pytest.raises(ValidationError):
            ScaleLoss(1.5, 0.0, 0.0)
        with pytest.raises(ValidationError):
            ScaleLoss(0.5, -0.1, 0.0)
        with pytest.raises(ValidationError):
            ScaleLoss(0.5, 0.1, -1.0)
        with pytest.raises(ValidationError):
            ScaleLoss(float("nan"), 0.1, 0.0)


class TestDefaults:
    def test_halving_schedule(self):
        w = default_scale_weights(3)
        assert sum(w) == pytest.approx(1.0, abs=1e-12)
        assert w[0] == pytest.approx(2 * w[1], abs=1e-12)
        assert w[1] == pytest.approx(2 * w[2], abs=1e-12)

    @pytest.mark.parametrize("beta", [float("nan"), float("inf"), float("-inf")])
    def test_config_rejects_non_finite_beta(self, beta):
        with pytest.raises(ValidationError, match="scale weights and beta must be finite"):
            DeepSupervisionConfig(scale_weights=(1.0,), beta=beta)

    def test_no_scales_rejected(self):
        with pytest.raises(ValidationError, match="need at least one scale, got 0"):
            default_scale_weights(0)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            DeepSupervisionConfig(scale_weights=())
        with pytest.raises(ValidationError):
            DeepSupervisionConfig(scale_weights=(0.0, 0.0))
        with pytest.raises(ValidationError):
            DeepSupervisionConfig(scale_weights=(1.0,), beta=-1.0)


def float64_dice(p, g, epsilon=1e-8):
    """The squared-denominator formula on float64 copies of both volumes."""
    pv = p.data.ravel().astype(np.float64)
    gv = g.data.ravel().astype(np.float64)
    num = 2.0 * float(np.sum(pv * gv))
    den = float(np.sum(pv * pv)) + float(np.sum(gv * gv)) + epsilon
    return 1.0 - num / den


class TestDiceBinaryForm:
    """A binary g enters as its uint8 data and sum(g^2) as its count; the
    result must equal the float64 formula bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(dims=st.tuples(*[st.integers(1, 40)] * 3), seed=st.integers(0, 2 ** 32 - 1),
           density=st.sampled_from([0.0, 0.01, 0.3, 0.5, 0.9, 1.0]),
           eps=st.sampled_from([1e-8, 1e-3, 1.0, 1e6]))
    def test_random_volumes(self, dims, seed, density, eps):
        rng = np.random.default_rng(seed)
        pv = rng.random(dims).astype("<f4")
        edges = edge_probabilities()
        at = rng.random(dims) < 0.2  # about a fifth of voxels take 0, 1 or an edge value
        pv[at] = rng.choice(edges, int(at.sum()))
        g = binary(rng.random(dims) < density)
        assert dice_loss(prob(pv), g, eps) == float64_dice(prob(pv), g, eps)

    def test_million_voxels(self):
        rng = np.random.default_rng(41)
        p = prob(rng.random((100, 100, 100)).astype("<f4"))
        for density in (0.002, 0.5):
            g = binary(rng.random((100, 100, 100)) < density)
            assert dice_loss(p, g) == float64_dice(p, g)

    @pytest.mark.parametrize("fill", [0.0, 1e-30, 0.5, 1.0])
    def test_all_zero_target(self, fill):
        # sum(p*g) and sum(g^2) are 0: epsilon dominates when p is tiny or 0
        p = prob(np.full((3, 4, 5), fill))
        g = binary(np.zeros((3, 4, 5)))
        for eps in (1e-8, 1.0):
            assert dice_loss(p, g, eps) == float64_dice(p, g, eps)

    def test_binary_prediction(self):
        rng = np.random.default_rng(43)
        a, b = (binary(rng.random((9, 8, 7)) < 0.5) for _ in range(2))
        assert dice_loss(a, b) == float64_dice(a, b)
        assert dice_loss(a, a) == float64_dice(a, a)

    def test_probability_target_takes_the_general_path(self):
        rng = np.random.default_rng(47)
        p = prob(rng.random((6, 7, 8)).astype("<f4"))
        soft = prob(rng.random((6, 7, 8)).astype("<f4"))
        # sum(g^2) of a soft target is not its count, so only the general
        # path can give the formula's value
        assert np.count_nonzero(soft.data) != float(np.sum(soft.data.astype(np.float64) ** 2))
        assert dice_loss(p, soft) == float64_dice(p, soft)
        hard = binary(rng.random((6, 7, 8)) < 0.4)
        hard_prob = prob(hard.data)
        assert dice_loss(p, hard_prob) == float64_dice(p, hard_prob)
        assert dice_loss(p, hard_prob) == dice_loss(p, hard)
