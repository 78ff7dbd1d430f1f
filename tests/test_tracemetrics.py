import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resample_reference
from skeltop import (Morphology, SwcRecord, UndefinedMetricError, ValidationError,
                     dsa, esa, evaluate_trace, pds, resample, spatial)

from conftest import brute_min_dists, forests


def path_morphology(points):
    """Chain tree over the given (x, y, z) points."""
    recs = []
    for i, (x, y, z) in enumerate(points, start=1):
        recs.append(SwcRecord(i, 1 if i == 1 else 3, float(x), float(y), float(z),
                              1.0, -1 if i == 1 else i - 1))
    return Morphology(tuple(recs))


def random_morphology(seed, n, span=30.0):
    rng = np.random.default_rng(seed)
    return path_morphology(rng.uniform(0, span, size=(n, 3)))


class TestEsa:
    def test_identity(self):
        m = path_morphology([(0, 0, 0), (1, 0, 0), (2, 0, 0)])
        assert esa(m, m) == 0.0

    def test_two_vs_one(self):
        pred = path_morphology([(0, 0, 0), (2, 0, 0)])
        gt = path_morphology([(0, 0, 0)])
        assert esa(pred, gt) == 1.0

    def test_empty_undefined(self):
        m = path_morphology([(0, 0, 0)])
        with pytest.raises(UndefinedMetricError):
            esa(Morphology(()), m)
        with pytest.raises(UndefinedMetricError):
            esa(m, Morphology(()))

    def test_seeded_matches_bruteforce(self):
        pred = random_morphology(41, 200)
        gt = random_morphology(42, 180)
        want = brute_min_dists(pred.node_positions(), gt.node_positions()).mean()
        assert esa(pred, gt) == pytest.approx(want, abs=1e-9)

    def test_translation_invariance(self):
        pred = random_morphology(5, 40)
        gt = random_morphology(6, 35)
        offset = np.array([7.0, -3.0, 11.0])
        pred_t = path_morphology(pred.node_positions() + offset)
        gt_t = path_morphology(gt.node_positions() + offset)
        assert esa(pred_t, gt_t) == pytest.approx(esa(pred, gt), abs=1e-9)


class TestDsa:
    def test_identity_zero(self):
        m = path_morphology([(0, 0, 0), (1, 1, 1)])
        assert dsa(m, m, 2.0) == 0.0

    def test_one_mismatched_node(self):
        pred = path_morphology([(0, 0, 0), (5, 0, 0)])
        gt = path_morphology([(0, 0, 0)])
        assert dsa(pred, gt, 2.0) == 5.0

    def test_empty_gt_undefined(self):
        with pytest.raises(UndefinedMetricError):
            dsa(path_morphology([(0, 0, 0)]), Morphology(()), 2.0)

    def test_empty_pred_is_zero(self):
        assert dsa(Morphology(()), path_morphology([(0, 0, 0)]), 2.0) == 0.0

    def test_seeded_matches_bruteforce(self):
        pred = random_morphology(50, 150)
        gt = random_morphology(51, 140)
        dists = brute_min_dists(pred.node_positions(), gt.node_positions())
        mism = dists[dists > 2.0]
        want = mism.mean() if len(mism) else 0.0
        assert dsa(pred, gt, 2.0) == pytest.approx(want, abs=1e-9)

    @given(st.floats(0.5, 4.0), st.floats(0.0, 4.0))
    @settings(max_examples=25, deadline=None)
    def test_mismatch_sum_monotone_in_theta(self, theta, extra):
        # the mean itself is not monotone (raising theta drops the smallest
        # mismatch distances), but the summed mismatch distance is
        pred = random_morphology(60, 50)
        gt = random_morphology(61, 50)

        def mismatch_sum(th):
            d = brute_min_dists(pred.node_positions(), gt.node_positions())
            return float(d[d > th].sum())

        got_hi = dsa(pred, gt, theta + extra)
        d = brute_min_dists(pred.node_positions(), gt.node_positions())
        n_hi = int((d > theta + extra).sum())
        assert got_hi * max(n_hi, 1) <= mismatch_sum(theta) + 1e-9


class TestPds:
    def test_identity(self):
        m = path_morphology([(0, 0, 0), (1, 0, 0)])
        assert pds(m, m, 2.0) == 0.0

    def test_one_of_three(self):
        pred = path_morphology([(0, 0, 0), (5, 0, 0)])
        gt = path_morphology([(0, 0, 0)])
        assert pds(pred, gt, 2.0) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_disjoint_far_traces(self):
        pred = path_morphology([(0, 0, 0), (1, 0, 0)])
        gt = path_morphology([(100, 100, 100), (101, 100, 100)])
        assert pds(pred, gt, 2.0) == 1.0

    def test_both_empty_undefined(self):
        with pytest.raises(UndefinedMetricError):
            pds(Morphology(()), Morphology(()), 2.0)

    def test_one_empty_fully_mismatched(self):
        m = path_morphology([(0, 0, 0)])
        assert pds(Morphology(()), m, 2.0) == 1.0
        assert pds(m, Morphology(()), 2.0) == 1.0

    def test_bounded(self):
        pred = random_morphology(70, 60)
        gt = random_morphology(71, 55)
        assert 0.0 <= pds(pred, gt, 2.0) <= 1.0

    def test_seeded_matches_bruteforce(self):
        pred = random_morphology(80, 120)
        gt = random_morphology(81, 130)
        dp = brute_min_dists(pred.node_positions(), gt.node_positions())
        dg = brute_min_dists(gt.node_positions(), pred.node_positions())
        want = (int((dp > 2.0).sum()) + int((dg > 2.0).sum())) / (len(dp) + len(dg))
        assert pds(pred, gt, 2.0) == pytest.approx(want, abs=1e-12)

    @given(st.floats(0.5, 4.0), st.floats(0.0, 4.0))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_theta(self, theta, extra):
        pred = random_morphology(90, 40)
        gt = random_morphology(91, 45)
        assert pds(pred, gt, theta + extra) <= pds(pred, gt, theta) + 1e-12


class TestEvaluateTrace:
    def test_identity_bundle(self):
        m = random_morphology(100, 30)
        report = evaluate_trace(m, m, theta=2.0)
        assert report.esa == 0.0 and report.dsa == 0.0 and report.pds == 0.0
        assert report.n_pred == report.n_gt == 30
        assert report.match_threshold == 2.0
        assert report.resample_step is None

    def test_resample_recorded_and_applied(self):
        pred = path_morphology([(0, 0, 0), (8, 0, 0)])
        gt = path_morphology([(0, 0, 0), (8, 0, 0)])
        report = evaluate_trace(pred, gt, theta=2.0, resample_step=1.0)
        assert report.resample_step == 1.0
        assert report.n_pred == 9  # 8-long segment resampled at step 1
        assert report.esa == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_report_equals_separate_calls(self, seed):
        rng = np.random.default_rng(seed)
        gt = random_morphology(200 + seed, 40, span=20.0)
        pred = path_morphology(gt.node_positions() + rng.normal(0, 1.5, size=(40, 3)))
        for step in (None, 0.5):
            report = evaluate_trace(pred, gt, theta=2.0, resample_step=step)
            p, g = (pred, gt) if step is None else (resample(pred, step), resample(gt, step))
            assert report.esa == esa(p, g)
            assert report.dsa == dsa(p, g, 2.0)
            assert report.pds == pds(p, g, 2.0)

    @settings(max_examples=40, deadline=None)
    @given(pred=forests(), gt=forests(),
           step=st.one_of(st.none(), st.floats(0.05, 2.0), st.floats(2.0, 100.0),
                          st.floats(1e4, 1e9)),
           theta=st.floats(0.1, 10.0))
    def test_matches_reference_resampling(self, pred, gt, step, theta):
        report = evaluate_trace(pred, gt, theta=theta, resample_step=step)
        p, g = (pred, gt) if step is None else (resample_reference.resample(pred, step),
                                                resample_reference.resample(gt, step))
        d_pred = brute_min_dists(p.node_positions(), g.node_positions())
        d_gt = brute_min_dists(g.node_positions(), p.node_positions())
        mism = d_pred[d_pred > theta]
        assert report.esa == float(d_pred.mean())
        assert report.dsa == (float(mism.mean()) if len(mism) else 0.0)
        assert report.pds == (len(mism) + int((d_gt > theta).sum())) / (len(p) + len(g))
        assert (report.n_pred, report.n_gt) == (len(p), len(g))

    def test_empty_trace_with_resampling(self):
        m = random_morphology(104, 5)
        for pred, gt in ((Morphology(()), m), (m, Morphology(()))):
            with pytest.raises(UndefinedMetricError):
                evaluate_trace(pred, gt, resample_step=0.5)

    @pytest.mark.parametrize("theta", [float("nan"), float("inf"), 0.0, -1.0])
    def test_theta_must_be_positive_and_finite(self, theta):
        m = random_morphology(103, 5)
        for call in (lambda: dsa(m, m, theta), lambda: pds(m, m, theta),
                     lambda: evaluate_trace(m, m, theta=theta)):
            with pytest.raises(ValidationError):
                call()

    def test_report_params_propagated(self):
        pred = random_morphology(101, 20)
        gt = random_morphology(102, 25)
        report = evaluate_trace(pred, gt, theta=3.5)
        assert report.match_threshold == 3.5
        obj = report.to_json_obj()
        assert obj["match_threshold"] == 3.5 and obj["n_gt"] == 25


def two_call_report(pred, gt, theta, step):
    """evaluate_trace as it was with one min_dists_to_set call per direction."""
    p, g = (pred, gt) if step is None else (resample(pred, step), resample(gt, step))
    d_pred = spatial.min_dists_to_set(p.node_positions(), g.node_positions())
    d_gt = spatial.min_dists_to_set(g.node_positions(), p.node_positions())
    mism = d_pred[d_pred > theta]
    return (float(d_pred.mean()), float(mism.mean()) if len(mism) else 0.0,
            (len(mism) + int(np.count_nonzero(d_gt > theta))) / (len(d_pred) + len(d_gt)))


def jittered_trace(seed, n, sigma):
    """A random-walk trace and a copy with every node jittered by sigma per axis."""
    rng = np.random.default_rng(seed)
    gt = path_morphology(np.cumsum(rng.normal(0, 1.5, size=(n, 3)), axis=0))
    return path_morphology(gt.node_positions() + rng.normal(0, sigma, size=(n, 3))), gt


class TestBothDirectionsPinned:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("step", [None, 0.25, 1.0])
    def test_evaluate_trace_and_pds_equal_two_calls(self, seed, step):
        # at step 0.25 the traces hold ~1000 nodes, past the all-pairs budget
        pred, gt = jittered_trace(300 + seed, 160, 0.4 + seed)
        for theta in (0.5, 2.0):
            report = evaluate_trace(pred, gt, theta=theta, resample_step=step)
            want = two_call_report(pred, gt, theta, step)
            assert (report.esa, report.dsa, report.pds) == want
            p, g = (pred, gt) if step is None else (resample(pred, step), resample(gt, step))
            assert pds(p, g, theta) == want[2]

    def test_far_branches_take_the_leftover_path(self, monkeypatch):
        pred, gt = jittered_trace(310, 400, 0.4)
        shifted = pred.node_positions()
        shifted[:60] += (25.0, 0.0, 0.0)  # a far branch on the prediction side only
        pred = path_morphology(shifted)
        levels, real = [], spatial._level
        monkeypatch.setattr(spatial, "_level", lambda *a: levels.append(a) or real(*a))
        report = evaluate_trace(pred, gt, theta=2.0, resample_step=0.25)
        monkeypatch.undo()
        assert (report.esa, report.dsa, report.pds) == two_call_report(pred, gt, 2.0, 0.25)
        assert levels[0][7] is not None  # the first level carries the reverse side
        again = [len(call[3]) for call in levels[1:] if call[1] is levels[0][1]]
        assert again and again[0] < report.n_pred  # only the unsettled nodes are searched again
