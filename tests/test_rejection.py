import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rareclass import rejection
from rareclass.objective import Hyperparams, bind_data
from rareclass.recognizer import THRESHOLDS_JSON, model_json
from rareclass.rejection import (
    EVT_POT, PERCENTILE, RejectionError, RejectionThresholds, TailFit,
    accepts, calibrate, calibrate_scores,
)
from rareclass.trainer import TrainConfig, fit


class TestPercentile:
    def test_hand_countable_quantile(self):
        scores = np.arange(1.0, 101.0)
        th = calibrate_scores([scores], method=PERCENTILE, q=0.05)
        assert th.t[0] == pytest.approx(5.95)

    def test_rejects_few_calibration_points(self):
        rng = np.random.default_rng(0)
        for q in (0.01, 0.05, 0.2):
            scores = rng.standard_normal(500)
            th = calibrate_scores([scores], method=PERCENTILE, q=q)
            rejected = int(np.sum(scores < th.t[0]))
            assert rejected <= int(np.ceil(q * 500)) + 1

    def test_min_samples(self):
        with pytest.raises(RejectionError, match="samples"):
            calibrate_scores([np.array([1.0])], method=PERCENTILE)


# ties, signed zeros and a NaN among ordinary finite values
SCORE = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, float("nan")]),
                  st.floats(allow_nan=False, allow_infinity=False))
QUANTILE = st.one_of(st.floats(0.0, 1.0), st.sampled_from(
    [rejection.ANCHOR_QUANTILE, 0.01, 1e-300, 5e-324, 1e-12, 1 - 1e-12, 1 - 2 ** -53]))


class TestQuantile:
    """rejection._quantile stands in for np.quantile, which loads numpy.ma."""

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(scores=st.lists(SCORE, min_size=1, max_size=40), q=QUANTILE)
    # numpy partitions on {0, -1, lo, lo + 1}; a full sort leaves another zero at index 4
    @example(scores=[0.0, 0.0, 0.0, 0.0, -0.0, -0.0], q=0.99)
    @example(scores=[0.0, 0.0, -0.0, 0.0, 0.0, -0.0], q=0.99)
    # n = 1: numpy clamps both neighbours to index -1, so gamma is 1 and b - 0 * 0 keeps -0.0
    @example(scores=[-0.0], q=0.2)
    @example(scores=[-0.0, -0.0], q=1.0)
    @example(scores=[1.0, float("nan"), -1.0], q=0.5)
    def test_same_bits_as_numpy(self, scores, q):
        scores = np.array(scores)
        with np.errstate(all="ignore"):         # b - a may overflow, in numpy as here
            want = np.float64(np.quantile(scores, q)).tobytes()
            got = np.float64(rejection._quantile(scores.copy(), q)).tobytes()
        assert got == want

    def test_leaves_scores_unchanged(self):
        scores = np.array([3.0, -1.0, 2.0, 0.5, -4.0])
        before = scores.tobytes()
        rejection._quantile(scores, 0.2)
        assert scores.tobytes() == before


class TestEvtPot:
    def test_constant_scores_fall_back(self):
        th = calibrate_scores([np.full(20, 3.5)], method=EVT_POT, q=0.01)
        assert th.fallback == (True,)
        assert th.fitted_tail_params == (None,)
        assert th.t[0] == pytest.approx(3.5)

    def test_min_samples(self):
        with pytest.raises(RejectionError, match="samples"):
            calibrate_scores([np.arange(7.0)], method=EVT_POT)

    @pytest.mark.parametrize("scores, q", [
        ([0.0] * 3 + [5.0] * 17, 0.01),                 # the excesses are equal: no variance
        ([-1e160, -1e160 * (1 + 1e-10), -1e160 * (1 + 2e-10)] + [0.0] * 17, 0.01),  # mean**2 overflows
        ([0.0, 1e-9, 2e-9, 3e-9] + [1.0] * 16, 0.9),    # the tail's power overflows
    ], ids=["equal-excesses", "non-finite-moments", "power-overflow"])
    def test_degenerate_tail_falls_back_to_percentile(self, scores, q):
        scores = np.array(scores)
        th = calibrate_scores([scores], method=EVT_POT, q=q)
        assert th.fallback == (True,)
        assert th.fitted_tail_params == (None,)
        assert th.t[0] == rejection._quantile(scores, q)

    def test_exponential_tail_shape_and_coverage(self):
        # scores with an exact exponential lower tail: GPD shape should be
        # near zero and the q=0.01 cutoff should reject about 1% of a fresh draw
        rng = np.random.default_rng(1)
        scores = 5.0 - rng.exponential(scale=1.0, size=20000)
        th = calibrate_scores([scores], method=EVT_POT, q=0.01)
        tail = th.fitted_tail_params[0]
        assert tail is not None
        assert abs(tail.shape) < 0.15
        fresh = 5.0 - rng.exponential(scale=1.0, size=100000)
        reject_rate = float(np.mean(fresh < th.t[0]))
        assert 0.005 < reject_rate < 0.02

    def test_threshold_continuous_across_the_exponential_tail_switch(self, monkeypatch):
        # |xi| below _XI_ZERO takes the exponential tail, the GPD's limit as xi -> 0
        scores = np.random.default_rng(3).standard_normal(400)
        sigma = 0.7
        thresholds = {}
        for xi in (-1e-5, -1e-7, 1e-7, 1e-5):
            monkeypatch.setattr(rejection, "_gpd_moments", lambda excesses, xi=xi: (xi, sigma))
            th = calibrate_scores([scores], method=EVT_POT, q=0.01)
            assert th.fitted_tail_params[0] == TailFit(shape=xi, scale=sigma,
                                                       anchor=th.fitted_tail_params[0].anchor)
            thresholds[xi] = th.t[0]
        assert thresholds[-1e-7] == thresholds[1e-7]
        for xi in (-1e-5, 1e-5):
            assert abs(thresholds[xi] - thresholds[1e-7]) < 1e-4 * sigma

    def test_accept_rate_on_heldout(self):
        rng = np.random.default_rng(2)
        q = 0.05
        scores = rng.standard_normal(5000)
        heldout = rng.standard_normal(5000)
        sigma3 = 3 * np.sqrt(q * (1 - q) / 5000)
        for method in (PERCENTILE, EVT_POT):
            th = calibrate_scores([scores], method=method, q=q)
            rate = float(np.mean(heldout >= th.t[0]))
            # the EVT tail estimate adds its own error on top of binomial noise
            slack = sigma3 if method == PERCENTILE else 3 * sigma3
            assert abs(rate - (1 - q)) < slack

    def test_methods_agree_on_uniform(self):
        rng = np.random.default_rng(3)
        scores = rng.uniform(0.0, 1.0, size=20000)
        q = 0.01
        te = calibrate_scores([scores], method=EVT_POT, q=q).t[0]
        tp = calibrate_scores([scores], method=PERCENTILE, q=q).t[0]
        gap = np.quantile(scores, 0.02) - np.quantile(scores, 0.005)
        assert abs(te - tp) <= gap

    def test_monotone_in_q(self):
        rng = np.random.default_rng(4)
        scores = rng.standard_normal(2000)
        for method in (PERCENTILE, EVT_POT):
            ts = [calibrate_scores([scores], method=method, q=q).t[0]
                  for q in (0.002, 0.01, 0.05, 0.2)]
            assert all(a <= b + 1e-12 for a, b in zip(ts, ts[1:]))

    def test_per_subclass_independent(self):
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal(50), 10.0 + rng.standard_normal(50)
        th = calibrate_scores([a, b], method=EVT_POT, q=0.05)
        both = calibrate_scores([a], method=EVT_POT, q=0.05)
        assert th.t[0] == both.t[0]
        assert th.t[1] > th.t[0]


class TestAccepts:
    def test_boundary_rule(self):
        th = RejectionThresholds(t=np.array([2.0]), method=PERCENTILE, q=0.05)
        assert accepts(th, 1, 2.0)
        assert not accepts(th, 1, 2.0 - 1e-12)
        assert accepts(th, 1, 5.0)

    def test_bad_subclass_id(self):
        th = RejectionThresholds(t=np.array([2.0]), method=PERCENTILE, q=0.05)
        with pytest.raises(RejectionError):
            accepts(th, 0, 1.0)
        with pytest.raises(RejectionError):
            accepts(th, 2, 1.0)


class TestCalibrateFromModel:
    def test_scores_own_members(self):
        rng = np.random.default_rng(6)
        n, d = 120, 4
        X = rng.standard_normal((n, d))
        rare = np.zeros(n, bool)
        rare[:60] = True
        subs = np.zeros(n, int)
        subs[:30] = 1
        subs[30:60] = 2
        X[:30, 0] += 4.0
        X[30:60, 1] += 4.0
        data = bind_data(X, rare, subs)
        model = fit(data, Hyperparams.uniform(2), TrainConfig(max_iters=200, seed=6))
        th = calibrate(model, data, method=EVT_POT, q=0.05)
        assert th.K == 2
        # most genuine members should clear their own threshold
        for k in range(2):
            members = data.Yk[k] > 0
            s = data.R[members] @ model.params.W[k] + model.params.b[k]
            assert np.mean(s >= th.t[k]) > 0.8


class TestValidationAndSerialization:
    def test_bad_q(self):
        with pytest.raises(RejectionError):
            calibrate_scores([np.arange(10.0)], method=PERCENTILE, q=0.0)
        with pytest.raises(RejectionError):
            RejectionThresholds(t=np.array([1.0]), method=PERCENTILE, q=1.5)

    def test_unknown_method(self):
        with pytest.raises(RejectionError, match="method"):
            calibrate_scores([np.arange(10.0)], method="bayes")

    def test_nonfinite_thresholds_rejected(self):
        with pytest.raises(RejectionError, match="finite"):
            RejectionThresholds(t=np.array([np.inf]), method=PERCENTILE, q=0.05)

    def test_json_roundtrip(self):
        th = RejectionThresholds(
            t=np.array([1.5, -0.25]), method=EVT_POT, q=0.01,
            fitted_tail_params=(TailFit(0.1, 0.9, 2.0), None),
            fallback=(False, True))
        back = THRESHOLDS_JSON(json.loads(model_json(th)))
        assert np.array_equal(back.t, th.t)
        assert back.method == th.method and back.q == th.q
        assert back.fitted_tail_params == th.fitted_tail_params
        assert back.fallback == th.fallback
