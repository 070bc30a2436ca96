"""Unit tests for the softmax decomposition."""

import numpy as np

from repro.functions.softmax import SoftmaxApproximator, log_softmax, softmax


class TestExactSoftmax:
    def test_rows_sum_to_one(self, rng):
        x = rng.normal(0, 5, size=(16, 10))
        s = softmax(x)
        assert np.allclose(s.sum(axis=-1), 1.0)
        assert np.all(s >= 0)

    def test_invariant_to_shift(self, rng):
        x = rng.normal(0, 3, size=(4, 7))
        assert np.allclose(softmax(x), softmax(x + 100.0))

    def test_large_values_stable(self):
        s = softmax(np.array([[1000.0, 999.0]]))
        assert np.all(np.isfinite(s))

    def test_axis_argument(self, rng):
        x = rng.normal(0, 1, size=(3, 4, 5))
        s = softmax(x, axis=1)
        assert np.allclose(s.sum(axis=1), 1.0)

    def test_log_softmax_consistent(self, rng):
        x = rng.normal(0, 2, size=(8, 6))
        assert np.allclose(np.exp(log_softmax(x)), softmax(x))


class TestApproximator:
    def test_exact_exp_recovers_softmax(self, rng):
        approx = SoftmaxApproximator(np.exp, clip_lo=-np.inf)
        x = rng.normal(0, 4, size=(12, 9))
        assert np.allclose(approx(x), softmax(x))

    def test_clipping_below_interval(self):
        approx = SoftmaxApproximator(np.exp, clip_lo=-10.0)
        x = np.array([[0.0, -50.0]])
        out = approx(x)
        assert out[0, 1] == 0.0
        assert out[0, 0] == 1.0

    def test_negative_exp_values_clamped(self):
        # A crude PWL of exp can dip below zero; outputs must stay valid.
        approx = SoftmaxApproximator(lambda x: x + 1.0)  # negative for x<-1
        x = np.array([[0.0, -5.0]])
        out = approx(x)
        assert np.all(out >= 0)
        assert np.allclose(out.sum(axis=-1), 1.0)

    def test_rows_sum_to_one_with_pwl_exp(self, rng):
        from repro.graph.passes import pwl_for
        from repro.functions import EXP

        pwl = pwl_for(EXP, 8)
        approx = SoftmaxApproximator(pwl)
        x = rng.normal(0, 3, size=(10, 8))
        out = approx(x)
        assert np.allclose(out.sum(axis=-1), 1.0)
        assert np.allclose(out, softmax(x), atol=0.05)
