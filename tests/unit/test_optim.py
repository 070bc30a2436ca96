"""Unit tests for the optimizer substrate (Adam, schedulers)."""

import numpy as np
import pytest

from repro.errors import FitError
from repro.optim import Adam, ReduceLROnPlateau


def quadratic_loss(params):
    """Simple convex objective: ||p - target||^2."""
    p = params[0]
    target = np.array([3.0, -2.0, 0.5])
    grad = 2.0 * (p - target)
    return float(np.sum((p - target) ** 2)), [grad]


class TestAdam:
    def test_converges_on_quadratic(self):
        p = np.zeros(3)
        opt = Adam([p], lr=0.1)
        for _ in range(500):
            loss, grads = quadratic_loss([p])
            opt.step(grads)
        assert np.allclose(p, [3.0, -2.0, 0.5], atol=1e-3)

    def test_first_step_magnitude_is_lr(self):
        # Adam's bias correction makes the first update exactly lr-sized.
        p = np.array([0.0])
        opt = Adam([p], lr=0.1)
        opt.step([np.array([123.0])])
        assert p[0] == pytest.approx(-0.1, rel=1e-6)

    def test_rejects_bad_lr(self):
        with pytest.raises(FitError):
            Adam([np.zeros(1)], lr=-1.0)

    def test_rejects_bad_betas(self):
        with pytest.raises(FitError):
            Adam([np.zeros(1)], betas=(1.5, 0.9))

    def test_rejects_mismatched_grads(self):
        opt = Adam([np.zeros(3)])
        with pytest.raises(FitError):
            opt.step([np.zeros(3), np.zeros(2)])
        with pytest.raises(FitError):
            opt.step([np.zeros(2)])

    def test_rejects_non_float64(self):
        with pytest.raises(FitError):
            Adam([np.zeros(3, dtype=np.float32)])

    def test_state_dict_roundtrip(self):
        p = np.zeros(2)
        opt = Adam([p], lr=0.05)
        opt.step([np.ones(2)])
        state = opt.state_dict()
        opt.step([np.ones(2)])
        opt.load_state_dict(state)
        assert opt.step_count == 1

    def test_reset_clears_moments(self):
        p = np.zeros(2)
        opt = Adam([p])
        opt.step([np.ones(2)])
        opt.reset()
        assert opt.step_count == 0


class TestPermuteState:
    def test_moments_follow_permutation(self):
        p = np.array([0.0, 1.0, 2.0])
        opt = Adam([p], lr=0.1)
        opt.step([np.array([1.0, -2.0, 3.0])])
        before = opt.state_dict()
        order = np.array([2, 0, 1])
        opt.permute_state(0, order)
        after = opt.state_dict()
        assert np.array_equal(after["m"][0], before["m"][0][order])
        assert np.array_equal(after["v"][0], before["v"][0][order])

    def test_rejects_bad_inputs(self):
        opt = Adam([np.zeros(3)])
        with pytest.raises(FitError):
            opt.permute_state(1, np.arange(3))
        with pytest.raises(FitError):
            opt.permute_state(0, np.array([0, 1]))
        with pytest.raises(FitError):
            opt.permute_state(0, np.array([0, 0, 2]))

    def test_swap_no_longer_scrambles_update_direction(self):
        """Regression: breakpoint swaps used to leave moments misaligned.

        The fitter sorts crossed breakpoints by permuting the parameter
        arrays in place (``_project``); without ``permute_state`` the
        Adam moments kept applying to the old positions.  A run whose
        storage gets swapped mid-descent must track a reference run that
        never swaps.
        """
        ref = np.array([0.0, 1.0])
        opt_ref = Adam([ref], lr=0.1)
        sub = np.array([0.0, 1.0])
        opt_sub = Adam([sub], lr=0.1)
        g1 = np.array([3.0, -1.0])
        opt_ref.step([g1])
        opt_sub.step([g1])

        # External swap of the subject's storage (logical item 0 now at
        # index 1), exactly what _project does when breakpoints cross.
        order = np.array([1, 0])
        sub[...] = sub[order]
        opt_sub.permute_state(0, order)

        g2 = np.array([0.5, 2.0])  # gradients in logical order
        opt_ref.step([g2])
        opt_sub.step([g2[order]])  # same gradients, swapped storage
        assert np.allclose(sub, ref[order], atol=1e-15)

    def test_without_permute_the_direction_is_scrambled(self):
        # The converse of the regression above: skipping the moment
        # permutation demonstrably corrupts the update.
        ref = np.array([0.0, 1.0])
        opt_ref = Adam([ref], lr=0.1)
        sub = np.array([0.0, 1.0])
        opt_sub = Adam([sub], lr=0.1)
        g1 = np.array([3.0, -1.0])
        opt_ref.step([g1])
        opt_sub.step([g1])
        order = np.array([1, 0])
        sub[...] = sub[order]  # storage swapped, moments left behind
        g2 = np.array([0.5, 2.0])
        opt_ref.step([g2])
        opt_sub.step([g2[order]])
        assert not np.allclose(sub, ref[order], atol=1e-6)


class TestReduceLROnPlateau:
    def test_reduces_after_patience(self):
        opt = Adam([np.zeros(1)], lr=0.1)
        sched = ReduceLROnPlateau(opt, factor=0.5, patience=3)
        sched.step(1.0)  # becomes best
        reduced = [sched.step(1.0) for _ in range(5)]
        assert any(reduced)
        assert opt.lr == pytest.approx(0.05)

    def test_improvement_resets_counter(self):
        opt = Adam([np.zeros(1)], lr=0.1)
        sched = ReduceLROnPlateau(opt, factor=0.5, patience=3)
        losses = [1.0, 0.9, 0.8, 0.7, 0.6, 0.5]
        for loss in losses:
            assert not sched.step(loss)
        assert opt.lr == 0.1

    def test_min_lr_floor(self):
        opt = Adam([np.zeros(1)], lr=1e-5)
        sched = ReduceLROnPlateau(opt, factor=0.5, patience=0, min_lr=1e-5)
        sched.step(1.0)
        for _ in range(5):
            sched.step(1.0)
        assert opt.lr == pytest.approx(1e-5)

    def test_invalid_factor(self):
        with pytest.raises(FitError):
            ReduceLROnPlateau(Adam([np.zeros(1)]), factor=1.5)
