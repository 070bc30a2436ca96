"""Unit tests for the Flex-SFU fitting algorithm."""

import numpy as np
import pytest
from dataclasses import replace

from repro.core import evaluate, uniform_pwl
from repro.core.fit import (FitConfig, FlexSfuFitter, fit_activation,
                            resolve_problem)
from repro.core.loss import quadrature_mse
from repro.errors import FitError
from repro.functions import EXP, GELU, RELU, SIGMOID, TANH


class TestConfig:
    def test_rejects_too_few_breakpoints(self):
        with pytest.raises(FitError):
            FitConfig(n_breakpoints=1)

    def test_rejects_bad_init(self):
        with pytest.raises(FitError):
            FitConfig(init="random")

    def test_rejects_negative_rounds(self):
        with pytest.raises(FitError):
            FitConfig(max_refine_rounds=-1)


class TestBasicFit:
    def test_beats_uniform_on_gelu(self, fast_fit_config):
        cfg = replace(fast_fit_config, interval=(-2.0, 2.0), n_breakpoints=5)
        res = FlexSfuFitter(cfg).fit(GELU)
        uni = uniform_pwl(GELU, 5, interval=(-2, 2))
        mse_flex = quadrature_mse(res.pwl, GELU, -2, 2)
        mse_uni = quadrature_mse(uni, GELU, -2, 2)
        assert mse_flex < mse_uni / 2.0

    def test_breakpoints_sorted_and_near_interval(self, fast_fit_config):
        cfg = replace(fast_fit_config, interval=(-3.0, 3.0))
        res = FlexSfuFitter(cfg).fit(TANH)
        p = res.pwl.breakpoints
        assert np.all(np.diff(p) > 0)
        # Edge breakpoints are learned and may settle slightly outside the
        # loss interval (cfg.edge_margin_rel of the width).
        margin = cfg.edge_margin_rel * 6.0
        assert p[0] >= -3.0 - margin and p[-1] <= 3.0 + margin

    def test_edge_slopes_pinned_to_asymptote(self, fast_fit_config):
        res = FlexSfuFitter(fast_fit_config).fit(GELU)
        assert res.pwl.left_slope == 0.0
        assert res.pwl.right_slope == 1.0
        # Pinned value: v = m*p + c on both edges.
        assert res.pwl.values[0] == pytest.approx(0.0, abs=1e-12)
        assert res.pwl.values[-1] == pytest.approx(res.pwl.breakpoints[-1])

    def test_bounded_outside_interval(self, fast_fit_config):
        res = FlexSfuFitter(fast_fit_config).fit(SIGMOID)
        far = res.pwl(np.array([-100.0, 100.0]))
        assert far[0] == pytest.approx(0.0, abs=1e-6)
        assert far[1] == pytest.approx(1.0, abs=1e-6)

    def test_exp_free_right_edge(self, fast_fit_config):
        res = FlexSfuFitter(fast_fit_config).fit(EXP)
        # Left edge pinned to y=0 asymptote; right edge learned.
        assert res.pwl.left_slope == 0.0
        assert res.pwl.right_slope > 0.0

    def test_relu_is_exactly_representable(self, fast_fit_config):
        cfg = replace(fast_fit_config, n_breakpoints=4)
        res = FlexSfuFitter(cfg).fit(RELU)
        mse = quadrature_mse(res.pwl, RELU, -8, 8)
        assert mse < 1e-8

    def test_fit_activation_wrapper(self, fast_fit_config):
        res = fit_activation(TANH, 6, interval=(-4, 4), config=fast_fit_config)
        assert res.pwl.n_breakpoints == 6
        assert res.function == "tanh"

    def test_empty_interval_rejected(self, fast_fit_config):
        cfg = replace(fast_fit_config, interval=(2.0, -2.0))
        with pytest.raises(FitError):
            FlexSfuFitter(cfg).fit(TANH)


class TestDeterminism:
    def test_same_config_same_result(self, fast_fit_config):
        r1 = FlexSfuFitter(fast_fit_config).fit(TANH)
        r2 = FlexSfuFitter(fast_fit_config).fit(TANH)
        assert np.array_equal(r1.pwl.breakpoints, r2.pwl.breakpoints)
        assert np.array_equal(r1.pwl.values, r2.pwl.values)


class TestEnhancements:
    def test_paper_faithful_mode_runs(self, fast_fit_config):
        cfg = replace(fast_fit_config, init="uniform", polish=False)
        res = FlexSfuFitter(cfg).fit(TANH)
        assert res.init_used == "uniform"
        assert np.isfinite(res.grid_mse)

    def test_auto_init_never_worse_than_uniform(self, fast_fit_config):
        cfg_auto = replace(fast_fit_config, init="auto")
        cfg_uni = replace(fast_fit_config, init="uniform")
        auto = FlexSfuFitter(cfg_auto).fit(SIGMOID)
        uni = FlexSfuFitter(cfg_uni).fit(SIGMOID)
        assert auto.grid_mse <= uni.grid_mse * (1 + 1e-9)

    def test_polish_improves_or_preserves(self, fast_fit_config):
        cfg_off = replace(fast_fit_config, polish=False)
        cfg_on = replace(fast_fit_config, polish=True)
        off = FlexSfuFitter(cfg_off).fit(GELU)
        on = FlexSfuFitter(cfg_on).fit(GELU)
        assert on.grid_mse <= off.grid_mse * (1 + 1e-9)

    def test_refinement_rounds_recorded(self, fast_fit_config):
        res = FlexSfuFitter(fast_fit_config).fit(GELU)
        assert len(res.round_losses) == res.rounds + 1

    def test_no_refinement_for_two_breakpoints(self, fast_fit_config):
        cfg = replace(fast_fit_config, n_breakpoints=2)
        res = FlexSfuFitter(cfg).fit(TANH)
        assert res.rounds == 0


class TestPolish:
    @staticmethod
    def _setup(cfg, fn):
        fitter = FlexSfuFitter(cfg)
        prob = resolve_problem(fn, cfg)
        state = fitter._initial_state(fn, prob.spec, prob.a, prob.b,
                                      "curvature")
        return fitter, prob, state

    def test_objective_errors_reach_the_caller(self, fast_fit_config,
                                               monkeypatch):
        fitter, prob, state = self._setup(fast_fit_config, GELU)

        def broken(*args, **kwargs):
            raise ZeroDivisionError("broken value solve")

        monkeypatch.setattr(prob.loss, "solve_values", broken)
        with pytest.raises(ZeroDivisionError, match="broken value solve"):
            fitter._polish(prob.loss, prob.spec, state, prob.lo, prob.hi,
                           prob.eps, maxiter=20)

    @pytest.mark.parametrize("fn", [GELU, EXP], ids=["pinned", "free-edge"])
    def test_polished_values_solve_the_least_squares(self, fast_fit_config,
                                                     fn):
        fitter, prob, state = self._setup(fast_fit_config, fn)
        start = prob.loss.loss(state.p, state.v, float(state.ml[0]),
                               float(state.mr[0]))
        got = fitter._polish(prob.loss, prob.spec, state, prob.lo, prob.hi,
                             prob.eps, maxiter=50)
        assert got < start
        assert got == prob.loss.loss(state.p, state.v, float(state.ml[0]),
                                     float(state.mr[0]))
        # The kept values are the exact solve for the kept breakpoints.
        spec = prob.spec
        v, ml, mr = prob.loss.solve_values(
            state.p, state.v, float(state.ml[0]), float(state.mr[0]),
            pinned=(spec.left.pinned, spec.right.pinned),
            learn_slopes=(spec.left.slope_learnable,
                          spec.right.slope_learnable))
        assert np.allclose(v, state.v, rtol=1e-9, atol=1e-12)
        assert [ml, mr] == pytest.approx([state.ml[0], state.mr[0]],
                                         rel=1e-9, abs=1e-12)


class TestRemovalScan:
    def test_rejects_unknown_scan(self):
        with pytest.raises(FitError):
            FitConfig(removal_scan="very fast")

    def test_check_mode_verifies_every_round(self, fast_fit_config):
        # "check" runs both scans and raises on any disagreement, so a
        # passing fit is an in-situ proof of scan equivalence.
        cfg = replace(fast_fit_config, removal_scan="check")
        res = FlexSfuFitter(cfg).fit(GELU)
        assert res.rounds >= 1
        assert np.isfinite(res.grid_mse)

    def test_fast_and_naive_scans_agree_end_to_end(self, fast_fit_config):
        fast = FlexSfuFitter(replace(fast_fit_config,
                                     removal_scan="fast")).fit(SIGMOID)
        naive = FlexSfuFitter(replace(fast_fit_config,
                                      removal_scan="naive")).fit(SIGMOID)
        # The scans agree to roundoff, not bitwise: a last-ulp argmin tie
        # could legitimately pick a different edit on another platform.
        assert np.allclose(fast.pwl.breakpoints, naive.pwl.breakpoints,
                           rtol=1e-9, atol=1e-12)
        assert np.allclose(fast.pwl.values, naive.pwl.values,
                           rtol=1e-9, atol=1e-12)
        assert fast.grid_mse == pytest.approx(naive.grid_mse, rel=1e-9)

    def test_free_boundary_check_mode(self, fast_fit_config):
        cfg = replace(fast_fit_config, removal_scan="check",
                      boundary_left="free", boundary_right="free")
        res = FlexSfuFitter(cfg).fit(TANH)
        assert np.isfinite(res.grid_mse)


class TestScalingBehaviour:
    def test_more_breakpoints_lower_error(self, fast_fit_config):
        errors = []
        for n in (4, 8, 16):
            cfg = replace(fast_fit_config, n_breakpoints=n)
            res = FlexSfuFitter(cfg).fit(TANH)
            errors.append(evaluate(res.pwl, TANH).mse)
        assert errors[0] > errors[1] > errors[2]
        # Fig. 5: large gains per doubling (paper ~15.9x; loose floor here).
        assert errors[0] / errors[2] > 20.0
