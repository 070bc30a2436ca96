"""Unit tests for the loss module, including analytic-gradient checks."""

import numpy as np
import pytest

from repro.core.boundary import BoundarySpec
from repro.core.loss import (
    GridLoss,
    max_abs_error,
    quadrature_aae,
    quadrature_mse,
    segment_sq_integrals,
)
from repro.core.pwl import PiecewiseLinear
from repro.errors import FitError
from repro.functions import EXP, GELU, TANH


@pytest.fixture
def tanh_loss():
    return GridLoss(TANH, -4.0, 4.0, n_points=2048)


def _params(n=6, a=-4.0, b=4.0):
    p = np.linspace(a + 0.3, b - 0.3, n)
    v = np.tanh(p) + 0.01 * np.sin(p * 3)  # slightly off the curve
    return p, v


class TestGridLoss:
    def test_zero_for_perfect_linear_target(self):
        loss = GridLoss(lambda x: 2.0 * x + 1.0, -1.0, 1.0, n_points=256)
        p = np.array([-0.5, 0.5])
        v = 2.0 * p + 1.0
        assert loss.loss(p, v, 2.0, 2.0) == pytest.approx(0.0, abs=1e-28)

    def test_matches_quadrature_on_smooth_function(self):
        p, v = _params()
        loss = GridLoss(TANH, -4.0, 4.0, n_points=16384)
        pwl = PiecewiseLinear.create(p, v, 0.0, 0.0)
        grid = loss.loss_pwl(pwl)
        quad = quadrature_mse(pwl, TANH, -4.0, 4.0)
        assert grid == pytest.approx(quad, rel=1e-3)

    def test_rejects_empty_interval(self):
        with pytest.raises(FitError):
            GridLoss(TANH, 1.0, 1.0)

    def test_rejects_coarse_grid(self):
        with pytest.raises(FitError):
            GridLoss(TANH, -1.0, 1.0, n_points=4)

    def test_rejects_nonfinite_target(self):
        with pytest.raises(FitError):
            with np.errstate(invalid="ignore", divide="ignore"):
                GridLoss(np.log, -1.0, 1.0)


class TestAnalyticGradients:
    """Analytic gradients must match central finite differences."""

    def _check_grad(self, tanh_loss, p, v, ml, mr, eps=1e-7):
        _, g = tanh_loss.loss_and_grads(p, v, ml, mr)
        # Breakpoints.
        for i in range(p.size):
            pp = p.copy()
            pp[i] += eps
            hi = tanh_loss.loss(pp, v, ml, mr)
            pp[i] -= 2 * eps
            lo = tanh_loss.loss(pp, v, ml, mr)
            fd = (hi - lo) / (2 * eps)
            assert g.d_breakpoints[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)
        # Values.
        for i in range(v.size):
            vv = v.copy()
            vv[i] += eps
            hi = tanh_loss.loss(p, vv, ml, mr)
            vv[i] -= 2 * eps
            lo = tanh_loss.loss(p, vv, ml, mr)
            fd = (hi - lo) / (2 * eps)
            assert g.d_values[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)
        # Edge slopes.
        fd_ml = (tanh_loss.loss(p, v, ml + eps, mr)
                 - tanh_loss.loss(p, v, ml - eps, mr)) / (2 * eps)
        fd_mr = (tanh_loss.loss(p, v, ml, mr + eps)
                 - tanh_loss.loss(p, v, ml, mr - eps)) / (2 * eps)
        assert g.d_left_slope == pytest.approx(fd_ml, rel=1e-4, abs=1e-8)
        assert g.d_right_slope == pytest.approx(fd_mr, rel=1e-4, abs=1e-8)

    def test_gradients_match_fd(self, tanh_loss):
        p, v = _params()
        self._check_grad(tanh_loss, p, v, 0.1, -0.2)

    def test_gradients_match_fd_other_point(self, tanh_loss, rng):
        p = np.sort(rng.uniform(-3.5, 3.5, size=5))
        v = rng.normal(0, 1, size=5)
        self._check_grad(tanh_loss, p, v, 0.0, 0.3)

    def test_gradient_descent_direction_decreases_loss(self, tanh_loss):
        p, v = _params()
        base, g = tanh_loss.loss_and_grads(p, v, 0.0, 0.0)
        step = 1e-4
        after = tanh_loss.loss(p - step * g.d_breakpoints,
                               v - step * g.d_values, 0.0, 0.0)
        assert after < base


class TestRegionMass:
    def test_mass_sums_to_integral(self, tanh_loss):
        p, v = _params()
        mass = tanh_loss.region_sq_mass(p, v, 0.0, 0.0)
        total = tanh_loss.loss(p, v, 0.0, 0.0) * (tanh_loss.b - tanh_loss.a)
        assert mass.sum() == pytest.approx(total, rel=1e-6)
        assert mass.size == p.size + 1


class TestRemovalLosses:
    def test_rejects_too_few_breakpoints(self, tanh_loss):
        p = np.array([-1.0, 1.0])
        with pytest.raises(FitError):
            tanh_loss.removal_losses(p, np.tanh(p), 0.0, 0.0)
        with pytest.raises(FitError):
            tanh_loss.removal_losses_naive(p, np.tanh(p), 0.0, 0.0)

    def test_matches_naive_unpinned(self, tanh_loss):
        p, v = _params(7)
        fast = tanh_loss.removal_losses(p, v, 0.1, -0.2)
        naive = tanh_loss.removal_losses_naive(p, v, 0.1, -0.2)
        assert fast.size == p.size
        assert np.allclose(fast, naive, rtol=1e-11, atol=1e-14)

    def test_matches_naive_with_pinned_edges(self, tanh_loss):
        p, v = _params(6)
        left_pin, right_pin = (0.0, -1.0), (0.0, 1.0)  # tanh asymptotes
        v[0] = left_pin[0] * p[0] + left_pin[1]
        v[-1] = right_pin[0] * p[-1] + right_pin[1]
        fast = tanh_loss.removal_losses(p, v, 0.0, 0.0, left_pin, right_pin)
        naive = tanh_loss.removal_losses_naive(p, v, 0.0, 0.0,
                                               left_pin, right_pin)
        assert np.allclose(fast, naive, rtol=1e-11, atol=1e-14)

    def test_collinear_breakpoint_removal_is_free(self, tanh_loss):
        # A breakpoint sitting exactly on the segment between its
        # neighbours contributes nothing: removing it keeps the loss.
        p, v = _params(5)
        p[2] = 0.5 * (p[1] + p[3])
        v[2] = 0.5 * (v[1] + v[3])
        cur = tanh_loss.loss(p, v, 0.0, 0.0)
        fast = tanh_loss.removal_losses(p, v, 0.0, 0.0)
        assert fast[2] == pytest.approx(cur, rel=1e-10)
        assert np.all(fast >= cur * (1.0 - 1e-9))


class TestQuadrature:
    def test_quadrature_vs_dense_grid(self):
        p, v = _params(8)
        pwl = PiecewiseLinear.create(p, v, 0.0, 0.0)
        quad = quadrature_mse(pwl, TANH, -4, 4)
        xs = np.linspace(-4, 4, 400001)
        brute = np.trapezoid((pwl(xs) - np.tanh(xs)) ** 2, xs) / 8.0
        assert quad == pytest.approx(brute, rel=1e-5)

    def test_aae_vs_dense_grid(self):
        p, v = _params(8)
        pwl = PiecewiseLinear.create(p, v, 0.0, 0.0)
        aae = quadrature_aae(pwl, TANH, -4, 4)
        xs = np.linspace(-4, 4, 400001)
        brute = np.trapezoid(np.abs(pwl(xs) - np.tanh(xs)), xs) / 8.0
        assert aae == pytest.approx(brute, rel=1e-4)

    def test_max_abs_error_finds_peak(self):
        # Error of a 2-point PWL on gelu peaks between the breakpoints.
        pwl = PiecewiseLinear.create(np.array([-2.0, 2.0]),
                                     GELU(np.array([-2.0, 2.0])), 0.0, 1.0)
        mae = max_abs_error(pwl, GELU, -2, 2)
        xs = np.linspace(-2, 2, 2000001)
        brute = np.max(np.abs(pwl(xs) - GELU(xs)))
        assert mae == pytest.approx(brute, rel=1e-6)

    def test_segment_integrals_match_region_mass(self):
        p, v = _params(6)
        pwl = PiecewiseLinear.create(p, v, 0.0, 0.0)
        seg = segment_sq_integrals(pwl, TANH)
        assert seg.size == p.size - 1
        loss = GridLoss(TANH, float(p[0]), float(p[-1]), n_points=65536)
        mass = loss.region_sq_mass(p, v, 0.0, 0.0)
        assert np.allclose(seg, mass[1:-1], rtol=5e-3, atol=1e-10)


class TestSolveValues:
    """The exact value solve against a dense weighted least squares on
    the explicit G x (n + 2) design matrix."""

    POLICIES = ("asymptote", "free", "clamp")

    @staticmethod
    def _design(loss, p):
        """Columns v_0 .. v_{n-1}, m_l, m_r of f_hat on the loss grid."""
        xs, n = loss.xs, p.size
        region = np.searchsorted(p, xs, side="right")
        phi = np.zeros((xs.size, n + 2))
        left, right = region == 0, region == n
        phi[left, 0] = 1.0
        phi[left, n] = xs[left] - p[0]
        phi[right, n - 1] = 1.0
        phi[right, n + 1] = xs[right] - p[-1]
        for r in range(1, n):
            sel = region == r
            t = (xs[sel] - p[r - 1]) / (p[r] - p[r - 1])
            phi[sel, r - 1] = 1.0 - t
            phi[sel, r] = t
        return phi

    @staticmethod
    def _breakpoints(rng, loss, n, eps):
        """Random sorted breakpoints with one gap of exactly ``eps``, one
        segment strictly between two grid points, and (sometimes) edge
        breakpoints outside the grid."""
        h = loss.xs[1] - loss.xs[0]
        p = np.sort(rng.uniform(loss.a - 0.5, loss.b + 0.5, n - 3))
        g = int(rng.integers(8, loss.xs.size - 8))
        extra = [p[0] + eps, loss.xs[g] + 0.25 * h, loss.xs[g] + 0.5 * h]
        return np.sort(np.concatenate([p, extra]))

    def _check(self, loss, p, v, ml, mr, spec):
        n = p.size
        pinned = (spec.left.pinned, spec.right.pinned)
        learn = (spec.left.slope_learnable, spec.right.slope_learnable)
        got_v, got_ml, got_mr = loss.solve_values(p, v, ml, mr, pinned, learn)
        got = np.concatenate([got_v, [got_ml, got_mr]])
        theta = np.concatenate([v, [ml, mr]])

        phi = self._design(loss, p)
        held = np.zeros(n + 2, dtype=bool)
        held[[0, n - 1]] = pinned
        held[[n, n + 1]] = np.logical_not(learn)
        sw = np.sqrt(loss.w)
        target = loss.ys - phi[:, held] @ theta[held]
        ref = theta.copy()
        ref[~held] = np.linalg.lstsq(sw[:, None] * phi[:, ~held],
                                     sw * target, rcond=None)[0]

        # Held and unsupported parameters keep their input value.
        norms = np.sqrt(loss.w @ phi ** 2)
        keep = held | (norms == 0.0)
        assert np.array_equal(got[keep], theta[keep])

        cur = loss.loss(p, got_v, got_ml, got_mr)
        best = loss.loss(p, ref[:n], ref[n], ref[n + 1])
        assert cur == pytest.approx(best, rel=1e-9)

        # Free, supported parameters: the residual is orthogonal to their
        # basis functions, i.e. their gradients vanish relative to the
        # Cauchy-Schwarz bound 2 * sqrt(loss) * ||phi_j||_w.
        _, g = loss.loss_and_grads(p, got_v, got_ml, got_mr)
        grad = np.concatenate([g.d_values, [g.d_left_slope, g.d_right_slope]])
        free = ~keep
        bound = 2.0 * np.sqrt(cur) * norms[free]
        assert np.all(np.abs(grad[free]) <= 1e-9 * bound)
        return got, norms

    @pytest.mark.parametrize("left", POLICIES)
    @pytest.mark.parametrize("right", POLICIES)
    def test_matches_dense_lstsq_for_every_policy_pair(self, left, right):
        loss = GridLoss(TANH, -4.0, 4.0, n_points=1024)
        spec = BoundarySpec.resolve(TANH, left, right)
        eps = 2e-5 * (loss.b - loss.a)
        rng = np.random.default_rng(sum(map(ord, left + right)))
        for n in (4, 9, 16):
            p = self._breakpoints(rng, loss, n, eps)
            v = np.tanh(p) + 0.01 * rng.normal(size=n)
            ml = spec.left.slope + 0.1 * spec.left.slope_learnable
            mr = spec.right.slope - 0.1 * spec.right.slope_learnable
            if spec.left.pinned:
                v[0] = spec.left.pin_value(p[0])
            if spec.right.pinned:
                v[-1] = spec.right.pin_value(p[-1])
            self._check(loss, p, v, ml, mr, spec)

    def test_unsupported_parameters_keep_their_value(self):
        # No grid point left of p_1 or right of p_{n-1}: v_0 and both
        # free slopes have no support (a min-norm solve would zero them).
        loss = GridLoss(EXP, -4.0, 2.0, n_points=512)
        spec = BoundarySpec.resolve(EXP, "free", "free")
        p = np.array([-4.4, -4.2, -1.0, 0.5, 2.3])
        v = np.exp(p)
        got, norms = self._check(loss, p, v, 0.3, 7.0, spec)
        assert norms[0] == 0.0 and norms[-1] == 0.0 and norms[-2] == 0.0
        assert got[-2:].tolist() == [0.3, 7.0]
        assert got[0] == v[0]

    def test_rank_deficient_support_takes_the_min_norm_step(self):
        # v_{n-1} and m_r share the last grid point as their only support:
        # a singular system, so the solve falls back to the minimum-norm
        # change from the input.
        loss = GridLoss(TANH, -4.0, 4.0, n_points=256)
        spec = BoundarySpec.resolve(TANH, "free", "free")
        h = loss.xs[1] - loss.xs[0]
        p = np.array([-3.0, -1.0, 1.0, 4.0 - 0.5 * h, 4.0 - 0.25 * h])
        self._check(loss, p, np.tanh(p), 0.0, 0.05, spec)

    def test_rejects_a_single_breakpoint(self, tanh_loss):
        with pytest.raises(FitError):
            tanh_loss.solve_values(np.array([0.0]), np.array([0.0]), 0.0, 0.0)
