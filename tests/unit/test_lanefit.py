"""Unit tests for the multi-lane fit kernel and its optimizer parts."""

from dataclasses import replace

import numpy as np
import pytest

from repro.api import EngineConfig, Session
from repro.core.batchfit import FitCache, make_job, plan_units
from repro.core.fit import FitConfig, FlexSfuFitter
from repro.core.lanefit import LaneTask, fit_lanes, lane_group_key
from repro.core.loss import GridLoss, LaneGridLoss
from repro.errors import FitError
from repro.functions import registry as fn_registry
from repro.optim.adam import Adam, LaneAdam
from repro.optim.schedulers import LaneReduceLROnPlateau, ReduceLROnPlateau

_FAST = FitConfig(n_breakpoints=4, grid_points=256, max_steps=40,
                  refine_steps=15, max_refine_rounds=1, polish=False,
                  init="uniform")


# --------------------------------------------------------------------- #
# LaneGridLoss vs scalar GridLoss
# --------------------------------------------------------------------- #
class TestLaneGridLoss:
    def _cases(self, rng, n=7):
        fns = [("gelu", (-8.0, 8.0)), ("tanh", (-4.0, 4.0)),
               ("sigmoid", (-6.0, 7.0)), ("gelu", (-8.0, 8.0))]  # shared grid
        losses, params = [], []
        for name, (a, b) in fns:
            fn = fn_registry.get(name)
            losses.append(GridLoss(fn, a, b, n_points=512))
            p = np.sort(rng.uniform(a, b, n))
            v = np.asarray(fn(p)) + 0.01 * rng.normal(size=n)
            params.append((p, v, rng.normal(), rng.normal()))
        return losses, params

    def test_matches_scalar_bitwise(self, rng):
        losses, params = self._cases(rng)
        lane = LaneGridLoss(losses)
        P = np.stack([p for p, *_ in params])
        V = np.stack([v for _, v, *_ in params])
        ML = np.array([ml for *_, ml, _ in params])
        MR = np.array([mr for *_, mr in params])
        L, g = lane.loss_and_grads(P, V, ML, MR)
        Lf = lane.loss(P, V, ML, MR)
        for k, (loss, (p, v, ml, mr)) in enumerate(zip(losses, params)):
            l0, g0 = loss.loss_and_grads(p, v, ml, mr)
            assert l0 == L[k]
            assert loss.loss(p, v, ml, mr) == Lf[k]
            assert np.all(g0.d_breakpoints == g.d_breakpoints[k])
            assert np.all(g0.d_values == g.d_values[k])
            assert g0.d_left_slope == g.d_left_slope[k]
            assert g0.d_right_slope == g.d_right_slope[k]

    def test_select_compacts_lanes(self, rng):
        losses, params = self._cases(rng)
        lane = LaneGridLoss(losses)
        keep = np.array([0, 2])
        sub = lane.select(keep)
        P = np.stack([p for p, *_ in params])[keep]
        V = np.stack([v for _, v, *_ in params])[keep]
        ML = np.array([ml for *_, ml, _ in params])[keep]
        MR = np.array([mr for *_, mr in params])[keep]
        L, _ = sub.loss_and_grads(P, V, ML, MR)
        for out_k, k in enumerate(keep):
            p, v, ml, mr = params[k]
            l0, _ = losses[k].loss_and_grads(p, v, ml, mr)
            assert l0 == L[out_k]

    def test_breakpoints_outside_grid(self, rng):
        """Edge breakpoints roam outside [a, b]; regions clamp cleanly."""
        fn = fn_registry.get("tanh")
        loss = GridLoss(fn, -4.0, 4.0, n_points=256)
        lane = LaneGridLoss([loss])
        p = np.array([-5.5, -1.0, 2.0, 4.8])  # both ends outside the grid
        v = np.asarray(fn(p))
        l0, g0 = loss.loss_and_grads(p, v, 0.3, -0.2)
        L, g = lane.loss_and_grads(p[None], v[None], np.array([0.3]),
                                   np.array([-0.2]))
        assert l0 == L[0]
        assert np.all(g0.d_breakpoints == g.d_breakpoints[0])

    def test_rejects_mixed_grid_sizes(self):
        fn = fn_registry.get("tanh")
        with pytest.raises(FitError):
            LaneGridLoss([GridLoss(fn, -4, 4, n_points=256),
                          GridLoss(fn, -4, 4, n_points=512)])

    def test_rejects_empty(self):
        with pytest.raises(FitError):
            LaneGridLoss([])

    def test_gradients_match_finite_differences(self, rng):
        """The kernel's analytic gradients vs central differences."""
        fn = fn_registry.get("gelu")
        loss = GridLoss(fn, -6.0, 6.0, n_points=1024)
        p = np.sort(rng.uniform(-5.5, 5.5, 6))
        v = np.asarray(fn(p)) + 0.02 * rng.normal(size=6)
        _, g = loss.loss_and_grads(p, v, 0.1, 0.9)
        eps = 1e-7
        for i in range(p.size):
            pp = p.copy()
            pp[i] += eps
            hi = loss.loss(pp, v, 0.1, 0.9)
            pp[i] -= 2 * eps
            lo = loss.loss(pp, v, 0.1, 0.9)
            assert g.d_breakpoints[i] == pytest.approx(
                (hi - lo) / (2 * eps), rel=1e-4, abs=1e-8)


# --------------------------------------------------------------------- #
# LaneAdam vs scalar Adam
# --------------------------------------------------------------------- #
class TestLaneAdam:
    def test_matches_scalar_trajectories(self, rng):
        K, n, steps = 5, 6, 25
        P0 = rng.normal(size=(K, n))
        grads = rng.normal(size=(steps, K, n))
        lrs = np.array([0.1, 0.05, 0.1, 0.02, 0.3])

        lane_P = P0.copy()
        opt = LaneAdam([lane_P], lr=lrs)
        for t in range(steps):
            opt.step([grads[t]])

        for k in range(K):
            p = P0[k].copy()
            ref = Adam([p], lr=float(lrs[k]))
            for t in range(steps):
                ref.step([grads[t, k]])
            assert np.all(p == lane_P[k])

    def test_permute_rows_matches_scalar_permute_state(self, rng):
        K, n = 3, 5
        P0 = rng.normal(size=(K, n))
        g1 = rng.normal(size=(K, n))
        g2 = rng.normal(size=(K, n))
        orders = np.stack([rng.permutation(n) for _ in range(K)])

        lane_P = P0.copy()
        opt = LaneAdam([lane_P], lr=np.full(K, 0.1))
        opt.step([g1])
        lane_P[...] = np.take_along_axis(lane_P, orders, axis=1)
        opt.permute_rows(0, orders)
        opt.step([g2])

        for k in range(K):
            p = P0[k].copy()
            ref = Adam([p], lr=0.1)
            ref.step([g1[k]])
            p[...] = p[orders[k]]
            ref.permute_state(0, orders[k])
            ref.step([g2[k]])
            assert np.all(p == lane_P[k])

    def test_zero_gradient_leaves_parameter_bitwise(self, rng):
        K, n = 2, 4
        P = rng.normal(size=(K, n))
        before = P.copy()
        opt = LaneAdam([P], lr=np.full(K, 0.1))
        for _ in range(10):
            opt.step([np.zeros((K, n))])
        assert np.all(P == before)

    def test_select_keeps_surviving_lane_trajectories(self, rng):
        K, n = 4, 3
        P0 = rng.normal(size=(K, n))
        g = rng.normal(size=(6, K, n))
        lane_P = P0.copy()
        opt = LaneAdam([lane_P], lr=np.full(K, 0.1))
        opt.step([g[0]])
        opt.step([g[1]])
        keep = np.array([True, False, True, False])
        lane_P = lane_P[keep].copy()
        opt.select(keep, [lane_P])
        opt.step([g[2][keep]])

        for out_k, k in enumerate(np.flatnonzero(keep)):
            p = P0[k].copy()
            ref = Adam([p], lr=0.1)
            for t in range(3):
                ref.step([g[t, k]])
            assert np.all(p == lane_P[out_k])

    def test_validation(self):
        with pytest.raises(FitError):
            LaneAdam([], lr=np.array([0.1]))
        with pytest.raises(FitError):
            LaneAdam([np.zeros((2, 3))], lr=np.array([0.1]))  # lr count
        with pytest.raises(FitError):
            LaneAdam([np.zeros((2, 3))], lr=np.array([0.1, -1.0]))
        with pytest.raises(FitError):
            LaneAdam([np.zeros(3)], lr=np.array([0.1]))  # no lane axis


# --------------------------------------------------------------------- #
# LaneReduceLROnPlateau vs scalar scheduler
# --------------------------------------------------------------------- #
class TestLanePlateau:
    def test_matches_scalar_decisions(self, rng):
        K, steps = 4, 120
        losses = np.abs(rng.normal(size=(steps, K))) + 0.1
        losses[:, 0] = np.linspace(1.0, 0.01, steps)  # steadily improving
        losses[:, 1] = 0.5                            # flat: reductions

        params = [np.zeros((K, 1))]
        opt = LaneAdam(params, lr=np.full(K, 0.1))
        sched = LaneReduceLROnPlateau(opt, factor=0.5, patience=7,
                                      min_lr=1e-3, cooldown=2)
        refs = []
        for k in range(K):
            a = Adam([np.zeros(1)], lr=0.1)
            refs.append((a, ReduceLROnPlateau(a, factor=0.5, patience=7,
                                              min_lr=1e-3, cooldown=2)))
        for t in range(steps):
            reduced = sched.step(losses[t])
            for k, (a, s) in enumerate(refs):
                assert s.step(float(losses[t, k])) == bool(reduced[k])
                assert a.lr == opt.lr[k]

    def test_select_compacts(self):
        opt = LaneAdam([np.zeros((3, 1))], lr=np.array([0.1, 0.2, 0.3]))
        sched = LaneReduceLROnPlateau(opt, factor=0.5, patience=1,
                                      min_lr=1e-4)
        sched.step(np.array([1.0, 1.0, 1.0]))
        keep = np.array([True, False, True])
        arr = np.zeros((2, 1))
        opt.select(keep, [arr])
        sched.select(keep)
        assert np.all(opt.lr == np.array([0.1, 0.3]))
        assert sched.step(np.array([2.0, 2.0])).shape == (2,)


# --------------------------------------------------------------------- #
# fit_lanes structure
# --------------------------------------------------------------------- #
class TestFitLanes:
    def test_empty_batch(self):
        assert fit_lanes([]) == []

    def test_single_lane_matches_scalar(self):
        fn = fn_registry.get("gelu")
        [lane] = fit_lanes([LaneTask(fn=fn, config=_FAST)])
        seq = FlexSfuFitter(_FAST).fit(fn)
        assert lane.grid_mse == seq.grid_mse
        assert lane.init_used == seq.init_used
        assert np.array_equal(lane.pwl.breakpoints, seq.pwl.breakpoints)

    def test_rejects_incompatible_configs(self):
        fn = fn_registry.get("gelu")
        with pytest.raises(FitError):
            fit_lanes([LaneTask(fn=fn, config=_FAST),
                       LaneTask(fn=fn, config=replace(_FAST,
                                                      n_breakpoints=6))])

    def test_group_key_normalises_interval_and_boundary(self):
        a = replace(_FAST, interval=(-2.0, 2.0), boundary_left="free")
        b = replace(_FAST, interval=(-8.0, 8.0), boundary_right="clamp")
        assert lane_group_key(a) == lane_group_key(b)
        assert lane_group_key(a) != lane_group_key(
            replace(a, n_breakpoints=6))
        assert lane_group_key(a) != lane_group_key(replace(a, lr=0.05))


# --------------------------------------------------------------------- #
# Lane batching in the pool-engine batch fit
# --------------------------------------------------------------------- #
class TestBatchFitterLaneBatch:
    """Lane-batched units through a Session on the pool engine — the
    batch fitter ``repro serve`` runs."""

    def _jobs(self):
        return [make_job(name, 4, config=_FAST)
                for name in ("gelu", "tanh", "silu", "sigmoid")]

    @staticmethod
    def _session(cache_dir, **engine):
        engine.setdefault("max_workers", 1)
        return Session(EngineConfig(engine="pool", warm_start=False,
                                    **engine), cache=FitCache(cache_dir))

    def test_lane_engine_used_and_matches_scalar_engine(self, tmp_path):
        with self._session(tmp_path / "lane") as s:
            lane = s.fit(self._jobs())
        with self._session(tmp_path / "scalar", lane_batch=False) as s:
            scalar = s.fit(self._jobs())
        assert [r.provenance["kernel"] for r in lane] == ["lane"] * 4
        assert [r.provenance["kernel"] for r in scalar] == ["scalar"] * 4
        for a, b in zip(lane, scalar):
            assert a.grid_mse == b.grid_mse
            assert np.array_equal(a.pwl.breakpoints, b.pwl.breakpoints)

    def test_cache_hits_short_circuit(self, tmp_path):
        with self._session(tmp_path) as s:
            s.fit(self._jobs())
            again = s.fit(self._jobs())
        assert all(r.from_cache and r.engine == "cache" for r in again)

    def test_mixed_shapes_form_separate_groups(self, tmp_path):
        jobs = (self._jobs()
                + [make_job(n, 6, config=replace(_FAST, n_breakpoints=6))
                   for n in ("gelu", "tanh")]
                + [make_job("silu", 8,
                            config=replace(_FAST, n_breakpoints=8))])
        with self._session(tmp_path) as s:
            results = s.fit(jobs)
        kernels = [r.provenance["kernel"] for r in results]
        assert kernels[:6] == ["lane"] * 6      # two groups of >= 2
        assert kernels[6] == "scalar"           # singleton group
        for res in results:
            seq = FlexSfuFitter(res.config).fit(
                fn_registry.get(res.function))
            assert res.grid_mse == seq.grid_mse

    def test_units_chunking(self):
        configs = {f"k{i}": make_job("gelu", 4, config=_FAST).config
                   for i in range(8)}
        units = plan_units(configs, lane_batch=True, workers=4)
        assert sorted(len(u) for u in units) == [2, 2, 2, 2]
        units_serial = plan_units(configs, lane_batch=True, workers=1)
        assert [len(u) for u in units_serial] == [8]
        assert all(len(u) == 1 for u in plan_units(configs, False, 4))

    def test_pooled_lane_groups(self, tmp_path):
        """Process-pool execution of lane groups (2 workers, 2 chunks)."""
        with self._session(tmp_path, max_workers=2) as s:
            results = s.fit(self._jobs())
        assert [r.provenance["kernel"] for r in results] == ["lane"] * 4
        for res in results:
            seq = FlexSfuFitter(res.config).fit(
                fn_registry.get(res.function))
            assert res.grid_mse == seq.grid_mse
