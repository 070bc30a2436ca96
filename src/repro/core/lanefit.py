"""Multi-lane fit engine: K same-shape fits through one Adam loop.

The scalar fitter (:class:`~repro.core.fit.FlexSfuFitter`) spends almost
all of its wall-clock in the Adam descent: a Python-level loop of up to
~1500 steps per fit, each step a couple dozen numpy calls over a 4096+
point grid.  For a single fit that interpreter overhead is the price of
clarity; for a sweep of dozens of (function, budget) configurations it
dominates the runtime.

This module stacks K fits that share a *shape* — same breakpoint budget,
same grid density, same optimizer hyper-parameters; intervals, targets,
boundary policies and warm seeds may all differ per lane — into
``(K, n)`` parameter tensors and ``(K, G)`` target grids, and steps them
lock-step through one batched Adam loop (:class:`~repro.optim.LaneAdam`
+ :class:`~repro.optim.LaneReduceLROnPlateau` over
:class:`~repro.core.loss.LaneGridLoss`).  A lane that converges is
*compacted out* of the batch (it stops costing work); the removal /
insertion rounds and the variable-projection polish run per lane on
the scalar fitter's own code paths.  The polish is no small cost (one
scipy L-BFGS-B per lane, converging in tens to hundreds of
evaluations), but a one-request ``Session.fit`` is a single lane, so
batching it across lanes would buy that common case nothing.

Equivalence contract
--------------------
``fit_lanes(tasks)[k]`` is **numerically equivalent** to
``FlexSfuFitter(tasks[k].config).fit(tasks[k].fn, ...)``: every batched
reduction is shaped to accumulate in exactly the order the scalar path
uses (see :class:`~repro.core.loss.LaneGridLoss`), per-lane learning
rates / plateau schedules / convergence counters replicate the scalar
control flow decision-for-decision, and the non-batched phases are the
scalar code itself.  The property suite asserts the per-lane results
match sequential fits bit-for-bit on ``grid_mse``; treat any divergence
as a bug, not as tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import FitError
from ..functions.base import ActivationFunction
from ..obs.metrics import get_metrics
from ..obs.trace import get_tracer
from ..optim.adam import LaneAdam
from ..optim.schedulers import LaneReduceLROnPlateau
from .boundary import ASYMPTOTE
from .fit import (INIT_WARM, FitConfig, FitProblem, FitResult, FlexSfuFitter,
                  _pin_values, _project, _State, init_sequence,
                  resolve_problem)
from .loss import LaneGridLoss
from .pwl import PiecewiseLinear


@dataclass
class LaneTask:
    """One lane of a batch: a target plus its (shape-compatible) config.

    ``warm_start`` mirrors the :meth:`FlexSfuFitter.fit` argument: an
    optional seed PWL from a neighbouring cached configuration.
    """

    fn: ActivationFunction
    config: FitConfig
    warm_start: Optional[PiecewiseLinear] = None


def lane_group_key(config: FitConfig) -> FitConfig:
    """The batch-compatibility key of a config.

    Two jobs may share a lane batch iff their keys are equal: every
    hyper-parameter that shapes the lock-step loop (budget, grid
    density, step counts, learning rates, scheduler settings, init
    policy, ...) must match.  The fit *interval* and the *boundary
    policies* are normalised out — they resolve to per-lane constants
    (grid span, pin lines, learnable-slope masks) that the batched
    kernel carries per lane.
    """
    return replace(config, interval=None,
                   boundary_left=ASYMPTOTE, boundary_right=ASYMPTOTE)


@dataclass
class _Lane:
    """A task plus its resolved problem and a scalar fitter for the
    non-batched phases (polish, removal/insertion)."""

    task: LaneTask
    prob: FitProblem
    fitter: FlexSfuFitter

    # Filled in by fit_lanes as the phases run.
    best_loss: float = np.inf
    best_state: Optional[_State] = None
    live_state: Optional[_State] = None
    init_used: str = ""
    rounds: int = 0
    total_steps: int = 0
    round_losses: List[float] = field(default_factory=list)


def fit_lanes(tasks: Sequence[LaneTask]) -> List[FitResult]:
    """Fit every task lock-step; results in input order.

    All tasks must share one :func:`lane_group_key`.  A single task is
    legal (the batch degenerates to a vectorised scalar fit); an empty
    sequence returns an empty list.
    """
    if not tasks:
        return []
    key = lane_group_key(tasks[0].config)
    for t in tasks[1:]:
        if lane_group_key(t.config) != key:
            raise FitError(
                "lane batch mixes incompatible configs: "
                f"{lane_group_key(t.config)} vs {key}")
    cfg = tasks[0].config  # shared shape; per-lane fields read via lanes

    lanes = [_Lane(task=t, prob=resolve_problem(t.fn, t.config),
                   fitter=FlexSfuFitter(t.config)) for t in tasks]

    metrics = get_metrics()
    metrics.counter("lane.batches").inc()
    metrics.counter("lane.lanes").inc(len(lanes))
    with get_tracer().span("fit.lane_batch", lanes=len(lanes)) as sp:
        _phase_a(lanes, cfg)
        _phase_b(lanes, cfg)
        sp.set(rounds=sum(lane.rounds for lane in lanes),
               steps=sum(lane.total_steps for lane in lanes))
    metrics.counter("lane.steps").inc(
        sum(lane.total_steps for lane in lanes))
    metrics.counter("lane.rounds").inc(
        sum(lane.rounds for lane in lanes))

    results: List[FitResult] = []
    for lane in lanes:
        if cfg.polish:
            final = lane.fitter._polish(
                lane.prob.loss, lane.prob.spec, lane.best_state,
                lane.prob.lo, lane.prob.hi, lane.prob.eps,
                maxiter=cfg.polish_maxiter)
            if final < lane.best_loss:
                lane.best_loss = final
        st = lane.best_state
        pwl = PiecewiseLinear.create(st.p, st.v, float(st.ml[0]),
                                     float(st.mr[0]))
        results.append(FitResult(
            pwl=pwl, grid_mse=lane.best_loss, function=lane.task.fn.name,
            config=lane.task.config, rounds=lane.rounds,
            total_steps=lane.total_steps, init_used=lane.init_used,
            round_losses=lane.round_losses))
    return results


# --------------------------------------------------------------------- #
# Phase A: the cold-init race (or the warm seed), batched
# --------------------------------------------------------------------- #
def _phase_a(lanes: List[_Lane], cfg: FitConfig) -> None:
    """Descend every (lane, init) candidate in one batch; keep the best.

    A lane contributes one candidate per requested init (two for
    ``init="auto"``), or a single warm candidate when it has a seed —
    warm candidates start at the refinement learning rate, exactly as
    in the scalar fitter.
    """
    cand_lane: List[int] = []
    cand_kind: List[str] = []
    cand_state: List[_State] = []
    cand_lr: List[float] = []
    for i, lane in enumerate(lanes):
        fn, prob, fitter = lane.task.fn, lane.prob, lane.fitter
        if lane.task.warm_start is not None:
            kinds = [INIT_WARM]
        else:
            kinds = init_sequence(cfg.init)
        for kind in kinds:
            if kind == INIT_WARM:
                state = fitter._warm_state(fn, prob.spec,
                                           lane.task.warm_start,
                                           prob.lo, prob.hi, prob.eps)
                lr0 = cfg.refine_lr
            else:
                state = fitter._initial_state(fn, prob.spec, prob.a, prob.b,
                                              kind)
                lr0 = cfg.lr
            cand_lane.append(i)
            cand_kind.append(kind)
            cand_state.append(state)
            cand_lr.append(lr0)

    losses, steps = _lane_adam(
        [lanes[i] for i in cand_lane], cand_state,
        np.asarray(cand_lr), cfg, max_steps=cfg.max_steps)

    for j, i in enumerate(cand_lane):
        lane = lanes[i]
        lane.total_steps += int(steps[j])
        cur = float(losses[j])
        if cfg.polish:
            cur = lane.fitter._polish(
                lane.prob.loss, lane.prob.spec, cand_state[j],
                lane.prob.lo, lane.prob.hi, lane.prob.eps,
                maxiter=cfg.polish_maxiter)
        # First candidate wins ties, matching the scalar init race.
        if lane.live_state is None or cur < lane.best_loss:
            lane.best_loss = cur
            lane.live_state = cand_state[j]
            lane.init_used = cand_kind[j]
    for lane in lanes:
        lane.best_state = lane.live_state.copy()
        lane.round_losses = [lane.best_loss]


# --------------------------------------------------------------------- #
# Phase B: removal / insertion refinement, Adam batched per round
# --------------------------------------------------------------------- #
def _phase_b(lanes: List[_Lane], cfg: FitConfig) -> None:
    """Lock-step refinement rounds with per-lane edits and stop rules.

    The edit choice and the polish are the scalar fitter's own methods
    run per lane; only the retrain descent between them is batched.
    Lanes stop refining independently (no legal edit, repeated edit, or
    three stale rounds), exactly like the scalar loop.
    """
    if cfg.n_breakpoints < 3 or cfg.max_refine_rounds < 1:
        return
    refining = list(range(len(lanes)))
    last_edit: List[Optional[Tuple[int, int]]] = [None] * len(lanes)
    stale_rounds = [0] * len(lanes)
    tracer = get_tracer()
    for _ in range(cfg.max_refine_rounds):
        edited: List[Tuple[int, Tuple[int, int]]] = []
        for i in refining:
            lane = lanes[i]
            edit = lane.fitter._remove_and_insert(
                lane.prob.loss, lane.prob.spec, lane.live_state,
                lane.prob.eps)
            if edit is None:
                continue
            lane.rounds += 1
            edited.append((i, edit))
        if not edited:
            break
        idx = [i for i, _ in edited]
        with tracer.span("fit.lane_round", lanes=len(idx)) as rsp:
            losses, steps = _lane_adam(
                [lanes[i] for i in idx], [lanes[i].live_state for i in idx],
                np.full(len(idx), cfg.refine_lr), cfg,
                max_steps=cfg.refine_steps)
            rsp.set(steps=int(np.sum(steps)))
        refining = []
        for (i, edit), cur, n_steps in zip(edited, losses, steps):
            lane = lanes[i]
            lane.total_steps += int(n_steps)
            cur = float(cur)
            if cfg.polish:
                cur = lane.fitter._polish(
                    lane.prob.loss, lane.prob.spec, lane.live_state,
                    lane.prob.lo, lane.prob.hi, lane.prob.eps,
                    maxiter=max(cfg.polish_maxiter // 4, 250))
            lane.round_losses.append(cur)
            if cur < lane.best_loss * (1.0 - cfg.round_improve_tol):
                stale_rounds[i] = 0
            else:
                stale_rounds[i] += 1
            if cur < lane.best_loss:
                lane.best_loss = cur
                lane.best_state = lane.live_state.copy()
            if edit == last_edit[i] or stale_rounds[i] >= 3:
                continue  # removal and insertion points converged
            last_edit[i] = edit
            refining.append(i)
        if not refining:
            break


# --------------------------------------------------------------------- #
# The batched Adam kernel
# --------------------------------------------------------------------- #
def _lane_adam(lanes: Sequence[_Lane], states: Sequence[_State],
               lr0: np.ndarray, cfg: FitConfig, max_steps: int
               ) -> Tuple[np.ndarray, np.ndarray]:
    """Lock-step Adam descent over C candidate states (mutated in place).

    The batched twin of :meth:`FlexSfuFitter._adam`: per-candidate
    projection / pinning / best-snapshot / staleness tracking, plateau
    scheduling with per-candidate learning rates, and per-candidate
    stopping — a candidate whose LR has bottomed out and stalled (or
    whose loss went non-finite) is compacted out of the batch and stops
    costing work.  Returns ``(best losses, steps run)`` per candidate.
    """
    C = len(lanes)
    n = states[0].p.size

    # All per-candidate parameters live in one (C, 2n + 2) block —
    # [breakpoints | values | ml | mr] — so the Adam update, snapshot
    # and compaction are single-tensor operations (the step loop is
    # dispatch-bound, not compute-bound, at sweep sizes).
    Z = np.empty((C, 2 * n + 2))
    P, V = Z[:, :n], Z[:, n:2 * n]
    ML, MR = Z[:, 2 * n:2 * n + 1], Z[:, 2 * n + 1:]
    for j, st in enumerate(states):
        P[j] = st.p
        V[j] = st.v
        ML[j] = st.ml
        MR[j] = st.mr

    lo = np.array([lane.prob.lo for lane in lanes])[:, None]
    hi = np.array([lane.prob.hi for lane in lanes])[:, None]
    eps = np.array([lane.prob.eps for lane in lanes])[:, None]
    idx = np.arange(n)
    shift = idx * eps                       # (C, n): separation ramps
    limit = hi - (n - 1 - idx) * eps
    specs = [lane.prob.spec for lane in lanes]
    lpin = np.array([s.left.pinned for s in specs])
    rpin = np.array([s.right.pinned for s in specs])
    lslope = np.array([s.left.slope for s in specs])
    rslope = np.array([s.right.slope for s in specs])
    lint = np.array([s.left.intercept for s in specs])
    rint = np.array([s.right.intercept for s in specs])
    llearn = np.array([s.left.slope_learnable for s in specs])
    rlearn = np.array([s.right.slope_learnable for s in specs])

    loss = LaneGridLoss([lane.prob.loss for lane in lanes])

    # Best snapshots stay full-size, indexed by the original candidate;
    # everything live is compacted as candidates finish.
    bestZ = Z.copy()
    out_steps = np.zeros(C, dtype=np.int64)
    ids = np.arange(C)
    best = np.full(C, np.inf)
    stale = np.zeros(C, dtype=np.int64)
    steps_done = 0

    opt = LaneAdam([Z], lr=lr0)
    sched = LaneReduceLROnPlateau(opt, factor=cfg.lr_factor,
                                  patience=cfg.patience, min_lr=cfg.min_lr)
    GZ = np.empty_like(Z)

    for step in range(max_steps):
        # Project: sort crossed breakpoints (swapping values and Adam
        # moments alongside), separate, clip, re-pin edge values.  The
        # sort machinery only runs when some lane actually crossed —
        # almost never after the first few steps (the scalar `_project`
        # skips its permutation the same way).
        if np.any(P[:, 1:] < P[:, :-1]):
            order = np.argsort(P, axis=1, kind="stable")
            P[...] = np.take_along_axis(P, order, axis=1)
            V[...] = np.take_along_axis(V, order, axis=1)
            opt.permute_block(0, slice(0, n), order)
            opt.permute_block(0, slice(n, 2 * n), order)
        _lane_separate(P, lo, hi, shift, limit)
        _lane_pin(P, V, lpin, lslope, lint, rpin, rslope, rint)

        cur, grads = loss.loss_and_grads(P, V, ML[:, 0], MR[:, 0])
        steps_done = step + 1
        finite = np.isfinite(cur)
        improved = finite & (cur < best * (1.0 - 1e-12))
        if improved.any():
            bestZ[ids[improved]] = Z[improved]
        best = np.where(improved, cur, best)
        stale = np.where(improved, 0, stale + 1)

        done = ~finite | ((opt.lr <= cfg.min_lr * (1 + 1e-12))
                          & (stale > 2 * cfg.patience))
        if done.any():
            # Cold branch: runs once per finishing candidate, so the
            # metrics call costs nothing on the steady-state step path.
            get_metrics().counter("lane.compactions").inc(int(done.sum()))
            out_steps[ids[done]] = steps_done
            keep = ~done
            ids = ids[keep]
            if ids.size == 0:
                break
            Z = Z[keep].copy()
            P, V = Z[:, :n], Z[:, n:2 * n]
            ML, MR = Z[:, 2 * n:2 * n + 1], Z[:, 2 * n + 1:]
            GZ = np.empty_like(Z)
            lo, hi, eps = lo[keep], hi[keep], eps[keep]
            shift, limit = shift[keep], limit[keep]
            lpin, rpin = lpin[keep], rpin[keep]
            lslope, rslope = lslope[keep], rslope[keep]
            lint, rint = lint[keep], rint[keep]
            llearn, rlearn = llearn[keep], rlearn[keep]
            best, stale = best[keep], stale[keep]
            loss = loss.select(keep)
            opt.select(keep, [Z])
            sched.select(keep)
            grads = _select_grads(grads, keep)
            cur = cur[keep]

        # Chain rule for pinned edge values (v_e = m * p_e + c) and
        # gradient masking for fixed edge slopes, written straight into
        # the block gradient.
        GP, GV = GZ[:, :n], GZ[:, n:2 * n]
        GP[...] = grads.d_breakpoints
        GV[...] = grads.d_values
        GP[:, 0] = np.where(lpin, GP[:, 0] + lslope * GV[:, 0], GP[:, 0])
        GV[:, 0] = np.where(lpin, 0.0, GV[:, 0])
        GP[:, -1] = np.where(rpin, GP[:, -1] + rslope * GV[:, -1], GP[:, -1])
        GV[:, -1] = np.where(rpin, 0.0, GV[:, -1])
        GZ[:, 2 * n] = np.where(llearn, grads.d_left_slope, 0.0)
        GZ[:, 2 * n + 1] = np.where(rlearn, grads.d_right_slope, 0.0)
        opt.step([GZ])
        sched.step(cur)
    out_steps[ids] = steps_done  # lanes that ran the full descent

    # Hand each candidate its best snapshot, normalised exactly like the
    # scalar epilogue, and report the loss of what it actually keeps.
    out_loss = np.empty(C)
    for j, (lane, st) in enumerate(zip(lanes, states)):
        st.p[...] = bestZ[j, :n]
        st.v[...] = bestZ[j, n:2 * n]
        st.ml[...] = bestZ[j, 2 * n]
        st.mr[...] = bestZ[j, 2 * n + 1]
        _project(st, lane.prob.lo, lane.prob.hi, lane.prob.eps)
        _pin_values(st, lane.prob.spec)
        out_loss[j] = lane.prob.loss.loss(st.p, st.v, float(st.ml[0]),
                                          float(st.mr[0]))
    return out_loss, out_steps


def _select_grads(grads, keep: np.ndarray):
    """Compact a LaneGridGradients to the kept lanes."""
    grads.d_breakpoints = grads.d_breakpoints[keep]
    grads.d_values = grads.d_values[keep]
    grads.d_left_slope = grads.d_left_slope[keep]
    grads.d_right_slope = grads.d_right_slope[keep]
    return grads


def _lane_separate(P: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                   shift: np.ndarray, limit: np.ndarray) -> None:
    """Batched :func:`repro.core.fit._separate` with per-lane bounds.

    ``shift`` / ``limit`` are the hoisted per-lane separation ramps
    (``arange(n) * eps`` and ``hi - (n-1-arange(n)) * eps``).
    """
    np.clip(P, lo, hi, out=P)
    spread = P - shift
    np.maximum.accumulate(spread, axis=1, out=spread)
    np.add(spread, shift, out=P)
    np.minimum(P, limit, out=P)


def _lane_pin(P: np.ndarray, V: np.ndarray,
              lpin: np.ndarray, lslope: np.ndarray, lint: np.ndarray,
              rpin: np.ndarray, rslope: np.ndarray, rint: np.ndarray
              ) -> None:
    """Batched :func:`repro.core.fit._pin_values` via per-lane pin masks."""
    V[:, 0] = np.where(lpin, lslope * P[:, 0] + lint, V[:, 0])
    V[:, -1] = np.where(rpin, rslope * P[:, -1] + rint, V[:, -1])
