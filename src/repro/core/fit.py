"""The Flex-SFU fitting algorithm (Section IV of the paper).

Optimization strategy, following the paper:

1. initialise with uniformly-distributed breakpoints and exact function
   values, edge segments pinned to the asymptotes;
2. optimise all parameters (breakpoints, values, free edge slopes) with
   Adam (lr = 0.1, momenta (0.9, 0.999)) and a plateau LR scheduler until
   convergence;
3. *remove* the breakpoint whose removal increases the loss least, then
   *insert* a new breakpoint at the centre of the segment with the
   largest insertion loss (collinear with the segment, so insertion is
   function-preserving), and retrain with a lower learning rate;
4. iterate step 3 until the removal / insertion choices converge.

The loss is the interval MSE of :mod:`repro.core.loss`; its analytic
gradients stand in for the autograd the authors used.  Asymptote-pinned
edge values are handled by chain rule: ``v_edge = m * p_edge + c`` folds
``dL/dv_edge * m`` into the breakpoint gradient.

Two documented enhancements close the gap to the free-knot optimum that
plain SGD leaves open (both can be disabled to recover the
paper-faithful algorithm, which the ablation benchmark exercises):

* **curvature init** — breakpoints drawn from the density
  ``|f''|^(2/5)``, the asymptotically optimal knot allocation for
  least-squares PWL approximation; ``init="auto"`` races it against the
  paper's uniform init and keeps the better basin;
* **variable-projection polish** — after each Adam phase, a bounded
  L-BFGS descent over the breakpoints alone.  For fixed breakpoints the
  loss is linear least squares in the values and free edge slopes, so
  each evaluation solves those exactly and takes the breakpoint gradient
  of the same analytic kernel at the solution.  That reaches the bottom
  of the current basin far faster than annealed SGD, and in far fewer
  evaluations than one L-BFGS over all parameters jointly, which is
  badly conditioned.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np

from ..deprecation import warn_legacy
from ..errors import FitError
from ..functions.base import ActivationFunction
from ..optim.adam import Adam
from ..optim.schedulers import ReduceLROnPlateau
from .boundary import ASYMPTOTE, BoundarySpec
from .loss import GridLoss
from .pwl import PiecewiseLinear

INIT_UNIFORM = "uniform"
INIT_CURVATURE = "curvature"
INIT_AUTO = "auto"
#: Not a config value: reported as ``init_used`` when a fit was seeded
#: from a previous PWL via ``fit(..., warm_start=...)``.
INIT_WARM = "warm"

_INITS = (INIT_UNIFORM, INIT_CURVATURE, INIT_AUTO)


def init_sequence(init: str) -> List[str]:
    """The cold-init race a config requests, in evaluation order."""
    return {
        INIT_UNIFORM: [INIT_UNIFORM],
        INIT_CURVATURE: [INIT_CURVATURE],
        INIT_AUTO: [INIT_UNIFORM, INIT_CURVATURE],
    }[init]


def grid_points_for(config: "FitConfig") -> int:
    """Loss-grid density for a config: >= ~64 samples per segment.

    Single source of truth shared by the fitter, the batch engine's
    native shortcut, and the fit service's shared-memory grid pool — all
    three must agree or cached entries stop being reproducible.
    """
    return max(config.grid_points, 64 * config.n_breakpoints)

REMOVAL_FAST = "fast"
REMOVAL_NAIVE = "naive"
REMOVAL_CHECK = "check"

_REMOVAL_SCANS = (REMOVAL_FAST, REMOVAL_NAIVE, REMOVAL_CHECK)


@dataclass(frozen=True)
class FitConfig:
    """Hyper-parameters of the fitting procedure.

    Defaults mirror the paper (Adam lr = 0.1, plateau scheduler) plus the
    enhancements described in the module docstring.  Set
    ``init="uniform", polish=False`` for the paper-faithful algorithm.
    """

    n_breakpoints: int = 16
    interval: Optional[Tuple[float, float]] = None  # None -> fn default
    boundary_left: str = ASYMPTOTE
    boundary_right: str = ASYMPTOTE
    grid_points: int = 4096
    lr: float = 0.1
    refine_lr: float = 0.02
    max_steps: int = 1500
    refine_steps: int = 400
    patience: int = 30
    lr_factor: float = 0.5
    min_lr: float = 1e-5
    max_refine_rounds: int = 16
    round_improve_tol: float = 2e-3
    #: Minimum breakpoint gap, relative to the interval width.  Small on
    #: purpose: asymptote-pinned edge values are slightly off the true
    #: function, and the optimal fit shrinks the adjacent segment hard.
    min_separation_rel: float = 2e-5
    #: How far outside the loss interval the learned edge breakpoints may
    #: settle, relative to the interval width.
    edge_margin_rel: float = 0.25
    init: str = INIT_AUTO
    curvature_power: float = 0.4  # 2/5: optimal L2 knot density exponent
    polish: bool = True
    polish_maxiter: int = 3000
    #: Removal-scan implementation: ``fast`` (vectorised, O(grid)),
    #: ``naive`` (per-candidate rebuild, O(n*grid)), or ``check`` (run
    #: both and fail on disagreement).
    removal_scan: str = REMOVAL_FAST

    def __post_init__(self) -> None:
        if self.n_breakpoints < 2:
            raise FitError(f"need at least 2 breakpoints, got {self.n_breakpoints}")
        if self.max_refine_rounds < 0:
            raise FitError("max_refine_rounds must be >= 0")
        if self.init not in _INITS:
            raise FitError(f"unknown init {self.init!r}; expected one of {_INITS}")
        if self.removal_scan not in _REMOVAL_SCANS:
            raise FitError(
                f"unknown removal_scan {self.removal_scan!r}; "
                f"expected one of {_REMOVAL_SCANS}"
            )


@dataclass
class FitResult:
    """Outcome of :meth:`FlexSfuFitter.fit`."""

    pwl: PiecewiseLinear
    grid_mse: float
    function: str
    config: FitConfig
    rounds: int
    total_steps: int
    init_used: str
    round_losses: List[float] = field(default_factory=list)


class _State:
    """Mutable fit state: breakpoints, values and edge slopes."""

    def __init__(self, p: np.ndarray, v: np.ndarray, ml: float, mr: float) -> None:
        self.p = np.asarray(p, dtype=np.float64).copy()
        self.v = np.asarray(v, dtype=np.float64).copy()
        self.ml = np.array([ml], dtype=np.float64)
        self.mr = np.array([mr], dtype=np.float64)

    def copy(self) -> "_State":
        return _State(self.p, self.v, float(self.ml[0]), float(self.mr[0]))

    def assign(self, other: "_State") -> None:
        self.p[...] = other.p
        self.v[...] = other.v
        self.ml[...] = other.ml
        self.mr[...] = other.mr


@dataclass
class FitProblem:
    """A fully-resolved fit: interval, boundary spec, loss and bounds.

    Single setup path shared by :meth:`FlexSfuFitter.fit` and the
    lane-batched engine (:mod:`repro.core.lanefit`) so the two can never
    disagree about what problem a config describes.
    """

    a: float
    b: float
    spec: BoundarySpec
    loss: GridLoss
    eps: float   # minimum breakpoint separation
    lo: float    # edge breakpoints may roam down to here
    hi: float    # ... and up to here


def resolve_problem(fn: ActivationFunction, cfg: FitConfig,
                    loss: Optional[GridLoss] = None) -> FitProblem:
    """Resolve a (function, config) pair into a :class:`FitProblem`.

    ``loss`` injects a prebuilt :class:`GridLoss` (e.g. one mapping a
    shared-memory grid published by the fit service) instead of
    re-sampling the target; its interval and density must match what the
    config would build — fits must not silently change with the
    transport that delivered their grid.
    """
    a, b = cfg.interval if cfg.interval is not None else fn.default_interval
    if not b > a:
        raise FitError(f"empty fit interval [{a}, {b}]")
    spec = BoundarySpec.resolve(fn, cfg.boundary_left, cfg.boundary_right)
    n_grid = grid_points_for(cfg)
    if loss is None:
        loss = GridLoss(fn, a, b, n_points=n_grid)
    else:
        if (loss.xs.size != n_grid
                or abs(loss.a - a) > 1e-12 * max(1.0, abs(a))
                or abs(loss.b - b) > 1e-12 * max(1.0, abs(b))):
            raise FitError(
                f"injected loss grid ([{loss.a}, {loss.b}], "
                f"{loss.xs.size} pts) does not match the config's "
                f"([{a}, {b}], {n_grid} pts)")
    eps = cfg.min_separation_rel * (b - a)
    # The edge breakpoints are learned (paper) and may settle slightly
    # outside the loss interval — that is where an asymptote-pinned
    # edge stops distorting the in-interval fit.
    margin = cfg.edge_margin_rel * (b - a)
    return FitProblem(a=a, b=b, spec=spec, loss=loss, eps=eps,
                      lo=a - margin, hi=b + margin)


class FlexSfuFitter:
    """Fits a non-uniform PWL to an activation function (paper Section IV)."""

    def __init__(self, config: Optional[FitConfig] = None) -> None:
        self.config = config or FitConfig()

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def fit(self, fn: ActivationFunction,
            warm_start: Optional[PiecewiseLinear] = None,
            loss: Optional[GridLoss] = None) -> FitResult:
        """Deprecated front door; use :class:`repro.api.Session`.

        ``Session(engine="inline").fit_one(fn, config=cfg)`` runs the
        same algorithm (this method's body now lives in :meth:`_fit`,
        which the Session engines call) and returns the canonical
        :class:`~repro.api.FitArtifact` instead of a bare
        :class:`FitResult`.
        """
        warn_legacy("FlexSfuFitter.fit",
                    "repro.api.Session.fit_one (engine='inline')")
        return self._fit(fn, warm_start=warm_start, loss=loss)

    def _fit(self, fn: ActivationFunction,
             warm_start: Optional[PiecewiseLinear] = None,
             loss: Optional[GridLoss] = None) -> FitResult:
        """Run the full optimization strategy on ``fn``.

        ``warm_start`` seeds the optimizer from a previously fitted PWL
        (typically the cached fit of a neighbouring configuration — see
        ``FitCache.nearest``) instead of racing the cold inits; the seed
        is resampled to the configured budget, descended at the
        refinement learning rate, and still goes through the full
        removal/insertion phase, so quality matches a cold fit while
        convergence takes measurably fewer steps.

        ``loss`` injects a prebuilt :class:`GridLoss` (e.g. one mapping a
        shared-memory grid published by the fit service) instead of
        re-sampling the target here.  Its interval and density must match
        what this config would build — fits must not silently change with
        the transport that delivered their grid.
        """
        cfg = self.config
        prob = resolve_problem(fn, cfg, loss)
        a, b = prob.a, prob.b
        spec = prob.spec
        loss = prob.loss
        eps = prob.eps
        lo, hi = prob.lo, prob.hi

        inits = init_sequence(cfg.init)
        if warm_start is not None:
            inits = [INIT_WARM]

        # Phase A: Adam (+ polish) from each requested init; keep the best.
        best: Optional[Tuple[float, _State, str]] = None
        total_steps = 0
        for kind in inits:
            if kind == INIT_WARM:
                state = self._warm_state(fn, spec, warm_start, lo, hi, eps)
                lr0 = cfg.refine_lr  # near the optimum: refinement-scale steps
            else:
                state = self._initial_state(fn, spec, a, b, kind)
                lr0 = cfg.lr
            cur, steps = self._adam(loss, spec, state, lr=lr0,
                                    max_steps=cfg.max_steps, a=lo, b=hi, eps=eps)
            total_steps += steps
            if cfg.polish:
                cur = self._polish(loss, spec, state, lo, hi, eps,
                                   maxiter=cfg.polish_maxiter)
            if best is None or cur < best[0]:
                best = (cur, state.copy(), kind)
        assert best is not None
        best_loss, state, init_used = best
        round_losses = [best_loss]

        # Phase B: removal / insertion refinement on the winning basin.
        best_state = state.copy()
        last_edit: Optional[Tuple[int, int]] = None
        rounds = 0
        stale_rounds = 0
        if cfg.n_breakpoints >= 3:
            for _ in range(cfg.max_refine_rounds):
                edit = self._remove_and_insert(loss, spec, state, eps)
                if edit is None:
                    break
                rounds += 1
                cur, steps = self._adam(loss, spec, state, lr=cfg.refine_lr,
                                        max_steps=cfg.refine_steps, a=lo,
                                        b=hi, eps=eps)
                total_steps += steps
                if cfg.polish:
                    cur = self._polish(loss, spec, state, lo, hi, eps,
                                       maxiter=max(cfg.polish_maxiter // 4, 250))
                round_losses.append(cur)
                if cur < best_loss * (1.0 - cfg.round_improve_tol):
                    stale_rounds = 0
                else:
                    stale_rounds += 1
                if cur < best_loss:
                    best_loss = cur
                    best_state = state.copy()
                if edit == last_edit or stale_rounds >= 3:
                    break  # removal and insertion points converged
                last_edit = edit

        if cfg.polish:
            final = self._polish(loss, spec, best_state, lo, hi, eps,
                                 maxiter=cfg.polish_maxiter)
            if final < best_loss:
                best_loss = final

        pwl = PiecewiseLinear.create(best_state.p, best_state.v,
                                     float(best_state.ml[0]),
                                     float(best_state.mr[0]))
        return FitResult(pwl=pwl, grid_mse=best_loss, function=fn.name,
                         config=cfg, rounds=rounds, total_steps=total_steps,
                         init_used=init_used, round_losses=round_losses)

    # ------------------------------------------------------------------ #
    # Initialisation
    # ------------------------------------------------------------------ #
    def _initial_state(self, fn: ActivationFunction, spec: BoundarySpec,
                       a: float, b: float, kind: str) -> _State:
        n = self.config.n_breakpoints
        if kind == INIT_UNIFORM:
            p = np.linspace(a, b, n)
        else:
            p = _curvature_quantiles(fn, a, b, n, self.config.curvature_power)
        v = np.asarray(fn(p), dtype=np.float64)
        state = _State(p, v, spec.left.slope, spec.right.slope)
        _pin_values(state, spec)
        return state

    def _warm_state(self, fn: ActivationFunction, spec: BoundarySpec,
                    warm: PiecewiseLinear, lo: float, hi: float,
                    eps: float) -> _State:
        """Seed state from a previous fit's PWL (possibly another budget).

        The warm PWL's breakpoint *distribution* is what carries the
        information — when the budgets differ, breakpoints are resampled
        along the warm knot sequence (preserving its density), and values
        are re-read from the exact function, which beats reusing the warm
        PWL's approximate values on a different knot set.
        """
        n = self.config.n_breakpoints
        m = warm.n_breakpoints
        if m == n:
            p = warm.breakpoints.astype(np.float64).copy()
        else:
            p = np.interp(np.linspace(0.0, m - 1.0, n),
                          np.arange(m, dtype=np.float64), warm.breakpoints)
        p.sort(kind="stable")
        _separate(p, lo, hi, eps)
        v = np.asarray(fn(p), dtype=np.float64)
        ml = spec.left.slope if not spec.left.slope_learnable \
            else float(warm.left_slope)
        mr = spec.right.slope if not spec.right.slope_learnable \
            else float(warm.right_slope)
        state = _State(p, v, ml, mr)
        _pin_values(state, spec)
        return state

    # ------------------------------------------------------------------ #
    # Adam phase
    # ------------------------------------------------------------------ #
    def _adam(self, loss: GridLoss, spec: BoundarySpec, state: _State,
              lr: float, max_steps: int, a: float, b: float, eps: float
              ) -> Tuple[float, int]:
        """In-place Adam descent; returns (best loss, steps run)."""
        cfg = self.config
        params: List[np.ndarray] = [state.p, state.v]
        if spec.left.slope_learnable:
            params.append(state.ml)
        if spec.right.slope_learnable:
            params.append(state.mr)
        opt = Adam(params, lr=lr)
        sched = ReduceLROnPlateau(opt, factor=cfg.lr_factor,
                                  patience=cfg.patience, min_lr=cfg.min_lr)

        best = np.inf
        best_snapshot = state.copy()
        stale = 0
        steps_run = 0
        for step in range(max_steps):
            order = _project(state, a, b, eps)
            if order is not None:
                # Crossed breakpoints were swapped back into sorted order;
                # the Adam moments must follow the same permutation or they
                # keep applying to the pre-swap parameter positions.
                opt.permute_state(0, order)  # breakpoints
                opt.permute_state(1, order)  # values
            _pin_values(state, spec)
            cur, grads = loss.loss_and_grads(state.p, state.v,
                                             float(state.ml[0]), float(state.mr[0]))
            steps_run = step + 1
            if not np.isfinite(cur):
                break
            if cur < best * (1.0 - 1e-12):
                best = cur
                best_snapshot = state.copy()
                stale = 0
            else:
                stale += 1
            if opt.lr <= cfg.min_lr * (1 + 1e-12) and stale > 2 * cfg.patience:
                break

            gp = grads.d_breakpoints.copy()
            gv = grads.d_values.copy()
            # Chain rule for pinned edge values: v_e = m * p_e + c.
            if spec.left.pinned:
                gp[0] += spec.left.slope * gv[0]
                gv[0] = 0.0
            if spec.right.pinned:
                gp[-1] += spec.right.slope * gv[-1]
                gv[-1] = 0.0
            grad_list: List[np.ndarray] = [gp, gv]
            if spec.left.slope_learnable:
                grad_list.append(np.array([grads.d_left_slope]))
            if spec.right.slope_learnable:
                grad_list.append(np.array([grads.d_right_slope]))
            opt.step(grad_list)
            sched.step(cur)

        state.assign(best_snapshot)
        _project(state, a, b, eps)
        _pin_values(state, spec)
        return (float(loss.loss(state.p, state.v, float(state.ml[0]),
                                float(state.mr[0]))), steps_run)

    # ------------------------------------------------------------------ #
    # Variable-projection polish
    # ------------------------------------------------------------------ #
    def _polish(self, loss: GridLoss, spec: BoundarySpec, state: _State,
                a: float, b: float, eps: float, maxiter: int) -> float:
        """Bounded L-BFGS over the breakpoints, values solved exactly.

        For fixed breakpoints the loss is linear least squares in the
        values and free edge slopes, so L-BFGS-B searches the ``n``
        breakpoints only and every evaluation solves the rest exactly
        (:func:`_solve_values`) — variable projection (Golub & Pereyra,
        1973).  The value and slope gradients vanish at the solved
        values, so the breakpoint gradient of ``loss_and_grads`` there is
        the gradient of the reduced loss (envelope theorem); a pinned
        edge value still moves with its breakpoint by the chain rule.
        ``state`` takes the result (in place) only if its loss is lower.
        """
        # Deferred so `import repro.api` stays scipy-free (the public
        # surface test asserts it); the polish is the only scipy use in
        # the fitting hot path.
        from scipy import optimize as _sciopt

        ml0, mr0 = float(state.ml[0]), float(state.mr[0])

        def f_and_g(z: np.ndarray):
            order = np.argsort(z, kind="stable")
            cand = _State(z[order], state.v, ml0, mr0)
            _separate(cand.p, a, b, eps * 1e-3)
            _solve_values(loss, spec, cand)
            cur, g = loss.loss_and_grads(cand.p, cand.v, float(cand.ml[0]),
                                         float(cand.mr[0]))
            gp = g.d_breakpoints
            if spec.left.pinned:
                gp[0] += spec.left.slope * g.d_values[0]
            if spec.right.pinned:
                gp[-1] += spec.right.slope * g.d_values[-1]
            grad = np.empty(z.size)
            grad[order] = gp
            return cur, grad

        before = float(loss.loss(state.p, state.v, ml0, mr0))
        res = _sciopt.minimize(f_and_g, state.p, jac=True, method="L-BFGS-B",
                               bounds=[(a, b)] * state.p.size,
                               options={"maxiter": maxiter,
                                        "ftol": 1e-18, "gtol": 1e-14})
        cand = _State(np.sort(res.x), state.v, ml0, mr0)
        _project(cand, a, b, eps)
        _solve_values(loss, spec, cand)
        after = float(loss.loss(cand.p, cand.v, float(cand.ml[0]),
                                float(cand.mr[0])))
        if after < before:
            state.assign(cand)
            return after
        return before

    # ------------------------------------------------------------------ #
    # Removal / insertion heuristic
    # ------------------------------------------------------------------ #
    def _remove_and_insert(self, loss: GridLoss, spec: BoundarySpec,
                           state: _State, eps: float
                           ) -> Optional[Tuple[int, int]]:
        """One remove-worst / insert-best edit, in place.

        Returns ``(removed_index, inserted_segment_index)`` or ``None``
        when no legal edit exists.
        """
        p, v = state.p, state.v
        ml, mr = float(state.ml[0]), float(state.mr[0])
        n = p.size
        if n < 3:
            return None

        # Removal loss for every breakpoint (paper: argmin over l_rm).
        left_pin = ((spec.left.slope, spec.left.intercept)
                    if spec.left.pinned else None)
        right_pin = ((spec.right.slope, spec.right.intercept)
                     if spec.right.pinned else None)
        if self.config.removal_scan == REMOVAL_NAIVE:
            removal = loss.removal_losses_naive(p, v, ml, mr,
                                                left_pin, right_pin)
        else:
            removal = loss.removal_losses(p, v, ml, mr, left_pin, right_pin)
            if self.config.removal_scan == REMOVAL_CHECK:
                ref = loss.removal_losses_naive(p, v, ml, mr,
                                                left_pin, right_pin)
                scale = float(np.max(np.abs(ref))) + 1.0
                if not np.allclose(removal, ref, rtol=1e-8,
                                   atol=1e-11 * scale):
                    raise FitError(
                        "vectorised removal scan disagrees with the naive "
                        f"rebuild by {float(np.max(np.abs(removal - ref)))}"
                    )
        i_rm = int(np.argmin(removal))

        keep = np.arange(n) != i_rm
        p_new, v_new = p[keep].copy(), v[keep].copy()
        if spec.left.pinned:
            v_new[0] = spec.left.pin_value(float(p_new[0]))
        if spec.right.pinned:
            v_new[-1] = spec.right.pin_value(float(p_new[-1]))

        # Insertion loss per inner segment of the post-removal function.
        # With m = p_new.size surviving breakpoints, mass has m + 1
        # entries (regions 0..m); mass[1:-1] keeps the m - 1 inner
        # regions, region j + 1 being the segment [p_new[j], p_new[j+1]].
        mass = loss.region_sq_mass(p_new, v_new, ml, mr)
        inner = mass[1:-1]
        if inner.size == 0:
            return None
        widths = np.diff(p_new)
        if inner.size != widths.size:
            raise FitError(
                f"region/segment mapping drifted: {inner.size} inner "
                f"regions vs {widths.size} segments"
            )
        legal = widths > 2.5 * eps
        if not np.any(legal):
            return None
        inner = np.where(legal, inner, -np.inf)
        j_ins = int(np.argmax(inner))

        p_mid = 0.5 * (p_new[j_ins] + p_new[j_ins + 1])
        v_mid = 0.5 * (v_new[j_ins] + v_new[j_ins + 1])
        state.p[...] = np.insert(p_new, j_ins + 1, p_mid)
        state.v[...] = np.insert(v_new, j_ins + 1, v_mid)
        _pin_values(state, spec)
        return (i_rm, j_ins)


# --------------------------------------------------------------------- #
# Parameter-space projections and inits
# --------------------------------------------------------------------- #
def _separate(p: np.ndarray, a: float, b: float, eps: float) -> None:
    """Enforce sortedness with gap >= eps inside [a, b] (assumes sorted)."""
    np.clip(p, a, b, out=p)
    if eps <= 0:
        return
    idx = np.arange(p.size)
    shifted = np.maximum.accumulate(p - idx * eps)
    p[...] = shifted + idx * eps
    limit = b - (p.size - 1 - idx) * eps
    p[...] = np.minimum(p, limit)


def _project(state: _State, a: float, b: float, eps: float
             ) -> Optional[np.ndarray]:
    """Keep breakpoints sorted, separated by >= eps, inside [a, b].

    Sorting permutes the (p, v) pairs together so a crossing during an
    Adam step becomes a swap instead of a collapse.  Returns the applied
    permutation (``None`` when the order was already sorted) so the
    caller can permute optimizer state alongside.
    """
    p, v = state.p, state.v
    applied: Optional[np.ndarray] = None
    order = np.argsort(p, kind="stable")
    if not np.array_equal(order, np.arange(p.size)):
        p[...] = p[order]
        v[...] = v[order]
        applied = order
    _separate(p, a, b, eps)
    return applied


def _pin_values(state: _State, spec: BoundarySpec) -> None:
    """Re-derive asymptote-pinned edge values after any parameter change."""
    if spec.left.pinned:
        state.v[0] = spec.left.pin_value(float(state.p[0]))
    if spec.right.pinned:
        state.v[-1] = spec.right.pin_value(float(state.p[-1]))


def _solve_values(loss: GridLoss, spec: BoundarySpec, state: _State) -> None:
    """Pin the edge values, then set the other values and the learnable
    edge slopes to their grid-MSE optimum for the state's breakpoints."""
    _pin_values(state, spec)
    v, ml, mr = loss.solve_values(
        state.p, state.v, float(state.ml[0]), float(state.mr[0]),
        pinned=(spec.left.pinned, spec.right.pinned),
        learn_slopes=(spec.left.slope_learnable, spec.right.slope_learnable))
    state.v[...] = v
    state.ml[0] = ml
    state.mr[0] = mr


def _curvature_quantiles(fn: ActivationFunction, a: float, b: float, n: int,
                         power: float) -> np.ndarray:
    """Breakpoints at quantiles of the |f''|^power density.

    ``power = 2/5`` is the asymptotically optimal knot density for
    least-squares PWL approximation of a smooth function.
    """
    xs = np.linspace(a, b, 40001)
    h = xs[1] - xs[0]
    ys = np.asarray(fn(xs), dtype=np.float64)
    d2 = np.gradient(np.gradient(ys, h), h)
    dens = np.abs(d2) ** power
    # Blend in a small uniform floor so flat regions keep some coverage.
    dens += 0.01 * (np.max(dens) if np.max(dens) > 0 else 1.0)
    cdf = np.cumsum(dens)
    cdf = (cdf - cdf[0]) / (cdf[-1] - cdf[0])
    # cdf may have flat runs; np.interp handles them (picks left edge).
    return np.interp(np.linspace(0.0, 1.0, n), cdf, xs)


# --------------------------------------------------------------------- #
# Convenience wrappers
# --------------------------------------------------------------------- #
def fit_activation(fn: ActivationFunction, n_breakpoints: int = 16,
                   interval: Optional[Tuple[float, float]] = None,
                   config: Optional[FitConfig] = None) -> FitResult:
    """Deprecated one-call fit; use :meth:`repro.api.Session.fit_one`.

    The Session equivalent of ``fit_activation(GELU, 16)`` is
    ``Session().fit_one(GELU, n_breakpoints=16)`` — cached, engine-
    selected, and returning a :class:`~repro.api.FitArtifact`.  This
    shim keeps the uncached scalar behaviour (and the legacy
    :class:`FitResult` shape) for existing callers.
    """
    warn_legacy("fit_activation", "repro.api.Session.fit_one")
    base = config or FitConfig()
    cfg = replace(base, n_breakpoints=n_breakpoints,
                  interval=interval if interval is not None else base.interval)
    return FlexSfuFitter(cfg)._fit(fn)
