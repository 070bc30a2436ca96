"""Interpolation losses: interval MSE with analytic gradients.

The paper's loss is the mean squared error between the interpolated
function and the target over the fit interval,

.. math::

    L_{[a,b]}(\\hat f, f) = \\frac{1}{b-a} \\int_a^b (\\hat f(x) - f(x))^2 dx.

Two evaluators are provided:

* :class:`GridLoss` — a trapezoid discretisation on a fixed dense grid
  with *analytic* gradients w.r.t. every PWL parameter (breakpoints,
  values, edge slopes).  This is what the Adam fit consumes; it matches
  what the paper's PyTorch autograd setup computes on sampled points.
* Gauss–Legendre quadrature helpers (:func:`quadrature_mse`,
  :func:`segment_sq_integrals`) — high-accuracy reference integrals used
  for final reporting and for the insertion-loss heuristic.  Because
  ``f_hat`` is linear inside each region and the targets are smooth, the
  integrand is smooth per region and a modest node count is essentially
  exact.

With the breakpoints held fixed, ``f_hat`` is linear in the values and
edge slopes, so :meth:`GridLoss.solve_values` finds their grid-MSE
optimum exactly (the inner solve of the fitter's variable-projection
polish).

The gradient derivation: with residual ``r(x) = f_hat(x) - f(x)`` and an
inner segment ``[p_L, p_R]`` carrying values ``v_L, v_R``,

* ``d f_hat / d v_L = 1 - t``, ``d f_hat / d v_R = t`` with
  ``t = (x - p_L)/(p_R - p_L)``;
* ``d f_hat / d p_L = (v_R - v_L)(x - p_R)/(p_R - p_L)^2``;
* ``d f_hat / d p_R = -(v_R - v_L)(x - p_L)/(p_R - p_L)^2``;

and for the edge segments ``f_hat = m(x - p_e) + v_e`` so
``d f_hat/d p_e = -m``, ``d f_hat/d v_e = 1``, ``d f_hat/d m = x - p_e``.
``f_hat`` is continuous in the breakpoints, so no boundary terms appear.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ..errors import FitError
from .pwl import PiecewiseLinear

TargetFn = Callable[[np.ndarray], np.ndarray]


def _trapezoid_weights(n: int) -> np.ndarray:
    """Normalised trapezoid weights (sum to 1) on a uniform grid."""
    w = np.ones(n, dtype=np.float64)
    w[0] = w[-1] = 0.5
    return w / w.sum()


@dataclass
class GridGradients:
    """Gradients of the grid MSE w.r.t. each PWL parameter group."""

    d_breakpoints: np.ndarray
    d_values: np.ndarray
    d_left_slope: float
    d_right_slope: float


class GridLoss:
    """Dense-grid MSE between a PWL (given as raw arrays) and a target.

    The grid and the target samples are fixed at construction, so each
    evaluation costs a handful of vectorised passes over the grid.
    """

    def __init__(self, fn: TargetFn, a: float, b: float, n_points: int = 4096) -> None:
        if not b > a:
            raise FitError(f"empty loss interval [{a}, {b}]")
        if n_points < 16:
            raise FitError(f"grid too coarse: {n_points} points")
        self.a = float(a)
        self.b = float(b)
        self.xs = np.linspace(self.a, self.b, int(n_points))
        self.ys = np.asarray(fn(self.xs), dtype=np.float64)
        if not np.all(np.isfinite(self.ys)):
            raise FitError("target function produced non-finite values on the grid")
        self.w = _trapezoid_weights(int(n_points))
        self._lane: Optional["LaneGridLoss"] = None  # lazy 1-lane kernel
        self._moments: Optional[np.ndarray] = None   # lazy solve workspace

    # ------------------------------------------------------------------ #
    # Forward only
    # ------------------------------------------------------------------ #
    def loss(self, p: np.ndarray, v: np.ndarray, ml: float, mr: float) -> float:
        """Grid MSE for breakpoints ``p``, values ``v``, edge slopes."""
        fhat = _eval_arrays(p, v, ml, mr, self.xs)
        res = fhat - self.ys
        return float(np.sum(self.w * res * res))

    def loss_pwl(self, pwl: PiecewiseLinear) -> float:
        """Grid MSE for a :class:`PiecewiseLinear`."""
        return self.loss(pwl.breakpoints, pwl.values, pwl.left_slope, pwl.right_slope)

    # ------------------------------------------------------------------ #
    # Forward + analytic backward
    # ------------------------------------------------------------------ #
    def loss_and_grads(self, p: np.ndarray, v: np.ndarray, ml: float, mr: float
                       ) -> Tuple[float, GridGradients]:
        """Loss plus analytic gradients (see module docstring).

        ``p`` must be sorted (the fitter guarantees this — it projects
        before every evaluation).  The computation *is* the lane kernel
        run on a single lane — :class:`LaneGridLoss` documents the
        shapes — so a lane-batched fit reproduces a scalar fit bit for
        bit by construction, and the scalar path sheds the old
        ``np.add.at`` scatter-adds (several-x faster per gradient step)
        for free.
        """
        p = np.asarray(p, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        loss, g = self._lane_kernel().loss_and_grads(
            p[None], v[None], np.array([float(ml)]), np.array([float(mr)]))
        return float(loss[0]), GridGradients(
            d_breakpoints=g.d_breakpoints[0], d_values=g.d_values[0],
            d_left_slope=float(g.d_left_slope[0]),
            d_right_slope=float(g.d_right_slope[0]))

    def _lane_kernel(self) -> "LaneGridLoss":
        if self._lane is None:
            self._lane = LaneGridLoss([self])
        return self._lane

    # ------------------------------------------------------------------ #
    # Exact values for fixed breakpoints (variable projection)
    # ------------------------------------------------------------------ #
    def solve_values(self, p: np.ndarray, v: np.ndarray, ml: float, mr: float,
                     pinned: Tuple[bool, bool] = (False, False),
                     learn_slopes: Tuple[bool, bool] = (True, True)
                     ) -> Tuple[np.ndarray, float, float]:
        """Grid-MSE-optimal values and edge slopes for sorted breakpoints.

        ``f_hat`` is linear in ``theta = (m_l, v_0 .. v_{n-1}, m_r)``, so
        the optimum solves the weighted normal equations
        ``(Phi^T W Phi) theta = Phi^T W y``.  In that order region ``r``
        carries parameters ``r`` and ``r + 1`` through two basis
        functions ``(a, b)``: ``(x - p_0, 1)`` on the left edge, the hats
        ``(1 - t, t)`` inside, ``(1, x - p_{n-1})`` on the right edge.  So
        the matrix is tridiagonal, assembled from five moments per region,
        ``sum w {a a, a b, b b, a y, b y}``, taken in one
        ``np.add.reduceat`` over the contiguous grid spans of
        :meth:`LaneGridLoss._expansion`.  ``1 - t`` is computed as
        ``(p_r - x) / (p_r - p_{r-1})``, not by cancellation, so a basis
        function that is tiny on the grid keeps a tiny moment.

        Held at their incoming value: pinned edge values (``pinned``;
        ``v`` must already lie on the pin line), edge slopes that are not
        learnable (``learn_slopes``), and every parameter whose basis
        function vanishes on the whole grid (e.g. the right slope when no
        grid point lies right of ``p_{n-1}``).  Should the remaining
        system still be singular, the minimum-norm change from the
        incoming parameters is taken.  Returns ``(v, m_l, m_r)``.
        """
        p = np.asarray(p, dtype=np.float64)
        n = p.size
        if n < 2:
            raise FitError(f"value solve needs >= 2 breakpoints, got {n}")
        xs, ys = self.xs, self.ys
        G = xs.size
        lane = self._lane_kernel()
        ws = lane._scratch(n)
        counts = lane._expansion(p[None], ws)[0]

        # Per region: the breakpoints either side and the scale that makes
        # a = (hi - x) * scale and b = (x - lo) * scale its basis functions
        # (the edge regions' constant ones are set after).
        table = np.empty((3, n + 1))
        table[0, 0] = p[0]
        table[0, 1:] = p
        table[1, :n] = p
        table[1, n] = p[-1]
        table[2, 0] = -1.0
        table[2, n] = 1.0
        np.divide(1.0, np.maximum(p[1:] - p[:-1], 1e-12), out=table[2, 1:n])
        lo, hi, scale = np.repeat(table, counts, axis=1)
        a = np.subtract(hi, xs, out=hi)
        a *= scale
        b = np.subtract(xs, lo, out=lo)
        b *= scale
        b[:counts[0]] = 1.0
        a[G - counts[n]:] = 1.0

        blk = self._moments
        if blk is None:  # the five moment rows plus a zero sentinel column
            blk = self._moments = np.zeros((5, G + 1))
        rows = blk[:, :G]
        wa = np.multiply(self.w, a, out=scale)
        np.multiply(wa, a, out=rows[0])
        np.multiply(wa, b, out=rows[1])
        np.multiply(wa, ys, out=rows[3])
        wb = np.multiply(self.w, b, out=a)
        np.multiply(wb, b, out=rows[2])
        np.multiply(wb, ys, out=rows[4])
        s = np.add.reduceat(blk, ws["edges"][0, :-1], axis=1)
        s[:, counts == 0] = 0.0  # reduceat reads an empty span's neighbour
        s_aa, off, s_bb, s_ay, s_by = s

        k = n + 2
        diag = np.zeros(k)
        diag[:-1] = s_aa
        diag[1:] += s_bb
        rhs = np.zeros(k)
        rhs[:-1] = s_ay
        rhs[1:] += s_by
        theta = np.empty(k)
        theta[0] = ml
        theta[1:-1] = v
        theta[-1] = mr
        held = diag <= 0.0
        held[[0, 1, n, n + 1]] |= (not learn_slopes[0], pinned[0], pinned[1],
                                   not learn_slopes[1])
        if held.any():
            # Move the held parameters to the right-hand side and give
            # each an identity row, so one solve serves every policy.
            fixed = np.where(held, theta, 0.0)
            rhs[:-1] -= off * fixed[1:]
            rhs[1:] -= off * fixed[:-1]
            off[held[:-1] | held[1:]] = 0.0
            diag[held] = 1.0
            rhs[held] = theta[held]
        A = np.zeros((k, k))
        A.flat[::k + 1] = diag
        A.flat[1::k + 1] = off
        A.flat[k::k + 1] = off
        try:
            sol = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError:
            sol = theta + np.linalg.lstsq(A, rhs - A @ theta, rcond=None)[0]
        return sol[1:-1], float(sol[0]), float(sol[-1])

    # ------------------------------------------------------------------ #
    # Per-region loss mass (insertion heuristic)
    # ------------------------------------------------------------------ #
    def region_sq_mass(self, p: np.ndarray, v: np.ndarray, ml: float, mr: float
                       ) -> np.ndarray:
        """Approximate ``integral of (f_hat - f)^2`` per region (len n+1).

        Region indexing matches :meth:`PiecewiseLinear.region_index`.  The
        insertion loss of inner segment ``i`` (paper Section IV) is exactly
        this integral over ``[p_i, p_{i+1}]``.
        """
        xs, ys, w = self.xs, self.ys, self.w
        r = np.searchsorted(p, xs, side="right")
        m, q = _coefficients(p, v, ml, mr)
        res = m[r] * xs + q[r] - ys
        mass = np.bincount(r, weights=w * res * res, minlength=p.size + 1)
        return mass * (self.b - self.a)

    # ------------------------------------------------------------------ #
    # Removal losses (the refinement heuristic's removal scan)
    # ------------------------------------------------------------------ #
    def removal_losses(self, p: np.ndarray, v: np.ndarray, ml: float, mr: float,
                       left_pin: Optional[Tuple[float, float]] = None,
                       right_pin: Optional[Tuple[float, float]] = None
                       ) -> np.ndarray:
        """Grid MSE after removing each breakpoint, in O(grid) total.

        Entry ``i`` equals rebuilding the PWL without breakpoint ``i`` and
        re-evaluating :meth:`loss` — but computed from per-region loss
        masses plus a vectorised merged-segment kernel instead of ``n``
        full re-evaluations: removing ``i`` only rewrites the two regions
        adjacent to it (regions ``i`` and ``i + 1`` merge into one span
        carried by the segment ``p_{i-1} .. p_{i+1}``, or by the edge line
        for ``i in {0, n-1}``).

        ``left_pin`` / ``right_pin`` are optional ``(slope, intercept)``
        asymptote lines.  When given, removing the corresponding edge
        breakpoint re-derives the new edge value from the pin line (the
        fitter's re-pinning), which additionally rewrites the first/last
        inner segment.  The caller's current edge values must already lie
        on the pin lines — the fitter guarantees this via ``_pin_values``.

        :meth:`removal_losses_naive` is the O(n * grid) reference
        implementation; ``FitConfig(removal_scan="check")`` runs both and
        verifies agreement.
        """
        p = np.asarray(p, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        n = p.size
        if n < 3:
            raise FitError(f"removal scan needs >= 3 breakpoints, got {n}")
        xs, ys, w = self.xs, self.ys, self.w

        r = np.searchsorted(p, xs, side="right")
        m, q = _coefficients(p, v, ml, mr)
        res = m[r] * xs + q[r] - ys
        mass = np.bincount(r, weights=w * res * res, minlength=n + 1)
        total = float(mass.sum())

        # Line carrying the merged span of candidate i.  Inner candidates
        # connect (p_{i-1}, v_{i-1}) to (p_{i+1}, v_{i+1}); edge candidates
        # extend the edge slope from the surviving neighbour breakpoint
        # (re-pinned onto the asymptote line when one is given).
        mm = np.empty(n, dtype=np.float64)
        qq = np.empty(n, dtype=np.float64)
        dp = np.maximum(p[2:] - p[:-2], 1e-12)
        mm[1:-1] = (v[2:] - v[:-2]) / dp
        qq[1:-1] = v[:-2] - mm[1:-1] * p[:-2]
        v1 = left_pin[0] * p[1] + left_pin[1] if left_pin is not None else v[1]
        mm[0] = ml
        qq[0] = v1 - ml * p[1]
        v2 = (right_pin[0] * p[-2] + right_pin[1]
              if right_pin is not None else v[-2])
        mm[-1] = mr
        qq[-1] = v2 - mr * p[-2]

        # A grid point in region r lies on candidate r's merged span (its
        # lower half) and on candidate (r-1)'s merged span (its upper half).
        new_mass = np.zeros(n, dtype=np.float64)
        lo = r <= n - 1
        cl = r[lo]
        res_l = mm[cl] * xs[lo] + qq[cl] - ys[lo]
        new_mass += np.bincount(cl, weights=w[lo] * res_l * res_l, minlength=n)
        hi = r >= 1
        ch = r[hi] - 1
        res_h = mm[ch] * xs[hi] + qq[ch] - ys[hi]
        new_mass += np.bincount(ch, weights=w[hi] * res_h * res_h, minlength=n)

        out = total - mass[:-1] - mass[1:] + new_mass

        # A pinned-edge removal moves the new edge value onto the pin
        # line, which also rewrites the adjacent inner segment (region 2
        # on the left, region n-2 on the right).
        if left_pin is not None:
            sel = r == 2
            s = (v[2] - v1) / max(p[2] - p[1], 1e-12)
            res2 = s * xs[sel] + (v1 - s * p[1]) - ys[sel]
            out[0] += float(np.sum(w[sel] * res2 * res2)) - mass[2]
        if right_pin is not None:
            sel = r == n - 2
            s = (v2 - v[-3]) / max(p[-2] - p[-3], 1e-12)
            res2 = s * xs[sel] + (v[-3] - s * p[-3]) - ys[sel]
            out[-1] += float(np.sum(w[sel] * res2 * res2)) - mass[n - 2]
        return out

    def removal_losses_naive(self, p: np.ndarray, v: np.ndarray,
                             ml: float, mr: float,
                             left_pin: Optional[Tuple[float, float]] = None,
                             right_pin: Optional[Tuple[float, float]] = None
                             ) -> np.ndarray:
        """Reference removal scan: rebuild + re-evaluate per candidate.

        O(n * grid); kept as the cross-check path for
        :meth:`removal_losses` (property tests and
        ``FitConfig(removal_scan="check")`` compare the two).
        """
        p = np.asarray(p, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        n = p.size
        if n < 3:
            raise FitError(f"removal scan needs >= 3 breakpoints, got {n}")
        out = np.empty(n, dtype=np.float64)
        for i in range(n):
            keep = np.arange(n) != i
            p_c, v_c = p[keep].copy(), v[keep].copy()
            if left_pin is not None:
                v_c[0] = left_pin[0] * p_c[0] + left_pin[1]
            if right_pin is not None:
                v_c[-1] = right_pin[0] * p_c[-1] + right_pin[1]
            out[i] = self.loss(p_c, v_c, ml, mr)
        return out


# --------------------------------------------------------------------- #
# Lane-batched loss (the multi-lane fit kernel's hot loop)
# --------------------------------------------------------------------- #
@dataclass
class LaneGridGradients:
    """Per-lane gradients: leading axis indexes the lane."""

    d_breakpoints: np.ndarray  # (K, n)
    d_values: np.ndarray       # (K, n)
    d_left_slope: np.ndarray   # (K,)
    d_right_slope: np.ndarray  # (K,)


class LaneGridLoss:
    """K same-shape grid losses evaluated lock-step on ``(K, n)`` params.

    Stacks K :class:`GridLoss` instances (same point count, possibly
    different intervals/targets) into ``(K, G)`` tensors so one numpy
    pass serves every lane.  Each lane's result is **bit-for-bit** the
    scalar :meth:`GridLoss.loss_and_grads` of that lane: the reductions
    here are the identical full-grid masked sums (row-wise) and the
    identical bincount accumulation orders (per-lane contiguous in the
    flattened index space), which is what lets the lane-batched fitter
    claim exact numerical equivalence with sequential fits.
    """

    def __init__(self, losses: Sequence[GridLoss]) -> None:
        if not losses:
            raise FitError("LaneGridLoss needs at least one lane")
        sizes = {loss.xs.size for loss in losses}
        if len(sizes) != 1:
            raise FitError(
                f"lanes must share one grid size, got {sorted(sizes)}")
        self.xs = np.stack([loss.xs for loss in losses])  # (K, G)
        self.ys = np.stack([loss.ys for loss in losses])  # (K, G)
        self.w = losses[0].w                              # (G,), size-only
        self.K, self.G = self.xs.shape
        self._scratches: Dict[int, Dict] = {}
        self._group_grids()

    def _group_grids(self) -> None:
        """Group lanes sharing one grid (common in sweeps) so the
        per-step breakpoint location pass is one ``searchsorted`` per
        distinct grid instead of one per lane."""
        spans: dict = {}
        for k in range(self.K):
            spans.setdefault((self.xs[k, 0], self.xs[k, -1]), []).append(k)
        self._grid_groups = [(np.asarray(idx), self.xs[idx[0]])
                             for idx in spans.values()]

    def select(self, keep: np.ndarray) -> "LaneGridLoss":
        """A new loss over the ``keep``-indexed subset of lanes."""
        obj = LaneGridLoss.__new__(LaneGridLoss)
        obj.xs = self.xs[keep]
        obj.ys = self.ys[keep]
        obj.w = self.w
        obj.K, obj.G = obj.xs.shape
        obj._scratches = {}
        obj._group_grids()
        return obj

    def _scratch(self, n: int) -> Dict:
        """Per-instance reusable workspace for breakpoint count ``n``.

        Every shape in the kernel is fixed by ``(K, G, n)``, so index
        tables and the large per-point blocks are allocated once and
        reused across the thousands of steps of an Adam descent.
        """
        ws = self._scratches.get(n)
        if ws is None:
            K, G = self.K, self.G
            idx = np.arange(n + 1)
            inner = np.zeros(n + 1)
            inner[1:n] = 1.0
            W = np.empty((6, K, G + 1))
            W[:, :, G] = 0.0  # per-lane sentinel closing the last segment
            ws = self._scratches[n] = {
                "il": np.clip(idx - 1, 0, n - 1),
                "ir": np.clip(idx, 0, n - 1),
                "inner": inner,
                "outer": 1.0 - inner,
                "T": np.empty((6, K, n + 1)),
                "gather": np.empty((2, K, n + 1)),
                "repeats": np.empty((6, K * (n + 1)), dtype=np.int64),
                "W": W,
                "pos": np.empty((K, n), dtype=np.int64),
                "edges": np.empty((K, n + 2), dtype=np.int64),
                "starts": np.empty((K, n + 1), dtype=np.int64),
                "row0": (np.arange(K) * (G + 1))[:, None],
            }
        return ws

    def _expansion(self, p: np.ndarray, ws: Dict) -> np.ndarray:
        """Points per (lane, region) for ``(K, n)`` breakpoints.

        Region ``r`` of lane ``k`` is the contiguous grid span
        ``[pos_{r-1}, pos_r)`` (the grids are sorted), so per-point
        quantities are ``np.repeat`` s of per-region arrays.
        """
        G = self.G
        n = p.shape[1]
        pos = ws["pos"]
        for idx, xs in self._grid_groups:
            if idx.size == 1:
                pos[idx[0]] = np.searchsorted(xs, p[idx[0]], side="left")
            else:
                pos[idx] = np.searchsorted(
                    xs, p[idx].ravel(), side="left").reshape(idx.size, n)
        edges = ws["edges"]
        edges[:, 0] = 0
        edges[:, 1:-1] = pos
        edges[:, -1] = G
        return edges[:, 1:] - edges[:, :-1]      # (K, n + 1)

    def loss(self, p: np.ndarray, v: np.ndarray, ml: np.ndarray,
             mr: np.ndarray) -> np.ndarray:
        """Per-lane grid MSE for ``(K, n)`` params and ``(K,)`` slopes."""
        K, G = self.K, self.G
        m, q = _lane_coefficients(p, v, ml, mr)
        counts_flat = self._expansion(p, self._scratch(p.shape[1])).ravel()
        fhat = (np.repeat(m.ravel(), counts_flat).reshape(K, G) * self.xs
                + np.repeat(q.ravel(), counts_flat).reshape(K, G))
        res = fhat - self.ys
        wres = self.w * res
        return np.sum(wres * res, axis=1)

    def loss_and_grads(self, p: np.ndarray, v: np.ndarray, ml: np.ndarray,
                       mr: np.ndarray
                       ) -> Tuple[np.ndarray, LaneGridGradients]:
        """Per-lane loss and gradients — THE gradient kernel.

        :meth:`GridLoss.loss_and_grads` is this very code run on one
        lane, so scalar and lane-batched fits agree bit for bit by
        construction.  The hot loop is dispatch-bound at sweep sizes, so
        the kernel fuses aggressively:

        * one stacked ``repeat`` expands all seven per-region tables to
          per-point arrays (regions are contiguous grid spans);
        * the six per-point weight arrays are written into one block
          with a zero *sentinel column* per lane, and a single
          ``np.add.reduceat`` computes every (plane, lane, region)
          reduction — segment boundaries never cross a lane, and each
          segment's pairwise summation tree depends only on its length,
          so lane results equal the one-lane (scalar) results bitwise.
          Empty regions (reduceat would return the next segment's first
          element) are zeroed via the region counts.
        """
        xs, ys, w = self.xs, self.ys, self.w
        K, G = self.K, self.G
        n = p.shape[1]
        ws = self._scratch(n)

        counts = self._expansion(p, ws)
        T = _region_block(p, v, ml, mr, ws)

        # One expansion for all region tables: (6, K, n+1) -> (6, K, G).
        repeats = ws["repeats"]
        repeats[:] = counts.ravel()
        mg, plg, vlg, dxg, stg, innerg = np.repeat(
            T.ravel(), repeats.ravel()).reshape(6, K, G)

        # Forward pass through each region's carrying point:
        # fhat = v_l + m * (x - p_l).  Dead expansion planes double as
        # buffers.
        xmpl = np.subtract(xs, plg, out=plg)
        fhat = np.multiply(mg, xmpl, out=mg)
        np.add(fhat, vlg, out=fhat)
        res = np.subtract(fhat, ys, out=fhat)
        wres = np.multiply(w, res, out=vlg)
        loss = np.sum(wres * res, axis=1)

        # Per-point weights in one (6, K, G+1) block; the last column of
        # every lane is the zero sentinel closing its final segment.
        # Plane 3 carries +git*xmpl (the true weight is its negation —
        # the assembly below subtracts, which is exact).
        W = ws["W"]
        Wv = W[:, :, :G]
        g = np.multiply(2.0, wres, out=Wv[4])
        xmpr = np.subtract(xmpl, dxg, out=Wv[2])  # x - p_r, up to padding
        t = np.divide(xmpl, dxg, out=dxg)
        gi = np.multiply(g, innerg, out=innerg)
        w_vr = np.multiply(gi, t, out=Wv[1])
        np.subtract(gi, w_vr, out=Wv[0])
        git = np.multiply(gi, stg, out=stg)
        np.multiply(git, xmpr, out=Wv[2])
        np.multiply(git, xmpl, out=Wv[3])
        np.multiply(g, xmpl, out=Wv[5])

        starts = ws["starts"]
        starts[:, 0] = 0
        np.cumsum(counts[:, :-1], axis=1, out=starts[:, 1:])
        starts += ws["row0"]
        s = np.add.reduceat(W.reshape(6, K * (G + 1)), starts.ravel(),
                            axis=1).reshape(6, K, n + 1)
        empty = counts == 0
        if empty.any():
            s[:, empty] = 0.0
        s_vl, s_vr, s_pl, s_pr, s_g, s_gx = s

        gv = s_vl[:, 1:] + s_vr[:, :-1]
        gp = s_pl[:, 1:] - s_pr[:, :-1]  # plane 3 is the negated weight
        sl, sr = s_g[:, 0], s_g[:, n]
        gml, gmr = s_gx[:, 0], s_gx[:, n]
        gp[:, 0] += -ml * sl
        gv[:, 0] += sl
        gp[:, -1] += -mr * sr
        gv[:, -1] += sr

        return loss, LaneGridGradients(d_breakpoints=gp, d_values=gv,
                                       d_left_slope=gml, d_right_slope=gmr)


def _region_block(p: np.ndarray, v: np.ndarray, ml: np.ndarray,
                  mr: np.ndarray, ws: Dict) -> np.ndarray:
    """Fill the scratch ``(6, K, n+1)`` per-region block.

    Planes are ``[m, pl, vl, dx, st, inner]``: the region slope, the
    region's carrying point (the left neighbour breakpoint, clipped to
    the edge breakpoint on the edge regions — every region's line passes
    through it, so no intercept table is needed), the span (padded to 1
    on the edge regions so the per-point divisions stay finite — edge
    contributions are zeroed through ``inner`` before accumulation),
    the slope term of the breakpoint gradient, and the inner-region
    indicator.
    """
    n = p.shape[1]
    T = ws["T"]
    m, pl, vl, dx, st, inner = T
    pr, vr = ws["gather"]
    np.take(p, ws["il"], axis=1, out=pl)
    np.take(p, ws["ir"], axis=1, out=pr)
    np.take(v, ws["il"], axis=1, out=vl)
    np.take(v, ws["ir"], axis=1, out=vr)
    dv = np.subtract(vr, vl, out=vr)
    np.subtract(pr, pl, out=dx)              # raw span (0 on the edges)

    m[:, 0] = ml
    m[:, n] = mr
    np.divide(dv[:, 1:n], np.maximum(dx[:, 1:n], 1e-12), out=m[:, 1:n])

    np.add(dx, ws["outer"], out=dx)
    np.multiply(dx, dx, out=st)
    np.divide(dv, st, out=st)
    inner[:] = ws["inner"]
    return T


def _lane_coefficients(p: np.ndarray, v: np.ndarray, ml: np.ndarray,
                       mr: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Batched :func:`_coefficients`: (K, n) params -> (K, n+1) regions."""
    K, n = p.shape
    m = np.empty((K, n + 1), dtype=np.float64)
    q = np.empty((K, n + 1), dtype=np.float64)
    m[:, 0] = ml
    q[:, 0] = v[:, 0] - ml * p[:, 0]
    if n > 1:
        dp = np.maximum(np.diff(p, axis=1), 1e-12)
        inner = np.diff(v, axis=1) / dp
        m[:, 1:n] = inner
        q[:, 1:n] = v[:, :-1] - inner * p[:, :-1]
    m[:, n] = mr
    q[:, n] = v[:, -1] - mr * p[:, -1]
    return m, q


def _coefficients(p: np.ndarray, v: np.ndarray, ml: float, mr: float
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Per-region (m, q) for raw arrays (mirrors PiecewiseLinear.coefficients)."""
    n = p.size
    m = np.empty(n + 1, dtype=np.float64)
    q = np.empty(n + 1, dtype=np.float64)
    m[0] = ml
    q[0] = v[0] - ml * p[0]
    if n > 1:
        # Guard against transiently-coincident breakpoints mid-descent:
        # an infinite slope would poison the whole gradient pass.
        dp = np.maximum(np.diff(p), 1e-12)
        inner = np.diff(v) / dp
        m[1:n] = inner
        q[1:n] = v[:-1] - inner * p[:-1]
    m[n] = mr
    q[n] = v[-1] - mr * p[-1]
    return m, q


def _eval_arrays(p: np.ndarray, v: np.ndarray, ml: float, mr: float,
                 xs: np.ndarray) -> np.ndarray:
    """Evaluate the PWL given as raw arrays (no validation)."""
    m, q = _coefficients(np.asarray(p, dtype=np.float64),
                         np.asarray(v, dtype=np.float64), ml, mr)
    r = np.searchsorted(p, xs, side="right")
    return m[r] * xs + q[r]


# --------------------------------------------------------------------- #
# High-accuracy quadrature (reporting + heuristics)
# --------------------------------------------------------------------- #
def _region_edges(pwl: PiecewiseLinear, a: float, b: float) -> np.ndarray:
    """Breakpoints clipped to [a, b] with the interval ends added."""
    inner = pwl.breakpoints[(pwl.breakpoints > a) & (pwl.breakpoints < b)]
    return np.concatenate(([a], inner, [b]))


def quadrature_mse(pwl: PiecewiseLinear, fn: TargetFn, a: float, b: float,
                   n_nodes: int = 48) -> float:
    """Gauss–Legendre MSE of ``pwl`` vs ``fn`` over ``[a, b]``.

    Integrates each linear region separately so the integrand is smooth on
    every sub-interval; 48 nodes per region is far beyond float64 needs.
    """
    edges = _region_edges(pwl, a, b)
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    lo = edges[:-1][:, None]
    hi = edges[1:][:, None]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    xs = mid + half * nodes[None, :]
    res = pwl(xs.ravel()) - np.asarray(fn(xs.ravel()), dtype=np.float64)
    res = res.reshape(xs.shape)
    seg_integrals = np.sum(res * res * weights[None, :], axis=1) * half[:, 0]
    return float(np.sum(seg_integrals) / (b - a))


def quadrature_aae(pwl: PiecewiseLinear, fn: TargetFn, a: float, b: float,
                   n_nodes: int = 48) -> float:
    """Average absolute error over ``[a, b]`` (Table II's AAE metric)."""
    edges = _region_edges(pwl, a, b)
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    lo = edges[:-1][:, None]
    hi = edges[1:][:, None]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    xs = mid + half * nodes[None, :]
    res = np.abs(pwl(xs.ravel()) - np.asarray(fn(xs.ravel()), dtype=np.float64))
    res = res.reshape(xs.shape)
    seg_integrals = np.sum(res * weights[None, :], axis=1) * half[:, 0]
    return float(np.sum(seg_integrals) / (b - a))


def max_abs_error(pwl: PiecewiseLinear, fn: TargetFn, a: float, b: float,
                  n_coarse: int = 65537) -> float:
    """Maximum absolute error over ``[a, b]`` (Fig. 5's MAE metric).

    Dense sampling with one local refinement pass around the coarse
    maximum; the error curve is smooth within each region so this nails
    the peak to ~1e-10 of the interval width.
    """
    xs = np.linspace(a, b, n_coarse)
    err = np.abs(pwl(xs) - np.asarray(fn(xs), dtype=np.float64))
    k = int(np.argmax(err))
    lo = xs[max(k - 1, 0)]
    hi = xs[min(k + 1, n_coarse - 1)]
    fine = np.linspace(lo, hi, 4097)
    err_fine = np.abs(pwl(fine) - np.asarray(fn(fine), dtype=np.float64))
    return float(max(err.max(), err_fine.max()))


def segment_sq_integrals(pwl: PiecewiseLinear, fn: TargetFn,
                         n_nodes: int = 32) -> np.ndarray:
    """Exact insertion losses: ``integral (f_hat-f)^2`` per inner segment."""
    p = pwl.breakpoints
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    lo = p[:-1][:, None]
    hi = p[1:][:, None]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    xs = mid + half * nodes[None, :]
    res = pwl(xs.ravel()) - np.asarray(fn(xs.ravel()), dtype=np.float64)
    res = res.reshape(xs.shape)
    return np.sum(res * res * weights[None, :], axis=1) * half[:, 0]
