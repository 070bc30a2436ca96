"""Entry points regenerating every table and figure of the paper.

Each ``run_*`` function returns a structured result object; the
benchmarks print them with :mod:`repro.eval.reporting` and assert the
paper's shape claims.  Expensive artifacts (PWL fits, the catalog, the
trained mini-zoo) are cached per process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.metrics import evaluate
from ..core.uniform import uniform_pwl
from ..functions import registry as fn_registry
from ..graph.passes import make_pwl_approximators, native_pwl, pwl_for
from ..hw.area import (
    AREA_MODEL,
    TABLE_I_ADU_PCT,
    TABLE_I_DEPTHS,
    TABLE_I_LATENCY,
    TABLE_I_LTC_PCT,
    TABLE_I_POWER_MW,
    TABLE_I_TOTAL_UM2,
    ARA_AREA_SHARES,
)
from ..hw.perfmodel import (
    ThroughputPoint,
    figure4_sweep,
    latency_cycles,
    saturation_size,
    steady_state_gact_s,
)
from ..numerics.floatformat import FP16
from ..perf.accelerator import AcceleratorConfig
from ..perf.endtoend import ZooEvaluation, evaluate_zoo
from ..zoo.catalog import ModelRecord, activation_share_by_year, build_catalog
from ..zoo.minizoo import ZooMember, build_mini_zoo, zoo_activation_names
from ..zoo.train import AccuracyDropResult, accuracy_drop
from . import reference as ref

# ----------------------------------------------------------------------- #
# Shared caches
# ----------------------------------------------------------------------- #
_CATALOG: Optional[List[ModelRecord]] = None
_MINI_ZOO: Dict[Tuple, List[ZooMember]] = {}
_SESSION = None


def fit_session():
    """The experiments' shared :class:`~repro.api.Session` (auto engine).

    Resolution is dynamic per batch: a heartbeating ``repro serve``
    daemon wins (one shared fitter and cache for every client), else
    the local pool / lane engines.

    Only the *batched prefits* run here; the per-key ``pwl_for`` reads
    below stay on the pass-level cold inline session so that a figure
    regenerated against an empty cache fits deterministically (no
    warm seeding from whatever neighbouring entries happen to exist).
    """
    from ..api import Session

    global _SESSION
    if _SESSION is None:
        _SESSION = Session()
    return _SESSION


def catalog() -> List[ModelRecord]:
    """The 778-record catalog (built once per process)."""
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = build_catalog()
    return _CATALOG


def mini_zoo(seeds: Sequence[int] = (0,)) -> List[ZooMember]:
    """The trained accuracy zoo (built once per seed set)."""
    key = tuple(seeds)
    if key not in _MINI_ZOO:
        _MINI_ZOO[key] = build_mini_zoo(seeds=seeds)
    return _MINI_ZOO[key]


def prefit(specs: Sequence[Tuple]) -> None:
    """Seed the persistent fit cache for many configurations at once.

    ``specs`` holds ``(function_name, n_breakpoints, interval, boundary)``
    tuples (interval/boundary may be None for the defaults).  Jobs whose
    function is exactly PWL-representable at the budget are skipped —
    the Session short-circuits those without fitting.  The rest run
    through :func:`fit_session` (engine ``auto``): when a ``repro
    serve`` daemon is heartbeating they share its pool, grids and
    cache; otherwise they run on the local pool / lane engines against
    the same cache.  Either way the sweeps below become pure cache
    reads afterwards.
    """
    from ..api import FitRequest

    requests: List[FitRequest] = []
    for name, n_bp, interval, boundary in specs:
        fn = fn_registry.get(name)
        native = native_pwl(fn)
        if native is not None and native.n_breakpoints <= n_bp:
            continue
        requests.append(FitRequest.create(fn, n_bp, interval=interval,
                                          boundary=boundary))
    if requests:
        fit_session().fit(requests)


# ----------------------------------------------------------------------- #
# Figure 1 — activation distribution by year
# ----------------------------------------------------------------------- #
@dataclass
class Fig1Result:
    """Activation share per year plus the paper's anchor points."""

    shares: Dict[int, Dict[str, float]]
    relu_2021: float
    silu_gelu_2021: float
    silu_gelu_2020: float
    paper_relu_2021: float = ref.FIG1_RELU_2021
    paper_silu_gelu_2021: float = ref.FIG1_SILU_GELU_2021
    paper_silu_gelu_2020: float = ref.FIG1_SILU_GELU_2020


def run_figure1() -> Fig1Result:
    """Regenerate Fig. 1 from the synthetic catalog."""
    shares = activation_share_by_year(catalog())
    s21 = shares.get(2021, {})
    s20 = shares.get(2020, {})
    return Fig1Result(
        shares=shares,
        relu_2021=s21.get("relu", 0.0),
        silu_gelu_2021=s21.get("silu", 0.0) + s21.get("gelu", 0.0),
        silu_gelu_2020=s20.get("silu", 0.0) + s20.get("gelu", 0.0),
    )


# ----------------------------------------------------------------------- #
# Figure 2 — GELU uniform vs non-uniform, 5 breakpoints on [-2, 2]
# ----------------------------------------------------------------------- #
@dataclass
class Fig2Result:
    """Uniform vs Flex-SFU MSE under both boundary treatments."""

    mse_uniform: float
    mse_flexsfu: float
    improvement: float
    mse_uniform_free: float
    mse_flexsfu_free: float
    improvement_free: float
    paper_improvement: float = ref.FIG2_IMPROVEMENT


def run_figure2() -> Fig2Result:
    """Regenerate the Fig. 2 demo experiment."""
    gelu = fn_registry.get("gelu")
    interval = (-2.0, 2.0)
    from ..core.loss import quadrature_mse

    uni = uniform_pwl(gelu, 5, interval=interval)
    flex = pwl_for(gelu, 5, interval=interval)
    mse_u = quadrature_mse(uni, gelu, *interval)
    mse_f = quadrature_mse(flex, gelu, *interval)

    uni_fr = uniform_pwl(gelu, 5, interval=interval,
                         boundary_left="free", boundary_right="free")
    flex_fr = pwl_for(gelu, 5, interval=interval,
                      boundary=("free", "free"))
    mse_uf = quadrature_mse(uni_fr, gelu, *interval)
    mse_ff = quadrature_mse(flex_fr, gelu, *interval)
    return Fig2Result(
        mse_uniform=mse_u, mse_flexsfu=mse_f, improvement=mse_u / mse_f,
        mse_uniform_free=mse_uf, mse_flexsfu_free=mse_ff,
        improvement_free=mse_uf / mse_ff,
    )


# ----------------------------------------------------------------------- #
# Figure 4 — throughput sweep
# ----------------------------------------------------------------------- #
@dataclass
class Fig4Result:
    """The throughput grid plus saturation statistics."""

    points: List[ThroughputPoint]
    steady_gact_s: Dict[int, float]
    saturation_words: Dict[Tuple[int, int], int]  # (bits, depth) -> words
    paper_steady: Dict[int, float] = field(
        default_factory=lambda: dict(ref.FIG4_STEADY_GACT_S))


def run_figure4() -> Fig4Result:
    """Regenerate the Fig. 4 sweep (closed-form cycle model)."""
    points = figure4_sweep()
    steady = {bits: steady_state_gact_s(bits) for bits in (8, 16, 32)}
    saturation = {(bits, depth): saturation_size(bits, depth)
                  for bits in (8, 16, 32) for depth in (4, 8, 16, 32, 64)}
    return Fig4Result(points=points, steady_gact_s=steady,
                      saturation_words=saturation)


# ----------------------------------------------------------------------- #
# Table I — characterization (model vs paper)
# ----------------------------------------------------------------------- #
@dataclass
class Tab1Row:
    """One depth column of Table I, model next to paper."""

    depth: int
    latency_model: int
    latency_paper: int
    power_model_mw: float
    power_paper_mw: float
    area_model_um2: float
    area_paper_um2: float
    adu_pct_model: float
    adu_pct_paper: float
    ltc_pct_model: float
    ltc_pct_paper: float


@dataclass
class Tab1Result:
    """Full characterization plus Ara integration shares."""

    rows: List[Tab1Row]
    ara_area_shares_model: Dict[int, float]
    ara_area_shares_paper: Dict[int, float]
    ara_power_shares_model: Dict[int, float]


def run_table1() -> Tab1Result:
    """Regenerate Table I from the calibrated models."""
    rows = []
    for i, depth in enumerate(TABLE_I_DEPTHS):
        split = AREA_MODEL.area_breakdown(depth)
        rows.append(Tab1Row(
            depth=depth,
            latency_model=latency_cycles(depth),
            latency_paper=TABLE_I_LATENCY[i],
            power_model_mw=AREA_MODEL.power_mw(depth),
            power_paper_mw=TABLE_I_POWER_MW[i],
            area_model_um2=split["total_um2"],
            area_paper_um2=TABLE_I_TOTAL_UM2[i],
            adu_pct_model=split["adu_pct"],
            adu_pct_paper=TABLE_I_ADU_PCT[i],
            ltc_pct_model=split["ltc_pct"],
            ltc_pct_paper=TABLE_I_LTC_PCT[i],
        ))
    return Tab1Result(
        rows=rows,
        ara_area_shares_model={d: AREA_MODEL.vpu_area_share(d)
                               for d in (8, 16, 32)},
        ara_area_shares_paper=dict(ARA_AREA_SHARES),
        ara_power_shares_model={d: AREA_MODEL.vpu_power_share(d)
                                for d in (8, 16, 32)},
    )


# ----------------------------------------------------------------------- #
# Figure 5 — error vs breakpoint budget
# ----------------------------------------------------------------------- #
@dataclass
class Fig5Point:
    """One (function, budget) point."""

    function: str
    n_breakpoints: int
    mse: float
    mae: float


@dataclass
class Fig5Result:
    """The full error sweep plus the paper's scaling statistics."""

    points: List[Fig5Point]
    mse_improvement_per_doubling: float   # geometric mean
    mae_improvement_per_doubling: float
    #: Paper: "all the interpolations featuring more than 16 breakpoints
    #: reach a MSE lower than 1 Float16 ULP" — i.e. every budget > 16.
    all_below_ulp_above_16bp: bool
    ulp_mse_line: float
    ulp_mae_line: float
    paper_mse_per_doubling: float = ref.FIG5_MSE_IMPROVEMENT_PER_DOUBLING
    paper_mae_per_doubling: float = ref.FIG5_MAE_IMPROVEMENT_PER_DOUBLING

    def series(self, function: str) -> List[Fig5Point]:
        """Points of one function, ordered by budget."""
        pts = [p for p in self.points if p.function == function]
        return sorted(pts, key=lambda p: p.n_breakpoints)


def run_figure5(functions: Sequence[str] = ref.FIG5_FUNCTIONS,
                budgets: Sequence[int] = ref.FIG5_BUDGETS) -> Fig5Result:
    """Regenerate the Fig. 5 sweep (fits land in the persistent cache)."""
    prefit([(name, n, None, None) for name in functions for n in budgets])
    points: List[Fig5Point] = []
    for name in functions:
        fn = fn_registry.get(name)
        for n in budgets:
            pwl = pwl_for(fn, n)
            m = evaluate(pwl, fn)
            points.append(Fig5Point(function=name, n_breakpoints=n,
                                    mse=m.mse, mae=m.mae))

    mse_ratios: List[float] = []
    mae_ratios: List[float] = []
    for name in functions:
        series = sorted((p for p in points if p.function == name),
                        key=lambda p: p.n_breakpoints)
        for prev, cur in zip(series, series[1:]):
            if cur.mse > 0 and prev.mse > 0:
                mse_ratios.append(prev.mse / cur.mse)
            if cur.mae > 0 and prev.mae > 0:
                mae_ratios.append(prev.mae / cur.mae)

    ulp = FP16.ulp_at_one()
    above16 = [p for p in points if p.n_breakpoints > 16]
    return Fig5Result(
        points=points,
        mse_improvement_per_doubling=float(np.exp(np.mean(np.log(mse_ratios)))),
        mae_improvement_per_doubling=float(np.exp(np.mean(np.log(mae_ratios)))),
        all_below_ulp_above_16bp=all(p.mse < ulp ** 2 for p in above16),
        ulp_mse_line=ulp ** 2,
        ulp_mae_line=ulp,
    )


# ----------------------------------------------------------------------- #
# Table II — comparison with prior PWL methods
# ----------------------------------------------------------------------- #
@dataclass
class Tab2Row:
    """One measured Table II row."""

    row: ref.TableIIRow
    measured_error: float            # at the listed breakpoint count
    measured_improvement: float      # ref_error / measured_error
    measured_error_equiv: Optional[float]        # at 2x for dagger rows
    measured_improvement_equiv: Optional[float]


@dataclass
class Tab2Result:
    """All rows plus the mean improvement (paper: 22.3x)."""

    rows: List[Tab2Row]
    mean_improvement: float
    mean_improvement_equiv: float    # dagger rows at 2x budget
    paper_mean_improvement: float = ref.TABLE_II_MEAN_IMPROVEMENT


def _table2_error(fn_name: str, interval: Tuple[float, float], n_bp: int,
                  metric: str, boundary: Tuple[str, str]) -> float:
    fn = fn_registry.get(fn_name)
    pwl = pwl_for(fn, n_bp, interval=interval, boundary=boundary)
    m = evaluate(pwl, fn, interval)
    return m.sq_aae if metric == ref.SQ_AAE else m.mse


def run_table2() -> Tab2Result:
    """Regenerate Table II against the published reference errors.

    Dagger rows (prior work halves its table via symmetry) are measured
    both at the listed budget and at the symmetric-equivalent double
    budget; the paper's own numbers for those rows are only reachable at
    the doubled budget (see EXPERIMENTS.md).
    """
    specs = []
    for spec in ref.TABLE_II_ROWS:
        specs.append((spec.function, spec.n_breakpoints, spec.interval,
                      spec.boundary))
        if spec.symmetric:
            specs.append((spec.function, 2 * spec.n_breakpoints,
                          spec.interval, spec.boundary))
    prefit(specs)
    rows: List[Tab2Row] = []
    for spec in ref.TABLE_II_ROWS:
        err = _table2_error(spec.function, spec.interval, spec.n_breakpoints,
                            spec.metric, spec.boundary)
        err2 = None
        impr2 = None
        if spec.symmetric:
            err2 = _table2_error(spec.function, spec.interval,
                                 2 * spec.n_breakpoints, spec.metric,
                                 spec.boundary)
            impr2 = spec.ref_error / err2
        rows.append(Tab2Row(row=spec, measured_error=err,
                            measured_improvement=spec.ref_error / err,
                            measured_error_equiv=err2,
                            measured_improvement_equiv=impr2))
    improvements = [r.measured_improvement for r in rows]
    improvements_eq = [r.measured_improvement_equiv
                       if r.measured_improvement_equiv is not None
                       else r.measured_improvement for r in rows]
    return Tab2Result(
        rows=rows,
        mean_improvement=float(np.mean(improvements)),
        mean_improvement_equiv=float(np.mean(improvements_eq)),
    )


# ----------------------------------------------------------------------- #
# Figure 6 — end-to-end zoo speedups
# ----------------------------------------------------------------------- #
@dataclass
class Fig6Result:
    """Zoo evaluation plus the paper's anchors."""

    evaluation: ZooEvaluation
    paper_mean_all: float = ref.FIG6_MEAN_GAIN_ALL
    paper_mean_complex: float = ref.FIG6_MEAN_GAIN_COMPLEX
    paper_peak: float = ref.FIG6_PEAK


def run_figure6(config: Optional[AcceleratorConfig] = None) -> Fig6Result:
    """Regenerate Fig. 6 over the statically-compiled catalog.

    Since the compiled-execution migration this is a pure compile-side
    pass: every catalog record's workload statistics come from
    :attr:`~repro.graph.program.Program.profile` (shapes inferred at
    compile time), so no model runs a forward pass anywhere in the
    Fig. 6 pipeline.
    """
    return Fig6Result(evaluation=evaluate_zoo(catalog(), config))


# ----------------------------------------------------------------------- #
# Table III — accuracy drops over the zoo
# ----------------------------------------------------------------------- #
@dataclass
class Tab3Row:
    """Measured counterpart of one Table III row."""

    n_breakpoints: int
    frac_below_0_1: float
    frac_below_0_2: float
    frac_below_0_5: float
    frac_below_1: float
    frac_below_2: float
    frac_above_2: float
    mean_drop: float   # negative = loss, paper sign convention
    max_drop: float


@dataclass
class Tab3Result:
    """Distribution rows plus per-activation sensitivity ranking."""

    rows: List[Tab3Row]
    results: List[AccuracyDropResult]
    sensitivity_by_activation: Dict[str, float]  # mean drop at smallest budget
    paper_rows: Tuple[ref.TableIIIRow, ...] = ref.TABLE_III_ROWS


def run_table3(budgets: Sequence[int] = (4, 8, 16, 32, 64),
               seeds: Sequence[int] = (0,)) -> Tab3Result:
    """Regenerate Table III over the trained mini-zoo."""
    members = mini_zoo(seeds)
    names = zoo_activation_names(members)
    # Batch-fit the whole budgets x activations grid up front ("softmax"
    # is served by an exp fit — see make_pwl_approximators).
    fit_names = ["exp" if n == "softmax" else n for n in names]
    prefit([(name, n_bp, None, None)
            for n_bp in budgets for name in sorted(set(fit_names))])
    rows: List[Tab3Row] = []
    all_results: List[AccuracyDropResult] = []
    for n_bp in budgets:
        approx = make_pwl_approximators(names, n_bp)
        drops: List[float] = []
        for member in members:
            res = accuracy_drop(member.model, member.dataset, approx, n_bp,
                                exact_accuracy=member.baseline_accuracy)
            all_results.append(res)
            drops.append(res.drop)
        d = np.asarray(drops)
        rows.append(Tab3Row(
            n_breakpoints=n_bp,
            frac_below_0_1=float(np.mean(d < 0.1)),
            frac_below_0_2=float(np.mean(d < 0.2)),
            frac_below_0_5=float(np.mean(d < 0.5)),
            frac_below_1=float(np.mean(d < 1.0)),
            frac_below_2=float(np.mean(d < 2.0)),
            frac_above_2=float(np.mean(d >= 2.0)),
            mean_drop=float(-np.mean(np.maximum(d, 0.0))),
            max_drop=float(-np.max(d)) if d.size else 0.0,
        ))

    smallest = min(budgets)
    sens: Dict[str, List[float]] = {}
    for res in all_results:
        if res.n_breakpoints == smallest:
            sens.setdefault(res.primary_activation, []).append(res.drop)
    sensitivity = {fn: float(np.mean(v)) for fn, v in sens.items()}
    return Tab3Result(rows=rows, results=all_results,
                      sensitivity_by_activation=sensitivity)
