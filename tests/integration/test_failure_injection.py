"""Failure injection: the stack must fail loudly, not silently.

Exercises corrupted tables, mismatched configurations and hostile inputs
across module boundaries.
"""

import numpy as np
import pytest

from repro.core import build_tables
from repro.core.fit import FitConfig, FlexSfuFitter
from repro.core.pwl import PiecewiseLinear
from repro.errors import FitError, GraphError, HardwareError
from repro.functions import TANH, make_custom
from repro.graph.builder import GraphBuilder
from repro.graph.program import compile_graph
from repro.hw import FP16_T, FP32_T, FlexSfuUnit


@pytest.fixture(scope="module")
def tanh_pwl():
    cfg = FitConfig(n_breakpoints=7, max_steps=100, refine_steps=30,
                    max_refine_rounds=1, polish_maxiter=100, grid_points=512)
    return FlexSfuFitter(cfg).fit(TANH).pwl


class TestHardwareMisuse:
    def test_unit_rejects_foreign_tables(self, tanh_pwl):
        t16 = build_tables(tanh_pwl, FP16_T.fmt)
        unit = FlexSfuUnit(FP32_T, t16.depth)
        with pytest.raises(HardwareError):
            unit.configure(t16)

    def test_partial_configuration_rejected(self, tanh_pwl):
        tables = build_tables(tanh_pwl, FP16_T.fmt)
        unit = FlexSfuUnit(FP16_T, tables.depth)
        unit.ld_bp(tables)  # breakpoints only, no coefficients
        with pytest.raises(HardwareError):
            unit.exe_af(np.zeros(4))

    def test_nan_inputs_do_not_crash_the_unit(self, tanh_pwl):
        tables = build_tables(tanh_pwl, FP16_T.fmt)
        unit = FlexSfuUnit(FP16_T, tables.depth)
        unit.configure(tables)
        out = unit.exe_af(np.array([np.nan, 1.0, -np.inf])).outputs
        assert out.shape == (3,)
        assert np.isfinite(out[1])

    def test_empty_tensor(self, tanh_pwl):
        tables = build_tables(tanh_pwl, FP16_T.fmt)
        unit = FlexSfuUnit(FP16_T, tables.depth)
        unit.configure(tables)
        rep = unit.exe_af(np.array([]))
        assert rep.elements == 0


class TestFitterHostileFunctions:
    def test_constant_function_fits(self):
        const = make_custom("const_fn", lambda x: np.full_like(x, 2.5))
        cfg = FitConfig(n_breakpoints=4, max_steps=50, refine_steps=20,
                        max_refine_rounds=1, polish_maxiter=50,
                        grid_points=256)
        res = FlexSfuFitter(cfg).fit(const)
        assert res.grid_mse < 1e-10

    def test_steep_function_fits_without_nan(self):
        steep = make_custom("steep_fn", lambda x: np.tanh(50.0 * x))
        cfg = FitConfig(n_breakpoints=8, max_steps=150, refine_steps=50,
                        max_refine_rounds=2, polish_maxiter=150,
                        grid_points=2048)
        res = FlexSfuFitter(cfg).fit(steep)
        assert np.isfinite(res.grid_mse)
        assert np.all(np.isfinite(res.pwl.values))

    def test_tiny_interval(self):
        cfg = FitConfig(n_breakpoints=4, interval=(0.0, 1e-3), max_steps=50,
                        refine_steps=20, max_refine_rounds=1,
                        polish_maxiter=50, grid_points=256)
        res = FlexSfuFitter(cfg).fit(TANH)
        assert np.isfinite(res.grid_mse)

    def test_nonfinite_function_rejected(self):
        bad = make_custom("bad_fn", lambda x: np.where(x > 0, np.inf, 0.0))
        cfg = FitConfig(n_breakpoints=4, grid_points=256)
        with pytest.raises(FitError):
            FlexSfuFitter(cfg).fit(bad)


class TestGraphMisuse:
    def test_executor_rejects_missing_initializer(self):
        g = GraphBuilder("t").graph
        from repro.graph.ir import Node

        g.inputs.append(("x", (0, 2)))
        g.add_node(Node("linear", ["x", "w_missing"], ["y"]))
        g.outputs.append("y")
        with pytest.raises(GraphError):
            compile_graph(g)

    def test_pwl_single_value_tables_roundtrip(self):
        # Degenerate but legal: 2 breakpoints, flat function.
        pwl = PiecewiseLinear.create(np.array([0.0, 1.0]),
                                     np.array([0.5, 0.5]), 0.0, 0.0)
        tables = build_tables(pwl, FP16_T.fmt)
        unit = FlexSfuUnit(FP16_T, tables.depth)
        unit.configure(tables)
        out = unit.exe_af(np.linspace(-5, 5, 64)).outputs
        assert np.allclose(out, 0.5)
