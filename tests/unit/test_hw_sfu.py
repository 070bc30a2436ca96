"""Unit tests for the top-level Flex-SFU unit (LTC, MADD, timing)."""

import numpy as np
import pytest

from repro.core import FlexSfuFitter
from repro.core.tables import build_tables
from repro.errors import HardwareError
from repro.hw.dtypes import FP16_T, FP32_T, HwDataType, fixed_for_range
from repro.hw.isa import ISSUE_CYCLES
from repro.hw.ltc import LookupTableCluster
from repro.hw.madd import MaddUnit
from repro.hw.sfu import FlexSfuUnit


@pytest.fixture(scope="module")
def gelu_tables_fp16():
    from repro.functions import GELU
    from repro.core.fit import FitConfig
    cfg = FitConfig(n_breakpoints=7, max_steps=150, refine_steps=50,
                    max_refine_rounds=1, polish_maxiter=150, grid_points=1024)
    fit = FlexSfuFitter(cfg).fit(GELU)
    return build_tables(fit.pwl, FP16_T.fmt)


class TestLtc:
    def test_load_and_read(self, rng):
        ltc = LookupTableCluster(8, FP16_T)
        m = FP16_T.encode(rng.normal(0, 1, size=8))
        q = FP16_T.encode(rng.normal(0, 1, size=8))
        assert ltc.load_coefficients(m, q) == 8
        addrs = rng.integers(0, 8, size=20)
        got_m, got_q = ltc.read(addrs)
        assert np.array_equal(got_m, m[addrs].astype(np.uint64) & 0xFFFF)
        assert np.array_equal(got_q, q[addrs].astype(np.uint64) & 0xFFFF)

    def test_read_before_load(self):
        ltc = LookupTableCluster(4, FP16_T)
        with pytest.raises(HardwareError):
            ltc.read(np.array([0]))

    def test_size_mismatch(self):
        ltc = LookupTableCluster(4, FP16_T)
        with pytest.raises(HardwareError):
            ltc.load_coefficients(np.zeros(3, dtype=np.uint64),
                                  np.zeros(4, dtype=np.uint64))


class TestMadd:
    def test_exact_in_fp32(self, rng):
        madd = MaddUnit(FP32_T)
        x = FP32_T.quantize(rng.normal(0, 2, size=50))
        m = FP32_T.quantize(rng.normal(0, 1, size=50))
        q = FP32_T.quantize(rng.normal(0, 1, size=50))
        _, y = madd.compute(FP32_T.encode(x), FP32_T.encode(m), FP32_T.encode(q))
        assert np.array_equal(y, FP32_T.quantize(m * x + q))


class TestUnit:
    def test_matches_reference_eval(self, gelu_tables_fp16, rng):
        unit = FlexSfuUnit(FP16_T, gelu_tables_fp16.depth)
        unit.configure(gelu_tables_fp16)
        x = rng.uniform(-10, 10, size=1000)
        rep = unit.exe_af(x)
        assert np.array_equal(rep.outputs,
                              gelu_tables_fp16.reference_eval(x))

    def test_fixed_point_matches_reference(self, gelu_tables_fp16, rng):
        dt = fixed_for_range(16, -8, 8)
        from repro.functions import GELU
        from repro.core.fit import FitConfig, FlexSfuFitter
        cfg = FitConfig(n_breakpoints=7, max_steps=100, refine_steps=40,
                        max_refine_rounds=1, polish_maxiter=100,
                        grid_points=1024)
        pwl = FlexSfuFitter(cfg).fit(GELU).pwl
        tables = build_tables(pwl, dt.fmt)
        unit = FlexSfuUnit(dt, tables.depth)
        unit.configure(tables)
        x = rng.uniform(-8, 8, size=500)
        rep = unit.exe_af(x)
        assert np.array_equal(rep.outputs, tables.reference_eval(x))

    def test_latency_table_i(self):
        for depth, want in [(4, 7), (8, 8), (16, 9), (32, 10), (64, 11)]:
            unit = FlexSfuUnit(FP16_T, depth)
            assert unit.latency_cycles == want

    def test_throughput_by_width(self):
        assert FlexSfuUnit(HwDataType.fixed(8, 4), 8).elements_per_cycle == 4
        assert FlexSfuUnit(FP16_T, 8).elements_per_cycle == 2
        assert FlexSfuUnit(FP32_T, 8).elements_per_cycle == 1
        assert FlexSfuUnit(FP32_T, 8, n_clusters=2).elements_per_cycle == 2

    def test_steady_state_gact(self):
        assert FlexSfuUnit(HwDataType.fixed(8, 4), 8).steady_state_gact_s == 2.4
        assert FlexSfuUnit(FP32_T, 8).steady_state_gact_s == pytest.approx(0.6)

    def test_exe_cycle_model(self, gelu_tables_fp16):
        unit = FlexSfuUnit(FP16_T, gelu_tables_fp16.depth)
        unit.configure(gelu_tables_fp16)
        rep = unit.exe_af(np.zeros(100))
        beats = int(np.ceil(100 / 2))
        assert rep.cycles == ISSUE_CYCLES + unit.latency_cycles + beats - 1

    def test_exe_before_configure(self):
        unit = FlexSfuUnit(FP16_T, 8)
        with pytest.raises(HardwareError):
            unit.exe_af(np.zeros(4))

    def test_table_mismatch_rejected(self, gelu_tables_fp16):
        unit = FlexSfuUnit(FP16_T, gelu_tables_fp16.depth * 2)
        with pytest.raises(HardwareError):
            unit.configure(gelu_tables_fp16)
        unit32 = FlexSfuUnit(FP32_T, gelu_tables_fp16.depth)
        with pytest.raises(HardwareError):
            unit32.configure(gelu_tables_fp16)

    def test_run_includes_load_cycles(self, gelu_tables_fp16):
        unit = FlexSfuUnit(FP16_T, gelu_tables_fp16.depth)
        rep = unit.run(gelu_tables_fp16, np.zeros(10))
        unit2 = FlexSfuUnit(FP16_T, gelu_tables_fp16.depth)
        load = unit2.configure(gelu_tables_fp16)
        exe = unit2.exe_af(np.zeros(10))
        assert rep.cycles == load + exe.cycles

    def test_invalid_config(self):
        with pytest.raises(HardwareError):
            FlexSfuUnit(FP16_T, 12)
        with pytest.raises(HardwareError):
            FlexSfuUnit(FP16_T, 8, n_clusters=0)
