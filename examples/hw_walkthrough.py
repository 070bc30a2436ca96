#!/usr/bin/env python3
"""Hardware walkthrough: formats, ISA, timing, area and power.

Tours the Flex-SFU hardware model: one sigmoid table set in three operand
formats, the custom instructions that program the unit, the Fig. 4
throughput behaviour and the Table I area/power characterization.

    python examples/hw_walkthrough.py
"""

import numpy as np

from repro import FitConfig, FlexSfuFitter, build_tables
from repro.functions import SIGMOID
from repro.hw import (
    AREA_MODEL,
    FP16_T,
    FP32_T,
    FlexSfuUnit,
    HwDataType,
    Instruction,
    OP_EXE_AF,
    OP_LD_BP,
    OP_LD_CF,
    dtype_code_for,
    encode_instruction,
    steady_state_gact_s,
    throughput_gact_s,
)


def main() -> None:
    pwl = FlexSfuFitter(FitConfig(n_breakpoints=15)).fit(SIGMOID).pwl

    # --- one function, three operand formats -------------------------- #
    print("sigmoid, 15 breakpoints, executed per format:")
    x = np.linspace(-10, 10, 4096)
    for dtype in (HwDataType.fixed(8, 4), FP16_T, FP32_T):
        tables = build_tables(pwl, dtype.fmt)
        unit = FlexSfuUnit(dtype, tables.depth)
        unit.configure(tables)
        rep = unit.exe_af(x)
        err = np.max(np.abs(rep.outputs - SIGMOID(x)))
        print(f"  {dtype.name:8s} {dtype.bits:2d}-bit  "
              f"{unit.elements_per_cycle} elem/cycle  "
              f"max err {err:.2e}  ({rep.cycles} cycles)")

    # --- the three custom instructions -------------------------------- #
    tables = build_tables(pwl, FP16_T.fmt)
    depth_log2 = tables.depth.bit_length() - 1
    code = dtype_code_for(FP16_T.name, FP16_T.bits)
    print("\ninstruction stream programming the unit:")
    for op, count in ((OP_LD_BP, tables.depth - 1),
                      (OP_LD_CF, tables.depth),
                      (OP_EXE_AF, 4096)):
        instr = Instruction(op, code, depth_log2, count)
        print(f"  {str(instr):46s} -> 0x{int(encode_instruction(instr)):08x}")

    # --- Fig. 4 behaviour ---------------------------------------------- #
    print("\nthroughput vs tensor size (fp16, depth 16, incl. table loads):")
    for words in (8, 64, 256, 2048, 8192):
        thr = throughput_gact_s(words, 16, 16)
        print(f"  {words:5d} words: {thr:.2f} GAct/s")
    print("  steady state:", ", ".join(
        f"{b}-bit {steady_state_gact_s(b):.1f} GAct/s" for b in (8, 16, 32)))

    # --- Table I characterization -------------------------------------- #
    print("\narea / power model (28 nm, 600 MHz, Nc=1):")
    for depth in (4, 8, 16, 32, 64):
        split = AREA_MODEL.area_breakdown(depth)
        print(f"  depth {depth:2d}: {split['total_um2']:8.0f} um^2 "
              f"(ADU {split['adu_pct']:.0f}%, LTC {split['ltc_pct']:.0f}%), "
              f"{AREA_MODEL.power_mw(depth):.2f} mW")
    print(f"\nAra integration (4 lanes, Nc=2, depth 32): "
          f"{AREA_MODEL.vpu_area_share(32) * 100:.1f}% area, "
          f"{AREA_MODEL.vpu_power_share(32) * 100:.2f}% power")


if __name__ == "__main__":
    main()
