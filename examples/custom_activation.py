#!/usr/bin/env python3
"""Approximate a *user-defined* activation and run it on the hardware model.

Flex-SFU is reprogrammable: any function with (near-)linear tails can be
loaded.  This example registers a custom activation (softsign-swish
hybrid), fits PWLs at several budgets, quantises the best one to fp16
tables and streams a tensor through the bit-level Flex-SFU unit.

    python examples/custom_activation.py
"""

import numpy as np

from repro import FitConfig, FlexSfuFitter, build_tables, evaluate
from repro.functions import make_custom
from repro.hw import FP16_T, FlexSfuUnit


def main() -> None:
    # A made-up activation: x * (0.5 + 0.5 * x / (1 + |x|)).
    # Asymptotes (detected automatically): y -> 0 on the left, y -> x on
    # the right — same family as SiLU/GELU, so the boundary conditions
    # of Section IV apply cleanly.
    act = make_custom(
        "softswish",
        lambda x: x * (0.5 + 0.5 * x / (1.0 + np.abs(x))),
    )
    print(f"registered {act.name!r}")
    print(f"  detected left asymptote:  {act.left_asymptote}")
    print(f"  detected right asymptote: {act.right_asymptote}")

    # Budget sweep, as in Fig. 5.
    print("\n  #BP      MSE          MAE")
    best = None
    for n in (4, 8, 16, 32):
        result = FlexSfuFitter(FitConfig(n_breakpoints=n)).fit(act)
        m = evaluate(result.pwl, act)
        print(f"  {n:3d}   {m.mse:.3e}   {m.mae:.3e}")
        best = result.pwl

    # Lower to fp16 hardware tables and execute on the unit.
    tables = build_tables(best, FP16_T.fmt)
    unit = FlexSfuUnit(FP16_T, tables.depth)
    load_cycles = unit.configure(tables)
    x = np.linspace(-6, 6, 2048)
    report = unit.exe_af(x)
    err = np.max(np.abs(report.outputs - act(x)))
    print(f"\nhardware run: depth={tables.depth}, "
          f"table load={load_cycles} cycles, "
          f"exe={report.cycles} cycles for {report.elements} elements "
          f"({report.throughput_elements_per_cycle():.2f} elem/cycle)")
    print(f"max |hw - exact| on [-6, 6]: {err:.4f} "
          f"(PWL error + fp16 quantisation)")


if __name__ == "__main__":
    main()
