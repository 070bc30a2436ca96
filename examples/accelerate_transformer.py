#!/usr/bin/env python3
"""End-to-end: rewrite a transformer's activations and serve it compiled.

Mirrors the paper's deployment flow on one model, behind the one front
door: build a small vision transformer, use ``Session.compile`` to swap
every GELU and attention softmax for fitted PWLs (the ONNX-rewrite
equivalent) and bake them into a compiled :class:`Program`, check the
numerical impact on real outputs, and estimate the end-to-end speedup —
from the *static* compile-time profile, no profiling forward pass.

    python examples/accelerate_transformer.py
"""

import time

import numpy as np

from repro.api import Session
from repro.perf import AcceleratorConfig, model_cycles, model_speedup, program_to_record
from repro.zoo import build_vit


def main() -> None:
    vit = build_vit(act="gelu", scale=1.0, seed=0)
    x = np.random.default_rng(0).normal(size=(8, 3, 16, 16))
    out_name = vit.outputs[0]

    with Session() as session:
        exact_program = session.compile(vit, batch_size=8)
        profile = exact_program.profile   # static: priced at compile time
        print(f"model: {vit.name}  ({len(vit.nodes)} nodes, "
              f"{exact_program.n_slots} arena slots)")
        print(f"  MACs/inference:            {profile.total_macs:,}")
        print(f"  activation elements:       {profile.total_act_elements:,} "
              f"({profile.act_elements_by_fn()})")

        exact_out = exact_program.run({"x": x})[out_name]

        # Rewrite + compile at increasing precision; every budget's fits
        # run through this session (cache, engines, warm starts).
        print("\nbudget sweep (relative feature perturbation):")
        for n_bp in (4, 8, 16, 32):
            program = session.compile(vit, batch_size=8, n_breakpoints=n_bp)
            approx_out = program.run({"x": x})[out_name]
            rel = (np.linalg.norm(approx_out - exact_out)
                   / np.linalg.norm(exact_out))
            print(f"  {n_bp:3d} breakpoints: {program.n_pwl_kernels} PWL "
                  f"kernels baked, |delta|/|f| = {rel:.2e}")

        # Serve repeated single-sample requests through the compiled
        # plan — run_many fuses them into stacked batches.
        program = session.compile(vit, batch_size=1, n_breakpoints=16)
        requests = [{"x": x[i:i + 1]} for i in range(len(x))]
        t0 = time.perf_counter()
        outs = program.run_many(requests)
        dt = time.perf_counter() - t0
        print(f"\nserved {len(outs)} stacked requests in {dt * 1e3:.1f} ms "
              f"({dt * 1e3 / len(outs):.2f} ms/request)")

    # Performance under the Ascend-like cost model (static profile).
    cfg = AcceleratorConfig()
    record = program_to_record(exact_program, name="vit_demo", family="vit")
    base = model_cycles(record, cfg, use_flexsfu=False)
    flex = model_cycles(record, cfg, use_flexsfu=True)
    print(f"\ncost model ({cfg.name}):")
    print(f"  baseline:  {base.total:,.0f} cycles "
          f"({base.act_share * 100:.1f}% in activations)")
    print(f"  flex-sfu:  {flex.total:,.0f} cycles "
          f"({flex.act_share * 100:.1f}% in activations)")
    print(f"  end-to-end speedup: {model_speedup(record, cfg):.2f}x")


if __name__ == "__main__":
    main()
