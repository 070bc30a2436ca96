"""The repo's benchmark: three workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload fit-sweep|zoo-batch|serve-vit \
        --seed N --seconds S --trace 0|1

Runs one workload from the root of a checkout, checks every output,
and prints informational lines (machine and work fingerprints, counts,
the tail percentile used) followed by one JSON result line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``, ``--trace 1``
its per-layer metrics from a separate traced run.  README.md in this
directory explains the workloads and the layer-to-metric map.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import harness

WORKLOADS = ("fit-sweep", "zoo-batch", "serve-vit")


def _declared(trace: bool) -> dict:
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (harness.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {harness.SRC}; run from "
              f"the root of a full checkout", file=sys.stderr)
        return 2

    if args.workload == "fit-sweep":
        import fit_sweep as workload
    elif args.workload == "zoo-batch":
        import zoo_batch as workload
    else:
        import serve_vit as workload
    trace = bool(args.trace)
    shutil.rmtree(harness.BUILD / "runs", ignore_errors=True)
    try:
        report = workload.drive(args.seed, args.seconds, trace)
    finally:
        shutil.rmtree(harness.BUILD / "runs", ignore_errors=True)

    errors = list(report["errors"])
    mismatch = harness.check_fingerprint(args.workload, args.seed,
                                         report["work"])
    if mismatch:
        errors.append(mismatch)
    if harness.default_cache_entries():
        errors.append("a fit was written to the default cache")

    declared = _declared(trace)
    if trace:
        # A layer the workload never calls reports zero.
        values = {name: report["layers"].get(name, 0.0)
                  for name in declared}
    else:
        values = {"succeeded_frac": 1.0 - report["failed"]
                  / report["attempted"], **report["metrics"]}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared.items()}

    print("machine", json.dumps(harness.machine_fingerprint(
        args.seed, args.seconds)))
    print("work", json.dumps(report["work"]))
    print("info", json.dumps(report["info"]))
    print(f"requests attempted={report['attempted']} "
          f"succeeded={report['attempted'] - report['failed']} "
          f"failed={report['failed']}")
    for line in errors[:20]:
        print("error", line)
    print(json.dumps({"correct": not errors and report["failed"] == 0,
                      "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
