"""Per-layer cycle costs: baseline VPU vs Flex-SFU execution.

Baseline activation costs are the per-element arithmetic-operation counts
of each function on a general-purpose VPU — anchored to the paper's
"SiLU requires ~4x and GELU ~12x the operations of ReLU" and the usual
multi-instruction expansions of the transcendental functions.  With
Flex-SFU every activation becomes one MADD per element (the PWL segment
evaluation) plus the per-function table-load overhead.
"""

from __future__ import annotations

from ..functions.registry import baseline_act_ops
from ..zoo.catalog import ModelRecord
from .accelerator import AcceleratorConfig, CycleBreakdown

#: Flex-SFU evaluates any activation in one MADD per element.
FLEXSFU_ACT_OPS = 1


def profile_to_record(profile, name: str, family: str = "custom",
                      domain: str = "cv", year: int = 2023,
                      primary_activation: str = "") -> ModelRecord:
    """Wrap a :class:`~repro.graph.program.GraphProfile` as a record.

    Lets user graphs flow through the same cost model as the catalog:
    ``model_speedup(profile_to_record(prof, "mynet"), cfg)``.  The
    profile may be a compile-time static one
    (:attr:`~repro.graph.program.Program.profile` — see
    :func:`program_to_record`) or a runtime-collected one; both carry
    identical records.
    """
    by_fn = profile.act_elements_by_fn()
    primary = primary_activation or profile.dominant_activation()
    act_layers = sum(1 for n in profile.nodes if n.cost.act_elements)
    return ModelRecord(
        name=name, family=family, domain=domain, year=year,
        primary_activation=primary, size_scale=1.0,
        macs=profile.total_macs, vector_ops=profile.total_vector_ops,
        act_elements=tuple(sorted(by_fn.items())), act_layers=act_layers,
    )


def program_to_record(program, name: str, family: str = "custom",
                      domain: str = "cv", year: int = 2023,
                      primary_activation: str = "") -> ModelRecord:
    """Price a compiled :class:`~repro.graph.program.Program` statically.

    Pure compile-side: uses the program's static profile, so a model can
    be costed under the accelerator model without ever executing.
    """
    return profile_to_record(program.profile, name, family=family,
                             domain=domain, year=year,
                             primary_activation=primary_activation)


def model_cycles(record: ModelRecord, cfg: AcceleratorConfig,
                 use_flexsfu: bool) -> CycleBreakdown:
    """Cycle breakdown of one inference of a catalog model."""
    mac_cycles = record.macs / cfg.macs_per_cycle
    vector_cycles = record.vector_ops / cfg.vpu_lanes
    act_cycles = 0.0
    for fn_name, elements in record.act_elements:
        if use_flexsfu:
            act_cycles += elements * FLEXSFU_ACT_OPS / cfg.vpu_lanes
        else:
            act_cycles += elements * baseline_act_ops(fn_name) / cfg.vpu_lanes
    if use_flexsfu:
        # ld.bp/ld.cf run once per *distinct* activation function (the
        # paper: "executed only once when a different activation function
        # has to be computed", pre-executable during tensor-core work).
        act_cycles += len(record.act_elements) * cfg.sfu_load_cycles
    return CycleBreakdown(mac_cycles=mac_cycles, vector_cycles=vector_cycles,
                          act_cycles=act_cycles)


def model_speedup(record: ModelRecord, cfg: AcceleratorConfig) -> float:
    """End-to-end speedup of Flex-SFU over the baseline for one model."""
    base = model_cycles(record, cfg, use_flexsfu=False).total
    flex = model_cycles(record, cfg, use_flexsfu=True).total
    return base / flex


def inference_time_us(record: ModelRecord, cfg: AcceleratorConfig,
                      use_flexsfu: bool) -> float:
    """Wall-clock estimate in microseconds at the configured frequency."""
    cycles = model_cycles(record, cfg, use_flexsfu).total
    return cycles / (cfg.freq_ghz * 1e3)
