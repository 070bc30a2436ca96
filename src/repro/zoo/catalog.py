"""The 778-model synthetic catalog (the TIMM + Hugging Face substitution).

Each :class:`ModelRecord` carries the workload statistics the end-to-end
performance model needs — MAC count, generic vector ops, activation
elements per function, activation layer count — derived from the
family's executable builder at a sampled size via **static compilation**
(:func:`repro.graph.program.compile_graph`): shapes are inferred and
costs priced without executing a single forward pass, so building the
whole Fig. 6 catalog is a pure compile-side sweep.  The static profile
is node-for-node identical to what a real forward pass would report
(the property suite enforces it).  Record generation is deterministic
in the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..graph.program import GraphProfile, compile_graph
from .builders import BUILDERS
from .families import FAMILIES, FamilySpec

#: Activations that squeeze-excite gates / attention keep regardless of
#: the model's primary activation.
_STRUCTURAL_ACTS = ("sigmoid", "hardsigmoid", "softmax")


@dataclass(frozen=True)
class ModelRecord:
    """Metadata + workload statistics of one catalog entry."""

    name: str
    family: str
    domain: str
    year: int
    primary_activation: str
    size_scale: float
    macs: int
    vector_ops: int
    act_elements: Tuple[Tuple[str, int], ...]  # (fn, elements) pairs
    act_layers: int

    @property
    def act_elements_dict(self) -> Dict[str, int]:
        """Activation elements per function as a dict."""
        return dict(self.act_elements)

    @property
    def total_act_elements(self) -> int:
        """All elements through any activation."""
        return sum(n for _, n in self.act_elements)

    @property
    def uses_complex_activations(self) -> bool:
        """True when the primary activation is costlier than (leaky)ReLU."""
        lightweight = ("relu", "leaky_relu", "relu6", "hardtanh", "identity")
        return self.primary_activation not in lightweight


# ----------------------------------------------------------------------- #
# Profiling (one static compile per (builder, scale), cached — no
# forward pass: costs are priced from the inferred shapes)
# ----------------------------------------------------------------------- #
_PROFILE_CACHE: Dict[Tuple[str, float], GraphProfile] = {}

#: Canonical activation used when profiling (element counts are
#: architecture properties; only the fn labels are remapped per record).
_CANONICAL_ACT = "relu"


def _profile(builder_key: str, scale: float) -> GraphProfile:
    key = (builder_key, float(scale))
    if key not in _PROFILE_CACHE:
        graph = BUILDERS[builder_key](act=_CANONICAL_ACT, scale=scale, seed=7)
        _PROFILE_CACHE[key] = compile_graph(graph, batch_size=1).profile
    return _PROFILE_CACHE[key]


def _record_from_profile(prof: GraphProfile, family: FamilySpec, name: str,
                         year: int, primary: str, scale: float) -> ModelRecord:
    by_fn = prof.act_elements_by_fn()
    remapped: Dict[str, int] = {}
    act_layers = 0
    for node in prof.nodes:
        if node.cost.act_elements:
            act_layers += 1
    for fn, elems in by_fn.items():
        target = fn if fn in _STRUCTURAL_ACTS else primary
        remapped[target] = remapped.get(target, 0) + elems
    return ModelRecord(
        name=name, family=family.name, domain=family.domain, year=year,
        primary_activation=primary, size_scale=scale,
        macs=prof.total_macs, vector_ops=prof.total_vector_ops,
        act_elements=tuple(sorted(remapped.items())),
        act_layers=act_layers,
    )


# ----------------------------------------------------------------------- #
# Catalog generation
# ----------------------------------------------------------------------- #
def build_catalog(seed: int = 0) -> List[ModelRecord]:
    """Generate the full 778-record catalog (deterministic)."""
    rng = np.random.default_rng(seed)
    records: List[ModelRecord] = []
    for family in FAMILIES.values():
        years = np.asarray(family.years)
        # Publication-volume distribution per family (Fig. 1 trend).
        weights = np.asarray(family.year_probabilities())
        for i in range(family.count):
            year = int(rng.choice(years, p=weights))
            mix = family.act_mix(year)
            primary = str(rng.choice(list(mix), p=list(mix.values())))
            scales = np.asarray(family.size_scales)
            if primary in ("silu", "gelu", "mish") and \
                    family.name in ("resnet", "others"):
                # Complex-activation variants of classic CNN families are
                # predominantly small experimental models (TIMM's *ts
                # nets — the paper's 3.3x peak resnext26ts is one).
                scales = scales[: max(len(scales) // 2, 1)]
            scale = float(rng.choice(scales))
            prof = _profile(family.builder, scale)
            name = f"{family.name}_{primary}_{i:03d}"
            records.append(_record_from_profile(prof, family, name, year,
                                                primary, scale))
    return records


def activation_share_by_year(records: List[ModelRecord]
                             ) -> Dict[int, Dict[str, float]]:
    """Fig. 1's series: activation-function share per publication year.

    Counts activation *mentions*: each model contributes its primary
    activation plus Softmax when it contains attention — which is how a
    ReLU share of ~21 % coexists with transformer dominance in the
    paper's 2021 column.  Squeeze-excite gates are internal plumbing, not
    activation layers in model metadata, and are not counted.
    """
    by_year: Dict[int, Dict[str, int]] = {}
    for rec in records:
        year = by_year.setdefault(rec.year, {})
        mentions = [rec.primary_activation]
        if "softmax" in rec.act_elements_dict:
            mentions.append("softmax")
        for fn in mentions:
            year[fn] = year.get(fn, 0) + 1
    shares: Dict[int, Dict[str, float]] = {}
    for year, counts in sorted(by_year.items()):
        total = sum(counts.values())
        shares[year] = {fn: n / total for fn, n in
                        sorted(counts.items(), key=lambda kv: -kv[1])}
    return shares


def family_records(records: List[ModelRecord], family: str) -> List[ModelRecord]:
    """Catalog entries of one family."""
    return [r for r in records if r.family == family]
