"""Each IR check fires on a deliberately-corrupted graph — and the
compile path routes the findings (fatal errors, attached warnings)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.analysis import (
    CODES,
    Diagnostic,
    DiagnosticError,
    Severity,
    verify,
)
from repro.analysis.report import (
    count_by_severity,
    diagnostics_payload,
    format_code_table,
    format_diagnostics,
)
from repro.core.pwl import PiecewiseLinear
from repro.errors import GraphError
from repro.graph.builder import GraphBuilder
from repro.graph.ir import Graph, Node
from repro.graph.ops import OP_REGISTRY, OpImpl
from repro.graph.program import compile_graph


def codes_of(diags):
    return {d.code for d in diags}


def mlp():
    """x -> linear -> gelu, the minimal healthy subject."""
    g = GraphBuilder("toy_mlp", seed=0)
    x = g.input("x", (0, 4))
    x = g.linear(x, 4, 3)
    x = g.activation(x, "gelu")
    g.output(x)
    return g.graph


def one_layer(kind, c_out=4, **kw):
    """x -> one conv2d (4 channels in, 8x8), one 2x2/2 pool of the same
    input (``kind`` "maxpool2d" or "avgpool2d") or one linear (4 -> 2)."""
    g = GraphBuilder(f"toy_{kind}", seed=0)
    if kind == "conv":
        y = g.conv2d(g.input("x", (0, 4, 8, 8)), 4, c_out, **kw)
    elif kind.endswith("pool2d"):
        y = g.node(kind, [g.input("x", (0, 4, 8, 8))], hint="pool",
                   kernel=2, stride=2)
    else:
        y = g.linear(g.input("x", (0, 4)), 4, 2)
    g.output(y)
    return g.graph


def one_op(kind, shape):
    """x of ``shape`` -> one GraphBuilder ``kind`` node; a batchnorm or
    layernorm gets parameters sized to fit its input."""
    g = GraphBuilder(f"toy_{kind}", seed=0)
    x = g.input("x", shape)
    if kind == "batchnorm":
        y = g.batchnorm(x, shape[1])
    elif kind == "layernorm":
        y = g.layernorm(x, shape[-1])
    else:
        y = getattr(g, kind)(x)
    g.output(y)
    return g.graph


def with_attrs(graph, **attrs):
    graph.nodes[0].attrs.update(attrs)
    return graph


def with_param(graph, index, length):
    """Give the first node's input ``index`` an initializer of ``length``."""
    graph.initializers[graph.nodes[0].inputs[index]] = np.zeros(length)
    return graph


def with_bias(graph, length):
    return with_param(graph, 2, length)


def reshaped(target):
    """x of (0, 6) -> one reshape to ``target``."""
    g = GraphBuilder("toy_reshape", seed=0)
    g.output(g.reshape(g.input("x", (0, 6)), target))
    return g.graph


#: Layers whose shapes pass a naive rule but whose kernels raise or
#: silently broadcast at run time.
UNRUNNABLE_LAYERS = {
    "conv-c_out-not-split-by-groups": lambda: one_layer("conv", c_out=3,
                                                        groups=2),
    "conv-stride-0": lambda: with_attrs(one_layer("conv"), stride=0),
    "conv-padding-negative": lambda: with_attrs(one_layer("conv"),
                                                padding=-1),
    "conv-groups-0": lambda: with_attrs(one_layer("conv"), groups=0),
    "conv-bias-longer-than-c_out": lambda: with_bias(one_layer("conv"), 5),
    "conv-bias-of-one": lambda: with_bias(one_layer("conv"), 1),
    "linear-bias-longer-than-d_out": lambda: with_bias(one_layer("linear"),
                                                       3),
    "linear-bias-of-one": lambda: with_bias(one_layer("linear"), 1),
    "maxpool-stride-0": lambda: with_attrs(one_layer("maxpool2d"), stride=0),
    "avgpool-stride-0": lambda: with_attrs(one_layer("avgpool2d"), stride=0),
    "maxpool-kernel-0": lambda: with_attrs(one_layer("maxpool2d"), kernel=0),
    "avgpool-kernel-0": lambda: with_attrs(one_layer("avgpool2d"), kernel=0),
    "maxpool-kernel-negative": lambda: with_attrs(one_layer("maxpool2d"),
                                                  kernel=-1),
    "avgpool-kernel-negative": lambda: with_attrs(one_layer("avgpool2d"),
                                                  kernel=-1),
    "softmax-axis-past-rank": lambda: with_attrs(one_op("softmax", (0, 4)),
                                                 axis=3),
    "softmax-axis-below-minus-rank": lambda: with_attrs(
        one_op("softmax", (0, 4)), axis=-3),
    "global_avgpool-on-2-d": lambda: one_op("global_avgpool", (0, 4)),
    "batchnorm-3-scales-for-4-channels": lambda: with_param(
        one_op("batchnorm", (0, 4, 8, 8)), 1, 3),
    "batchnorm-scale-of-one": lambda: with_param(
        one_op("batchnorm", (0, 4, 8, 8)), 1, 1),
    "batchnorm-shift-of-one": lambda: with_param(
        one_op("batchnorm", (0, 4, 8, 8)), 2, 1),
    "layernorm-gamma-of-one": lambda: with_param(
        one_op("layernorm", (0, 4)), 1, 1),
    "layernorm-beta-longer-than-dim": lambda: with_param(
        one_op("layernorm", (0, 4)), 2, 5),
    # Runs at one sample; two stacked samples cannot take the shape.
    "reshape-fixed-batch-dim": lambda: reshaped((2, 3)),
    # Runs stacked, but folds samples into the batch dim.
    "reshape-batch-dim-absorbs-sample-dims": lambda: reshaped((-1, 3)),
}


@pytest.fixture
def temp_op():
    """Register a throwaway op for one test; always deregistered."""
    created = []

    def make(name, execute=None, infer=None):
        op = OpImpl(
            execute=execute or (lambda inputs, attrs: [inputs[0]]),
            cost=lambda ins, outs, attrs: __import__(
                "repro.graph.ops", fromlist=["CostRecord"]).CostRecord(),
            infer=infer)
        OP_REGISTRY[name] = op
        created.append(name)
        return op

    yield make
    for name in created:
        OP_REGISTRY.pop(name, None)


class TestHealthyGraphs:
    def test_mlp_is_clean(self):
        graph = mlp()
        assert verify(graph) == []
        program = compile_graph(graph)
        assert verify(program) == []
        assert program.diagnostics == []

    def test_verify_rejects_other_types(self):
        with pytest.raises(TypeError):
            verify(42)

    def test_errors_sort_before_warnings(self, temp_op):
        temp_op("nocost_op")  # no infer -> RPR103 warning
        g = mlp()
        g.nodes.insert(1, Node("nocost_op", [g.nodes[0].outputs[0]],
                               ["shadow"]))
        g.outputs = ["nope"]  # RPR113 error
        diags = verify(g)
        severities = [d.severity for d in diags]
        assert severities == sorted(severities, reverse=True)
        assert diags[0].is_error


class TestStructureChecks:
    def test_rpr111_value_produced_twice(self):
        g = mlp()
        dup = Node("activation", [g.nodes[-1].outputs[0]],
                   list(g.nodes[-1].outputs), name="dup",
                   attrs={"fn": "relu"})
        # rewire: two producers of the same value name
        dup.outputs = list(g.nodes[-1].outputs)
        g.nodes.append(dup)
        assert "RPR111" in codes_of(verify(g))

    def test_rpr112_cycle(self):
        g = Graph("loop", inputs=[("x", (0, 2))], outputs=["v"])
        g.nodes = [Node("activation", ["u"], ["v"], attrs={"fn": "relu"}),
                   Node("activation", ["v"], ["u"], attrs={"fn": "relu"})]
        assert "RPR112" in codes_of(verify(g))

    def test_rpr113_output_never_produced(self):
        g = mlp()
        g.outputs = ["does_not_exist"]
        assert "RPR113" in codes_of(verify(g))

    def test_rpr114_node_without_outputs_cannot_be_built(self):
        with pytest.raises(DiagnosticError) as ei:
            Node("activation", ["x"], [])
        assert ei.value.code == "RPR114"

    def test_rpr115_duplicate_initializer(self):
        g = mlp()
        name = next(iter(g.initializers))
        with pytest.raises(DiagnosticError) as ei:
            g.add_initializer(name, np.zeros(3))
        assert ei.value.code == "RPR115"

    def test_rpr110_dead_node(self):
        g = mlp()
        g.nodes.append(Node("activation", [g.nodes[0].outputs[0]],
                            ["unused"], name="deadwood",
                            attrs={"fn": "relu"}))
        diags = verify(g)
        dead = [d for d in diags if d.code == "RPR110"]
        assert len(dead) == 1 and dead[0].node == "deadwood"
        assert not dead[0].is_error  # warning: legal, just wasteful


class TestOpAndShapeChecks:
    def test_rpr101_unknown_op(self):
        g = mlp()
        g.nodes[1] = Node("frobnicate", list(g.nodes[1].inputs),
                          list(g.nodes[1].outputs), name="bad")
        diags = verify(g)
        assert "RPR101" in codes_of(diags)

    def test_rpr102_shape_inconsistency(self):
        g = mlp()
        # weight declared (4, 3); lie about the input width instead
        g.inputs = [("x", (0, 5))]
        diags = verify(g)
        hits = [d for d in diags if d.code == "RPR102"]
        assert hits and hits[0].is_error

    @pytest.mark.parametrize("case", sorted(UNRUNNABLE_LAYERS))
    def test_rpr102_layer_its_kernel_cannot_run(self, case):
        g = UNRUNNABLE_LAYERS[case]()
        hits = [d for d in verify(g) if d.code in ("RPR102", "RPR105")]
        assert [d.code for d in hits] == ["RPR102"] and hits[0].is_error
        with pytest.raises(DiagnosticError) as ei:
            compile_graph(g)
        assert ei.value.code == "RPR102"

    def test_rpr103_op_without_shape_rule(self, temp_op):
        temp_op("mystery")
        g = mlp()
        mid = g.nodes[0].outputs[0]
        g.nodes.insert(1, Node("mystery", [mid], ["myst1"]))
        g.nodes[2] = Node("activation", ["myst1"],
                          list(g.nodes[2].outputs), attrs={"fn": "gelu"})
        diags = verify(g)
        assert "RPR103" in codes_of(diags)
        assert all(not d.is_error for d in diags)

    def test_rpr104_input_without_shape(self):
        g = mlp()
        g.inputs = [("x", ())]
        diags = verify(g)
        assert "RPR104" in codes_of(diags)

    def test_rpr105_crashing_shape_rule(self, temp_op):
        def boom(in_shapes, attrs):
            raise ValueError("kaboom")

        temp_op("hostile", infer=boom)
        g = mlp()
        mid = g.nodes[0].outputs[0]
        g.nodes.insert(1, Node("hostile", [mid], ["h1"]))
        g.nodes[2] = Node("activation", ["h1"],
                          list(g.nodes[2].outputs), attrs={"fn": "gelu"})
        diags = verify(g)
        hits = [d for d in diags if d.code == "RPR105"]
        assert hits and not hits[0].is_error

    def test_rpr106_arity_mismatch(self):
        g = mlp()
        act = g.nodes[-1]
        g.nodes[-1] = Node("activation", list(act.inputs),
                           list(act.outputs) + ["phantom"],
                           name=act.name, attrs=dict(act.attrs))
        diags = verify(g)
        assert "RPR106" in codes_of(diags)


class TestActivationChecks:
    def test_rpr120_pwl_without_approximator(self):
        g = mlp()
        g.nodes[-1].attrs["impl"] = "pwl"
        diags = verify(g)
        hits = [d for d in diags if d.code == "RPR120"]
        assert hits and hits[0].is_error
        for optimize in (False, True):  # a record and a fused step alike
            with pytest.raises(DiagnosticError, match="RPR120"):
                compile_graph(g, verify=False, optimize=optimize)

    def test_rpr121_unknown_activation(self):
        g = mlp()
        g.nodes[-1].attrs["fn"] = "nosuchfn"
        assert "RPR121" in codes_of(verify(g))

    def test_rpr122_unknown_impl(self):
        g = mlp()
        g.nodes[-1].attrs["impl"] = "quantum"
        assert "RPR122" in codes_of(verify(g))
        for optimize in (False, True):
            with pytest.raises(DiagnosticError, match="RPR122"):
                compile_graph(g, verify=False, optimize=optimize)

    def test_rpr130_clipped_domain(self):
        # tanh fitted only on [-0.5, 0.5] against a declared (-8, 8):
        # extrapolation error dwarfs in-interval error -> flagged.
        knots = np.linspace(-0.5, 0.5, 9)
        pwl = PiecewiseLinear.create(knots, np.tanh(knots),
                                     left_slope=0.0, right_slope=0.0)
        g = mlp()
        g.nodes[-1].attrs.update(fn="tanh", impl="pwl", approximator=pwl)
        diags = verify(g)
        hits = [d for d in diags if d.code == "RPR130"]
        assert hits and not hits[0].is_error
        assert "covers only part" in hits[0].message

    def test_relu_native_two_knot_table_not_flagged(self):
        # Edge slopes extend the two-knot exact ReLU table over all of
        # R: interval containment would flag it, the numeric check must
        # not.
        pwl = PiecewiseLinear.create([0.0, 1.0], [0.0, 1.0],
                                     left_slope=0.0, right_slope=1.0)
        g = mlp()
        g.nodes[-1].attrs.update(fn="relu", impl="pwl", approximator=pwl)
        assert "RPR130" not in codes_of(verify(g))

    def test_rpr131_non_monotone_table(self):
        # Direct construction bypasses create()'s validation — exactly
        # the kind of hand-built table the static check is for.
        pwl = PiecewiseLinear(
            breakpoints=np.array([0.0, -1.0, 1.0]),
            values=np.array([0.0, 0.5, 1.0]),
            left_slope=0.0, right_slope=0.0)
        g = mlp()
        g.nodes[-1].attrs.update(fn="tanh", impl="pwl", approximator=pwl)
        hits = [d for d in verify(g) if d.code == "RPR131"]
        assert hits and hits[0].is_error
        assert "not strictly increasing" in hits[0].message


class TestProgramChecks:
    def test_rpr140_write_clobbers_live_initializer(self):
        prog = compile_graph(mlp())
        slot_map = prog._slot_map
        init_slot = slot_map[next(iter(prog.graph.initializers))]
        prog.nodes[0].out_slots = (init_slot,)
        assert "RPR140" in codes_of(verify(prog))

    @staticmethod
    def _diamond():
        # Two branches merging in an add: the merge cannot alias both
        # dying inputs, so the plan carries an explicit free.
        g = GraphBuilder("diamond", seed=0)
        x = g.input("x", (0, 4))
        a = g.activation(x, "relu")
        b = g.activation(x, "gelu")
        g.output(g.add(a, b))
        return g.graph

    def test_rpr141_leaked_slots(self):
        prog = compile_graph(self._diamond())
        assert any(cn.frees for cn in prog.nodes)
        for cn in prog.nodes:
            cn.frees = ()
        hits = [d for d in verify(prog) if d.code == "RPR141"]
        assert hits and all(not d.is_error for d in hits)

    def test_rpr142_read_of_freed_slot(self):
        prog = compile_graph(mlp())
        # Free the first node's output as soon as it is written; the
        # next consumer now reads a dead slot.
        first = prog.nodes[0]
        first.frees = tuple(first.frees) + (first.out_slots[0],)
        codes = codes_of(verify(prog))
        assert "RPR142" in codes

    def test_rpr123_profile_cost_mismatch(self):
        prog = compile_graph(mlp())
        rec = prog._static_profile.nodes[0]
        rec.cost = dataclasses.replace(rec.cost, macs=rec.cost.macs + 7)
        hits = [d for d in verify(prog) if d.code == "RPR123"]
        assert hits and hits[0].is_error

    def test_rpr124_unpriceable_activation(self):
        prog = compile_graph(mlp())
        for rec in prog._static_profile.nodes:
            if rec.cost.act_elements:
                rec.cost = dataclasses.replace(rec.cost, act_fn="nosuch")
        assert "RPR124" in codes_of(verify(prog))


class TestCompileIntegration:
    def test_compile_raises_diagnostic_error_on_bad_shapes(self):
        g = mlp()
        g.inputs = [("x", (0, 5))]
        with pytest.raises(DiagnosticError) as ei:
            compile_graph(g)
        assert ei.value.code == "RPR102"
        assert isinstance(ei.value, GraphError)  # old handlers still work

    def test_compile_attaches_warnings(self):
        g = mlp()
        g.inputs = [("x", ())]
        prog = compile_graph(g)
        assert any(d.code == "RPR104" for d in prog.diagnostics)
        assert all(not d.is_error for d in prog.diagnostics)

    def test_verify_false_skips_checks(self):
        g = mlp()
        g.nodes.append(Node("activation", [g.nodes[0].outputs[0]],
                            ["unused"], name="deadwood",
                            attrs={"fn": "relu"}))
        prog = compile_graph(g, verify=False)
        assert prog.diagnostics == []

    def test_diagnostic_error_message_carries_code(self):
        g = mlp()
        g.outputs = ["ghost"]
        with pytest.raises(GraphError, match=r"\[RPR113\].*ghost"):
            g.validate()


class TestReporting:
    def _diags(self):
        g = mlp()
        g.outputs = ["ghost"]
        return verify(g)

    def test_counts(self):
        counts = count_by_severity(self._diags())
        assert counts["error"] >= 1

    def test_format_clean(self):
        assert "clean" in format_diagnostics([], source="toy")

    def test_format_lists_findings(self):
        text = format_diagnostics(self._diags(), source="toy")
        assert "RPR113" in text and "ghost" in text

    def test_payload_round_trips_to_json(self):
        import json

        payload = diagnostics_payload(self._diags(), source="toy")
        parsed = json.loads(json.dumps(payload))
        assert parsed["ok"] is False
        assert parsed["counts"]["error"] >= 1
        assert parsed["diagnostics"][0]["code"] == "RPR113"

    def test_code_table_covers_registry(self):
        table = format_code_table()
        for code in CODES:
            assert code in table

    def test_diagnostic_format(self):
        d = Diagnostic(code="RPR110", message="m", severity=Severity.WARNING,
                       node="n", graph="g")
        assert d.format() == "warning RPR110 [n]: m"
