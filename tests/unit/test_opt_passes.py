"""Unit tests for the optimizing pass framework (repro.graph.opt)."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.executor import interpret
from repro.graph.ir import Graph, Node
from repro.graph.opt import (DEFAULT_PASSES, EPILOGUE_OPS, PassReport,
                             Plan, available_passes, build_pipeline,
                             get_pass, register_graph_pass)
from repro.graph.program import (FusedKernel, _segment_lookup,
                                 compile_graph)


def _plan_for(graph, batch_size=1):
    from repro.graph.program import _static_shapes

    work = graph.clone()
    order = work.topological_order()
    return Plan(graph=work, order=order, batch_size=batch_size,
                shapes=_static_shapes(work, order, batch_size))


def _const_tail_graph():
    """add(x, matmul(w1, w2) + b): a foldable two-node const subgraph."""
    g = Graph(name="const_tail")
    g.inputs.append(("x", (0, 4)))
    g.initializers["w1"] = np.arange(4.0).reshape(1, 4)
    g.initializers["w2"] = np.eye(4) * 0.5
    g.initializers["b"] = np.ones((1, 4))
    g.add_node(Node("matmul", ["w1", "w2"], ["prod"]))
    g.add_node(Node("add", ["prod", "b"], ["shifted"]))
    g.add_node(Node("add", ["x", "shifted"], ["y"]))
    g.outputs.append("y")
    return g


class TestConstantFolding:
    def test_folds_cascading_const_subgraph(self, rng):
        g = _const_tail_graph()
        plan = _plan_for(g)
        notes = get_pass("fold-constants").run(plan)
        assert "folded 2" in notes
        assert len(plan.order) == 1
        # the folded value carries the exact runtime bits
        x = rng.normal(size=(3, 4))
        prog = compile_graph(g, optimize=True, passes=["fold-constants"])
        ref = interpret(g, {"x": x})
        assert np.array_equal(prog.run({"x": x})["y"], ref["y"])

    def test_folded_intermediates_are_pruned(self):
        plan = _plan_for(_const_tail_graph())
        get_pass("fold-constants").run(plan)
        g = plan.graph
        assert "prod" not in g.initializers  # intermediate, now unused
        assert "shifted" in g.initializers   # still consumed by the add

    def test_activation_nodes_never_fold(self):
        g = Graph(name="const_act")
        g.inputs.append(("x", (0, 2)))
        g.initializers["c"] = np.linspace(-1.0, 1.0, 4).reshape(2, 2)
        g.add_node(Node("activation", ["c"], ["a"], attrs={"fn": "relu"}))
        g.add_node(Node("add", ["x", "a"], ["y"]))
        g.outputs.append("y")
        plan = _plan_for(g)
        notes = get_pass("fold-constants").run(plan)
        assert "folded 0" in notes
        assert len(plan.order) == 2

    def test_output_producers_never_fold(self):
        g = Graph(name="const_out")
        g.inputs.append(("x", (0, 2)))
        g.initializers["a"] = np.ones((2, 2))
        g.initializers["b"] = np.eye(2)
        g.add_node(Node("add", ["a", "b"], ["y"]))
        g.add_node(Node("mul", ["x", "a"], ["z"]))
        g.outputs.extend(["y", "z"])
        plan = _plan_for(g)
        get_pass("fold-constants").run(plan)
        assert any("y" in n.outputs for n in plan.order)


class TestDeadNodeElimination:
    def test_drops_unreachable_branch(self, rng):
        g = _const_tail_graph()
        g.add_node(Node("mul", ["x", "b"], ["debug"]))  # nothing reads it
        plan = _plan_for(g)
        notes = get_pass("eliminate-dead-nodes").run(plan)
        assert "eliminated 1" in notes
        assert not any("debug" in n.outputs for n in plan.order)
        x = rng.normal(size=(2, 4))
        prog = compile_graph(g, optimize=True,
                             passes=["eliminate-dead-nodes"])
        assert np.array_equal(prog.run({"x": x})["y"],
                              interpret(g, {"x": x})["y"])

    def test_live_graph_untouched(self):
        plan = _plan_for(_const_tail_graph())
        notes = get_pass("eliminate-dead-nodes").run(plan)
        assert "eliminated 0" in notes
        assert len(plan.order) == 3


class TestKernelFusion:
    def test_fuses_conv_bn_act_chain(self, tiny_cnn_graph, rng):
        prog = compile_graph(tiny_cnn_graph, optimize=True,
                             passes=["fuse-kernels"])
        labels = [cn.attrs.get("label") for cn in prog.nodes
                  if cn.op_type == "fused"]
        assert any("conv2d+batchnorm+activation" == l for l in labels)
        x = rng.normal(size=(3, 3, 8, 8))
        ref = interpret(tiny_cnn_graph, {"x": x})
        (name,) = tiny_cnn_graph.outputs
        assert np.array_equal(prog.run({"x": x})[name], ref[name])

    def test_fused_records_bake_fused_kernels(self, tiny_cnn_graph):
        prog = compile_graph(tiny_cnn_graph, optimize=True,
                             passes=["fuse-kernels"])
        fused = [cn for cn in prog.nodes if cn.op_type == "fused"]
        assert fused and all(isinstance(cn.kernel, FusedKernel)
                             for cn in fused)

    def test_multi_consumer_values_break_the_chain(self):
        g = Graph(name="diamond")
        g.inputs.append(("x", (0, 4)))
        g.initializers["w"] = np.eye(4)
        g.add_node(Node("matmul", ["x", "w"], ["h"]))
        g.add_node(Node("activation", ["h"], ["a"], attrs={"fn": "relu"}))
        g.add_node(Node("add", ["h", "a"], ["y"]))  # h has 2 consumers
        g.outputs.append("y")
        plan = _plan_for(g)
        notes = get_pass("fuse-kernels").run(plan)
        assert "fused 0" in notes

    def test_graph_outputs_never_fused_away(self, tiny_cnn_graph):
        g = tiny_cnn_graph
        # expose an intermediate as a second graph output
        inner = g.nodes[1].outputs[0]
        g.outputs.append(inner)
        prog = compile_graph(g, optimize=True, passes=["fuse-kernels"])
        produced = [v for cn in prog.nodes for v in cn.node.outputs]
        assert inner in produced

    def test_epilogue_ops_is_the_documented_set(self):
        assert "activation" in EPILOGUE_OPS
        assert "conv2d" not in EPILOGUE_OPS


class TestRegionScheduler:
    def test_order_is_topological_by_level(self, tiny_attention_graph):
        plan = _plan_for(tiny_attention_graph)
        before = list(plan.order)
        get_pass("schedule-regions").run(plan)
        assert sorted(map(id, plan.order)) == sorted(map(id, before))
        assert plan.graph.nodes == plan.order
        available = {name for name, _ in plan.graph.inputs}
        available.update(plan.graph.initializers)
        level = dict.fromkeys(available, -1)
        last = 0
        for node in plan.order:
            assert all(v in available for v in node.inputs), node.name
            node_level = 1 + max((level[v] for v in node.inputs),
                                 default=-1)
            assert node_level >= last, f"{node.name} breaks level order"
            last = node_level
            for v in node.outputs:
                available.add(v)
                level[v] = node_level


class TestPipeline:
    def test_default_pipeline_reports_every_pass(self, tiny_cnn_graph):
        prog = compile_graph(tiny_cnn_graph, optimize=True)
        assert [r.name for r in prog.pass_reports] == list(DEFAULT_PASSES)
        for r in prog.pass_reports:
            assert isinstance(r, PassReport)
            assert "nodes" in r.delta()
            assert r.name in r.format()

    def test_fusion_preserves_profile_totals(self, tiny_cnn_graph):
        base = compile_graph(tiny_cnn_graph)
        opt = compile_graph(tiny_cnn_graph, optimize=True)
        assert opt.profile.total_macs == base.profile.total_macs
        assert (opt.profile.total_act_elements
                == base.profile.total_act_elements)

    def test_unknown_pass_raises(self, tiny_cnn_graph):
        with pytest.raises(GraphError, match="unknown optimization pass"):
            compile_graph(tiny_cnn_graph, optimize=True,
                          passes=["warp-speed"])

    def test_available_passes_lead_with_defaults(self):
        names = available_passes()
        assert tuple(names[:len(DEFAULT_PASSES)]) == DEFAULT_PASSES

    def test_explicit_pass_order_is_respected(self, tiny_cnn_graph):
        prog = compile_graph(
            tiny_cnn_graph, optimize=True,
            passes=["schedule-regions", "fold-constants"])
        assert [r.name for r in prog.pass_reports] == \
            ["schedule-regions", "fold-constants"]

    def test_duplicate_pass_registration_rejected(self):
        with pytest.raises(ValueError, match="registered twice"):
            register_graph_pass("fold-constants")(object)

    def test_custom_pass_via_registry(self, tiny_cnn_graph, rng):
        class Nop:
            name = "nop-test"

            def run(self, plan):
                return "did nothing"

        try:
            register_graph_pass("nop-test")(Nop)
            prog = compile_graph(tiny_cnn_graph, optimize=True,
                                 passes=["nop-test"])
            assert prog.pass_reports[0].notes == "did nothing"
        finally:
            from repro.graph.opt.pipeline import PASS_REGISTRY

            PASS_REGISTRY.pop("nop-test", None)

    def test_build_pipeline_defaults(self):
        pipe = build_pipeline()
        assert [p.name for p in pipe.passes] == list(DEFAULT_PASSES)


class TestSegmentLookup:
    def test_matches_searchsorted_bitwise(self, rng):
        bp = np.sort(rng.normal(size=15))
        x = rng.normal(size=(8192,)) * 3  # large: comparison-count path
        x = np.concatenate([x, bp, [np.inf, -np.inf, bp[0], bp[-1]]])
        want = np.searchsorted(bp, x, side="right")
        assert np.array_equal(_segment_lookup(bp, x), want)

    def test_result_is_c_contiguous_for_strided_input(self, rng):
        # searchsorted always returns C-ordered indices; the fast path
        # must too, or m[r] inherits the input's layout and downstream
        # BLAS rounds differently (the mobilenet fusion regression).
        bp = np.sort(rng.normal(size=12))
        x = rng.normal(size=(6, 8, 16, 16)).transpose(1, 0, 2, 3)
        assert not x.flags["C_CONTIGUOUS"] and x.size >= 4096
        r = _segment_lookup(bp, x)
        assert r.flags["C_CONTIGUOUS"]
        assert np.array_equal(r, np.searchsorted(bp, x, side="right"))

    def test_small_arrays_take_searchsorted_path(self, rng):
        bp = np.sort(rng.normal(size=12))
        x = rng.normal(size=(4, 7)).T  # tiny and strided
        assert not x.flags["C_CONTIGUOUS"]
        r = _segment_lookup(bp, x)
        assert r.flags["C_CONTIGUOUS"]
        assert np.array_equal(r, np.searchsorted(bp, x, side="right"))

    def test_wide_tables_fall_back(self, rng):
        bp = np.sort(rng.normal(size=300))
        x = rng.normal(size=40)
        want = np.searchsorted(bp, x, side="right")
        assert np.array_equal(_segment_lookup(bp, x), want)


class TestVerifyOptimizedPrograms:
    def test_verify_clean_on_optimized_program(self, tiny_cnn_graph):
        from repro.analysis.verify import verify

        prog = compile_graph(tiny_cnn_graph, optimize=True)
        assert verify(prog) == []

    def test_fused_activation_steps_are_checked(self):
        from repro.analysis.checks import AnalysisContext, check_activations

        g = Graph(name="t")
        g.inputs = [("x", (1, 4))]
        g.outputs = ["y"]
        g.initializers["w"] = np.eye(4)
        g.nodes = [Node(
            op_type="fused", inputs=["x", "w"], outputs=["y"],
            name="fused:mm", attrs={"steps": [
                {"op": "matmul", "attrs": {}, "n_inputs": 2},
                {"op": "activation",
                 "attrs": {"fn": "gelu", "impl": "pwl"}, "n_inputs": 0},
            ], "label": "matmul+activation"})]
        out = check_activations(AnalysisContext(graph=g))
        assert [d.code for d in out] == ["RPR120"]
        assert "fused:mm#1" in out[0].message


class TestRunManyShapeValidation:
    @staticmethod
    def _pair_graph():
        g = Graph(name="pair")
        g.inputs.append(("a", (0, 3)))
        g.inputs.append(("b", (0, 3)))
        g.add_node(Node("add", ["a", "b"], ["y"]))
        g.outputs.append("y")
        return g

    def test_ragged_trailing_shape_rejected(self):
        prog = compile_graph(self._pair_graph())
        feeds = [{"a": np.zeros((2, 3)), "b": np.ones((2, 3))},
                 {"a": np.zeros((2, 4)), "b": np.ones((2, 3))}]
        with pytest.raises(GraphError,
                           match="request 1.*incompatible with per-sample"):
            prog.run_many(feeds)

    def test_missing_input_names_the_request(self):
        prog = compile_graph(self._pair_graph())
        with pytest.raises(GraphError, match="request 1"):
            prog.run_many([{"a": np.zeros((1, 3)), "b": np.ones((1, 3))},
                           {"a": np.zeros((1, 3))}])

    def test_batch_mismatch_within_request_still_rejected(self):
        prog = compile_graph(self._pair_graph())
        feeds = [{"a": np.zeros((2, 3)), "b": np.ones((1, 3))},
                 {"a": np.zeros((1, 3)), "b": np.ones((2, 3))}]
        with pytest.raises(GraphError, match="within request 0"):
            prog.run_many(feeds)

    def test_valid_stacked_requests_unchanged(self, rng):
        prog = compile_graph(self._pair_graph())
        feeds = [{"a": rng.normal(size=(n, 3)),
                  "b": rng.normal(size=(n, 3))} for n in (1, 3, 2)]
        outs = prog.run_many(feeds)
        assert [o["y"].shape[0] for o in outs] == [1, 3, 2]
