"""Unit tests for the compiled graph program (repro.graph.program)."""

import dataclasses

import numpy as np
import pytest

from repro.analysis.diagnostics import DiagnosticError
from repro.core.pwl import PiecewiseLinear
from repro.errors import GraphError
from repro.functions.softmax import SoftmaxApproximator
from repro.graph.builder import GraphBuilder
from repro.graph.executor import interpret
from repro.graph.ir import Graph, Node
from repro.graph.ops import CostRecord, OP_REGISTRY, register_op
from repro.graph.passes import make_pwl_approximators, replace_activations
from repro.graph.program import PwlKernel, SoftmaxPwlKernel, compile_graph
from repro.zoo.builders import build_nlp_transformer, build_vit


class TestCompile:
    def test_run_matches_interpreter(self, tiny_cnn_graph, rng):
        prog = compile_graph(tiny_cnn_graph)
        x = rng.normal(size=(3, 3, 8, 8))
        out = prog.run({"x": x})
        ref = interpret(tiny_cnn_graph, {"x": x})
        (name,) = tiny_cnn_graph.outputs
        assert np.array_equal(out[name], ref[name])

    def test_any_batch_size_runs(self, tiny_cnn_graph, rng):
        prog = compile_graph(tiny_cnn_graph, batch_size=1)
        for batch in (1, 2, 7):
            out = prog.run({"x": rng.normal(size=(batch, 3, 8, 8))})
            assert out[tiny_cnn_graph.outputs[0]].shape[0] == batch

    def test_batch_size_must_be_positive(self, tiny_cnn_graph):
        with pytest.raises(GraphError):
            compile_graph(tiny_cnn_graph, batch_size=0)

    def test_compile_validates_structure(self):
        g = Graph(name="cyclic")
        g.inputs.append(("x", (0, 2)))
        g.add_node(Node("add", ["x", "b"], ["a"]))
        g.add_node(Node("add", ["a", "x"], ["b"]))
        g.outputs.append("b")
        with pytest.raises(GraphError):
            compile_graph(g)

    def test_arena_reuses_slots(self, tiny_attention_graph):
        prog = compile_graph(tiny_attention_graph)
        n_values = (len(tiny_attention_graph.initializers)
                    + len(tiny_attention_graph.inputs)
                    + sum(len(n.outputs) for n in tiny_attention_graph.nodes))
        assert prog.n_slots < n_values

    def test_attention_run_matches_interpreter(self, tiny_attention_graph,
                                               rng):
        prog = compile_graph(tiny_attention_graph)
        x = rng.normal(size=(2, 3, 8, 8))
        ref = interpret(tiny_attention_graph, {"x": x})
        out = prog.run({"x": x})
        for name in tiny_attention_graph.outputs:
            assert np.array_equal(out[name], ref[name])

    def test_template_not_polluted_across_runs(self, tiny_cnn_graph, rng):
        prog = compile_graph(tiny_cnn_graph)
        x = rng.normal(size=(2, 3, 8, 8))
        a = prog.run({"x": x})[tiny_cnn_graph.outputs[0]]
        prog.run({"x": rng.normal(size=(5, 3, 8, 8))})
        b = prog.run({"x": x})[tiny_cnn_graph.outputs[0]]
        assert np.array_equal(a, b)


class TestStaticProfile:
    def test_profile_matches_runtime(self, tiny_cnn_graph, rng):
        prog = compile_graph(tiny_cnn_graph, batch_size=2)
        _, runtime = prog.run_profiled({"x": rng.normal(size=(2, 3, 8, 8))})
        assert prog.profile == runtime

    def test_profile_needs_no_execution(self, tiny_attention_graph):
        prog = compile_graph(tiny_attention_graph, batch_size=1)
        prof = prog.profile
        assert prof.total_macs > 0
        assert "softmax" in prof.act_elements_by_fn()

    def test_value_shape_lookup(self, tiny_cnn_graph):
        prog = compile_graph(tiny_cnn_graph, batch_size=3)
        assert prog.value_shape("x") == (3, 3, 8, 8)
        assert prog.value_shape(tiny_cnn_graph.outputs[0]) == (3, 4)
        with pytest.raises(GraphError):
            prog.value_shape("nope")

    def test_hostile_shape_rule_degrades_instead_of_crashing(self, rng):
        # Shape rules may raise anything (fixed-rank unpacking, user
        # bugs); compilation must record the failure, not abort.
        name = "test_hostile_shape_op"
        register_op(name)(lambda inputs, attrs: [inputs[0] + 1.0])(
            lambda i, o, a: CostRecord())
        from repro.graph.ops import register_shape

        @register_shape(name)
        def _boom(in_shapes, attrs):
            raise ValueError("rank puzzle")

        try:
            g = Graph(name="hostile")
            g.inputs.append(("x", (0, 4)))
            g.add_node(Node(name, ["x"], ["y"]))
            g.outputs.append("y")
            prog = compile_graph(g)          # must not raise
            x = rng.normal(size=(2, 4))
            assert np.array_equal(prog.run({"x": x})["y"], x + 1.0)
            with pytest.raises(GraphError, match="static shape inference"):
                prog.profile
        finally:
            OP_REGISTRY.pop(name, None)

    def test_multi_output_op_runs_through_every_path(self, rng):
        name = "test_split_op"
        register_op(name)(
            lambda inputs, attrs: [inputs[0] * 2.0, inputs[0] - 1.0])(
            lambda i, o, a: CostRecord(vector_ops=2))
        from repro.graph.ops import register_shape

        register_shape(name)(lambda in_shapes, attrs: [in_shapes[0]] * 2)
        try:
            g = Graph(name="split")
            g.inputs.append(("x", (0, 4)))
            g.add_node(Node(name, ["x"], ["a", "b"]))
            g.add_node(Node("add", ["a", "b"], ["y"]))
            g.outputs.append("y")
            prog = compile_graph(g, batch_size=2)
            x = rng.normal(size=(2, 4))
            ref = interpret(g, {"x": x})["y"]
            assert np.array_equal(prog.run({"x": x})["y"], ref)
            out, runtime = prog.run_profiled({"x": x})
            assert np.array_equal(out["y"], ref)
            assert runtime == prog.profile
            out, _ = prog.run_timed({"x": x})
            assert np.array_equal(out["y"], ref)
        finally:
            OP_REGISTRY.pop(name, None)

    def test_program_to_record_prices_statically(self, tiny_cnn_graph):
        from repro.perf import program_to_record

        prog = compile_graph(tiny_cnn_graph, batch_size=1)
        record = program_to_record(prog, name="tiny", family="cnn")
        assert record.macs == prog.profile.total_macs
        assert record.act_elements_dict == prog.profile.act_elements_by_fn()

    def test_shapeless_op_still_runs_but_has_no_profile(self, rng):
        name = "test_shapeless_op"
        register_op(name)(lambda inputs, attrs: [inputs[0] * 2.0])(
            lambda i, o, a: CostRecord())
        try:
            g = Graph(name="custom")
            g.inputs.append(("x", (0, 4)))
            g.add_node(Node(name, ["x"], ["y"]))
            g.outputs.append("y")
            prog = compile_graph(g)
            x = rng.normal(size=(2, 4))
            assert np.array_equal(prog.run({"x": x})["y"], x * 2.0)
            with pytest.raises(GraphError):
                prog.profile
        finally:
            OP_REGISTRY.pop(name, None)


class TestBakedKernels:
    def _compiled_activations(self, graph, n_bp):
        approx = make_pwl_approximators(["gelu", "softmax"], n_bp)
        rewritten, _ = replace_activations(graph, approx)
        prog = compile_graph(rewritten)
        return prog, {cn.op_type: cn for cn in prog.nodes
                      if cn.op_type in ("activation", "softmax")}

    def test_pwl_activation_becomes_kernel_record(self, tiny_attention_graph):
        prog, nodes = self._compiled_activations(tiny_attention_graph, 8)
        assert isinstance(nodes["activation"].kernel, PwlKernel)
        assert isinstance(nodes["softmax"].kernel, SoftmaxPwlKernel)
        assert prog.profile.total_act_elements > 0

    def test_kernel_table_is_the_memoised_ltc_table(self, tiny_attention_graph):
        _, nodes = self._compiled_activations(tiny_attention_graph, 8)
        kernel = nodes["activation"].kernel
        pwl = kernel.source
        m, q = pwl.coefficients()
        assert kernel.m is m and kernel.q is q
        assert kernel.breakpoints is pwl.breakpoints

    def test_pwl_kernel_matches_pwl_call_bitwise(self, rng):
        pwl = PiecewiseLinear.create([-1.0, 0.0, 0.7], [0.1, -0.2, 0.4],
                                     left_slope=0.0, right_slope=1.0)
        kernel = PwlKernel.from_pwl(pwl)
        x = rng.normal(size=(4, 7))
        assert np.array_equal(kernel(x), pwl(x))

    def test_softmax_kernel_matches_approximator_bitwise(self, rng):
        pwl = PiecewiseLinear.create(np.linspace(-10, 0.1, 9),
                                     np.exp(np.linspace(-10, 0.1, 9)),
                                     left_slope=0.0, right_slope=1.0)
        approx = SoftmaxApproximator(pwl)
        kernel = SoftmaxPwlKernel.from_approximator(approx, axis=-1)
        x = rng.normal(size=(3, 5)) * 4.0
        assert np.array_equal(kernel(x), approx(x, axis=-1))

    def test_lambda_approximator_still_compiles(self, tiny_cnn_graph, rng):
        rewritten, _ = replace_activations(tiny_cnn_graph,
                                           {"silu": lambda x: x * 0.5})
        prog = compile_graph(rewritten)
        out = prog.run({"x": rng.normal(size=(1, 3, 8, 8))})
        ref = interpret(rewritten, {"x": rng.normal(size=(1, 3, 8, 8))})
        assert out[tiny_cnn_graph.outputs[0]].shape == \
            ref[tiny_cnn_graph.outputs[0]].shape


class TestOpsDefinedOnce:
    """Compiled records run each op's registered ``execute``: swapping
    it moves compiled outputs exactly as it moves ``interpret()``'s."""

    @pytest.fixture
    def shift_linear(self):
        """Call to swap in a ``linear`` execute that adds 0.25; the
        registered one is restored after the test."""
        original = OP_REGISTRY["linear"]

        def swap():
            OP_REGISTRY["linear"] = dataclasses.replace(
                original, execute=lambda inputs, attrs: [
                    out + 0.25 for out in original.execute(inputs, attrs)])

        yield swap
        OP_REGISTRY["linear"] = original

    @pytest.mark.parametrize("optimize,record", [
        (False, "linear"), (True, "linear+activation")])
    def test_a_swapped_execute_moves_records_as_it_moves_interpret(
            self, shift_linear, rng, optimize, record):
        # x -> linear -> PWL tanh: a table, so the activation bakes.
        g = GraphBuilder("linear_tanh", seed=0)
        g.output(g.activation(g.linear(g.input("x", (0, 6)), 6, 5), "tanh"))
        knots = np.linspace(-3.0, 3.0, 9)
        pwl = PiecewiseLinear.create(knots, np.tanh(knots),
                                     left_slope=0.0, right_slope=0.0)
        graph, _ = replace_activations(g.graph, {"tanh": pwl})
        feeds = {"x": rng.normal(size=(3, 6))}
        (name,) = graph.outputs
        before = compile_graph(graph, optimize=optimize).run(feeds)[name]
        shift_linear()
        prog = compile_graph(graph, optimize=optimize)
        assert record in [cn.attrs.get("label", cn.op_type)
                          for cn in prog.nodes]
        ref = interpret(graph, feeds)[name]
        assert not np.array_equal(ref, before)
        assert np.array_equal(prog.run(feeds)[name], ref)
        [stacked] = prog.run_many([feeds])
        assert np.array_equal(stacked[name], ref)


class TestTokenIdAdmission:
    """``check_request`` admits only token ids its embedding table holds."""

    @pytest.fixture(scope="class", params=[True, False],
                    ids=["fused", "unfused"])
    def nlp(self, request):
        graph = build_nlp_transformer(scale=0.25, depth=1)
        prog = compile_graph(graph, optimize=request.param)
        heads = [cn for cn in prog.nodes
                 if cn.op_type == "embedding"
                 or str(cn.attrs.get("label", "")).startswith("embedding+")]
        assert len(heads) == 1
        return prog

    @staticmethod
    def _ids(values=(), dtype=np.float64):
        ids = (np.arange(16) * 5 % 64).reshape(1, 16).astype(dtype)
        ids[0, :len(values)] = values
        return {"ids": ids}

    @pytest.mark.parametrize("bad", [1e6, -1.0, 2.7, 64.0, np.nan, np.inf,
                                     10 ** 6, -1, 64], ids=repr)
    def test_id_outside_the_table_is_refused(self, nlp, bad):
        dtype = np.int64 if isinstance(bad, int) else np.float64
        with pytest.raises(DiagnosticError) as err:
            nlp.check_request(self._ids([bad], dtype))
        assert err.value.code == "RPR208"
        assert "'ids'" in str(err.value)
        with pytest.raises(DiagnosticError, match="request 1") as err:
            nlp.run_many([self._ids(), self._ids([bad], dtype)])
        assert err.value.code == "RPR208"

    def test_ids_in_the_table_pass_and_run(self, nlp):
        as_floats, as_ints = (self._ids([0, 63], dtype)
                              for dtype in (np.float64, np.int64))
        assert nlp.check_request(as_floats) == nlp.check_request(as_ints) == 1
        (name,) = nlp.graph.outputs
        float_out, int_out = nlp.run_many([as_floats, as_ints])
        assert np.array_equal(float_out[name], int_out[name])

    def test_a_program_without_an_embedding_checks_no_ids(self):
        prog = compile_graph(build_vit(scale=0.25, depth=1), optimize=True)
        assert prog._vocab == {}


class TestRunMany:
    def test_stacked_requests_match_single_runs(self, tiny_cnn_graph, rng):
        prog = compile_graph(tiny_cnn_graph)
        feeds = [{"x": rng.normal(size=(1, 3, 8, 8))} for _ in range(5)]
        stacked = prog.run_many(feeds)
        (name,) = tiny_cnn_graph.outputs
        fused = prog.run({"x": np.concatenate([f["x"] for f in feeds])})
        got = np.concatenate([o[name] for o in stacked])
        assert np.array_equal(got, fused[name])

    def test_uneven_batches_split_correctly(self, tiny_cnn_graph, rng):
        prog = compile_graph(tiny_cnn_graph)
        feeds = [{"x": rng.normal(size=(n, 3, 8, 8))} for n in (1, 3, 2)]
        outs = prog.run_many(feeds)
        (name,) = tiny_cnn_graph.outputs
        assert [o[name].shape[0] for o in outs] == [1, 3, 2]

    def test_empty_and_single(self, tiny_cnn_graph, rng):
        prog = compile_graph(tiny_cnn_graph)
        assert prog.run_many([]) == []
        [only] = prog.run_many([{"x": rng.normal(size=(2, 3, 8, 8))}])
        assert only[tiny_cnn_graph.outputs[0]].shape[0] == 2

    def test_missing_feed_raises(self, tiny_cnn_graph, rng):
        prog = compile_graph(tiny_cnn_graph)
        with pytest.raises(GraphError):
            prog.run_many([{"x": rng.normal(size=(1, 3, 8, 8))}, {}])

    @staticmethod
    def _pair_graph():
        g = Graph(name="pair")
        g.inputs.append(("a", (0, 3)))
        g.inputs.append(("b", (0, 3)))
        g.add_node(Node("add", ["a", "b"], ["y"]))
        g.outputs.append("y")
        return g

    def test_mismatched_inputs_within_one_request_raise(self):
        # Totals coincide across requests (3 vs 3) but samples would be
        # misattributed between them — must be rejected, not split.
        prog = compile_graph(self._pair_graph())
        feeds = [{"a": np.zeros((2, 3)), "b": np.ones((1, 3))},
                 {"a": np.zeros((1, 3)), "b": np.ones((2, 3))}]
        with pytest.raises(GraphError, match="within request 0"):
            prog.run_many(feeds)

    def test_broadcast_batch_still_accepted_by_run(self):
        # The eager interpreter broadcast a size-1 leading dim; the
        # compiled plan must keep accepting it.
        prog = compile_graph(self._pair_graph())
        out = prog.run({"a": np.ones((4, 3)), "b": np.ones((1, 3))})
        assert out["y"].shape == (4, 3)
        ref = interpret(self._pair_graph(),
                        {"a": np.ones((4, 3)), "b": np.ones((1, 3))})
        assert np.array_equal(out["y"], ref["y"])

