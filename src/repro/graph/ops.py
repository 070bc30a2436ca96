"""Operator semantics and cost accounting for the graph IR.

Every operator provides two things:

* ``execute(inputs, attrs)`` — exact numpy semantics (float64), used by
  the executor for the accuracy experiments;
* ``cost(input_shapes, output_shapes, attrs)`` — a :class:`CostRecord`
  with the MAC count (tensor-core work), generic vector-op count (VPU
  work) and activation element count (the part Flex-SFU accelerates),
  used by the end-to-end performance model.

Activation nodes carry ``attrs["fn"]`` (registry name) and an ``impl``
switch: ``"exact"`` evaluates the reference function, ``"pwl"`` calls the
attached approximator — that is exactly the rewrite the paper applies to
the ONNX graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..analysis.diagnostics import fail
from ..errors import GraphError
from ..functions import registry as fn_registry
from ..functions.softmax import softmax as exact_softmax

Shape = Tuple[int, ...]


@dataclass(frozen=True)
class CostRecord:
    """Work accounting for one node execution."""

    macs: int = 0            # multiply-accumulates (tensor core)
    vector_ops: int = 0      # generic elementwise/reduction VPU operations
    act_elements: int = 0    # elements through an activation function
    act_fn: str = ""         # which activation (registry name), if any

    def __add__(self, other: "CostRecord") -> "CostRecord":
        return CostRecord(
            macs=self.macs + other.macs,
            vector_ops=self.vector_ops + other.vector_ops,
            act_elements=self.act_elements + other.act_elements,
            act_fn=self.act_fn or other.act_fn,
        )


@dataclass(frozen=True)
class OpImpl:
    """Executable semantics + cost model of one operator type.

    ``infer`` is the operator's *static shape rule* — output shapes from
    input shapes without touching data — which is what lets
    :func:`repro.graph.program.compile_graph` schedule buffers and price
    a whole graph at compile time.  Ops registered without one still
    execute; they just cannot participate in static profiling.
    """

    execute: Callable[[List[np.ndarray], Dict[str, Any]], List[np.ndarray]]
    cost: Callable[[List[Shape], List[Shape], Dict[str, Any]], CostRecord]
    infer: Optional[Callable[[List[Shape], Dict[str, Any]], List[Shape]]] = None


OP_REGISTRY: Dict[str, OpImpl] = {}


def register_op(name: str):
    """Decorator-style registration of an (execute, cost) pair."""

    def wrap(execute):
        def inner(cost):
            OP_REGISTRY[name] = OpImpl(execute=execute, cost=cost)
            return cost
        return inner
    return wrap


def register_shape(name: str):
    """Decorator attaching a static shape rule to a registered op."""

    def wrap(infer):
        OP_REGISTRY[name] = dc_replace(OP_REGISTRY[name], infer=infer)
        return infer
    return wrap


def get_op(name: str) -> OpImpl:
    """Look up an operator implementation."""
    try:
        return OP_REGISTRY[name]
    except KeyError:
        fail("RPR101", f"unknown op {name!r}; known: {sorted(OP_REGISTRY)}")


def infer_node_shapes(op_type: str, in_shapes: List[Shape],
                      attrs: Dict[str, Any]) -> List[Shape]:
    """Static output shapes of one node (raises on shapeless ops)."""
    op = get_op(op_type)
    if op.infer is None:
        fail("RPR103",
             f"op {op_type!r} has no static shape rule; register one with "
             f"register_shape() to compile graphs containing it")
    return [tuple(int(d) for d in s) for s in op.infer(in_shapes, attrs)]


def _elements(shape: Shape) -> int:
    return int(np.prod(shape)) if shape else 1


# --------------------------------------------------------------------- #
# conv2d
# --------------------------------------------------------------------- #
def _exec_conv2d(inputs: List[np.ndarray], attrs: Dict[str, Any]) -> List[np.ndarray]:
    """2-D convolution (NCHW input, OIHW weight, optional bias).

    Three paths over one view of every window, ``win[n, c, y, x, i, j]``:

    * dense and grouped convs copy the windows into an im2col array
      and run one BLAS GEMM per (sample, group) through ``np.matmul``;
    * 1x1 stride-1 convs gather nothing: their windows are the (padded)
      input itself, so the copy to a contiguous array is a no-op for a
      C-contiguous input;
    * depthwise convs (one input and one output channel per group)
      never build the im2col array: each sample sums its ``kh*kw``
      taps, ``w[:, tap] * window[..., i, j]``, into the output through
      one scratch buffer.  A channel multiplier (``c_out`` a larger
      multiple of ``groups``) takes the dense path.

    Every output reads only its own window, so a non-finite input
    pixel reaches exactly the outputs whose window covers it (a banded
    matrix product would multiply out-of-window inputs by 0, and
    ``inf * 0`` is NaN).  Each sample's output comes from the same
    calls whatever the batch, so it does not depend on what the sample
    is batched with.
    """
    x, w = inputs[0], inputs[1]
    b = inputs[2] if len(inputs) > 2 else None
    stride = int(attrs.get("stride", 1))
    padding = int(attrs.get("padding", 0))
    groups = int(attrs.get("groups", 1))
    n, c, h, width = x.shape
    c_out, c_in_g, kh, kw = w.shape
    if c != c_in_g * groups:
        raise GraphError(
            f"conv2d channel mismatch: input {c}, weight {c_in_g}x{groups} groups"
        )
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = sliding_window_view(x, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]
    h_out, w_out = win.shape[2:4]
    if c_in_g == 1 and c_out == groups:
        out = np.empty((n, c_out, h_out, w_out), dtype=np.result_type(x, w))
        scratch = np.empty(out.shape[1:], dtype=out.dtype)
        taps = w.reshape(c_out, kh * kw, 1, 1)
        for s in range(n):
            acc = out[s]
            np.multiply(taps[:, 0], win[s, ..., 0, 0], out=acc)
            for t in range(1, kh * kw):
                np.multiply(taps[:, t], win[s, ..., t // kw, t % kw],
                            out=scratch)
                acc += scratch
    else:
        cols = np.ascontiguousarray(win.transpose(0, 1, 4, 5, 2, 3))
        cols = cols.reshape(n, groups, c_in_g * kh * kw, h_out * w_out)
        out = np.matmul(w.reshape(groups, c_out // groups, -1), cols)
        out = out.reshape(n, c_out, h_out, w_out)
    if b is not None:
        out += b.reshape(1, -1, 1, 1)
    return [out]


@register_op("conv2d")(_exec_conv2d)
def _cost_conv2d(in_shapes: List[Shape], out_shapes: List[Shape],
                 attrs: Dict[str, Any]) -> CostRecord:
    _, c_in_g, kh, kw = in_shapes[1]
    out_elems = _elements(out_shapes[0])
    macs = out_elems * c_in_g * kh * kw
    # Bias is folded into the MAC epilogue by the compiler (free).
    return CostRecord(macs=macs)


# --------------------------------------------------------------------- #
# linear / matmul
# --------------------------------------------------------------------- #
def _exec_linear(inputs: List[np.ndarray], attrs: Dict[str, Any]) -> List[np.ndarray]:
    x, w = inputs[0], inputs[1]
    out = x @ w
    if len(inputs) > 2:
        out = out + inputs[2]
    return [out]


@register_op("linear")(_exec_linear)
def _cost_linear(in_shapes: List[Shape], out_shapes: List[Shape],
                 attrs: Dict[str, Any]) -> CostRecord:
    k = in_shapes[1][0]
    out_elems = _elements(out_shapes[0])
    # Bias is folded into the MAC epilogue by the compiler (free).
    return CostRecord(macs=out_elems * k)


def _exec_matmul(inputs: List[np.ndarray], attrs: Dict[str, Any]) -> List[np.ndarray]:
    return [inputs[0] @ inputs[1]]


@register_op("matmul")(_exec_matmul)
def _cost_matmul(in_shapes: List[Shape], out_shapes: List[Shape],
                 attrs: Dict[str, Any]) -> CostRecord:
    k = in_shapes[0][-1]
    return CostRecord(macs=_elements(out_shapes[0]) * k)


# --------------------------------------------------------------------- #
# normalisation
# --------------------------------------------------------------------- #
def _exec_batchnorm(inputs: List[np.ndarray], attrs: Dict[str, Any]) -> List[np.ndarray]:
    x, scale, shift = inputs
    shape = [1] * x.ndim
    shape[1] = -1
    return [x * scale.reshape(shape) + shift.reshape(shape)]


@register_op("batchnorm")(_exec_batchnorm)
def _cost_batchnorm(in_shapes: List[Shape], out_shapes: List[Shape],
                    attrs: Dict[str, Any]) -> CostRecord:
    # Inference-time batch-norm is folded into the adjacent conv by the
    # compiler (the paper's ATC flow does this), so it costs nothing.
    return CostRecord()


def _exec_layernorm(inputs: List[np.ndarray], attrs: Dict[str, Any]) -> List[np.ndarray]:
    x, gamma, beta = inputs
    eps = float(attrs.get("eps", 1e-5))
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return [(x - mean) / np.sqrt(var + eps) * gamma + beta]


@register_op("layernorm")(_exec_layernorm)
def _cost_layernorm(in_shapes: List[Shape], out_shapes: List[Shape],
                    attrs: Dict[str, Any]) -> CostRecord:
    return CostRecord(vector_ops=8 * _elements(out_shapes[0]))


# --------------------------------------------------------------------- #
# elementwise
# --------------------------------------------------------------------- #
def _exec_add(inputs: List[np.ndarray], attrs: Dict[str, Any]) -> List[np.ndarray]:
    return [inputs[0] + inputs[1]]


@register_op("add")(_exec_add)
def _cost_add(in_shapes, out_shapes, attrs) -> CostRecord:
    return CostRecord(vector_ops=_elements(out_shapes[0]))


def _exec_mul(inputs: List[np.ndarray], attrs: Dict[str, Any]) -> List[np.ndarray]:
    return [inputs[0] * inputs[1]]


@register_op("mul")(_exec_mul)
def _cost_mul(in_shapes, out_shapes, attrs) -> CostRecord:
    return CostRecord(vector_ops=_elements(out_shapes[0]))


# --------------------------------------------------------------------- #
# pooling
# --------------------------------------------------------------------- #
def _pool2d(x: np.ndarray, kernel: int, stride: int, reducer) -> np.ndarray:
    n, c, h, w = x.shape
    h_out = (h - kernel) // stride + 1
    w_out = (w - kernel) // stride + 1
    views = np.empty((kernel * kernel, n, c, h_out, w_out), dtype=x.dtype)
    for i in range(kernel):
        for j in range(kernel):
            views[i * kernel + j] = x[:, :, i:i + h_out * stride:stride,
                                      j:j + w_out * stride:stride]
    return reducer(views, axis=0)


def _exec_maxpool(inputs: List[np.ndarray], attrs: Dict[str, Any]) -> List[np.ndarray]:
    return [_pool2d(inputs[0], int(attrs.get("kernel", 2)),
                    int(attrs.get("stride", 2)), np.max)]


@register_op("maxpool2d")(_exec_maxpool)
def _cost_maxpool(in_shapes, out_shapes, attrs) -> CostRecord:
    k = int(attrs.get("kernel", 2))
    return CostRecord(vector_ops=_elements(out_shapes[0]) * k * k)


def _exec_avgpool(inputs: List[np.ndarray], attrs: Dict[str, Any]) -> List[np.ndarray]:
    return [_pool2d(inputs[0], int(attrs.get("kernel", 2)),
                    int(attrs.get("stride", 2)), np.mean)]


@register_op("avgpool2d")(_exec_avgpool)
def _cost_avgpool(in_shapes, out_shapes, attrs) -> CostRecord:
    k = int(attrs.get("kernel", 2))
    return CostRecord(vector_ops=_elements(out_shapes[0]) * k * k)


def _exec_gap(inputs: List[np.ndarray], attrs: Dict[str, Any]) -> List[np.ndarray]:
    return [inputs[0].mean(axis=(2, 3))]


@register_op("global_avgpool")(_exec_gap)
def _cost_gap(in_shapes, out_shapes, attrs) -> CostRecord:
    return CostRecord(vector_ops=_elements(in_shapes[0]))


# --------------------------------------------------------------------- #
# activations (the nodes Flex-SFU rewrites)
# --------------------------------------------------------------------- #
def _exec_activation(inputs: List[np.ndarray], attrs: Dict[str, Any]) -> List[np.ndarray]:
    impl = attrs.get("impl", "exact")
    if impl == "exact":
        fn = fn_registry.get(attrs["fn"])
        return [fn(inputs[0])]
    if impl == "pwl":
        approx = attrs.get("approximator")
        if approx is None:
            fail("RPR120",
                 "pwl activation node has no approximator attached")
        return [np.asarray(approx(inputs[0]), dtype=np.float64)]
    fail("RPR122", f"unknown activation impl {impl!r}")


@register_op("activation")(_exec_activation)
def _cost_activation(in_shapes, out_shapes, attrs) -> CostRecord:
    return CostRecord(act_elements=_elements(out_shapes[0]),
                      act_fn=str(attrs.get("fn", "")))


def _exec_softmax(inputs: List[np.ndarray], attrs: Dict[str, Any]) -> List[np.ndarray]:
    axis = int(attrs.get("axis", -1))
    impl = attrs.get("impl", "exact")
    if impl == "exact":
        return [exact_softmax(inputs[0], axis=axis)]
    if impl == "pwl":
        approx = attrs.get("approximator")
        if approx is None:
            fail("RPR120",
                 "pwl softmax node has no approximator attached")
        return [np.asarray(approx(inputs[0], axis=axis), dtype=np.float64)]
    fail("RPR122", f"unknown softmax impl {impl!r}")


@register_op("softmax")(_exec_softmax)
def _cost_softmax(in_shapes, out_shapes, attrs) -> CostRecord:
    n = _elements(out_shapes[0])
    # The exp is the Flex-SFU-accelerated part; max-subtract, sum and
    # divide stay on the VPU.
    return CostRecord(act_elements=n, act_fn="softmax", vector_ops=3 * n)


# --------------------------------------------------------------------- #
# shape plumbing
# --------------------------------------------------------------------- #
def _exec_reshape(inputs: List[np.ndarray], attrs: Dict[str, Any]) -> List[np.ndarray]:
    return [inputs[0].reshape(attrs["shape"])]


@register_op("reshape")(_exec_reshape)
def _cost_reshape(in_shapes, out_shapes, attrs) -> CostRecord:
    return CostRecord()


def _exec_transpose(inputs: List[np.ndarray], attrs: Dict[str, Any]) -> List[np.ndarray]:
    return [np.transpose(inputs[0], attrs["perm"])]


@register_op("transpose")(_exec_transpose)
def _cost_transpose(in_shapes, out_shapes, attrs) -> CostRecord:
    return CostRecord()


def _exec_flatten(inputs: List[np.ndarray], attrs: Dict[str, Any]) -> List[np.ndarray]:
    x = inputs[0]
    return [x.reshape(x.shape[0], -1)]


@register_op("flatten")(_exec_flatten)
def _cost_flatten(in_shapes, out_shapes, attrs) -> CostRecord:
    return CostRecord()


def _exec_embedding(inputs: List[np.ndarray], attrs: Dict[str, Any]) -> List[np.ndarray]:
    ids, table = inputs
    return [table[ids.astype(np.int64)]]


@register_op("embedding")(_exec_embedding)
def _cost_embedding(in_shapes, out_shapes, attrs) -> CostRecord:
    return CostRecord()


def _exec_mean_seq(inputs: List[np.ndarray], attrs: Dict[str, Any]) -> List[np.ndarray]:
    return [inputs[0].mean(axis=1)]


@register_op("mean_pool_seq")(_exec_mean_seq)
def _cost_mean_seq(in_shapes, out_shapes, attrs) -> CostRecord:
    return CostRecord(vector_ops=_elements(in_shapes[0]))


# --------------------------------------------------------------------- #
# fused (produced by the fuse-kernels optimization pass)
# --------------------------------------------------------------------- #
def _fused_steps(attrs: Dict[str, Any]) -> List[Dict[str, Any]]:
    steps = attrs.get("steps")
    if not steps:
        raise GraphError("fused node carries no steps")
    return steps


def _exec_fused(inputs: List[np.ndarray], attrs: Dict[str, Any]) -> List[np.ndarray]:
    """Replay the absorbed ops through their *registered* execute.

    The fused record is pure plumbing: each step calls the identical
    numpy semantics the standalone node would have, so outputs are
    bitwise-unchanged by fusion (the baked
    :class:`~repro.graph.program.FusedKernel` honours the same
    contract with prebound constants).
    """
    pos = 0
    cur: Optional[np.ndarray] = None
    for step in _fused_steps(attrs):
        n = int(step["n_inputs"])
        step_inputs = inputs[pos:pos + n]
        if cur is not None:
            step_inputs = [cur] + list(step_inputs)
        pos += n
        cur = get_op(step["op"]).execute(step_inputs, step["attrs"])[0]
    return [cur]


@register_op("fused")(_exec_fused)
def _cost_fused(in_shapes: List[Shape], out_shapes: List[Shape],
                attrs: Dict[str, Any]) -> CostRecord:
    """Sum of the absorbed steps' costs (shapes re-derived per step).

    Using each step's own cost rule keeps the graph-level totals —
    MACs, activation elements — invariant under fusion, so zoo pricing
    and the Fig. 6 cost model see the same workload either way.
    """
    total = CostRecord()
    pos = 0
    cur: Optional[Shape] = None
    for step in _fused_steps(attrs):
        n = int(step["n_inputs"])
        step_in = list(in_shapes[pos:pos + n])
        if cur is not None:
            step_in = [cur] + step_in
        pos += n
        op = get_op(step["op"])
        if op.infer is None:
            raise GraphError(
                f"fused step op {step['op']!r} has no static shape rule")
        outs = op.infer(step_in, step["attrs"])
        total = total + op.cost(step_in, [tuple(s) for s in outs],
                                step["attrs"])
        cur = tuple(int(d) for d in outs[0])
    return total


@register_shape("fused")
def _shape_fused(in_shapes: List[Shape], attrs: Dict[str, Any]) -> List[Shape]:
    pos = 0
    cur: Optional[Shape] = None
    for step in _fused_steps(attrs):
        n = int(step["n_inputs"])
        step_in = list(in_shapes[pos:pos + n])
        if cur is not None:
            step_in = [cur] + step_in
        pos += n
        cur = tuple(int(d) for d in
                    infer_node_shapes(step["op"], step_in, step["attrs"])[0])
    return [cur]


# --------------------------------------------------------------------- #
# Static shape rules — one per op, mirroring the execute semantics.
# Compile-time counterparts of the numpy behaviour above: they must
# produce exactly the shape execute() would, or the static profile
# would drift from the runtime-profiled one.
# --------------------------------------------------------------------- #
def _broadcast(a: Shape, b: Shape) -> Shape:
    try:
        return tuple(np.broadcast_shapes(a, b))
    except ValueError:
        raise GraphError(f"shapes {a} and {b} do not broadcast") from None


@register_shape("conv2d")
def _shape_conv2d(in_shapes: List[Shape], attrs: Dict[str, Any]) -> List[Shape]:
    n, c, h, w = in_shapes[0]
    c_out, c_in_g, kh, kw = in_shapes[1]
    stride = int(attrs.get("stride", 1))
    padding = int(attrs.get("padding", 0))
    groups = int(attrs.get("groups", 1))
    if stride < 1 or padding < 0 or groups < 1:
        raise GraphError(
            f"conv2d needs stride >= 1, padding >= 0 and groups >= 1, got "
            f"stride {stride}, padding {padding}, groups {groups}")
    if c != c_in_g * groups:
        raise GraphError(
            f"conv2d channel mismatch: input {c}, weight {c_in_g}x{groups} groups"
        )
    if c_out % groups:
        raise GraphError(
            f"conv2d output channels {c_out} do not split into {groups} groups")
    if len(in_shapes) > 2 and tuple(in_shapes[2]) != (c_out,):
        raise GraphError(
            f"conv2d bias shape {tuple(in_shapes[2])} is not ({c_out},)")
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (w + 2 * padding - kw) // stride + 1
    if h_out < 1 or w_out < 1:
        raise GraphError(
            f"conv2d kernel {kh}x{kw} does not fit input {h}x{w} "
            f"(padding {padding}, stride {stride})")
    return [(n, c_out, h_out, w_out)]


@register_shape("linear")
def _shape_linear(in_shapes: List[Shape], attrs: Dict[str, Any]) -> List[Shape]:
    x, w = in_shapes[0], in_shapes[1]
    if not x or x[-1] != w[0]:
        raise GraphError(f"linear contraction mismatch: {x} @ {w}")
    if len(in_shapes) > 2 and tuple(in_shapes[2]) != (w[1],):
        raise GraphError(
            f"linear bias shape {tuple(in_shapes[2])} is not ({w[1]},)")
    return [x[:-1] + (w[1],)]


@register_shape("matmul")
def _shape_matmul(in_shapes: List[Shape], attrs: Dict[str, Any]) -> List[Shape]:
    a, b = in_shapes[0], in_shapes[1]
    if len(a) < 2 or len(b) < 2 or a[-1] != b[-2]:
        raise GraphError(f"matmul contraction mismatch: {a} @ {b}")
    return [_broadcast(a[:-2], b[:-2]) + (a[-2], b[-1])]


def _shape_identity(in_shapes: List[Shape], attrs: Dict[str, Any]) -> List[Shape]:
    return [in_shapes[0]]


register_shape("batchnorm")(_shape_identity)
register_shape("layernorm")(_shape_identity)
register_shape("activation")(_shape_identity)
register_shape("softmax")(_shape_identity)


def _shape_broadcast_pair(in_shapes: List[Shape],
                          attrs: Dict[str, Any]) -> List[Shape]:
    return [_broadcast(in_shapes[0], in_shapes[1])]


register_shape("add")(_shape_broadcast_pair)
register_shape("mul")(_shape_broadcast_pair)


def _shape_pool2d(in_shapes: List[Shape], attrs: Dict[str, Any]) -> List[Shape]:
    n, c, h, w = in_shapes[0]
    kernel = int(attrs.get("kernel", 2))
    stride = int(attrs.get("stride", 2))
    if kernel < 1 or stride < 1:
        raise GraphError(f"pool needs kernel >= 1 and stride >= 1, got "
                         f"kernel {kernel}, stride {stride}")
    h_out = (h - kernel) // stride + 1
    w_out = (w - kernel) // stride + 1
    if h_out < 1 or w_out < 1:
        raise GraphError(f"pool kernel {kernel} does not fit input {h}x{w}")
    return [(n, c, h_out, w_out)]


register_shape("maxpool2d")(_shape_pool2d)
register_shape("avgpool2d")(_shape_pool2d)


@register_shape("global_avgpool")
def _shape_gap(in_shapes: List[Shape], attrs: Dict[str, Any]) -> List[Shape]:
    return [in_shapes[0][:2]]


@register_shape("reshape")
def _shape_reshape(in_shapes: List[Shape], attrs: Dict[str, Any]) -> List[Shape]:
    src = in_shapes[0]
    target = tuple(int(d) for d in attrs["shape"])
    total = _elements(src)
    if target.count(-1) > 1:
        raise GraphError(f"reshape target {target} has multiple -1 dims")
    if -1 in target:
        known = _elements(tuple(d for d in target if d != -1))
        if known == 0 or total % known:
            raise GraphError(f"cannot reshape {src} into {target}")
        target = tuple(total // known if d == -1 else d for d in target)
    if _elements(target) != total:
        raise GraphError(f"cannot reshape {src} into {target}")
    return [target]


@register_shape("transpose")
def _shape_transpose(in_shapes: List[Shape], attrs: Dict[str, Any]) -> List[Shape]:
    src = in_shapes[0]
    perm = tuple(int(p) for p in attrs["perm"])
    if sorted(perm) != list(range(len(src))):
        raise GraphError(f"transpose perm {perm} invalid for shape {src}")
    return [tuple(src[p] for p in perm)]


@register_shape("flatten")
def _shape_flatten(in_shapes: List[Shape], attrs: Dict[str, Any]) -> List[Shape]:
    src = in_shapes[0]
    return [(src[0], _elements(src[1:]))]


@register_shape("embedding")
def _shape_embedding(in_shapes: List[Shape], attrs: Dict[str, Any]) -> List[Shape]:
    ids, table = in_shapes[0], in_shapes[1]
    return [ids + table[1:]]


@register_shape("mean_pool_seq")
def _shape_mean_seq(in_shapes: List[Shape], attrs: Dict[str, Any]) -> List[Shape]:
    src = in_shapes[0]
    if len(src) < 2:
        raise GraphError(f"mean_pool_seq needs a sequence axis, got {src}")
    return [src[:1] + src[2:]]
