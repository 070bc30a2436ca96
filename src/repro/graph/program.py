"""Compiled graph programs: plan once, run hot.

The reference interpreter (:func:`~repro.graph.executor.interpret`)
re-resolves every op, rebuilds the value dict and re-derives costs from
runtime shapes on every forward pass — fine as an oracle, wasteful for
repeated inference.  :func:`compile_graph` performs all of that work
exactly once:

* **validation + scheduling** — structural checks and the topological
  order happen at compile time; the run loop never inspects the graph;
* **static shape inference** — every value's shape is derived from the
  declared input shapes (batch dimension substituted with
  ``batch_size``) through each op's registered shape rule;
* **value arena with liveness** — values live in an integer-slot list
  instead of a name dict; slots are reused once their last consumer has
  run, so peak live tensors track the graph's true working set;
* **kernel baking** — every node, and every step of a fused node,
  runs its op's registered ``execute`` with its weights prebound; the
  one op specialised at compile time is the paper's: a PWL activation
  becomes a :class:`PwlKernel` record carrying the memoised ``(m, q)``
  coefficient table (the same table
  :func:`repro.core.tables.build_tables` quantises for the hardware
  LTC), so an apply is one breakpoint lookup plus one fused
  ``m[r] * x + q[r]``;
* **static cost profile** — :attr:`Program.profile` is computed from
  the inferred shapes at compile time; pricing a model under the
  Fig. 6 cost model no longer needs a forward pass at all.

``Program.run(feeds)`` accepts any batch size (the plan is
batch-agnostic); ``run_many`` fuses a list of per-sample feeds into one
stacked pass; ``run_timed`` and ``run_profiled`` walk the same loop
with a per-record hook.  Outputs are bitwise-identical to the reference
interpreter — the property suite enforces it op-by-op.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Sequence, Tuple)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.profile import ExecutionProfile

from ..analysis.diagnostics import Diagnostic, fail
from ..core.pwl import PiecewiseLinear
from ..errors import GraphError
from ..functions.softmax import SoftmaxApproximator
from ..obs.capture import get_capture
from .ir import Graph, Node
from .ops import (CostRecord, OpImpl, Shape, _fused_steps, get_op,
                  infer_node_shapes)

# The process-wide PWL input-histogram accumulator.  Kernels check one
# attribute (`enabled`, False by default) per call; when off, outputs
# and the run loop are untouched — the property suite and the graph-exec
# quick bench both enforce it.
_capture = get_capture()


# --------------------------------------------------------------------- #
# Cost profiles (shared by static compilation and runtime profiling)
# --------------------------------------------------------------------- #
@dataclass
class NodeProfile:
    """Cost record of one scheduled node."""

    name: str
    op_type: str
    cost: CostRecord


@dataclass
class GraphProfile:
    """Aggregated workload statistics of one inference.

    Produced two ways — statically at compile time from inferred shapes
    (:attr:`Program.profile`) or at runtime from concrete arrays
    (:meth:`Program.run_profiled`) — with node-for-node identical
    records when the batch sizes agree.
    """

    nodes: List[NodeProfile] = field(default_factory=list)

    @property
    def total_macs(self) -> int:
        """All multiply-accumulates (tensor-core work)."""
        return sum(p.cost.macs for p in self.nodes)

    @property
    def total_vector_ops(self) -> int:
        """All generic VPU operations."""
        return sum(p.cost.vector_ops for p in self.nodes)

    @property
    def total_act_elements(self) -> int:
        """All elements that pass through an activation function."""
        return sum(p.cost.act_elements for p in self.nodes)

    def act_elements_by_fn(self) -> Dict[str, int]:
        """Activation elements split per function name."""
        out: Dict[str, int] = {}
        for p in self.nodes:
            if p.cost.act_elements:
                out[p.cost.act_fn] = out.get(p.cost.act_fn, 0) + p.cost.act_elements
        return out

    def dominant_activation(self) -> str:
        """Most frequent activation by element count ('' if none)."""
        by_fn = self.act_elements_by_fn()
        if not by_fn:
            return ""
        return max(by_fn.items(), key=lambda kv: kv[1])[0]


# --------------------------------------------------------------------- #
# Baked PWL kernels
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class PwlKernel:
    """A precompiled PWL activation: one lookup + one fused MADD.

    ``breakpoints`` / ``m`` / ``q`` are the *memoised* coefficient
    arrays of the source :class:`PiecewiseLinear` — the identical table
    the hardware LTC stores after quantisation — so ``hw.sfu``
    reference checks and this kernel read the same memory.
    """

    breakpoints: np.ndarray
    m: np.ndarray
    q: np.ndarray
    source: PiecewiseLinear
    #: Activation-function name for observability (histogram capture).
    label: str = ""

    @classmethod
    def from_pwl(cls, pwl: PiecewiseLinear, label: str = "") -> "PwlKernel":
        m, q = pwl.coefficients()
        return cls(breakpoints=pwl.breakpoints, m=m, q=q, source=pwl,
                   label=label)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        r = np.searchsorted(self.breakpoints, x, side="right")
        if _capture.enabled:
            # The segment indices already in hand ARE the input
            # histogram — capture only reads them, never the output.
            _capture.record(self.label or "pwl", self.breakpoints, r)
        return self.m[r] * x + self.q[r]


@dataclass(frozen=True)
class SoftmaxPwlKernel:
    """Softmax with a baked PWL ``exp`` table (max-subtract decomposition).

    Performs the exact operation sequence of
    :class:`~repro.functions.softmax.SoftmaxApproximator` with the
    ``exp`` PWL's coefficient table inlined.
    """

    breakpoints: np.ndarray
    m: np.ndarray
    q: np.ndarray
    clip_lo: float
    axis: int
    source: PiecewiseLinear
    #: Observability label of the inner exp table.
    label: str = "softmax.exp"

    @classmethod
    def from_approximator(cls, approx: SoftmaxApproximator,
                          axis: int) -> "SoftmaxPwlKernel":
        pwl = approx._exp_fn
        assert isinstance(pwl, PiecewiseLinear)
        m, q = pwl.coefficients()
        return cls(breakpoints=pwl.breakpoints, m=m, q=q,
                   clip_lo=approx._clip_lo, axis=int(axis), source=pwl)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        shifted = x - np.max(x, axis=self.axis, keepdims=True)
        r = np.searchsorted(self.breakpoints, shifted, side="right")
        if _capture.enabled:
            _capture.record(self.label, self.breakpoints, r)
        e = np.where(shifted < self.clip_lo, 0.0,
                     self.m[r] * shifted + self.q[r])
        e = np.maximum(e, 0.0)
        denom = np.sum(e, axis=self.axis, keepdims=True)
        denom = np.where(denom <= 0.0, 1.0, denom)
        return e / denom


# --------------------------------------------------------------------- #
# Fast PWL segment lookup (fused-kernel steps)
# --------------------------------------------------------------------- #
def _segment_lookup(breakpoints: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Comparison-count equivalent of ``searchsorted(side="right")``.

    ``sum_i(x >= bp_i)`` counts the breakpoints at or below ``x`` —
    exactly the insertion index ``searchsorted`` returns — but as a
    handful of vectorised compares accumulated in uint8 instead of a
    data-dependent binary search, which measures ~2-4x faster on the
    16-entry tables the paper uses.  Bitwise-identical segment indices
    for every finite and infinite input; NaN inputs land in segment 0
    instead of the last one, which cannot change the output (the MADD
    propagates the NaN either way) and only shifts which *histogram*
    bin a NaN would be counted in.  Tables wider than 255 entries fall
    back to ``searchsorted`` (uint8 would overflow).

    ``r`` is allocated C-contiguous explicitly: ``searchsorted``
    always returns a C array, so the baseline ``m[r]`` is C-ordered —
    but ufunc comparisons follow the *input's* memory order, and a
    strided ``x`` (e.g. the output of a ``transpose`` op) would
    otherwise leak its layout through ``m[r]`` into downstream BLAS
    calls, which round differently per layout.

    Small arrays take ``searchsorted`` outright: the comparison count
    pays one ufunc dispatch per breakpoint, which only amortizes once
    the array clears a few thousand elements (measured crossover
    ~2-8k; single-sample serving requests sit well below it, stacked
    batches well above).  Both paths return identical indices, so the
    switch is invisible to the bitwise oracle.
    """
    if breakpoints.size > 255 or x.size < 4096:
        return np.searchsorted(breakpoints, x, side="right")
    r = np.empty(x.shape, dtype=np.uint8)
    np.greater_equal(x, breakpoints[0], out=r.view(np.bool_))
    for b in breakpoints[1:]:
        r += x >= b
    return r


class _FastPwl:
    """Fused-step PWL activation: comparison-count lookup + in-place
    MADD.  Bitwise-identical to the :class:`PwlKernel` it replaces (the
    property suite compares the fused program against the eager
    interpreter)."""

    __slots__ = ("breakpoints", "m", "q", "label")

    def __init__(self, kernel: PwlKernel) -> None:
        self.breakpoints = kernel.breakpoints
        self.m = kernel.m
        self.q = kernel.q
        self.label = kernel.label

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        r = _segment_lookup(self.breakpoints, x)
        if _capture.enabled:
            _capture.record(self.label or "pwl", self.breakpoints, r)
        # (m[r] * x) + q[r] with the temporaries reused in place —
        # identical operation order, identical bits.
        out = self.m[r]
        out *= x
        out += self.q[r]
        return out


class _FastSoftmaxPwl:
    """Fused-step softmax: :class:`SoftmaxPwlKernel` semantics with the
    comparison-count segment lookup."""

    __slots__ = ("breakpoints", "m", "q", "clip_lo", "axis", "label")

    def __init__(self, kernel: SoftmaxPwlKernel) -> None:
        self.breakpoints = kernel.breakpoints
        self.m = kernel.m
        self.q = kernel.q
        self.clip_lo = kernel.clip_lo
        self.axis = kernel.axis
        self.label = kernel.label

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        shifted = x - np.max(x, axis=self.axis, keepdims=True)
        r = _segment_lookup(self.breakpoints, shifted)
        if _capture.enabled:
            _capture.record(self.label, self.breakpoints, r)
        e = np.where(shifted < self.clip_lo, 0.0,
                     self.m[r] * shifted + self.q[r])
        e = np.maximum(e, 0.0)
        denom = np.sum(e, axis=self.axis, keepdims=True)
        denom = np.where(denom <= 0.0, 1.0, denom)
        return e / denom


def _fast(kernel: Callable) -> Callable:
    """The comparison-count twin of a baked PWL kernel (else itself)."""
    if isinstance(kernel, PwlKernel):
        return _FastPwl(kernel)
    if isinstance(kernel, SoftmaxPwlKernel):
        return _FastSoftmaxPwl(kernel)
    return kernel


# --------------------------------------------------------------------- #
# Record kernels: each op's registered execute, PWL tables baked
# --------------------------------------------------------------------- #
Kernel = Callable[..., Any]


def _pwl_kernel(op_type: str, attrs: Dict[str, Any],
                name: str) -> Optional[Kernel]:
    """The table kernel of a ``pwl`` activation or softmax whose
    approximator is a :class:`PiecewiseLinear` table, else ``None``:
    the paper's custom operator, the one op compilation specialises.
    An unknown ``impl`` (RPR122) or a ``pwl`` node without an
    approximator (RPR120) fails here, at compile time."""
    impl = attrs.get("impl", "exact")
    if op_type not in ("activation", "softmax") or impl == "exact":
        return None
    if impl != "pwl":
        fail("RPR122", f"unknown {op_type} impl {impl!r}", node=name)
    approx = attrs.get("approximator")
    if approx is None:
        fail("RPR120", f"pwl {op_type} node has no approximator attached",
             node=name)
    if op_type == "activation" and isinstance(approx, PiecewiseLinear):
        return PwlKernel.from_pwl(approx, label=str(attrs.get("fn", "")))
    if op_type == "softmax" and isinstance(approx, SoftmaxApproximator) \
            and isinstance(approx._exp_fn, PiecewiseLinear):
        return SoftmaxPwlKernel.from_approximator(
            approx, int(attrs.get("axis", -1)))
    return None


def _checked(outs: Sequence[np.ndarray], n_out: int, name: str,
             graph: str) -> Sequence[np.ndarray]:
    """``execute``'s outputs, or RPR204 if their count is not declared."""
    if len(outs) != n_out:
        fail("RPR204",
             f"node {name} produced {len(outs)} outputs, declared {n_out}",
             node=name, graph=graph)
    return outs


def _generic_kernel(op: OpImpl, attrs: Dict[str, Any], n_out: int,
                    name: str, graph: str) -> Kernel:
    """The registered ``execute`` over every input, arity-checked; one
    output, or the list of them for a multi-output node."""
    def kernel(*inputs: np.ndarray) -> Any:
        outs = _checked(op.execute(list(inputs), attrs), n_out, name, graph)
        return outs[0] if n_out == 1 else outs
    return kernel


def _prebound_kernel(op: OpImpl, attrs: Dict[str, Any],
                     extras: List[np.ndarray], name: str,
                     graph: str) -> Kernel:
    """The registered ``execute`` of a one-output node with ``extras``,
    its initializers after the first input, bound here."""
    def kernel(x: np.ndarray) -> np.ndarray:
        return _checked(op.execute([x, *extras], attrs), 1, name, graph)[0]
    return kernel


def _bake(op_type: str, attrs: Dict[str, Any],
          consts: List[Optional[np.ndarray]], name: str, n_out: int = 1,
          graph: str = "") -> Tuple[Kernel, Tuple[int, ...]]:
    """One op's kernel plus the input positions it reads at runtime.

    ``consts`` lists, per input, its initializer (None for a runtime
    value).  A one-output node whose inputs after the first are all
    initializers reads only the first: a PWL table kernel when
    :func:`_pwl_kernel` gives one, else its ``execute`` with the rest
    prebound.  Anything else runs ``execute`` over every input.
    """
    if op_type == "fused":
        return _fused_kernel(attrs, consts, name, graph)
    op = get_op(op_type)
    if n_out == 1 and consts and all(c is not None for c in consts[1:]):
        kernel = _pwl_kernel(op_type, attrs, name) or _prebound_kernel(
            op, attrs, list(consts[1:]), name, graph)
        return kernel, (0,)
    return (_generic_kernel(op, attrs, n_out, name, graph),
            tuple(range(len(consts))))


class FusedKernel:
    """A baked chain: one arena write for the whole matmul/conv → bias →
    normalisation → PWL-activation run.

    ``head`` is the first op's kernel over the fused record's runtime
    inputs; each ``epilogue`` kernel maps the chain value onward with
    its constants prebound.  Both come from :func:`_bake`, as
    single-node records do, so each step runs its op's registered
    ``execute`` (PWL steps swap in the bitwise-equivalent fast segment
    lookup) and fusion never changes a single output bit.
    """

    __slots__ = ("head", "epilogue", "label")

    def __init__(self, head: Kernel, epilogue: List[Kernel],
                 label: str = "") -> None:
        self.head = head
        self.epilogue = epilogue
        self.label = label

    def __call__(self, *inputs: np.ndarray) -> np.ndarray:
        x = self.head(*inputs)
        for fn in self.epilogue:
            x = fn(x)
        return x


def _fused_kernel(attrs: Dict[str, Any], consts: List[Optional[np.ndarray]],
                  name: str, graph: str) -> Tuple[Kernel, Tuple[int, ...]]:
    """Bake a fused node step by step (the generic kernel replays the
    registered steps if an epilogue step needs a runtime input)."""
    steps = _fused_steps(attrs)
    n_head = int(steps[0]["n_inputs"])
    head, positions = _bake(steps[0]["op"], steps[0]["attrs"],
                            consts[:n_head], name, graph=graph)
    epilogue: List[Kernel] = []
    pos = n_head
    for step in steps[1:]:
        n = int(step["n_inputs"])
        kernel, taken = _bake(step["op"], step["attrs"],
                              [None] + consts[pos:pos + n], name,
                              graph=graph)
        pos += n
        if taken != (0,):
            return (_generic_kernel(get_op("fused"), attrs, 1, name, graph),
                    tuple(range(len(consts))))
        epilogue.append(_fast(kernel))
    return (FusedKernel(_fast(head), epilogue, str(attrs.get("label", ""))),
            positions)


# --------------------------------------------------------------------- #
# Compiled nodes and the program
# --------------------------------------------------------------------- #
class CompiledNode:
    """One scheduled record: resolved op, arena slots and baked kernel.

    ``kernel`` maps the record's runtime inputs (read from the arena
    slots ``args``) to its output; ``step(values)`` applies it to the
    arena, with the arity specialised at compile time.  ``step`` reads
    ``kernel`` per call, so a swapped-in kernel takes effect.
    """

    __slots__ = ("name", "op_type", "node", "op", "attrs", "in_slots",
                 "out_slots", "frees", "kernel", "args", "step")

    def __init__(self, node: Node, op: OpImpl,
                 in_slots: Tuple[int, ...], out_slots: Tuple[int, ...],
                 frees: Tuple[int, ...], kernel: Kernel,
                 args: Tuple[int, ...]) -> None:
        self.name = node.name
        self.op_type = node.op_type
        self.node = node
        self.op = op
        self.attrs = node.attrs
        self.in_slots = in_slots
        self.out_slots = out_slots
        self.frees = frees
        self.kernel = kernel
        self.args = args
        self.step = self._bind()

    def _bind(self) -> Callable[[List[Any]], None]:
        args, out_slots = self.args, self.out_slots
        if len(out_slots) != 1:
            def step(values: List[Any]) -> None:
                outs = self.kernel(*[values[s] for s in args])
                for slot, arr in zip(out_slots, outs):
                    values[slot] = arr
            return step
        (out,) = out_slots
        if len(args) == 1:
            (arg,) = args

            def step(values: List[Any]) -> None:
                values[out] = self.kernel(values[arg])
            return step

        def step(values: List[Any]) -> None:
            values[out] = self.kernel(*[values[s] for s in args])
        return step


#: Per-record hook of :meth:`Program._execute`: runs the record itself.
Hook = Callable[[CompiledNode, List[Any]], None]


class Program:
    """A compiled, immutable execution plan for one :class:`Graph`.

    Build with :func:`compile_graph`; run with :meth:`run` (any batch
    size).  :attr:`profile` is the *static* cost profile derived from
    the compile-time shapes — no forward pass involved.
    """

    def __init__(self, graph: Graph, batch_size: int,
                 nodes: List[CompiledNode], n_slots: int,
                 template: List[Optional[np.ndarray]],
                 input_plan: List[Tuple[str, int, Tuple[int, ...]]],
                 output_plan: List[Tuple[str, int]],
                 shapes: Optional[Dict[str, Shape]],
                 static_profile: Optional[GraphProfile],
                 static_error: Optional[GraphError],
                 slot_map: Optional[Dict[str, int]] = None,
                 pass_reports: Optional[List] = None) -> None:
        self.graph = graph
        self.batch_size = batch_size
        self.nodes = nodes
        self._n_slots = n_slots
        self._template = template
        self._input_plan = input_plan
        self._output_plan = output_plan
        self._shapes = shapes
        self._static_profile = static_profile
        self._static_error = static_error
        #: Full value-name -> arena-slot assignment (the arena-liveness
        #: verifier replays the plan from it).
        self._slot_map: Dict[str, int] = dict(slot_map or {})
        #: Per-pass static-profile deltas from the optimizing pipeline
        #: (empty when compiled with ``optimize=False``).
        self.pass_reports: List = list(pass_reports or [])
        #: Non-fatal verifier findings collected at compile time
        #: (errors raise instead; see ``compile_graph``).
        self.diagnostics: List[Diagnostic] = []
        #: Table rows per fed input an embedding reads as token ids.
        fed = {name for name, _, _ in input_plan}
        self._vocab = {name: rows for name, rows in
                       _token_vocab(graph, self.order).items()
                       if name in fed}

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def order(self) -> List[Node]:
        """The scheduled IR nodes (topological order)."""
        return [cn.node for cn in self.nodes]

    @property
    def n_slots(self) -> int:
        """Arena size — peak simultaneously-live values."""
        return self._n_slots

    @property
    def n_pwl_kernels(self) -> int:
        """PWL activation/softmax kernels baked into the plan, counting
        the steps inside fused records."""
        return sum(1 for cn in self.nodes
                   for attrs in ([s.get("attrs", {}) for s in
                                  _fused_steps(cn.attrs)]
                                 if cn.op_type == "fused" else [cn.attrs])
                   if attrs.get("impl") == "pwl")

    @property
    def profile(self) -> GraphProfile:
        """Static cost profile at the compiled batch size (no execution)."""
        if self._static_profile is None:
            raise self._static_error or GraphError(
                f"graph {self.graph.name!r} has no static profile")
        return self._static_profile

    def value_shape(self, name: str) -> Shape:
        """Compile-time shape of one value (at the compiled batch size)."""
        if self._shapes is None:
            raise self._static_error or GraphError(
                f"graph {self.graph.name!r} has no static shapes")
        try:
            return self._shapes[name]
        except KeyError:
            fail("RPR205", f"unknown value {name!r}",
                 graph=self.graph.name)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _load_feeds(self, feeds: Dict[str, np.ndarray]
                    ) -> List[Optional[np.ndarray]]:
        values = self._template.copy()
        batch: Optional[int] = None
        for name, slot, shape in self._input_plan:
            if name not in feeds:
                fail("RPR201", f"missing graph input {name!r}",
                     graph=self.graph.name)
            arr = np.asarray(feeds[name])
            if shape and tuple(arr.shape[1:]) != tuple(shape[1:]):
                fail("RPR202",
                     f"input {name!r} shape {arr.shape} incompatible "
                     f"with {shape}",
                     graph=self.graph.name)
            if shape and not shape[0]:  # leading dim free = stacked batch
                n = arr.shape[0] if arr.ndim else 0
                if batch is None or batch == 1:
                    batch = n
                elif n != batch and n != 1:
                    # Size-1 leading dims broadcast (the eager numpy
                    # semantics); anything else is a genuine mismatch.
                    fail("RPR203",
                         f"batch-dim mismatch on graph inputs: {name!r} "
                         f"carries {n} samples, earlier inputs {batch}",
                         graph=self.graph.name)
            values[slot] = arr
        return values

    def _execute(self, feeds: Dict[str, np.ndarray],
                 hook: Optional[Hook] = None) -> Dict[str, np.ndarray]:
        """The run loop: each record's ``step`` — or ``hook(cn, values)``
        in its place — then the slot frees its last uses allow."""
        values = self._load_feeds(feeds)
        for cn in self.nodes:
            if hook is None:
                cn.step(values)
            else:
                hook(cn, values)
            for slot in cn.frees:
                values[slot] = None
        return {name: values[slot] for name, slot in self._output_plan}

    def run(self, feeds: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Execute the plan; returns the graph outputs by name."""
        return self._execute(feeds)

    def check_request(self, feeds: Dict[str, np.ndarray],
                      index: Optional[int] = None) -> int:
        """Validate one request for stacking; returns its sample count.

        Raises RPR201 for a missing input, RPR202 when trailing dims
        differ from the plan (the stack would be ragged), RPR203
        when the request's inputs disagree on their sample count (the
        stacked outputs could not be attributed back to it) and RPR208
        when an input an embedding reads as token ids holds anything
        but integers in ``[0, rows)`` of its table.
        ``index`` names the request's place in a batch in messages.
        """
        where = "request" if index is None else f"request {index}"
        n_samples: Optional[int] = None
        for name, _, shape in self._input_plan:
            if name not in feeds:
                fail("RPR201", f"{where}: missing graph input {name!r}",
                     graph=self.graph.name)
            arr = np.asarray(feeds[name])
            if shape and tuple(arr.shape[1:]) != tuple(shape[1:]):
                fail("RPR202",
                     f"{where}: input {name!r} shape {arr.shape} "
                     f"incompatible with per-sample shape "
                     f"{tuple(shape[1:])}",
                     graph=self.graph.name)
            n = arr.shape[0] if arr.ndim else 0
            if n_samples is None:
                n_samples = n
            elif n != n_samples:
                fail("RPR203",
                     f"batch-dim mismatch within {where}: input {name!r} "
                     f"carries {n} samples, earlier inputs {n_samples}",
                     graph=self.graph.name)
        for name, rows in self._vocab.items():
            if not _valid_ids(np.asarray(feeds[name]), rows):
                fail("RPR208",
                     f"{where}: input {name!r} holds token ids outside "
                     f"the integers 0..{rows - 1} of its embedding table",
                     graph=self.graph.name)
        return n_samples or 0

    def run_many(self, feeds_seq: Sequence[Dict[str, np.ndarray]]
                 ) -> List[Dict[str, np.ndarray]]:
        """Fuse per-sample feeds into one stacked pass and split back.

        Each element of ``feeds_seq`` is a normal ``run`` feed dict
        (leading batch dimension included) that passes
        :meth:`check_request`; the inputs are concatenated along the
        batch axis, executed once, and the outputs are split back into
        one dict per caller.
        """
        counts = [self.check_request(feeds, i)
                  for i, feeds in enumerate(feeds_seq)]
        if len(feeds_seq) <= 1:
            return [self.run(feeds) for feeds in feeds_seq]
        stacked = {name: np.concatenate([np.asarray(feeds[name])
                                         for feeds in feeds_seq], axis=0)
                   for name, _, _ in self._input_plan}
        bounds = np.cumsum(counts)[:-1]
        out = self.run(stacked)
        split = {name: np.split(arr, bounds, axis=0)
                 for name, arr in out.items()}
        return [{name: split[name][i] for name in out}
                for i in range(len(feeds_seq))]

    def run_profiled(self, feeds: Dict[str, np.ndarray]
                     ) -> Tuple[Dict[str, np.ndarray], GraphProfile]:
        """Execute and cost every node from *runtime* shapes.

        Every record runs through its registered ``execute`` (not its
        baked kernel) over the full input list, exactly like the eager
        interpreter; use :attr:`profile` for the zero-execution variant.
        """
        prof = GraphProfile()
        graph = self.graph.name

        def profiled(cn: CompiledNode, values: List[Any]) -> None:
            # Gather the inputs first: an output may take over the slot
            # of an input that dies at this record.
            inputs = [values[s] for s in cn.in_slots]
            outs = _checked(cn.op.execute(inputs, cn.attrs),
                            len(cn.out_slots), cn.name, graph)
            for slot, arr in zip(cn.out_slots, outs):
                values[slot] = arr
            cost = cn.op.cost([tuple(np.shape(v)) for v in inputs],
                              [tuple(np.shape(o)) for o in outs],
                              cn.attrs)
            prof.nodes.append(NodeProfile(name=cn.name, op_type=cn.op_type,
                                          cost=cost))

        return self._execute(feeds, profiled), prof

    def run_timed(self, feeds: Dict[str, np.ndarray], repeats: int = 1
                  ) -> Tuple[Dict[str, np.ndarray], "ExecutionProfile"]:
        """Execute with an opt-in per-kernel timer.

        Returns the (last run's) outputs plus a runtime
        :class:`~repro.obs.profile.ExecutionProfile` — node-for-node
        aligned with the static :attr:`profile`, which is what
        :func:`repro.obs.profile.compare_profiles` consumes.  The exact
        same kernels as :meth:`run` execute (outputs are bitwise
        identical); the only addition is two clock reads per node, so
        ``repeats > 1`` is the cheap way to average out timer noise.
        """
        from ..obs.clock import tick
        from ..obs.profile import ExecutionProfile, KernelTiming

        timings = [KernelTiming(name=cn.name, op_type=cn.op_type)
                   for cn in self.nodes]
        outputs: Dict[str, np.ndarray] = {}
        for _ in range(max(1, int(repeats))):
            spent: List[float] = []

            def timed(cn: CompiledNode, values: List[Any]) -> None:
                t0 = tick()
                cn.step(values)
                spent.append(tick() - t0)

            outputs = self._execute(feeds, timed)
            for timing, seconds in zip(timings, spent):
                timing.total_s += seconds
                timing.calls += 1
        return outputs, ExecutionProfile(nodes=timings)


def _token_vocab(graph: Graph, order: Sequence[Node]) -> Dict[str, int]:
    """Table rows per value an ``embedding`` (or a fused record headed
    by one) reads as token ids; the smallest table when several do."""
    vocab: Dict[str, int] = {}
    for node in order:
        head = (_fused_steps(node.attrs)[0]["op"] if node.op_type == "fused"
                else node.op_type)
        table = (graph.initializers.get(node.inputs[1])
                 if head == "embedding" and len(node.inputs) > 1 else None)
        if table is not None and table.ndim:
            ids = node.inputs[0]
            vocab[ids] = min(vocab.get(ids, len(table)), len(table))
    return vocab


def _valid_ids(ids: np.ndarray, rows: int) -> bool:
    """Every element an integral number in ``[0, rows)``: NaN and
    infinities fail the range test, non-numeric dtypes fail outright."""
    if ids.dtype.kind not in "biuf":
        return False
    if not ids.size:
        return True
    if not (ids.min() >= 0 and ids.max() < rows):
        return False
    return ids.dtype.kind != "f" or bool(np.all(np.floor(ids) == ids))


# --------------------------------------------------------------------- #
# Compilation
# --------------------------------------------------------------------- #
def _static_shapes(graph: Graph, order: List[Node],
                   batch_size: int) -> Dict[str, Shape]:
    """Shape of every value at ``batch_size`` samples, or raise."""
    shapes: Dict[str, Shape] = {}
    for name, shape in graph.inputs:
        if not shape:
            raise GraphError(
                f"graph input {name!r} declares no shape; static "
                f"compilation needs one (batch dim may be 0 = any)")
        dims = tuple(int(d) for d in shape)
        shapes[name] = (batch_size if dims[0] == 0 else dims[0],) + dims[1:]
    for name, arr in graph.initializers.items():
        shapes[name] = tuple(arr.shape)
    for node in order:
        in_shapes = [shapes[v] for v in node.inputs]
        out_shapes = infer_node_shapes(node.op_type, in_shapes, node.attrs)
        if len(out_shapes) != len(node.outputs):
            raise GraphError(
                f"node {node.name} declares {len(node.outputs)} outputs "
                f"but its shape rule produced {len(out_shapes)}")
        for value, shape in zip(node.outputs, out_shapes):
            shapes[value] = shape
    return shapes


def _static_profile(order: List[Node],
                    shapes: Dict[str, Shape]) -> GraphProfile:
    prof = GraphProfile()
    for node in order:
        op = get_op(node.op_type)
        cost = op.cost([shapes[v] for v in node.inputs],
                       [shapes[v] for v in node.outputs],
                       node.attrs)
        prof.nodes.append(NodeProfile(name=node.name, op_type=node.op_type,
                                      cost=cost))
    return prof


def compile_graph(graph: Graph, batch_size: int = 1,
                  verify: bool = True, optimize: bool = False,
                  passes: Optional[Sequence[str]] = None) -> Program:
    """Compile ``graph`` into a :class:`Program` (see module docstring).

    ``batch_size`` only parameterises the *static* shapes and cost
    profile; the returned plan executes feeds of any batch size.
    Raises :class:`~repro.errors.GraphError` on structural problems
    (cycles, missing values, duplicate producers) at compile time.

    With ``verify`` on (the default) the registered static checks run
    over the graph before planning and over the finished program after:
    error-severity findings raise a coded
    :class:`~repro.analysis.diagnostics.DiagnosticError`, warnings are
    collected on :attr:`Program.diagnostics`.  ``verify=False`` skips
    the analysis entirely (the structural ``validate()`` still runs).

    ``optimize=True`` runs the :mod:`repro.graph.opt` pass pipeline
    between scheduling and kernel baking — constant folding, dead-node
    elimination, kernel fusion and the dependence-level reorder by
    default; ``passes`` selects/orders a subset by name.  Every pass
    preserves bitwise output equality with the eager interpreter;
    per-pass static cost deltas land on :attr:`Program.pass_reports`.
    Optimization is skipped (reported via ``pass_reports`` staying
    empty) when static shape inference fails — the passes key their
    safety analysis off the static shapes.
    """
    if batch_size < 1:
        fail("RPR207", f"batch_size must be >= 1, got {batch_size}",
             graph=graph.name)
    graph.validate()
    order = graph.topological_order()

    diagnostics: List[Diagnostic] = []
    if verify:
        # Deferred import: the checks read the op registry from this
        # package, so they cannot be imported at module load time.
        from ..analysis.context import AnalysisContext
        from ..analysis.verify import raise_on_errors, run_checks

        diagnostics = run_checks(
            AnalysisContext(graph, batch_size=batch_size), scope="graph")
        raise_on_errors(diagnostics)

    # Static shapes + profile.  Failure (an op without a shape rule, an
    # input without a declared shape) is recorded, not raised: the plan
    # still executes, only `Program.profile` becomes unavailable.
    shapes: Optional[Dict[str, Shape]] = None
    profile: Optional[GraphProfile] = None
    static_error: Optional[GraphError] = None
    try:
        shapes = _static_shapes(graph, order, batch_size)
        profile = _static_profile(order, shapes)
    except GraphError as exc:
        static_error = exc
    except Exception as exc:
        # Shape rules unpack fixed ranks and user-registered rules may
        # raise anything; no static-inference failure is allowed to
        # abort compilation (the plan still executes — the runtime will
        # surface the real problem, exactly as the eager path did).
        shapes = None
        profile = None
        static_error = GraphError(
            f"static shape inference failed for graph "
            f"{graph.name!r}: {exc!r}")

    # Optimizing pipeline: plan→plan rewrites on a private clone, run
    # after graph-scope verification/scheduling and before the arena
    # and kernel baking below consume the (possibly rewritten) order.
    pass_reports: List = []
    if (optimize or passes is not None) and shapes is not None:
        from .opt import Plan, build_pipeline

        work = graph.clone()
        plan = Plan(graph=work, order=work.topological_order(),
                    batch_size=batch_size, shapes=dict(shapes))
        plan, pass_reports = build_pipeline(passes).run(plan)
        graph = plan.graph
        order = plan.order
        shapes = plan.shapes
        try:
            profile = (_static_profile(order, shapes)
                       if shapes is not None else None)
        except Exception as exc:
            profile = None
            static_error = GraphError(
                f"static profiling failed after optimization for graph "
                f"{graph.name!r}: {exc!r}")

    # Liveness: last scheduled consumer of every value.
    last_use: Dict[str, int] = {}
    for i, node in enumerate(order):
        for value in node.inputs:
            last_use[value] = i
    persistent = set(graph.initializers) | set(graph.outputs)

    # Arena assignment with slot reuse.
    slots: Dict[str, int] = {}
    free_slots: List[int] = []
    n_slots = 0

    def alloc(name: str) -> int:
        nonlocal n_slots
        if name in slots:
            return slots[name]
        slot = free_slots.pop() if free_slots else n_slots
        if slot == n_slots:
            n_slots += 1
        slots[name] = slot
        return slot

    input_plan: List[Tuple[str, int, Tuple[int, ...]]] = []
    for name, shape in graph.inputs:
        if name in graph.initializers:
            continue  # eager semantics: the initializer value wins
        input_plan.append((name, alloc(name), tuple(shape)))
    for name in graph.initializers:
        alloc(name)

    consts = graph.initializers
    compiled: List[CompiledNode] = []
    for i, node in enumerate(order):
        in_slots = tuple(slots[v] for v in node.inputs)
        # Free dead inputs *before* allocating outputs so an output may
        # reuse the slot of an input dying at this very node — but only
        # via the free list, never aliasing a slot this node still reads.
        dead = [v for v in set(node.inputs)
                if last_use.get(v) == i and v not in persistent
                and v not in node.outputs]
        free_slots.extend(slots[v] for v in dead)
        out_slots = tuple(alloc(v) for v in node.outputs)
        # A dead input whose slot was just handed to an output of this
        # node is aliased, not dead — the write IS the free.
        frees = [slots[v] for v in dead if slots[v] not in out_slots]
        # Outputs nobody consumes (and which are not graph outputs) die
        # immediately.
        for v in node.outputs:
            if v not in last_use and v not in persistent:
                free_slots.append(slots[v])
                frees.append(slots[v])
        kernel, positions = _bake(node.op_type, node.attrs,
                                  [consts.get(v) for v in node.inputs],
                                  node.name, len(node.outputs), graph.name)
        compiled.append(CompiledNode(
            node, get_op(node.op_type), in_slots, out_slots, tuple(frees),
            kernel, tuple(in_slots[p] for p in positions)))

    template: List[Optional[np.ndarray]] = [None] * n_slots
    for name, arr in graph.initializers.items():
        template[slots[name]] = arr

    output_plan = [(name, slots[name]) for name in graph.outputs]
    program = Program(graph=graph, batch_size=batch_size, nodes=compiled,
                      n_slots=n_slots, template=template,
                      input_plan=input_plan, output_plan=output_plan,
                      shapes=shapes, static_profile=profile,
                      static_error=static_error, slot_map=slots,
                      pass_reports=pass_reports)
    if verify:
        from ..analysis.context import AnalysisContext
        from ..analysis.verify import raise_on_errors, run_checks

        program_diags = run_checks(
            AnalysisContext(graph, batch_size=batch_size, program=program),
            scope="program")
        raise_on_errors(program_diags)
        program.diagnostics = diagnostics + program_diags
    return program
