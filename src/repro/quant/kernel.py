"""Fused quantized-kernel runtime: the fast path of the deployed pipeline.

:func:`repro.quant.quantized_matmul` is the reference implementation of the
paper's accelerator dataflow (quantize → INT GEMM → 24-bit wrap → injection →
anomaly clearance → dequantize), but it pays per-call costs that dominate
trial time at surrogate scale: scale/bound lookups through ``QuantParams``
objects, fresh int64 accumulator allocations, and closure-based dispatch.
This module is the same pipeline compiled into long-lived runtime objects:

* every registered :class:`~repro.quant.qgemm.QuantizedLinear` is flattened
  into a plain-attribute entry (inverse input scale, combined output scale,
  integer anomaly bound, bias) resolved with a single dict lookup per call,
  and shared across trials through an immutable :class:`KernelPlan`;
* a :class:`KernelContext` holds one lane's state — hooks, injector RNG,
  plan; injection and anomaly clearance run as in-pipeline stages on its
  injector / detector objects, which count flips (``InjectionStats``) and
  clamps (``AnomalyStats``), and a lane that carries a ``stats`` hook gets
  its MACs and produced elements recorded in that ``GemmStats``;
* :class:`BatchedKernel` is the one body of the pipeline.  It runs a stack
  of lanes — row-stacked activations of N contexts — as one quantize and
  one GEMM, then applies each lane's stages to its own row slice.  A single
  lane is a stack of one (:meth:`KernelContext.qgemm` is that entry).

Results are bit-identical to ``quantized_matmul`` — the fused path changes
bookkeeping, not arithmetic — which the kernel equivalence tests assert.

Stacking
--------
Two fusion levels rest on the same exactness argument (a float64 GEMM over
integer-valued operands is exact below 2^52, and every per-element pipeline
stage — wrap, injection, clamp, dequantize — commutes with row or column
slicing):

* **Fused component groups** (``qgemm_multi``) stack the weight matrices of
  components that read the same input under one shared calibration scale
  (Q/K/V, Gate/Up) column-wise and run them as one GEMM.  Injection draws,
  anomaly clearance, MAC attribution and dequantization still run per
  component on the column slice (one scatter then applies every slice's
  drawn flips), so a fault targeted at ``*.k`` lands only in the K slice
  and every stats object matches the unfused path bit for bit.
* **Lane stacks** row-stack the inputs of N independent lanes.  Each lane
  keeps its own RNG stream and sees row blocks of exactly the shapes a
  stack of one would produce, so a stack of N is bit-identical to N stacks
  of one — fault-free and under injection.

Logical-row accounting
----------------------
Incremental (KV-cached) decoding computes GEMMs only for new token rows, but
energy / latency accounting must stay decode-strategy-invariant: the
``logical_rows`` argument of ``qgemm`` records MACs for the full logical row
count of the modelled dataflow while the arithmetic (and therefore the fault
exposure of the *produced* accumulator elements) covers only the rows
actually computed.  Cached and uncached decode thus report identical MAC
counts, and injection keeps the expected number of corrupted elements per
produced accumulator element unchanged.
"""

from __future__ import annotations

import hashlib

import numpy as np

from typing import Callable

from .qgemm import GemmHooks, QuantizedLinear
from .qtypes import INT8, QuantSpec, xor_flips

__all__ = ["KernelContext", "KernelPlan", "FloatKernel", "KVCache",
           "BatchedKernel", "CALIBRATION_STACK_LANES"]

#: Fused-entry memo miss marker (``None`` is a valid cached value: unfusable).
_UNRESOLVED = object()


class _KernelEntry:
    """Flattened per-layer constants of the fused pipeline (one dict lookup)."""

    __slots__ = ("weight_q", "weight_f", "x_scale", "combined_scale", "bound_acc",
                 "bias", "in_features", "out_features", "qmin", "qmax",
                 "wrap_free", "exact_float")

    def __init__(self, layer: QuantizedLinear):
        spec = layer.spec
        self.weight_q = layer.weight_q
        # Float copy of the integer weights: for the magnitudes the formats
        # allow, a float64 GEMM over integer-valued operands is *exact* and
        # runs through BLAS instead of numpy's integer matmul loop.
        self.weight_f = layer.weight_q.astype(np.float64)
        self.x_scale = layer.x_params.scale
        self.combined_scale = layer.x_params.scale * layer.w_params.scale
        # The integer clamp bound is always resolved (plans are shared by
        # clamped and clamp-less contexts alike); every pipeline stage that
        # uses it still gates on the context's own ``clamp`` hook, so a
        # clamp-less context never reads it.
        self.bound_acc = None
        if layer.output_bound is not None:
            self.bound_acc = int(np.ceil(layer.output_bound / self.combined_scale))
        self.bias = layer.bias
        self.in_features = layer.in_features
        self.out_features = layer.out_features
        self.qmin = spec.qmin
        self.qmax = spec.qmax
        # Largest accumulator magnitude any in-range input can produce.
        acc_bound = spec.qmax * int(np.abs(layer.weight_q).sum(axis=0).max())
        # When that bound fits the accumulator, wrapping is the identity and
        # the wrap stage can be skipped without changing a single bit.
        self.wrap_free = acc_bound < (1 << (spec.accumulator_bits - 1))
        # When it also fits the float64 integer range, the BLAS result is
        # bit-exact; otherwise fall back to the integer matmul.
        self.exact_float = acc_bound < (1 << 52)

    @classmethod
    def from_parts(cls, *, weight_q: np.ndarray, weight_f: np.ndarray,
                   x_scale: float, combined_scale: float,
                   bound_acc: int | None, bias: np.ndarray | None,
                   qmin: int, qmax: int, wrap_free: bool,
                   exact_float: bool) -> "_KernelEntry":
        """Rebuild an entry from already-resolved constants and array views.

        Used by the shared-memory weight plane: the arrays may be read-only
        views into a shared segment, and every scalar is carried verbatim
        (never recomputed), so an attached entry is bit-identical to the
        published one.
        """
        entry = cls.__new__(cls)
        entry.weight_q = weight_q
        entry.weight_f = weight_f
        entry.x_scale = x_scale
        entry.combined_scale = combined_scale
        entry.bound_acc = bound_acc
        entry.bias = bias
        entry.in_features = int(weight_q.shape[0])
        entry.out_features = int(weight_q.shape[1])
        entry.qmin = qmin
        entry.qmax = qmax
        entry.wrap_free = wrap_free
        entry.exact_float = exact_float
        return entry


class _FusedEntry:
    """Column-stacked constants of a component group sharing one input scale.

    Components whose GEMMs read the same activation tensor under the same
    calibration scale (Q/K/V off the attention norm, Gate/Up off the MLP
    norm) can run as one GEMM over the column-concatenated weights.  The
    per-component stages (injection, clamp, dequantize, stats) keep using
    the original :class:`_KernelEntry` objects on column slices, so fusion
    never changes a bit of any component's output or bookkeeping.
    """

    __slots__ = ("slices", "weight_q", "weight_f", "x_scale", "in_features",
                 "out_features", "qmin", "qmax", "wrap_free", "exact_float",
                 "scale_row", "component_macs", "uniform_scale", "any_bias")

    def __init__(self, names: tuple[str, ...], entries: list[_KernelEntry]):
        self.slices: list[tuple[str, _KernelEntry, int, int]] = []
        offset = 0
        for name, entry in zip(names, entries):
            self.slices.append((name, entry, offset, offset + entry.out_features))
            offset += entry.out_features
        # Per-call stats template: (name, macs-per-logical-row, columns) per
        # component, for the lanes that carry a ``GemmStats`` hook.
        self.component_macs = tuple(
            (name, entry.in_features * entry.out_features, entry.out_features)
            for name, entry, _, _ in self.slices)
        self.any_bias = any(entry.bias is not None for entry in entries)
        self.weight_q = np.concatenate([e.weight_q for e in entries], axis=1)
        self.weight_f = np.concatenate([e.weight_f for e in entries], axis=1)
        # Full-width dequant row: one contiguous multiply instead of one
        # strided multiply per column slice.  Each column holds exactly its
        # component's scalar ``combined_scale``, so the product is
        # bit-identical to per-slice scaling.
        self.scale_row = np.concatenate([
            np.full(e.out_features, e.combined_scale) for e in entries])
        # When every component shares one combined scale, a scalar multiply
        # produces the same per-element float product as the full row.
        scales = {e.combined_scale for e in entries}
        self.uniform_scale = scales.pop() if len(scales) == 1 else None
        first = entries[0]
        self.x_scale = first.x_scale
        self.in_features = first.in_features
        self.out_features = offset
        self.qmin = first.qmin
        self.qmax = first.qmax
        self.wrap_free = all(e.wrap_free for e in entries)
        self.exact_float = all(e.exact_float for e in entries)

    @staticmethod
    def fusable(entries: list[_KernelEntry]) -> bool:
        """Whether the components share the input geometry and quantization."""
        first = entries[0]
        return all(e.in_features == first.in_features
                   and e.x_scale == first.x_scale
                   and e.qmin == first.qmin and e.qmax == first.qmax
                   for e in entries[1:])


class KernelPlan:
    """Immutable, content-addressed compiled form of a deployed model.

    A plan holds everything about a set of pre-quantized layers that does
    not change between trials: the flattened :class:`_KernelEntry` constants
    (integer weights, their float copies, scales, clamp bounds), the memo of
    column-stacked :class:`_FusedEntry` group layouts, and the quantization
    spec.  Building those is the dominant cost of ``KernelContext``
    construction — float copies of every weight matrix plus a per-layer
    column-sum reduction — so deployed agents build one plan per calibration
    and hand it to every per-trial context, which then only allocates its
    tiny mutable state (hook wiring, input memo).

    ``content_hash`` is a SHA-256 over the spec, layer names, scales, bounds
    and weight bytes: two plans with equal hashes are bit-identical, which is
    what lets the shared-memory weight plane key segments by hash and lets
    workers verify an attached plan matches their own checkpoint before
    adopting it.

    Plans are shared (across trials, pool workers, and fleets) and therefore
    never mutated after construction; ``KernelContext.register`` on a
    plan-backed context forks private copies first (copy-on-write).
    """

    __slots__ = ("spec", "entries", "fused_memo", "content_hash", "shared",
                 "_shm")

    def __init__(self, layers: dict[str, QuantizedLinear],
                 spec: QuantSpec = INT8):
        self.spec = spec
        self.entries: dict[str, _KernelEntry] = {}
        for name, layer in layers.items():
            if layer.spec != spec:
                raise ValueError(
                    f"layer {name!r} uses {layer.spec}, plan uses {spec}")
            self.entries[name] = _KernelEntry(layer)
        self.fused_memo: dict[tuple[str, ...], _FusedEntry | None] = {}
        self.content_hash = self.hash_layers(layers, spec)
        #: True when the entry arrays live in an attached shared-memory
        #: segment rather than process-private memory.
        self.shared = False
        # Keeps the attached SharedMemory mapping alive while any entry
        # array views its buffer; None for process-private plans.
        self._shm = None

    @classmethod
    def from_entries(cls, entries: dict[str, _KernelEntry],
                     spec: QuantSpec, content_hash: str, *,
                     shared: bool = False, shm=None) -> "KernelPlan":
        """Assemble a plan from prebuilt entries (shared-memory attach path)."""
        plan = cls.__new__(cls)
        plan.spec = spec
        plan.entries = dict(entries)
        plan.fused_memo = {}
        plan.content_hash = content_hash
        plan.shared = shared
        plan._shm = shm
        return plan

    @staticmethod
    def hash_layers(layers: dict[str, QuantizedLinear],
                    spec: QuantSpec) -> str:
        """Canonical content hash of a layer set (order-independent).

        Covers everything an entry is derived from — spec, per-layer scales,
        output bounds, bias bytes and quantized-weight bytes — so equal
        hashes imply bit-identical plans.
        """
        digest = hashlib.sha256()
        digest.update(repr(spec).encode())
        for name in sorted(layers):
            layer = layers[name]
            bound = layer.output_bound
            digest.update(name.encode())
            digest.update(repr((float(layer.x_params.scale),
                                float(layer.w_params.scale),
                                None if bound is None else float(bound),
                                layer.bias is not None)).encode())
            digest.update(np.ascontiguousarray(layer.weight_q).tobytes())
            if layer.bias is not None:
                digest.update(np.ascontiguousarray(layer.bias).tobytes())
        return digest.hexdigest()

    def component_names(self) -> list[str]:
        return sorted(self.entries)


class KernelContext:
    """One lane's state of the fused pipeline: hooks, injector RNG and the plan.

    A context holds everything that belongs to one prompt or one trial —
    its hooks (injector with its own RNG stream, anomaly clamp, optional
    ``GemmStats``) and the flattened layer entries it runs (shared with a
    :class:`KernelPlan`, or registered privately).  It keeps no counters of
    its own: the injector counts flips, the clamp counts clearances, and a
    ``stats`` hook, when given, records MACs and produced elements.  The
    pipeline itself runs in :class:`BatchedKernel`, over a stack of lanes;
    :meth:`qgemm` and :meth:`qgemm_multi` are the one-lane entries, a stack
    of one through the context's own kernel (:attr:`kernel`).

    Parameters
    ----------
    layers:
        Pre-quantized layers to register up front (more can be added with
        :meth:`register`).
    hooks:
        The same :class:`~repro.quant.qgemm.GemmHooks` the reference pipeline
        takes; injector / anomaly-clamp / stats objects are shared, so their
        own counters stay live.
    spec:
        Quantization format of the registered layers.
    rng:
        Optional per-context random stream.  When given, the context's
        injector is reseeded with it (see
        :meth:`repro.faults.ErrorInjector.reseed`), so every context draws
        from its own reproducible stream.
    plan:
        Optional shared :class:`KernelPlan`.  A plan-backed context skips
        layer flattening entirely — construction touches no weight array —
        and shares the plan's entries and fused-group memo with every other
        context over the same plan.  ``layers``/``spec`` are taken from the
        plan; registering additional layers forks private copies first
        (copy-on-write), so a shared plan is never mutated.
    """

    def __init__(self, layers: dict[str, QuantizedLinear] | None = None,
                 hooks: GemmHooks | None = None, spec: QuantSpec = INT8,
                 rng: np.random.Generator | None = None,
                 plan: KernelPlan | None = None):
        hooks = hooks or GemmHooks()
        if plan is not None:
            spec = plan.spec
        self.spec = spec
        self.hooks = hooks
        self.injector = hooks.injector
        self.clamp = hooks.anomaly_clamp
        self.stats = hooks.stats
        if rng is not None and self.injector is not None:
            self.injector.reseed(rng)
        self._plan = plan
        if plan is not None:
            # Shared, read-only: entries and the fused-group memo alias the
            # plan's own dicts (the memo fills in deterministically, so
            # sharing it across contexts changes no results).
            self._entries = plan.entries
            self._fused_entries = plan.fused_memo
        else:
            self._entries: dict[str, _KernelEntry] = {}
            self._fused_entries: dict[tuple[str, ...], _FusedEntry | None] = {}
        self._kernel: BatchedKernel | None = None
        # The last lane stack whose first lane is this context (see
        # :meth:`BatchedKernel.of`).
        self._stack: BatchedKernel | None = None
        if layers:
            self.register_all(layers)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    @property
    def plan(self) -> KernelPlan | None:
        """The shared plan backing this context (None when self-registered)."""
        return self._plan

    def register(self, layer: QuantizedLinear) -> None:
        """Flatten one pre-quantized layer into the context."""
        if layer.spec != self.spec:
            raise ValueError(
                f"layer {layer.name!r} uses {layer.spec}, context uses {self.spec}")
        if self._plan is not None:
            # Copy-on-write: a plan is shared across trials and workers, so
            # a context that grows past it gets private dicts of its own.
            self._entries = dict(self._entries)
            self._fused_entries = {}
            self._plan = None
        self._entries[layer.name] = _KernelEntry(layer)
        self._fused_entries.clear()

    def register_all(self, layers: dict[str, QuantizedLinear]) -> None:
        for layer in layers.values():
            self.register(layer)

    def component_names(self) -> list[str]:
        return sorted(self._entries)

    # ------------------------------------------------------------------
    # One-lane entries
    # ------------------------------------------------------------------
    @property
    def kernel(self) -> "BatchedKernel":
        """This context as a stack of one lane (built on first use, then kept)."""
        if self._kernel is None:
            self._kernel = BatchedKernel([self])
        return self._kernel

    def qgemm(self, name: str, x: np.ndarray,
              logical_rows: int | None = None) -> np.ndarray:
        """Fused quantize → INT GEMM → wrap → inject → clamp → dequantize.

        :meth:`BatchedKernel.qgemm` over a stack of one.  ``x`` is the float
        input (rows actually computed, any leading shape); ``logical_rows``
        optionally overrides the row count used for MAC accounting (see the
        module docstring).  Returns a fresh float array, bit-identical to
        :func:`repro.quant.quantized_matmul` on the same operands.
        """
        kernel = self._kernel or self.kernel
        logical = None if logical_rows is None else (logical_rows,)
        if x.ndim == 2:
            return kernel.qgemm(name, x, (x.shape[0],), logical)
        rows = x.reshape(-1, x.shape[-1])
        out = kernel.qgemm(name, rows, (rows.shape[0],), logical)
        return out.reshape(*x.shape[:-1], out.shape[-1])

    def qgemm_multi(self, names: tuple[str, ...], x: np.ndarray,
                    logical_rows: int | None = None) -> tuple[np.ndarray, ...]:
        """Several components over one input as one stacked GEMM, one lane.

        :meth:`BatchedKernel.qgemm_multi` over a stack of one: components
        sharing the input scale (Q/K/V, Gate/Up) run as one column-stacked
        GEMM, every per-component stage on its column slice in call order, so
        results and stats equal separate :meth:`qgemm` calls bit for bit.
        """
        kernel = self._kernel or self.kernel
        logical = None if logical_rows is None else (logical_rows,)
        if x.ndim == 2:
            return kernel.qgemm_multi(names, x, (x.shape[0],), logical)
        rows = x.reshape(-1, x.shape[-1])
        return tuple(part.reshape(*x.shape[:-1], part.shape[-1]) for part
                     in kernel.qgemm_multi(names, rows, (rows.shape[0],), logical))

    # ------------------------------------------------------------------
    # Lane stages
    # ------------------------------------------------------------------
    def _fused(self, names: tuple[str, ...]) -> _FusedEntry | None:
        """Memoized column-stacked entry for a component group (None: unfusable)."""
        if names in self._fused_entries:
            return self._fused_entries[names]
        entries = [self._entries[name] for name in names]
        fused = _FusedEntry(names, entries) if _FusedEntry.fusable(entries) else None
        self._fused_entries[names] = fused
        return fused


class BatchedKernel:
    """The fused pipeline over a stack of lanes: the body of every quantized GEMM.

    A lane is one prompt's or one trial's rows, with its own
    :class:`KernelContext`.  Callers row-stack the lanes' activations and
    call :meth:`qgemm` / :meth:`qgemm_multi` with ``lane_rows`` giving each
    lane's row count in the stack.  Quantization and the (IN)T GEMM run
    once for the whole stack; every per-lane stage — fault injection with
    the lane's own RNG stream, anomaly clearance, and the MAC record of a
    lane that carries a ``GemmStats`` hook — runs on the lane's row slice
    through the lane's own context.  Each lane's injector therefore sees
    tensors of exactly the shapes (and values) a stack of one would
    produce, in the same call order, so a stack of N is bit-identical to N
    stacks of one, fault-free and under injection.  Lanes without hooks
    cost no per-lane work at all.

    All contexts must be registered over the same deployed model (same
    component names, scales, and quantization spec); lanes may differ in
    hooks — injectors, clamps, stats — arbitrarily.
    """

    def __init__(self, contexts: list[KernelContext]):
        if not contexts:
            raise ValueError("BatchedKernel needs at least one context")
        host = contexts[0]
        for context in contexts[1:]:
            if context.spec != host.spec:
                raise ValueError("all batched contexts must share one spec")
            if context._entries.keys() != host._entries.keys():
                raise ValueError(
                    "all batched contexts must register the same components")
        self.contexts = list(contexts)
        self.spec = host.spec
        self._host = host
        self._qx_source: np.ndarray | None = None
        self._qx_scale = 0.0
        self._qx: np.ndarray | None = None
        # Wrap constants of the accumulator format, resolved once.
        self._acc_mask = host.spec.accumulator_mask
        self._acc_sign = 1 << (host.spec.accumulator_bits - 1)
        self._acc_span = 1 << host.spec.accumulator_bits
        # Hooks are fixed at context construction, so hoist the "does any
        # lane inject / clamp / keep stats" checks out of the per-call hot
        # path; when no lane has hooks the per-lane stages are skipped.
        self._faulty = any(c.injector is not None for c in self.contexts)
        self._hooked = self._faulty or any(
            c.clamp is not None for c in self.contexts)
        self._stats = [(lane, context.stats)
                       for lane, context in enumerate(self.contexts)
                       if context.stats is not None]
        self._bounds_memo: dict[tuple[int, ...], list[tuple[int, int]]] = {}

    @classmethod
    def of(cls, contexts: list[KernelContext]) -> "BatchedKernel":
        """The kernel of a lane stack, reused while the lane set stays the same.

        A single lane uses its context's own kernel.  A larger stack is kept
        on its first context and handed out again, its input memo released,
        as long as the same contexts come in the same order, so a fleet's
        controller builds and validates its stack once rather than every
        step.  Any other lane set (a lane dropped or added) builds a new one.
        """
        if len(contexts) == 1:
            return contexts[0].kernel
        host = contexts[0]
        kernel = host._stack
        if kernel is not None and kernel.contexts == contexts:
            kernel.release_inputs()
            return kernel
        kernel = host._stack = cls(contexts)
        return kernel

    def release_inputs(self) -> None:
        """Drop the stack-level input memo (end of a decode / act step).

        The memo only ever hits *within* one step — each step stacks fresh
        lane activations, so ``x is self._qx_source`` cannot match across
        steps — but without an explicit release it pins the last stacked
        input (and its quantized copy) for the kernel's lifetime.  Stack
        drivers call this once per step so long fleet missions don't grow
        resident memory with stale activation stacks.
        """
        self._qx_source = None
        self._qx_scale = 0.0
        self._qx = None

    def _bounds(self, lane_rows, total: int) -> list[tuple[int, int]]:
        """Each lane's ``(lo, hi)`` row block (memoized per ``lane_rows``)."""
        key = tuple(lane_rows)
        bounds = self._bounds_memo.get(key)
        if bounds is not None:
            if key and bounds[-1][1] != total or not key and total:
                raise ValueError(
                    f"lane_rows sum to {sum(key)}, stack has {total} rows")
            return bounds
        if len(key) != len(self.contexts):
            raise ValueError(
                f"{len(key)} lane_rows for {len(self.contexts)} lanes")
        bounds = []
        offset = 0
        for rows in lane_rows:
            bounds.append((offset, offset + rows))
            offset += rows
        if offset != total:
            raise ValueError(f"lane_rows sum to {offset}, stack has {total} rows")
        self._bounds_memo[key] = bounds
        return bounds

    def _record(self, components, bounds, logical_rows) -> None:
        """MACs and produced elements of every ``stats``-hooked lane.

        ``components`` holds ``(name, MACs per logical row, columns)`` per
        component, in call order.  MACs count the lane's logical rows (see
        the module docstring), produced elements its computed rows.
        """
        for lane, stats in self._stats:
            lo, hi = bounds[lane]
            logical = hi - lo if logical_rows is None else logical_rows[lane]
            for name, per_row, columns in components:
                stats.record(name, logical * per_row, (hi - lo) * columns)

    def _accumulate(self, entry, x: np.ndarray) -> tuple[np.ndarray, bool]:
        """Quantize + GEMM (+wrap) for the whole stack; returns (acc, is_int).

        The quantized input is memoized on the identity of ``x`` (components
        sharing one calibration scale, e.g. Q/K/V reading one normalized
        residual, reuse it; holding ``x`` keeps its id() from being
        recycled).  Lanes without an injector could stay in the float
        domain, but a single integer accumulator for the whole stack keeps
        one GEMM per call; the int64 and float paths dequantize to identical
        bits (the accumulator is exact below 2^52 either way).
        """
        if x is self._qx_source and entry.x_scale == self._qx_scale:
            x_q = self._qx
        else:
            # Identical arithmetic to quantizer.quantize: scale, round, clip.
            x_q = x / entry.x_scale
            np.rint(x_q, out=x_q)
            np.minimum(x_q, entry.qmax, out=x_q)
            np.maximum(x_q, entry.qmin, out=x_q)
            self._qx_source = x
            self._qx_scale = entry.x_scale
            self._qx = x_q
        if entry.exact_float and entry.wrap_free and not self._faulty:
            # Fault-free fast path: the BLAS GEMM over integer-valued floats
            # is exact and wrapping is the identity, so the accumulator never
            # needs to materialize as int64.
            return x_q @ entry.weight_f, False
        if entry.exact_float:
            acc = (x_q @ entry.weight_f).astype(np.int64)
        else:
            acc = np.matmul(x_q.astype(np.int64), entry.weight_q)
        if not entry.wrap_free:
            # Finite accumulator width, in place.
            acc &= self._acc_mask
            acc[acc >= self._acc_sign] -= self._acc_span
        return acc, True

    def qgemm(self, name: str, x: np.ndarray, lane_rows,
              logical_rows=None) -> np.ndarray:
        """One pipeline pass over the stack; returns the row-stacked float output."""
        entry = self._host._entries[name]
        bounds = self._bounds(lane_rows, x.shape[0])
        if self._stats:
            self._record(((name, entry.in_features * entry.out_features,
                           entry.out_features),), bounds, logical_rows)
        acc, is_int = self._accumulate(entry, x)
        if self._hooked:
            _hook_stages(acc, ((name, entry, 0, entry.out_features),),
                         self.contexts, bounds, self.spec)
        out = acc.astype(np.float64) if is_int else acc
        out *= entry.combined_scale
        if entry.bias is not None:
            out += entry.bias
        return out

    def qgemm_multi(self, names: tuple[str, ...], x: np.ndarray, lane_rows,
                    logical_rows=None) -> tuple[np.ndarray, ...]:
        """Stacked + component-fused pass; returns row-stacked per-component outputs.

        Components must share the input scale (Q/K/V and Gate/Up do by
        construction — they read the same normalized residual); groups that
        do not fall back to one :meth:`qgemm` per component.  Per lane,
        per-component stages — injection (RNG draws and targeting), anomaly
        clearance, ``GemmStats`` attribution — run on the component's column
        slice in component call order, so results and every stats object
        equal separate :meth:`qgemm` calls bit for bit.
        """
        if type(names) is not tuple:
            names = tuple(names)
        host = self._host
        fused = host._fused_entries.get(names, _UNRESOLVED)
        if fused is _UNRESOLVED:
            fused = host._fused(names)
        if fused is None:
            return tuple(self.qgemm(name, x, lane_rows, logical_rows)
                         for name in names)
        bounds = self._bounds(lane_rows, x.shape[0])
        if self._stats:
            self._record(fused.component_macs, bounds, logical_rows)
        acc, is_int = self._accumulate(fused, x)
        if self._hooked:
            _hook_stages(acc, fused.slices, self.contexts, bounds, self.spec)
        out = acc.astype(np.float64) if is_int else acc
        if fused.uniform_scale is not None:
            out *= fused.uniform_scale
        else:
            out *= fused.scale_row
        if not fused.any_bias:
            return tuple(out[:, c0:c1] for _, _, c0, c1 in fused.slices)
        parts = []
        for _, entry, c0, c1 in fused.slices:
            part = out[:, c0:c1]
            if entry.bias is not None:
                part += entry.bias
            parts.append(part)
        return tuple(parts)


def _hook_stages(acc: np.ndarray, slices, contexts, bounds,
                 spec: QuantSpec) -> None:
    """Injection, then anomaly clearance, of a stacked 2-D accumulator in place.

    ``slices`` holds the ``(name, entry, c0, c1)`` column blocks of the
    components and ``contexts`` / ``bounds`` each lane's context and
    ``(lo, hi)`` row block.  Every lane draws its blocks' flips from its own
    injector (:meth:`~repro.faults.ErrorInjector.draw`), lane by lane and in
    component order — the call order of a per-block pipeline — and the
    block-local indices are mapped into ``acc``.  One in-place scatter then
    applies every flip, and clamps run per lane in lane order.  This equals
    inject-then-clamp per block because the blocks are disjoint and a kernel
    accumulator is always in range here (wrap-free, or already wrapped),
    which is what :func:`~repro.quant.qtypes.xor_flips` needs.
    """
    stride = acc.shape[1]
    indices: list[np.ndarray] = []
    masks: list[np.ndarray] = []
    for context, (lo, hi) in zip(contexts, bounds):
        injector = context.injector
        if injector is None:
            continue
        multi_row = hi - lo > 1
        for name, _, c0, c1 in slices:
            drawn = injector.draw(acc[lo:hi, c0:c1], spec, name)
            if drawn is None:
                continue
            local, mask = drawn
            cols = c1 - c0
            if multi_row and cols != stride:
                local += local // cols * (stride - cols)
            local += lo * stride + c0
            indices.append(local)
            masks.append(mask)
    if len(indices) == 1:
        xor_flips(acc.reshape(-1), indices[0], masks[0], spec.accumulator_bits)
    elif indices:
        xor_flips(acc.reshape(-1), np.concatenate(indices),
                  np.concatenate(masks), spec.accumulator_bits)
    for context, (lo, hi) in zip(contexts, bounds):
        clamp = context.clamp
        if clamp is None:
            continue
        entries = context._entries
        for name, _, c0, c1 in slices:
            bound = entries[name].bound_acc
            if bound is not None:
                acc[lo:hi, c0:c1] = clamp(acc[lo:hi, c0:c1], bound, name)


#: Most lanes one calibration stack holds.  Calibration is the only caller
#: that runs hundreds of float lanes (every profiled sample or prompt), and
#: the bound keeps its stacked activations small.  Loading jarvis-navigation
#: and jarvis-assembly in a fresh interpreter (2-vCPU x86-64 VM with
#: AVX-512, numpy 2.4 on OpenBLAS 0.3.31, one BLAS thread, median of 4)
#: takes 0.553 s with one lane per stack, 0.256 s with 8, 0.221 s with 16,
#: 0.202 s with 32, 0.196 s with 64 and 0.193 s unbounded, while the
#: process's peak resident set (VmHWM) reads 40.9, 40.9, 41.1, 42.3, 45.2
#: and 51.9 MiB.  Forked pool children inherit that peak, so past 16 lanes
#: a pool's memory grows for little speed.
CALIBRATION_STACK_LANES = 16


class FloatKernel:
    """Float-path adapter exposing the :class:`BatchedKernel` interface.

    Deployed agents use it for calibration (with an ``observer``) and for
    float reference inference, so one forward-pass implementation serves
    both precision domains.  ``weight`` maps a component name to its float
    weight matrix; ``bias`` (optional) maps a name to a bias vector or
    ``None``.  ``logical_rows`` is accepted for interface parity and
    ignored: there is no integer dataflow to account.

    Every stack runs over a lane axis, ``x.reshape(lanes, rows, d) @ W``, so
    lanes must hold equal row counts.  numpy's batched matmul makes, for
    every lane, the BLAS call that lane's ``x @ W`` makes (gemv at one row,
    gemm otherwise, with the same strides; a stack of one is an outer loop
    of one), so each lane's output is bit-identical to computing that lane
    alone.  Row-stacking the lanes into one 2-D GEMM is not: at one row per
    lane it swaps gemv for gemm, which rounds differently, and that moves
    calibrated scales.
    """

    def __init__(self, weight: Callable[[str], np.ndarray],
                 bias: Callable[[str], np.ndarray | None] | None = None,
                 observer=None):
        self._weight = weight
        self._bias = bias
        self._observer = observer

    def qgemm(self, name: str, x: np.ndarray, lane_rows,
              logical_rows=None) -> np.ndarray:
        """One lane-axis float GEMM over the stack; returns the row-stacked output."""
        lanes = len(lane_rows)
        rows = x.shape[0] // lanes
        if lanes * rows != x.shape[0] or any(count != rows for count in lane_rows):
            raise ValueError(f"float lanes need equal row counts covering a "
                             f"stack of {x.shape[0]} rows, got lane_rows "
                             f"{list(lane_rows)}")
        out = (x.reshape(lanes, rows, x.shape[1]) @ self._weight(name)
               ).reshape(x.shape[0], -1)
        if self._bias is not None:
            bias = self._bias(name)
            if bias is not None:
                out = out + bias
        if self._observer is not None:
            self._observer.observe(name, x, out)
        return out

    def qgemm_multi(self, names: tuple[str, ...], x: np.ndarray,
                    lane_rows, logical_rows=None) -> tuple[np.ndarray, ...]:
        """Per-component float GEMMs in call order (no fusion in the float path).

        Calibration must observe each component's input/output exactly as the
        reference pipeline produced them, so the float kernel never
        column-fuses: each component runs its own (lane-axis) GEMM.
        """
        return tuple(self.qgemm(name, x, lane_rows) for name in names)

    def release_inputs(self) -> None:
        """Nothing to release: the float path keeps no input memo."""


class KVCache:
    """Preallocated K/V store of a lane stack for incremental decoding.

    One contiguous ``(num_layers, lanes, capacity, dim)`` buffer per
    projection.  :meth:`append` writes the rows of every lane's newest
    tokens, :meth:`keys` / :meth:`values` return ``(lanes, length, dim)``
    views of the valid prefix, and :meth:`compact` drops finished lanes.
    ``length`` is the number of cached positions, shared by all layers and
    lanes (lanes step together); ``lanes`` is the number of live lanes.
    """

    def __init__(self, num_layers: int, capacity: int, dim: int,
                 lanes: int = 1):
        if num_layers < 1 or capacity < 1 or dim < 1 or lanes < 1:
            raise ValueError(
                "num_layers, capacity, dim and lanes must be positive")
        self.capacity = capacity
        self.lanes = lanes
        self._k = np.empty((num_layers, lanes, capacity, dim), dtype=np.float64)
        self._v = np.empty((num_layers, lanes, capacity, dim), dtype=np.float64)
        self.length = 0

    def append(self, layer: int, k_new: np.ndarray, v_new: np.ndarray) -> None:
        """Write every lane's newest K/V rows at positions ``length:``.

        ``k_new`` / ``v_new`` are lane-major row stacks, ``(lanes * n_new,
        dim)``: the layout of a stacked GEMM's output.  ``length`` itself
        only moves on :meth:`advance` (called once per decode step, after
        every layer has appended its rows).
        """
        lanes = self.lanes
        rows = k_new.shape[0] // lanes
        if rows * lanes != k_new.shape[0]:
            raise ValueError(
                f"{k_new.shape[0]} rows do not split over {lanes} lanes")
        if self.length + rows > self.capacity:
            raise ValueError(
                f"KV cache overflow: {self.length} + {rows} > {self.capacity}")
        end = self.length + rows
        self._k[layer, :lanes, self.length:end] = k_new.reshape(lanes, rows, -1)
        self._v[layer, :lanes, self.length:end] = v_new.reshape(lanes, rows, -1)

    def advance(self, rows: int) -> None:
        """Commit ``rows`` appended positions (all layers must have appended)."""
        if self.length + rows > self.capacity:
            raise ValueError("cannot advance past the cache capacity")
        self.length += rows

    def compact(self, keep) -> None:
        """Keep only the lanes at indices ``keep`` (in that order).

        Used when lanes finish at different steps: each surviving lane's
        cached rows move to its new position, so views stay one contiguous
        lane block.
        """
        keep = list(keep)
        if not keep or any(not 0 <= lane < self.lanes for lane in keep):
            raise ValueError(f"cannot keep lanes {keep} of {self.lanes}")
        length = self.length
        self._k[:, :len(keep), :length] = self._k[:, keep, :length]
        self._v[:, :len(keep), :length] = self._v[:, keep, :length]
        self.lanes = len(keep)

    def reset(self) -> None:
        """Forget all cached positions (buffers are reused, not reallocated)."""
        self.length = 0

    def keys(self, layer: int, length: int) -> np.ndarray:
        return self._k[layer, :self.lanes, :length]

    def values(self, layer: int, length: int) -> np.ndarray:
        return self._v[layer, :self.lanes, :length]
