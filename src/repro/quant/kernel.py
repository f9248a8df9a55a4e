"""Fused quantized-kernel runtime: the fast path of the deployed pipeline.

:func:`repro.quant.quantized_matmul` is the reference implementation of the
paper's accelerator dataflow (quantize → INT GEMM → 24-bit wrap → injection →
anomaly clearance → dequantize), but it pays per-call costs that dominate
trial time at surrogate scale: scale/bound lookups through ``QuantParams``
objects, fresh int64 accumulator allocations, and closure-based dispatch.
:class:`KernelContext` is the same pipeline compiled into a long-lived
runtime object:

* every registered :class:`~repro.quant.qgemm.QuantizedLinear` is flattened
  into a plain-attribute entry (inverse input scale, combined output scale,
  integer anomaly bound, bias) resolved with a single dict lookup per call;
* int64 accumulator workspaces are preallocated per output shape and reused
  across calls (the dequantized float output is always a fresh array, so
  callers can hold onto results safely);
* injection and anomaly clearance run as in-pipeline stages on the shared
  injector / detector objects, so their per-object stats keep working, while
  the context additionally maintains one unified :class:`KernelCounters`
  that energy/latency accounting can consume instead of reading
  ``GemmStats`` + ``InjectionStats`` + ``AnomalyStats`` separately.

``qgemm`` results are bit-identical to ``quantized_matmul`` — the fused path
changes bookkeeping, not arithmetic — which the kernel equivalence tests
assert.

Batched execution
-----------------
Two further fusion levels build on the same exactness argument (a float64
GEMM over integer-valued operands is exact below 2^52, and every per-element
pipeline stage — wrap, injection, clamp, dequantize — commutes with row or
column slicing):

* **Fused component groups** (:meth:`KernelContext.qgemm_multi`) stack the
  weight matrices of components that read the same input under one shared
  calibration scale (Q/K/V, Gate/Up) column-wise and run them as one GEMM.
  Injection draws, anomaly clearance, MAC attribution and dequantization
  still run per component on the column slice (one scatter then applies
  every slice's drawn flips), so a fault targeted at ``*.k`` lands only in
  the K slice and every counter matches the unfused path bit for bit.
* **Cross-prompt batching** (:class:`BatchedKernel`) row-stacks the inputs of
  N independent per-prompt :class:`KernelContext` objects and runs one GEMM
  for the whole batch, then applies each lane's injector / clamp / counters
  to its own row slice.  Each lane keeps its own RNG stream and sees row
  blocks of exactly the shapes its serial decode would produce, so batched
  output is bit-identical to N serial decodes — fault-free and under
  injection.

Logical-row accounting
----------------------
Incremental (KV-cached) decoding computes GEMMs only for new token rows, but
energy / latency accounting must stay decode-strategy-invariant: the
``logical_rows`` argument of :meth:`KernelContext.qgemm` records MACs for the
full logical row count of the modelled dataflow while the arithmetic (and
therefore the fault exposure of the *produced* accumulator elements) covers
only the rows actually computed.  Cached and uncached decode thus report
identical MAC counts, and injection keeps the expected number of corrupted
elements per produced accumulator element unchanged.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from typing import Callable

from .qgemm import GemmHooks, QuantizedLinear
from .qtypes import INT8, QuantSpec, xor_flips

__all__ = ["KernelCounters", "KernelContext", "KernelPlan", "FloatKernel",
           "KVCache", "BatchedKernel"]

#: Fused-entry memo miss marker (``None`` is a valid cached value: unfusable).
_UNRESOLVED = object()


@dataclass
class KernelCounters:
    """Unified per-context counters of the fused pipeline.

    One object carries what previously required reading three: GEMM work
    (``GemmStats``), injection activity (``InjectionStats``) and clamp
    activity (``AnomalyStats``).  ``macs`` follows the logical-row accounting
    described in the module docstring; ``output_elements`` counts the
    accumulator elements actually produced (the fault-exposure surface).
    """

    gemm_calls: int = 0
    macs: int = 0
    output_elements: int = 0
    bits_flipped: int = 0
    elements_corrupted: int = 0
    elements_clamped: int = 0
    macs_per_component: dict[str, int] = field(default_factory=dict)

    def record_gemm(self, component: str | None, macs: int, outputs: int) -> None:
        self.gemm_calls += 1
        self.macs += macs
        self.output_elements += outputs
        if component is not None:
            self.macs_per_component[component] = (
                self.macs_per_component.get(component, 0) + macs
            )

    def reset(self) -> None:
        self.gemm_calls = 0
        self.macs = 0
        self.output_elements = 0
        self.bits_flipped = 0
        self.elements_corrupted = 0
        self.elements_clamped = 0
        self.macs_per_component.clear()

    @property
    def observed_element_error_rate(self) -> float:
        """Corrupted fraction of the accumulator elements actually produced."""
        if self.output_elements == 0:
            return 0.0
        return self.elements_corrupted / self.output_elements

    def as_dict(self) -> dict[str, int | float]:
        return {
            "gemm_calls": self.gemm_calls,
            "macs": self.macs,
            "output_elements": self.output_elements,
            "bits_flipped": self.bits_flipped,
            "elements_corrupted": self.elements_corrupted,
            "elements_clamped": self.elements_clamped,
        }


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
    per-component stages (injection, clamp, dequantize, counters) keep using
    the original :class:`_KernelEntry` objects on column slices, so fusion
    never changes a bit of any component's output or bookkeeping.
    """

    __slots__ = ("slices", "weight_q", "weight_f", "x_scale", "in_features",
                 "out_features", "qmin", "qmax", "wrap_free", "exact_float",
                 "scale_row", "component_macs", "macs_per_row", "uniform_scale",
                 "any_bias")

    def __init__(self, names: tuple[str, ...], entries: list[_KernelEntry]):
        self.slices: list[tuple[str, _KernelEntry, int, int]] = []
        offset = 0
        for name, entry in zip(names, entries):
            self.slices.append((name, entry, offset, offset + entry.out_features))
            offset += entry.out_features
        # Per-call counter template: (name, macs-per-logical-row, columns)
        # per component, plus the group total, so the hot path records MACs
        # with plain arithmetic instead of per-slice method dispatch.
        self.component_macs = tuple(
            (name, entry.in_features * entry.out_features, entry.out_features)
            for name, entry, _, _ in self.slices)
        self.macs_per_row = sum(per_row for _, per_row, _ in self.component_macs)
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
    tiny mutable state (counters, hook wiring, input memo).

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
    """Owns pre-quantized weights, workspace buffers, and the fused pipeline.

    Parameters
    ----------
    layers:
        Pre-quantized layers to register up front (more can be added with
        :meth:`register`).
    hooks:
        The same :class:`~repro.quant.qgemm.GemmHooks` the reference pipeline
        takes; injector / anomaly-clamp / stats objects are shared, so their
        own counters stay live alongside :attr:`counters`.
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
        self.counters = KernelCounters()
        if rng is not None and self.injector is not None:
            self.injector.reseed(rng)
        # Wrap constants of the accumulator format, resolved once.
        self._acc_bits = spec.accumulator_bits
        self._acc_mask = spec.accumulator_mask
        self._acc_sign = 1 << (spec.accumulator_bits - 1)
        self._acc_span = 1 << spec.accumulator_bits
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
        self._workspaces: dict[tuple[int, int], np.ndarray] = {}
        # Quantized-input reuse: components sharing one calibration scale
        # (e.g. Q/K/V projections reading the same normalized residual) reuse
        # the integer input computed by the first of them.  Holding a
        # reference to the source array keeps its id() from being recycled.
        self._qx_source: np.ndarray | None = None
        self._qx_scale = 0.0
        self._qx: np.ndarray | None = None
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

    def reset(self, rng: np.random.Generator | None = None) -> None:
        """O(1) per-trial reset: counters and input memo, never plan state.

        Workspaces are kept (reuse across trials is the point); when ``rng``
        is given the injector is reseeded, mirroring construction.
        """
        self.counters.reset()
        self._qx_source = None
        self._qx_scale = 0.0
        self._qx = None
        if rng is not None and self.injector is not None:
            self.injector.reseed(rng)

    # ------------------------------------------------------------------
    # Fused pipeline
    # ------------------------------------------------------------------
    def _workspace(self, rows: int, cols: int) -> np.ndarray:
        """Reusable int64 accumulator buffer for one output shape."""
        buffer = self._workspaces.get((rows, cols))
        if buffer is None:
            buffer = np.empty((rows, cols), dtype=np.int64)
            self._workspaces[(rows, cols)] = buffer
        return buffer

    def _quantize_input(self, entry: _KernelEntry, x: np.ndarray) -> np.ndarray:
        """Integer-valued float input tensor, reused across equal-scale calls."""
        if x is self._qx_source and entry.x_scale == self._qx_scale:
            return self._qx
        # Identical arithmetic to quantizer.quantize: scale, round, clip.
        q = x / entry.x_scale
        np.rint(q, out=q)
        np.minimum(q, entry.qmax, out=q)
        np.maximum(q, entry.qmin, out=q)
        self._qx_source = x
        self._qx_scale = entry.x_scale
        self._qx = q
        return q

    def qgemm(self, name: str, x: np.ndarray,
              logical_rows: int | None = None) -> np.ndarray:
        """Fused quantize → INT GEMM → wrap → inject → clamp → dequantize.

        ``x`` is the float input (rows actually computed); ``logical_rows``
        optionally overrides the row count used for MAC accounting (see the
        module docstring).  Returns a fresh float array, bit-identical to
        :func:`repro.quant.quantized_matmul` on the same operands.
        """
        entry = self._entries[name]
        x_q = self._quantize_input(entry, x)
        rows = x_q.shape[0] if x_q.ndim == 2 else int(np.prod(x_q.shape[:-1]))

        macs = (logical_rows if logical_rows is not None else rows) \
            * entry.in_features * entry.out_features
        outputs = rows * entry.out_features
        self.counters.record_gemm(name, macs, outputs)
        if self.stats is not None:
            self.stats.record(name, macs, outputs)

        injector = self.injector
        if entry.exact_float and entry.wrap_free and injector is None:
            # Fault-free fast path: the BLAS GEMM over integer-valued floats
            # is exact and wrapping is the identity, so the accumulator never
            # needs to materialize as int64.
            acc = x_q @ entry.weight_f
            if self.clamp is not None and entry.bound_acc is not None:
                acc = self._clamp_stage(acc, entry.bound_acc, name)
            acc *= entry.combined_scale
            out = acc
        else:
            if entry.exact_float:
                acc = (x_q @ entry.weight_f).astype(np.int64)
            else:
                acc = self._workspace(rows, entry.out_features)
                np.matmul(x_q.astype(np.int64).reshape(rows, entry.in_features),
                          entry.weight_q, out=acc)
            if not entry.wrap_free:
                # Finite accumulator width, in place.
                acc &= self._acc_mask
                acc[acc >= self._acc_sign] -= self._acc_span
            if injector is not None:
                self._inject_stage(acc, name)
            if self.clamp is not None and entry.bound_acc is not None:
                acc = self._clamp_stage(acc, entry.bound_acc, name)
            out = acc.astype(np.float64)
            out *= entry.combined_scale

        if entry.bias is not None:
            out += entry.bias
        if x.ndim != 2:
            out = out.reshape(*x.shape[:-1], entry.out_features)
        return out

    def _fused(self, names: tuple[str, ...]) -> _FusedEntry | None:
        """Memoized column-stacked entry for a component group (None: unfusable)."""
        if names in self._fused_entries:
            return self._fused_entries[names]
        entries = [self._entries[name] for name in names]
        fused = _FusedEntry(names, entries) if _FusedEntry.fusable(entries) else None
        self._fused_entries[names] = fused
        return fused

    def qgemm_multi(self, names: tuple[str, ...], x: np.ndarray,
                    logical_rows: int | None = None) -> tuple[np.ndarray, ...]:
        """Run several components over one input as a single stacked GEMM.

        Components must share the input scale (Q/K/V and Gate/Up do by
        construction — they read the same normalized residual); groups that
        do not simply fall back to one :meth:`qgemm` per component.  Every
        per-component stage — injection (RNG draws and targeting), anomaly
        clearance, MAC/stat attribution, dequantization — runs on the
        component's column slice in call order, so results and all counters
        are bit-identical to separate :meth:`qgemm` calls.
        """
        if type(names) is not tuple:
            names = tuple(names)
        fused = self._fused_entries.get(names, _UNRESOLVED)
        if fused is _UNRESOLVED:
            fused = self._fused(names)
        if fused is None:
            return tuple(self.qgemm(name, x, logical_rows) for name in names)

        x_q = self._quantize_input(fused, x)
        if x_q.ndim != 2:
            x_q = x_q.reshape(-1, fused.in_features)
        rows = x_q.shape[0]
        logical = logical_rows if logical_rows is not None else rows
        # Inlined per-component record_gemm (same arithmetic, no per-slice
        # method dispatch — the 1-row decode step is dispatch-bound).
        counters = self.counters
        counters.gemm_calls += len(fused.slices)
        counters.macs += logical * fused.macs_per_row
        counters.output_elements += rows * fused.out_features
        per_component = counters.macs_per_component
        stats = self.stats
        for name, per_row, columns in fused.component_macs:
            macs = logical * per_row
            per_component[name] = per_component.get(name, 0) + macs
            if stats is not None:
                stats.record(name, macs, rows * columns)

        injector = self.injector
        if fused.exact_float and fused.wrap_free and injector is None:
            acc = x_q @ fused.weight_f
            if self.clamp is not None:
                for name, entry, lo, hi in fused.slices:
                    if entry.bound_acc is not None:
                        acc[:, lo:hi] = self._clamp_stage(
                            acc[:, lo:hi], entry.bound_acc, name)
            if fused.uniform_scale is not None:
                acc *= fused.uniform_scale
            else:
                acc *= fused.scale_row
            out = acc
        else:
            if fused.exact_float:
                acc = (x_q @ fused.weight_f).astype(np.int64)
            else:
                acc = self._workspace(rows, fused.out_features)
                np.matmul(x_q.astype(np.int64).reshape(rows, fused.in_features),
                          fused.weight_q, out=acc)
            if not fused.wrap_free:
                # Wrapping is the identity on any wrap-free component slice,
                # so the whole-accumulator wrap changes no fused component.
                acc &= self._acc_mask
                acc[acc >= self._acc_sign] -= self._acc_span
            if injector is not None or self.clamp is not None:
                _hook_stages(acc, fused.slices, (self,), ((0, rows),),
                             self.spec)
            out = acc.astype(np.float64)
            out *= fused.scale_row

        if not fused.any_bias and x.ndim == 2:
            return tuple(out[:, lo:hi] for _, _, lo, hi in fused.slices)
        parts = []
        for _, entry, lo, hi in fused.slices:
            part = out[:, lo:hi]
            if entry.bias is not None:
                part += entry.bias
            if x.ndim != 2:
                part = part.reshape(*x.shape[:-1], entry.out_features)
            parts.append(part)
        return tuple(parts)

    def _inject_stage(self, acc: np.ndarray, name: str) -> None:
        """Fault injection of one whole (contiguous) accumulator, in place.

        Draws the flips and applies them with one scatter (see
        :func:`_hook_stages`); tracks the unified counters.
        """
        injector = self.injector
        stats = injector.stats
        flipped, corrupted = stats.bits_flipped, stats.elements_corrupted
        drawn = injector.draw(acc, self.spec, name)
        if drawn is not None:
            xor_flips(acc.reshape(-1), drawn[0], drawn[1], self._acc_bits)
        counters = self.counters
        counters.bits_flipped += stats.bits_flipped - flipped
        counters.elements_corrupted += stats.elements_corrupted - corrupted

    def _clamp_stage(self, acc: np.ndarray, bound: int, name: str) -> np.ndarray:
        """Anomaly clearance as a pipeline stage (tracks the unified counters)."""
        clamp_stats = getattr(self.clamp, "stats", None)
        clamped_before = clamp_stats.elements_clamped if clamp_stats else 0
        acc = self.clamp(acc, bound, name)
        if clamp_stats is not None:
            self.counters.elements_clamped += (
                clamp_stats.elements_clamped - clamped_before)
        return acc

    def reset_counters(self) -> None:
        self.counters.reset()


class BatchedKernel:
    """Cross-prompt batched execution over N per-prompt kernel contexts.

    The batched planner decode row-stacks the activations of N prompts and
    calls :meth:`qgemm` / :meth:`qgemm_multi` with ``lane_rows`` giving each
    prompt's row count in the stack.  Quantization and the (IN)T GEMM run
    once for the whole stack; every per-lane stage — MAC/stat attribution,
    fault injection with the lane's own RNG stream, anomaly clearance —
    runs on the lane's row slice through the lane's own
    :class:`KernelContext`.  Each lane's injector therefore sees tensors of
    exactly the shapes (and values) its serial decode would produce, in the
    same call order, so batched execution is bit-identical to N serial
    decodes, fault-free and under injection.

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
        # Hooks are fixed at context construction, so hoist the "does any
        # lane inject / clamp" checks out of the per-call hot path; when no
        # lane has hooks the per-lane stage loops are skipped entirely.
        self._faulty = any(c.injector is not None for c in self.contexts)
        self._hooked = self._faulty or any(
            c.clamp is not None for c in self.contexts)
        self._bounds_memo: dict[tuple[int, ...], list[tuple[int, int]]] = {}

    def _quantize_input(self, entry, x: np.ndarray) -> np.ndarray:
        """Stack-level quantized-input memo (same arithmetic as the contexts')."""
        if x is self._qx_source and entry.x_scale == self._qx_scale:
            return self._qx
        q = x / entry.x_scale
        np.rint(q, out=q)
        np.minimum(q, entry.qmax, out=q)
        np.maximum(q, entry.qmin, out=q)
        self._qx_source = x
        self._qx_scale = entry.x_scale
        self._qx = q
        return q

    def release_inputs(self) -> None:
        """Drop the stack-level input memo (end of a decode / act step).

        The memo only ever hits *within* one step — each step stacks fresh
        lane activations, so ``x is self._qx_source`` cannot match across
        steps — but without an explicit release it pins the last stacked
        input (and its quantized copy) for the kernel's lifetime.  Batched
        drivers call this once per step so long fleet missions don't grow
        resident memory with stale activation stacks.
        """
        self._qx_source = None
        self._qx_scale = 0.0
        self._qx = None

    def _bounds(self, lane_rows: list[int], total: int) -> list[tuple[int, int]]:
        key = tuple(lane_rows)
        bounds = self._bounds_memo.get(key)
        if bounds is not None:
            if key and bounds[-1][1] != total or not key and total:
                raise ValueError(
                    f"lane_rows sum to {sum(key)}, stack has {total} rows")
            return bounds
        bounds = []
        offset = 0
        for rows in lane_rows:
            bounds.append((offset, offset + rows))
            offset += rows
        if offset != total:
            raise ValueError(f"lane_rows sum to {offset}, stack has {total} rows")
        self._bounds_memo[key] = bounds
        return bounds

    def _accumulate(self, entry, x: np.ndarray) -> tuple[np.ndarray, bool]:
        """Quantize + GEMM (+wrap) for the whole stack; returns (acc, is_int).

        Lanes without an injector could stay in the float domain, but a
        single integer accumulator for the whole stack keeps one GEMM per
        call; the int64 and float paths dequantize to identical bits (the
        accumulator is exact below 2^52 either way).
        """
        x_q = self._quantize_input(entry, x)
        if entry.exact_float and entry.wrap_free and not self._faulty:
            return x_q @ entry.weight_f, False
        if entry.exact_float:
            acc = (x_q @ entry.weight_f).astype(np.int64)
        else:
            acc = np.matmul(x_q.astype(np.int64), entry.weight_q)
        if not entry.wrap_free:
            host = self._host
            acc &= host._acc_mask
            acc[acc >= host._acc_sign] -= host._acc_span
        return acc, True

    def qgemm(self, name: str, x: np.ndarray, lane_rows: list[int],
              logical_rows: list[int] | None = None) -> np.ndarray:
        """One batched pipeline pass; returns the row-stacked float output."""
        entry = self._host._entries[name]
        bounds = self._bounds(lane_rows, x.shape[0])
        logical = logical_rows if logical_rows is not None else lane_rows
        elems = entry.in_features * entry.out_features
        outs = entry.out_features
        for context, (lo, hi), lrows in zip(self.contexts, bounds, logical):
            macs = lrows * elems
            outputs = (hi - lo) * outs
            # Inlined ``counters.record_gemm`` (same arithmetic) — see
            # :meth:`qgemm_multi`.
            counters = context.counters
            counters.gemm_calls += 1
            counters.macs += macs
            counters.output_elements += outputs
            counters.macs_per_component[name] = (
                counters.macs_per_component.get(name, 0) + macs)
            if context.stats is not None:
                context.stats.record(name, macs, outputs)

        acc, is_int = self._accumulate(entry, x)
        if self._hooked:
            _hook_stages(acc, ((name, entry, 0, outs),), self.contexts, bounds,
                         self.spec)
        out = acc.astype(np.float64) if is_int else acc
        out *= entry.combined_scale
        if entry.bias is not None:
            out += entry.bias
        return out

    def qgemm_multi(self, names: tuple[str, ...], x: np.ndarray,
                    lane_rows: list[int],
                    logical_rows: list[int] | None = None
                    ) -> tuple[np.ndarray, ...]:
        """Batched + component-fused pass; returns row-stacked per-component outputs.

        Per lane, per-component stages run in component call order (the order
        a lane's serial fused decode uses), keeping every lane's RNG stream
        bit-identical to its serial execution.
        """
        names = tuple(names)
        fused = self._host._fused(names)
        if fused is None:
            return tuple(self.qgemm(name, x, lane_rows, logical_rows)
                         for name in names)
        bounds = self._bounds(lane_rows, x.shape[0])
        logical = logical_rows if logical_rows is not None else lane_rows
        sizes = [(name, entry.in_features * entry.out_features,
                  entry.out_features) for name, entry, _, _ in fused.slices]
        for context, (lo, hi), lrows in zip(self.contexts, bounds, logical):
            counters = context.counters
            stats = context.stats
            rows = hi - lo
            # Inlined ``counters.record_gemm`` (same arithmetic): the
            # per-lane × per-component recording is the hottest pure-Python
            # loop of the batched decode step.
            per_component = counters.macs_per_component
            counters.gemm_calls += len(sizes)
            for name, elems, outs in sizes:
                macs = lrows * elems
                counters.macs += macs
                counters.output_elements += rows * outs
                per_component[name] = per_component.get(name, 0) + macs
                if stats is not None:
                    stats.record(name, macs, rows * outs)

        acc, is_int = self._accumulate(fused, x)
        if self._hooked:
            _hook_stages(acc, fused.slices, self.contexts, bounds, self.spec)
        out = acc.astype(np.float64) if is_int else acc
        out *= fused.scale_row
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
        stats = injector.stats
        flipped, corrupted = stats.bits_flipped, stats.elements_corrupted
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
        counters = context.counters
        counters.bits_flipped += stats.bits_flipped - flipped
        counters.elements_corrupted += stats.elements_corrupted - corrupted
    if len(indices) == 1:
        xor_flips(acc.reshape(-1), indices[0], masks[0], spec.accumulator_bits)
    elif indices:
        xor_flips(acc.reshape(-1), np.concatenate(indices),
                  np.concatenate(masks), spec.accumulator_bits)
    for context, (lo, hi) in zip(contexts, bounds):
        if context.clamp is None:
            continue
        entries = context._entries
        for name, _, c0, c1 in slices:
            bound = entries[name].bound_acc
            if bound is not None:
                acc[lo:hi, c0:c1] = context._clamp_stage(
                    acc[lo:hi, c0:c1], bound, name)


class FloatKernel:
    """Float-path adapter exposing the kernel ``qgemm`` interface.

    Deployed agents use it for calibration (with an ``observer``) and for
    float reference inference, so one forward-pass implementation serves
    both precision domains.  ``weight`` maps a component name to its float
    weight matrix; ``bias`` (optional) maps a name to a bias vector or
    ``None``.  ``logical_rows`` is accepted for interface parity with
    :meth:`KernelContext.qgemm` and ignored — there is no integer dataflow
    to account.
    """

    def __init__(self, weight: Callable[[str], np.ndarray],
                 bias: Callable[[str], np.ndarray | None] | None = None,
                 observer=None):
        self._weight = weight
        self._bias = bias
        self._observer = observer

    def qgemm(self, name: str, x: np.ndarray,
              logical_rows: int | None = None) -> np.ndarray:
        out = x @ self._weight(name)
        if self._bias is not None:
            bias = self._bias(name)
            if bias is not None:
                out = out + bias
        if self._observer is not None:
            self._observer.observe(name, x, out)
        return out

    def qgemm_multi(self, names: tuple[str, ...], x: np.ndarray,
                    logical_rows: int | None = None) -> tuple[np.ndarray, ...]:
        """Per-component float GEMMs in call order (no fusion in the float path).

        Calibration must observe each component's input/output exactly as the
        reference pipeline produced them, so the float kernel never stacks.
        """
        return tuple(self.qgemm(name, x, logical_rows) for name in names)


class KVCache:
    """Preallocated per-layer K/V cache for incremental decoding.

    One contiguous ``(num_layers, capacity, dim)`` buffer per projection;
    :meth:`append` writes the rows of the newest tokens, and :meth:`keys` /
    :meth:`values` return views of the valid prefix.  ``length`` is the
    number of cached positions (shared by all layers).
    """

    def __init__(self, num_layers: int, capacity: int, dim: int):
        if num_layers < 1 or capacity < 1 or dim < 1:
            raise ValueError("num_layers, capacity and dim must be positive")
        self.capacity = capacity
        self._k = np.empty((num_layers, capacity, dim), dtype=np.float64)
        self._v = np.empty((num_layers, capacity, dim), dtype=np.float64)
        self.length = 0

    def append(self, layer: int, k_new: np.ndarray, v_new: np.ndarray) -> None:
        """Write the K/V rows of the newest tokens at positions ``length:``.

        ``length`` itself only moves on :meth:`advance` (called once per
        decode step, after every layer has appended its rows).
        """
        rows = k_new.shape[0]
        if self.length + rows > self.capacity:
            raise ValueError(
                f"KV cache overflow: {self.length} + {rows} > {self.capacity}")
        self._k[layer, self.length:self.length + rows] = k_new
        self._v[layer, self.length:self.length + rows] = v_new

    def advance(self, rows: int) -> None:
        """Commit ``rows`` appended positions (all layers must have appended)."""
        if self.length + rows > self.capacity:
            raise ValueError("cannot advance past the cache capacity")
        self.length += rows

    def reset(self) -> None:
        """Forget all cached positions (buffers are reused, not reallocated)."""
        self.length = 0

    def keys(self, layer: int, length: int) -> np.ndarray:
        return self._k[layer, :length]

    def values(self, layer: int, length: int) -> np.ndarray:
        return self._v[layer, :length]
