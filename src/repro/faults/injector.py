"""Runtime fault injector attached to the quantized GEMM pipeline.

Errors are injected into GEMM accumulator outputs exactly as the paper does:
each 24-bit accumulator result can have any of its bits flipped, independently,
with per-bit probabilities given by an :class:`~repro.faults.models.ErrorModel`.

Fault-exposure scaling
----------------------
The paper characterizes 8 B-parameter planners whose single inference produces
billions of accumulator results, so even a BER of 1e-8 corrupts several
elements per invocation.  Our surrogates are orders of magnitude smaller.  To
keep the *expected number of corrupted elements per invocation* — the quantity
the resilience curves respond to — comparable, the injector accepts an
``exposure_scale`` that multiplies the per-bit rates.  Benchmarks that quote
paper BER values set it to the ratio of paper-model to surrogate GEMM output
counts (see EXPERIMENTS.md); unit tests use the default of 1.0.

Random stream
-------------
Per call, a targeted injector draws the flip count of every bit position
(binomials in bit order), then the flipped element indices (one ``integers``
call); an untargeted call draws nothing.  Run tables and golden fixtures pin
this sequence, so any change to it is a new, versioned stream.

Draw, then apply
----------------
:meth:`ErrorInjector.draw` makes one call's draws and stats updates and
returns the flips as ``(flat_indices, xor_masks)`` instead of applying them.
:meth:`~ErrorInjector.inject` is that draw applied to a wrapped copy; the
kernel runtime draws for every lane and component of a stacked GEMM and
applies all of them in one in-place scatter (:func:`xor_flips`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatch

import numpy as np

from ..quant.qtypes import QuantSpec
# ``flip_bits`` stays a name of this module: perfbench's tracer counts
# flip calls by patching it here.
from .bitflip import flip_bits, flip_masks, xor_flips  # noqa: F401
from .models import ErrorModel

__all__ = ["InjectionStats", "ErrorInjector", "PassthroughInjector"]


@dataclass
class InjectionStats:
    """Counters describing what an injector did."""

    gemm_calls: int = 0
    elements_seen: int = 0
    bits_flipped: int = 0
    elements_corrupted: int = 0
    flips_per_component: dict[str, int] = field(default_factory=dict)

    def reset(self) -> None:
        self.gemm_calls = 0
        self.elements_seen = 0
        self.bits_flipped = 0
        self.elements_corrupted = 0
        self.flips_per_component.clear()

    @property
    def observed_element_error_rate(self) -> float:
        if self.elements_seen == 0:
            return 0.0
        return self.elements_corrupted / self.elements_seen


class ErrorInjector:
    """Flips bits in accumulator tensors according to an error model.

    Parameters
    ----------
    model:
        Error model providing per-bit flip probabilities.
    rng:
        Random generator; every experiment passes its own seeded generator.
    exposure_scale:
        Multiplier applied to per-bit rates (see module docstring).
    target_components:
        Optional iterable of glob patterns; injection only happens for GEMM
        calls whose component name matches one of the patterns (used by the
        per-component resilience study, Fig. 5e-h).
    enabled:
        Master switch; a disabled injector is a no-op.
    """

    def __init__(self, model: ErrorModel, rng: np.random.Generator | None = None,
                 exposure_scale: float = 1.0,
                 target_components: list[str] | None = None,
                 enabled: bool = True):
        if exposure_scale < 0:
            raise ValueError("exposure_scale must be non-negative")
        self.model = model
        self.rng = rng or np.random.default_rng(0)
        self.exposure_scale = exposure_scale
        self.target_components = list(target_components) if target_components else None
        self.enabled = enabled
        self.stats = InjectionStats()
        # Rate plans of ``_plan_model`` at ``_plan_scale``, per accumulator width.
        self._plan_model: ErrorModel | None = None
        self._plan_scale = exposure_scale
        self._plans: dict[int, tuple[np.ndarray, float | None, np.ndarray]] = {}

    # ------------------------------------------------------------------
    def reseed(self, rng: np.random.Generator) -> None:
        """Replace the random stream (one stream per kernel context).

        The fused kernel runtime (:class:`repro.quant.KernelContext`) calls
        this so that every context draws flips from its own reproducible
        stream instead of sharing one injector-global sequence.
        """
        self.rng = rng

    def expected_element_error_rate(self, spec: QuantSpec) -> float:
        """Expected corrupted fraction of produced accumulator elements.

        This is the exposure invariant of KV-cached decoding: caching changes
        how many accumulator elements are produced, not the corruption
        probability of each produced element.
        """
        rates = self.effective_rates(spec)
        return float(1.0 - np.prod(1.0 - rates))

    def targets(self, component: str | None) -> bool:
        """Whether this injector applies to the given component name."""
        if not self.enabled:
            return False
        if self.target_components is None or component is None:
            return self.target_components is None
        return any(fnmatch(component, pattern) for pattern in self.target_components)

    def _rate_plan(self, accumulator_bits: int
                   ) -> tuple[np.ndarray, float | None, np.ndarray]:
        """``(rates, p, masks)`` of one accumulator width, built once.

        ``rates`` are the clipped, exposure-scaled per-bit rates (read-only),
        ``p`` their common value when every bit has the same rate (else
        ``None``) and ``masks`` the XOR mask of each bit position
        (:func:`flip_masks`).  Plans belong to the current ``model`` object
        and ``exposure_scale``: assigning either (as voltage scaling does with
        ``model``) rebuilds them on the next call.
        """
        model, scale = self.model, self.exposure_scale
        if model is not self._plan_model or scale != self._plan_scale:
            if scale < 0:
                raise ValueError("exposure_scale must be non-negative")
            self._plan_model, self._plan_scale = model, scale
            self._plans = {}
        plan = self._plans.get(accumulator_bits)
        if plan is None:
            rates = np.clip(model.bit_rates(accumulator_bits) * scale, 0.0, 1.0)
            rates.flags.writeable = False
            p = float(rates[0]) if np.all(rates == rates[0]) else None
            masks = flip_masks(np.arange(rates.size), accumulator_bits)
            masks.flags.writeable = False
            plan = (rates, p, masks)
            self._plans[accumulator_bits] = plan
        return plan

    def effective_rates(self, spec: QuantSpec) -> np.ndarray:
        """Per-bit flip probabilities after exposure scaling (read-only)."""
        return self._rate_plan(spec.accumulator_bits)[0]

    def draw(self, accumulators: np.ndarray, spec: QuantSpec,
             component: str | None = None
             ) -> tuple[np.ndarray, np.ndarray] | None:
        """Draw one block's flips and count them, without applying them.

        Makes exactly the random draws and stats updates of one
        :meth:`inject` call.  Returns ``None`` when nothing flips, else
        ``(flat_indices, masks)``: fresh int64 arrays the caller may modify.
        XOR-ing ``masks[i]`` into the wrapped value of element
        ``flat_indices[i]`` (C order of ``accumulators``) applies flip ``i``;
        see :func:`xor_flips`.  Only the size of ``accumulators`` is read.
        """
        stats = self.stats
        stats.gemm_calls += 1
        n_elements = accumulators.size
        stats.elements_seen += n_elements
        if not self.targets(component):
            return None

        rates, p, masks = self._rate_plan(spec.accumulator_bits)
        rng = self.rng
        # Sample the number of flips per bit position; skip work when nothing
        # flips.  With one common rate, the scalar-p call makes the same draws
        # and leaves the same generator state as the per-bit array call, but
        # skips numpy's validation of array arguments.
        if p is None:
            flip_counts = rng.binomial(n_elements, rates)
        else:
            flip_counts = rng.binomial(n_elements, p, size=masks.size)
        total_flips = int(flip_counts.sum())
        if total_flips == 0:
            return None

        # One vectorized draw for every flip: element indices in a single call,
        # bit masks expanded from the per-bit counts.
        indices = rng.integers(0, n_elements, size=total_flips)
        stats.bits_flipped += total_flips
        stats.elements_corrupted += len(set(indices.tolist()))
        if component is not None:
            per_component = stats.flips_per_component
            per_component[component] = per_component.get(component, 0) + total_flips
        return indices, masks.repeat(flip_counts)

    def inject(self, accumulators: np.ndarray, spec: QuantSpec,
               component: str | None = None) -> np.ndarray:
        """Return a (possibly) corrupted copy of the accumulator tensor.

        ``accumulators`` itself when nothing flips; otherwise a fresh int64
        array with every element wrapped into the accumulator's signed range
        and the drawn flips applied.
        """
        drawn = self.draw(accumulators, spec, component)
        if drawn is None:
            return accumulators
        bits = spec.accumulator_bits
        sign = 1 << (bits - 1)
        out = np.array(accumulators, dtype=np.int64, order="C")
        flat = out.reshape(-1)
        # Wrap in place: keep the low bits, then sign-extend them.
        flat &= 2 * sign - 1
        flat ^= sign
        flat -= sign
        xor_flips(flat, *drawn, bits)
        return out


class PassthroughInjector(ErrorInjector):
    """An injector that never corrupts anything (clean baseline runs)."""

    def __init__(self):
        from .models import UniformErrorModel

        super().__init__(UniformErrorModel(0.0), enabled=False)
