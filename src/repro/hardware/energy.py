"""Energy model: computation, on-chip SRAM, off-chip DRAM, and battery life.

Energy constants are representative 22 nm values (pJ-scale per-operation
energies); the paper derives its numbers from post-layout simulation plus
HBM2 specifications.  What the experiments consume is *relative* energy —
savings of one configuration over another — which depends on the quadratic
voltage scaling of dynamic energy and the compute/memory split, both of which
this model captures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .timing import NOMINAL_VOLTAGE

__all__ = ["EnergyConfig", "EnergyModel", "EnergyBreakdown", "BatteryModel",
           "DEFAULT_ENERGY_MODEL"]


@dataclass(frozen=True)
class EnergyConfig:
    """Per-operation energy constants at nominal voltage."""

    nominal_voltage: float = NOMINAL_VOLTAGE
    #: Dynamic energy of one INT8 MAC (multiply + 24-bit accumulate) at Vnom, pJ.
    mac_energy_pj: float = 0.12
    #: Fraction of the MAC energy that is leakage-like and does not scale with V^2.
    static_fraction: float = 0.10
    #: SRAM access energy per byte, pJ.
    sram_energy_per_byte_pj: float = 3.0
    #: HBM2 access energy per byte, pJ.
    dram_energy_per_byte_pj: float = 40.0
    #: Anomaly-detection unit energy overhead as a fraction of compute energy.
    ad_overhead_fraction: float = 0.0010
    #: LDO energy overhead as a fraction of compute energy.
    ldo_overhead_fraction: float = 0.0014

    def __post_init__(self):
        if self.mac_energy_pj <= 0:
            raise ValueError("mac_energy_pj must be positive")
        if not 0.0 <= self.static_fraction < 1.0:
            raise ValueError("static_fraction must be in [0, 1)")


@dataclass
class EnergyBreakdown:
    """Joules spent by one workload, split by component."""

    compute_j: float = 0.0
    sram_j: float = 0.0
    dram_j: float = 0.0
    overhead_j: float = 0.0

    @property
    def total_j(self) -> float:
        return self.compute_j + self.sram_j + self.dram_j + self.overhead_j

    def compute_fraction(self) -> float:
        total = self.total_j
        return self.compute_j / total if total > 0 else 0.0

    def __add__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        return EnergyBreakdown(
            compute_j=self.compute_j + other.compute_j,
            sram_j=self.sram_j + other.sram_j,
            dram_j=self.dram_j + other.dram_j,
            overhead_j=self.overhead_j + other.overhead_j,
        )


class EnergyModel:
    """Translates operation counts and voltages into energy."""

    def __init__(self, config: EnergyConfig | None = None):
        self.config = config or EnergyConfig()

    # ------------------------------------------------------------------
    # Compute energy
    # ------------------------------------------------------------------
    def voltage_scale(self, voltage: float) -> float:
        """Dynamic-energy scaling factor relative to nominal voltage (V^2 law)."""
        if voltage <= 0:
            raise ValueError("voltage must be positive")
        return (voltage / self.config.nominal_voltage) ** 2

    def mac_energy_j(self, macs: int | float, voltage: float) -> float:
        """Energy of ``macs`` INT8 MACs executed at ``voltage``."""
        cfg = self.config
        dynamic = cfg.mac_energy_pj * (1.0 - cfg.static_fraction) * self.voltage_scale(voltage)
        static = cfg.mac_energy_pj * cfg.static_fraction
        return float(macs) * (dynamic + static) * 1e-12

    def kernel_energy_j(self, counters, voltage: float,
                        include_overheads: bool = True) -> float:
        """Compute energy of the work recorded in ``counters``.

        ``counters`` is a :class:`repro.quant.GemmStats` (or anything with a
        ``macs`` attribute), for example the ``stats`` hook of a kernel
        context.  The kernel records *logical* MACs
        (decode-strategy-invariant), so cached and uncached decoding price
        identically.
        """
        return self.compute_energy_j({voltage: counters.macs},
                                     include_overheads=include_overheads)

    def compute_energy_j(self, macs_per_voltage: dict[float, float] | list[tuple[float, float]],
                         include_overheads: bool = True) -> float:
        """Energy of a workload whose MACs ran at different voltages.

        ``macs_per_voltage`` maps voltage -> MAC count (or an iterable of
        (voltage, macs) pairs); this is how autonomy-adaptive voltage scaling
        is accounted: every 5-step window contributes its MACs at its voltage.
        """
        if isinstance(macs_per_voltage, dict):
            pairs = macs_per_voltage.items()
        else:
            pairs = macs_per_voltage
        total = sum(self.mac_energy_j(macs, voltage) for voltage, macs in pairs)
        if include_overheads:
            total *= 1.0 + self.config.ad_overhead_fraction + self.config.ldo_overhead_fraction
        return total

    def effective_voltage(self, macs_per_voltage: dict[float, float]) -> float:
        """Constant voltage with the same total dynamic energy (paper Sec. 6.1)."""
        total_macs = sum(macs_per_voltage.values())
        if total_macs <= 0:
            return self.config.nominal_voltage
        weighted = sum(macs * v ** 2 for v, macs in macs_per_voltage.items())
        return float(np.sqrt(weighted / total_macs))

    # ------------------------------------------------------------------
    # Memory energy
    # ------------------------------------------------------------------
    def sram_energy_j(self, num_bytes: int | float) -> float:
        return float(num_bytes) * self.config.sram_energy_per_byte_pj * 1e-12

    def dram_energy_j(self, num_bytes: int | float) -> float:
        return float(num_bytes) * self.config.dram_energy_per_byte_pj * 1e-12

    # ------------------------------------------------------------------
    # Chip-level breakdown
    # ------------------------------------------------------------------
    def breakdown(self, macs_per_voltage: dict[float, float], sram_bytes: float,
                  dram_bytes: float) -> EnergyBreakdown:
        compute = self.compute_energy_j(macs_per_voltage, include_overheads=False)
        overhead = compute * (self.config.ad_overhead_fraction + self.config.ldo_overhead_fraction)
        return EnergyBreakdown(
            compute_j=compute,
            sram_j=self.sram_energy_j(sram_bytes),
            dram_j=self.dram_energy_j(dram_bytes),
            overhead_j=overhead,
        )


#: Shared default-configuration model.  ``EnergyModel`` is immutable in
#: practice (its config is frozen), so every ``energy_model or EnergyModel()``
#: call site can use this singleton instead of re-building config + model per
#: call — same numbers, no per-call allocation.
DEFAULT_ENERGY_MODEL = EnergyModel()


@dataclass(frozen=True)
class BatteryModel:
    """Whole-robot battery-life model (paper Sec. 6.8).

    The computing platform accounts for a configurable fraction of total robot
    power (50-60 % in the configurations the paper cites); the rest is
    mechanical (actuators, motors) and unaffected by CREATE.
    """

    battery_wh: float = 90.0
    compute_power_fraction: float = 0.55
    baseline_compute_power_w: float = 18.0

    def total_power_w(self, compute_scale: float = 1.0) -> float:
        """Robot power when compute energy is scaled by ``compute_scale``."""
        if compute_scale < 0:
            raise ValueError("compute_scale must be non-negative")
        compute = self.baseline_compute_power_w * compute_scale
        mechanical = self.baseline_compute_power_w * (1.0 - self.compute_power_fraction) \
            / self.compute_power_fraction
        return compute + mechanical

    def battery_life_hours(self, compute_scale: float = 1.0) -> float:
        return self.battery_wh / self.total_power_w(compute_scale)

    def life_extension_percent(self, compute_scale: float) -> float:
        """Relative battery-life improvement vs. the unscaled baseline."""
        baseline = self.battery_life_hours(1.0)
        improved = self.battery_life_hours(compute_scale)
        return (improved / baseline - 1.0) * 100.0
