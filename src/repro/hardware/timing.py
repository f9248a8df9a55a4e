"""Analytical timing-error model of the voltage-underscaled systolic array.

The paper synthesizes an 8-bit multiplier / 24-bit accumulator PE with a
commercial 22 nm PDK (nominal 0.9 V, 2 ns clock) and extracts, per accumulator
bit position, the rate at which timing violations corrupt that bit as the
supply voltage drops (Fig. 4a).  We do not have the PDK, so this module
regenerates the same *shape* with an analytical model:

* gate delay grows as the supply approaches the threshold voltage following
  the alpha-power law ``delay ∝ (V - V_th)^-alpha``;
* higher accumulator bits sit at the end of longer carry chains, so their
  path delay (and therefore their probability of violating the 2 ns clock
  period under voltage noise / process variation) is larger;
* the per-bit error probability is the tail probability of a Gaussian slack
  distribution, which produces the characteristic steep, monotone BER-vs-
  voltage curves reported in the paper and in prior silicon measurements.

The resulting lookup table is what the rest of the system consumes: the
error-injection framework (Sec. 3.2 / 6.1) and the voltage-scaling policies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

__all__ = ["TimingModelConfig", "TimingErrorModel", "NOMINAL_VOLTAGE", "MIN_VOLTAGE"]

#: Nominal supply voltage of the synthesized design (V).
NOMINAL_VOLTAGE = 0.9

#: Lowest supply voltage the LDO can regulate down to (V).
MIN_VOLTAGE = 0.6


@dataclass(frozen=True)
class TimingModelConfig:
    """Parameters of the analytical per-bit timing-error model."""

    nominal_voltage: float = NOMINAL_VOLTAGE
    threshold_voltage: float = 0.25
    clock_period_ns: float = 2.0
    #: Alpha-power-law exponent for delay vs. (V - Vth).
    alpha: float = 1.3
    #: Fraction of the clock period used by the *shortest* (bit 0) path at
    #: nominal voltage.
    base_path_fraction: float = 0.42
    #: Additional path-delay fraction accumulated per bit of carry chain.
    per_bit_fraction: float = 0.014
    #: Relative sigma of the delay distribution (process variation + jitter).
    delay_sigma: float = 0.06
    #: Error-rate floor representing particle strikes / residual noise.
    error_floor: float = 1e-12
    accumulator_bits: int = 24

    def __post_init__(self):
        if not self.threshold_voltage < self.nominal_voltage:
            raise ValueError("threshold voltage must be below nominal voltage")
        if self.accumulator_bits <= 0:
            raise ValueError("accumulator_bits must be positive")


#: Per-bit rate vectors one model keeps memoized (per configuration and voltage).
RATES_MEMO_SIZE = 256


class TimingErrorModel:
    """Per-bit timing-error rates as a function of supply voltage."""

    def __init__(self, config: TimingModelConfig | None = None):
        self.config = config or TimingModelConfig()
        self._rates_memo: dict[tuple[TimingModelConfig, float], np.ndarray] = {}

    # ------------------------------------------------------------------
    # Delay model
    # ------------------------------------------------------------------
    def _delay_scale(self, voltage: float) -> float:
        """Delay multiplier relative to nominal voltage (alpha-power law)."""
        cfg = self.config
        if voltage <= cfg.threshold_voltage:
            raise ValueError(
                f"voltage {voltage} V is at or below the threshold voltage; "
                "the delay model is not defined there"
            )
        nominal_overdrive = cfg.nominal_voltage - cfg.threshold_voltage
        overdrive = voltage - cfg.threshold_voltage
        # delay ∝ V / (V - Vth)^alpha
        nominal = cfg.nominal_voltage / nominal_overdrive ** cfg.alpha
        scaled = voltage / overdrive ** cfg.alpha
        return scaled / nominal

    def path_delay_ns(self, bit: int, voltage: float) -> float:
        """Nominal path delay (ns) of the path terminating at ``bit``."""
        cfg = self.config
        if not 0 <= bit < cfg.accumulator_bits:
            raise ValueError(f"bit must be in [0, {cfg.accumulator_bits})")
        fraction = cfg.base_path_fraction + cfg.per_bit_fraction * bit
        return fraction * cfg.clock_period_ns * self._delay_scale(voltage)

    # ------------------------------------------------------------------
    # Error rates
    # ------------------------------------------------------------------
    def bit_error_rate(self, bit: int, voltage: float) -> float:
        """Probability that a timing violation corrupts ``bit`` in one cycle."""
        cfg = self.config
        delay = self.path_delay_ns(bit, voltage)
        sigma = max(cfg.delay_sigma * delay, 1e-9)
        slack = cfg.clock_period_ns - delay
        violation_probability = float(norm.sf(slack / sigma))
        return float(np.clip(violation_probability + cfg.error_floor, 0.0, 1.0))

    def bit_error_rates(self, voltage: float) -> np.ndarray:
        """Vector of per-bit error rates (index = accumulator bit position).

        Memoized per configuration and voltage as a read-only array: voltage
        scaling revisits a few LDO levels in every trial, and each vector
        costs one ``norm.sf`` per bit.
        """
        memo = self._rates_memo
        key = (self.config, voltage)
        rates = memo.get(key)
        if rates is None:
            rates = np.array([self.bit_error_rate(bit, voltage)
                              for bit in range(self.config.accumulator_bits)])
            rates.flags.writeable = False
            if len(memo) >= RATES_MEMO_SIZE:
                del memo[next(iter(memo))]
            memo[key] = rates
        return rates

    def mean_bit_error_rate(self, voltage: float) -> float:
        """Aggregate BER (uniform average over bit positions)."""
        return float(self.bit_error_rates(voltage).mean())

    def element_error_rate(self, voltage: float,
                           accumulator_bits: int | None = None) -> float:
        """Probability that at least one bit of one accumulator result flips."""
        rates = self.bit_error_rates(voltage)
        if accumulator_bits is not None:
            rates = rates[:accumulator_bits]
        return float(1.0 - np.prod(1.0 - rates))

    def expected_corrupted_elements(self, counters, voltage: float,
                                    accumulator_bits: int | None = None) -> float:
        """Expected corrupted accumulator elements of one kernel context.

        ``counters`` is a :class:`repro.quant.KernelCounters` (or anything
        with an ``output_elements`` attribute).  Because the fused kernel
        counts the accumulator elements actually *produced*, this prediction
        holds for cached and uncached decoding alike — KV caching changes
        how many elements are produced, not the per-element exposure.
        """
        return counters.output_elements * self.element_error_rate(
            voltage, accumulator_bits)

    def voltage_for_ber(self, target_ber: float,
                        v_min: float = MIN_VOLTAGE,
                        v_max: float = NOMINAL_VOLTAGE,
                        tolerance: float = 1e-4) -> float:
        """Invert the model: lowest voltage whose aggregate BER <= ``target_ber``.

        The aggregate BER decreases monotonically with voltage, so a bisection
        search suffices.  Returns ``v_max`` if even nominal voltage exceeds the
        target (it never does with the default configuration) and ``v_min`` if
        the minimum voltage already satisfies it.
        """
        if target_ber <= 0:
            raise ValueError("target_ber must be positive")
        if self.mean_bit_error_rate(v_min) <= target_ber:
            return v_min
        if self.mean_bit_error_rate(v_max) > target_ber:
            return v_max
        low, high = v_min, v_max
        while high - low > tolerance:
            mid = 0.5 * (low + high)
            if self.mean_bit_error_rate(mid) > target_ber:
                low = mid
            else:
                high = mid
        return high

    def table(self, voltages: np.ndarray | None = None) -> dict[float, np.ndarray]:
        """Lookup table voltage -> per-bit error-rate vector (paper Sec. 6.1)."""
        if voltages is None:
            voltages = np.round(np.arange(MIN_VOLTAGE, NOMINAL_VOLTAGE + 1e-9, 0.01), 3)
        return {float(v): self.bit_error_rates(float(v)) for v in voltages}
