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
  The tail is :func:`_ndtr`, a scalar port of the Cephes ``ndtr`` that
  ``scipy.special.ndtr`` (and so ``scipy.stats.norm.sf``) runs: its results
  are bit-identical to scipy's and depend only on the C library's ``exp``.

The resulting lookup table is what the rest of the system consumes: the
error-injection framework (Sec. 3.2 / 6.1) and the voltage-scaling policies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


# ----------------------------------------------------------------------
# Standard normal tail: Cephes ndtr, operation for operation
# ----------------------------------------------------------------------
# Rational-approximation coefficients of Cephes ``ndtr.c``, highest degree
# first: ``_ERF_T/_ERF_U`` give erf on |x| < 1, ``_ERFC_P/_ERFC_Q`` erfc on
# 1 <= x < 8 and ``_ERFC_R/_ERFC_S`` erfc on x >= 8.  The U, Q and S
# denominators have an implicit leading 1 (see :func:`_p1evl`).
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
          2.23200534594684319226E3, 7.00332514112805075473E3,
          5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2,
          4.59432382970980127987E3, 2.26290000613890934246E4,
          4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
           7.46321056442269912687E0, 4.86371970985681366614E1,
           1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3,
           5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1,
           3.54937778887819891062E2, 9.75708501743205489753E2,
           1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0,
           5.01905042251180477414E0, 6.16021097993053585195E0,
           7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (2.26052863220117276590E0, 9.39603524938001434673E0,
           1.20489539808096656605E1, 1.70814450747565897222E1,
           9.60896809063285878198E0, 3.36907645100081516050E0)
#: ``log(DBL_MAX)``: Cephes returns erfc = 0 once ``-x*x`` falls below it.
_MAXLOG = 7.09782712893383996843E2
_SQRT1_2 = 0.70710678118654752440


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    """Horner evaluation of ``coef`` (highest degree first) at ``x``."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: tuple[float, ...]) -> float:
    """:func:`_polevl` with an implicit leading coefficient of 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtr(a: float) -> float:
    """Standard normal CDF; ``_ndtr(-x)`` is ``scipy.stats.norm.sf(x)``.

    The branches of Cephes ``ndtr`` and of the ``erf``/``erfc`` calls it
    can reach, with the same operations in the same order, so every result
    is bit-identical to ``scipy.special.ndtr``.  Scalar Python floats on
    purpose: ``math.exp`` is the C library's ``exp``, which numpy's
    vectorized ``exp`` is not, and ``0.5 * math.erfc(-a / sqrt(2))`` rounds
    differently on about half of all inputs.
    """
    if a != a:
        return math.nan
    x = a * _SQRT1_2
    z = abs(x)
    if z < 1.0:
        # erf(x) = x T(x^2) / U(x^2); Cephes's erf(x) = -erf(-x) for x < 0
        # is the same double, since rounding is symmetric in sign.
        erf = x * _polevl(x * x, _ERF_T) / _p1evl(x * x, _ERF_U)
        return 0.5 + 0.5 * erf
    exponent = -z * z
    if exponent < -_MAXLOG:
        erfc = 0.0
    elif z < 8.0:
        erfc = math.exp(exponent) * _polevl(z, _ERFC_P) / _p1evl(z, _ERFC_Q)
    else:
        erfc = math.exp(exponent) * _polevl(z, _ERFC_R) / _p1evl(z, _ERFC_S)
    y = 0.5 * erfc
    return 1.0 - y if x > 0.0 else y


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
        violation_probability = _ndtr(-(slack / sigma))
        return min(max(violation_probability + cfg.error_floor, 0.0), 1.0)

    def bit_error_rates(self, voltage: float) -> np.ndarray:
        """Vector of per-bit error rates (index = accumulator bit position).

        Memoized per configuration and voltage as a read-only array: voltage
        scaling revisits a few LDO levels in every trial, and each vector
        costs one normal-tail evaluation per bit.
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
        """Expected corrupted accumulator elements of the recorded work.

        ``counters`` is a :class:`repro.quant.GemmStats` (or anything with
        an ``output_elements`` attribute), for example the ``stats`` hook of
        a kernel context.  Because the fused kernel counts the accumulator
        elements actually *produced*, this prediction holds for cached and
        uncached decoding alike — KV caching changes how many elements are
        produced, not the per-element exposure.
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
