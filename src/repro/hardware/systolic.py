"""Functional and cycle-level model of the weight-stationary systolic array.

Functional behaviour (what values come out of a GEMM, including injected
timing errors and anomaly clearance) lives in :mod:`repro.quant.qgemm`; this
module models the *spatial* execution: tiling a GEMM onto a fixed PE array,
pipeline fill/drain, utilization, and the anomaly-detection row appended at
the output stage (paper Fig. 8b).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SystolicArrayConfig", "GemmWorkload", "TileSchedule", "SystolicArray"]


@dataclass(frozen=True)
class SystolicArrayConfig:
    """Geometry and clocking of the PE array."""

    rows: int = 128
    cols: int = 128
    clock_period_ns: float = 2.0
    multiplier_bits: int = 8
    accumulator_bits: int = 24

    def __post_init__(self):
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("array dimensions must be positive")
        if self.clock_period_ns <= 0:
            raise ValueError("clock period must be positive")

    @property
    def num_pes(self) -> int:
        return self.rows * self.cols

    @property
    def clock_hz(self) -> float:
        return 1e9 / self.clock_period_ns

    @property
    def peak_ops_per_second(self) -> float:
        """Peak throughput in ops/s (1 MAC = 2 ops)."""
        return self.num_pes * 2 * self.clock_hz


@dataclass(frozen=True)
class GemmWorkload:
    """Dimensions of one GEMM: (m x k) @ (k x n)."""

    m: int
    k: int
    n: int
    name: str = "gemm"

    def __post_init__(self):
        if min(self.m, self.k, self.n) <= 0:
            raise ValueError("GEMM dimensions must be positive")

    @property
    def macs(self) -> int:
        return self.m * self.k * self.n

    @property
    def output_elements(self) -> int:
        return self.m * self.n


@dataclass(frozen=True)
class TileSchedule:
    """Result of mapping a GEMM onto the array."""

    workload: GemmWorkload
    row_tiles: int
    col_tiles: int
    cycles: int
    utilization: float

    @property
    def total_tiles(self) -> int:
        return self.row_tiles * self.col_tiles


class SystolicArray:
    """Weight-stationary mapping of GEMMs onto a fixed-size PE array."""

    def __init__(self, config: SystolicArrayConfig | None = None):
        self.config = config or SystolicArrayConfig()

    def schedule(self, workload: GemmWorkload) -> TileSchedule:
        """Tile a GEMM and estimate its cycle count.

        Weight-stationary dataflow: the (k x n) weight matrix is partitioned
        into (rows x cols) tiles held in the PEs; for each tile the m input
        rows stream through, costing ``m + rows + cols - 2`` cycles (pipeline
        fill and drain) plus one cycle for the anomaly-detection row.
        """
        cfg = self.config
        row_tiles = int(np.ceil(workload.k / cfg.rows))
        col_tiles = int(np.ceil(workload.n / cfg.cols))
        fill_drain = cfg.rows + cfg.cols - 2
        cycles_per_tile = workload.m + fill_drain + 1
        cycles = row_tiles * col_tiles * cycles_per_tile
        ideal_cycles = workload.macs / cfg.num_pes
        utilization = float(min(1.0, ideal_cycles / max(cycles, 1)))
        return TileSchedule(
            workload=workload,
            row_tiles=row_tiles,
            col_tiles=col_tiles,
            cycles=cycles,
            utilization=utilization,
        )

    def network_cycles(self, workloads: list[GemmWorkload]) -> int:
        """Total compute cycles of a sequence of GEMMs executed back to back."""
        return int(sum(self.schedule(w).cycles for w in workloads))

    def network_latency_ms(self, workloads: list[GemmWorkload]) -> float:
        return self.network_cycles(workloads) * self.config.clock_period_ns * 1e-6
