"""Grid geometry: MGrid / HGrid partitioning of a city (paper §II-A).

The space is covered by ``n = n_side^2`` same-sized **model grids** (MGrids,
Def. 1). Each MGrid is evenly divided into ``m = m_side^2`` **homogeneous
grids** (HGrids, Def. 2), where ``m_side = ceil(N_side / n_side)`` — the
smallest per-MGrid subdivision satisfying the paper's constraint
``n*m > N`` with ``N = N_side^2`` (Algorithm 3, line 1:
``m = ceil(sqrt(N/n))^2``). The resulting *fine lattice* has
``fine_side = n_side * m_side`` cells per side (>= N_side), so HGrids are at
least as small as the reference homogeneous resolution.

All event->cell assignment is plain Catalyst column arithmetic so it runs
as a narrow projection — no UDFs, no shuffles.
"""
from dataclasses import dataclass
from math import ceil

import numpy as np
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.synth_data import CityConfig


@dataclass(frozen=True)
class GridSpec:
    """Geometry for one choice of (n, N) over a city.

    ``n_side`` — MGrids per side (n = n_side^2, Def. 1).
    ``N_side`` — reference homogeneous lattice per side (N = N_side^2).
    ``m_side`` — HGrids per MGrid side, ``ceil(N_side / n_side)``.
    ``fine_side`` — HGrid lattice per side, ``n_side * m_side``.
    """

    n_side: int
    N_side: int
    width_km: float
    height_km: float

    @property
    def m_side(self) -> int:
        return ceil(self.N_side / self.n_side)

    @property
    def fine_side(self) -> int:
        return self.n_side * self.m_side

    @property
    def n(self) -> int:
        return self.n_side**2

    @property
    def m(self) -> int:
        return self.m_side**2

    @property
    def N(self) -> int:
        return self.N_side**2


def grid_spec(cfg: CityConfig, n_side: int, N_side: int) -> GridSpec:
    """Build the :class:`GridSpec` for city ``cfg`` at MGrid count ``n_side^2``."""
    if not 1 <= n_side <= N_side:
        raise ValueError(f"n_side must be in [1, {N_side}], got {n_side}")
    return GridSpec(n_side, N_side, cfg.width_km, cfg.height_km)


def _cell(coord: Column, extent_km: float, side: int) -> Column:
    """Cell index of ``coord`` on a ``side``-cell axis — clamped so the
    closed upper boundary (x == extent) lands in the last cell."""
    return F.least(
        F.floor(coord / F.lit(extent_km / side)).cast("int"), F.lit(side - 1)
    )


def with_grid_ids(events: DataFrame, spec: GridSpec, x: str = "x", y: str = "y") -> DataFrame:
    """Add HGrid/MGrid ids to an event DataFrame (pure Catalyst projection).

    Adds ``fx``/``fy`` (fine-lattice cell coords), ``hgrid``
    (= fy * fine_side + fx), and ``mgrid`` — the MGrid id
    ((fy // m_side) * n_side + fx // m_side). Within an MGrid the local
    HGrid index j in the paper's r_ij is recoverable from
    (fx % m_side, fy % m_side); we key by global ``hgrid`` instead.
    """
    fx = _cell(F.col(x), spec.width_km, spec.fine_side)
    fy = _cell(F.col(y), spec.height_km, spec.fine_side)
    out = events.withColumn("fx", fx).withColumn("fy", fy)
    out = out.withColumn(
        "hgrid", (F.col("fy") * spec.fine_side + F.col("fx")).cast("long")
    )
    return out.withColumn(
        "mgrid",
        (
            (F.col("fy") / spec.m_side).cast("int") * spec.n_side
            + (F.col("fx") / spec.m_side).cast("int")
        ).cast("long"),
    )


def mgrid_of_hgrid(spec: GridSpec) -> np.ndarray:
    """MGrid id of every HGrid ``0..fine_side^2 - 1`` — the numpy twin of the
    ``mgrid`` column of :func:`with_grid_ids`, covering cells that never saw
    an event (zero-alpha HGrids still carry expression error)."""
    h = np.arange(spec.fine_side**2)
    return (h // spec.fine_side // spec.m_side) * spec.n_side + (
        h % spec.fine_side
    ) // spec.m_side
