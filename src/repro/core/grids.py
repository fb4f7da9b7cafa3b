"""Grid geometry: MGrid / HGrid partitioning of a city (paper §II-A).

The space is covered by ``n = n_side^2`` same-sized **model grids** (MGrids,
Def. 1). Each MGrid is evenly divided into ``m = m_side^2`` **homogeneous
grids** (HGrids, Def. 2), where ``m_side = ceil(N_side / n_side)`` — the
smallest per-MGrid subdivision satisfying the paper's constraint
``n*m > N`` with ``N = N_side^2`` (Algorithm 3, line 1:
``m = ceil(sqrt(N/n))^2``). The resulting *fine lattice* has
``fine_side = n_side * m_side`` cells per side (>= N_side), so HGrids are at
least as small as the reference homogeneous resolution.

Counts are binned in numpy from one :class:`EventTable` per city, the
generator's own columns; the Catalyst projection :func:`with_grid_ids` over
the city's Spark view is their cell-arithmetic oracle.
"""
from dataclasses import dataclass, fields
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


def with_grid_ids(events: DataFrame, spec: GridSpec) -> DataFrame:
    """Add HGrid/MGrid ids to an event DataFrame (pure Catalyst projection).

    Adds ``fx``/``fy`` (fine-lattice cell coords), ``hgrid``
    (= fy * fine_side + fx), and ``mgrid`` — the MGrid id
    ((fy // m_side) * n_side + fx // m_side). Within an MGrid the local
    HGrid index j in the paper's r_ij is recoverable from
    (fx % m_side, fy % m_side); we key by global ``hgrid`` instead.
    """
    fx = _cell(F.col("x"), spec.width_km, spec.fine_side)
    fy = _cell(F.col("y"), spec.height_km, spec.fine_side)
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


def cells(coord: np.ndarray, extent_km: float, side: int) -> np.ndarray:
    """numpy twin of :func:`_cell`: ``floor(c / (extent / side))`` clamped to ``side - 1``."""
    return np.minimum(np.floor(coord / (extent_km / side)).astype(np.int64), side - 1)


def hgrid_ids(x: np.ndarray, y: np.ndarray, spec: GridSpec) -> np.ndarray:
    """The ``hgrid`` column of :func:`with_grid_ids` for coordinate arrays."""
    fine = spec.fine_side
    return cells(y, spec.height_km, fine) * fine + cells(x, spec.width_km, fine)


def mgrid_of_hgrid(spec: GridSpec) -> np.ndarray:
    """MGrid id of every HGrid ``0..fine_side^2 - 1`` — the numpy twin of the
    ``mgrid`` column of :func:`with_grid_ids`, covering cells that never saw
    an event (zero-alpha HGrids still carry expression error)."""
    h = np.arange(spec.fine_side**2)
    return (h // spec.fine_side // spec.m_side) * spec.n_side + (
        h % spec.fine_side
    ) // spec.m_side


#: rows binned at once: binning scratch is bounded by the block, not the event count
_BLOCK_ROWS = 1 << 17


@dataclass(frozen=True)
class EventTable:
    """A city's events as driver-side numpy columns, in generation order."""

    day: np.ndarray
    slot: np.ndarray
    x: np.ndarray
    y: np.ndarray
    dest_x: np.ndarray
    dest_y: np.ndarray
    revenue: np.ndarray

    def rows(self, sel) -> "EventTable":
        """The rows picked by a mask or slice (a slice gives views)."""
        return EventTable(**{f.name: getattr(self, f.name)[sel] for f in fields(self)})

    def bincount(
        self, spec: GridSpec, size: int, key=None, *, days=None, slot=None, weights=None
    ) -> np.ndarray:
        """Float counts (or sums of column ``weights``) per ``key(rows, hgrid)``
        (default: the HGrid at ``spec``) over the rows of ``days``/``slot`` when
        given, binned ``_BLOCK_ROWS`` rows at a time into scratch of their key
        span. A block's rows copy out only the columns the call reads."""
        out = np.zeros(size)
        for lo in range(0, self.day.size, _BLOCK_ROWS):
            block = slice(lo, lo + _BLOCK_ROWS)
            keep = None if days is None else np.isin(self.day[block], days)
            if slot is not None:
                at = self.slot[block] == slot
                keep = at if keep is None else keep & at
            b = _Rows(self, block, keep)
            h = hgrid_ids(b.x, b.y, spec)
            k = h if key is None else key(b, h)
            if k.size:
                k0 = int(k.min())
                c = np.bincount(k - k0, None if weights is None else getattr(b, weights))
                out[k0:k0 + c.size] += c
        return out


class _Rows:
    """The rows of one block of an :class:`EventTable` (a slice) that the mask
    ``keep`` picks, or all of them; each column is copied out on first read."""

    def __init__(self, table: EventTable, block: slice, keep: np.ndarray | None):
        self._table, self._block, self._keep = table, block, keep

    def __getattr__(self, name: str) -> np.ndarray:
        col = getattr(self._table, name)[self._block]
        if self._keep is not None:
            col = col[self._keep]
        setattr(self, name, col)
        return col
