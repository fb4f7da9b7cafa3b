"""Synthetic taxi-trip twins of NYC / Chengdu / Xi'an (DESIGN.md §3).

The paper evaluates on NYC TLC 2013 yellow-taxi trips and DiDi GAIA
Chengdu/Xi'an trips, none of which are available offline. Each city is
replaced by a synthetic twin: a fixed spatial intensity field (Gaussian
hotspots + a "main road" ridge + uniform floor) modulated by a 48-slot
temporal profile; per-(day, slot, cell) counts are Poisson — the paper's
own verified distributional assumption for HGrids. Parameters are tuned so
the orderings the paper reports hold: unevenness(NYC) > unevenness(Chengdu)
> unevenness(Xi'an), and the daily order counts / city areas match §V-A at
scale factor 1. Tests use SF=0.01, benchmarks SF=0.1; generators are
deterministic in ``seed`` so the DuckDB oracle sees identical input.
"""
import os
import uuid
import weakref
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
from pyspark import SparkFiles
from pyspark.sql import DataFrame, SparkSession


@dataclass(frozen=True)
class CityConfig:
    """Static description of one synthetic city.

    ``hotspots`` are ``(cx, cy, sigma, weight)`` in unit coordinates;
    ``road`` is ``(x0, y0, x1, y1, sigma, weight)`` — a ridge of intensity
    along a segment; ``floor`` is the uniform background weight. Each
    weight is the *fraction of total event mass* carried by that component
    (components are individually normalised before mixing), so a city with
    ``floor=0.1`` really does concentrate 90% of its demand in the
    hotspots/road — which is what makes NYC's twin strongly uneven.
    """

    name: str
    daily_orders: int  # orders per day at SF=1 (paper §V-A test-day counts)
    width_km: float
    height_km: float
    hotspots: tuple = ()
    road: tuple | None = None
    floor: float = 0.2  # fraction of total mass spread uniformly
    weekend_factor: float = 0.75
    seed: int = 7


# Paper §V-A: NYC 282,255 test-day orders over 23km x 37km, very uneven
# (Manhattan band); Chengdu 238,868 over 23km x 37km, more even; Xi'an
# 109,753 over 8.5km x 8.6km, most even.
NYC = CityConfig(
    name="nyc",
    daily_orders=282_255,
    width_km=23.0,
    height_km=37.0,
    hotspots=(
        (0.42, 0.55, 0.035, 0.22),
        (0.46, 0.70, 0.045, 0.18),
        (0.38, 0.35, 0.05, 0.12),
        (0.60, 0.80, 0.06, 0.06),
    ),
    road=(0.34, 0.12, 0.52, 0.92, 0.018, 0.36),
    floor=0.06,
    seed=11,
)
CHENGDU = CityConfig(
    name="chengdu",
    daily_orders=238_868,
    width_km=23.0,
    height_km=37.0,
    hotspots=(
        (0.50, 0.50, 0.16, 0.38),
        (0.35, 0.62, 0.10, 0.10),
        (0.62, 0.40, 0.10, 0.10),
    ),
    road=(0.20, 0.50, 0.80, 0.50, 0.05, 0.12),
    floor=0.30,
    seed=13,
)
XIAN = CityConfig(
    name="xian",
    daily_orders=109_753,
    width_km=8.5,
    height_km=8.6,
    hotspots=((0.50, 0.50, 0.30, 0.30),),
    road=None,
    floor=0.70,
    seed=17,
)
CITIES = {"nyc": NYC, "chengdu": CHENGDU, "xian": XIAN}

#: resolution of the generator's intensity lattice (per side). All event
#: positions are continuous; this only controls how finely the Poisson
#: means vary across space. 128 matches the paper's finest HGrid lattice.
GEN_SIDE = 128
SLOTS_PER_DAY = 48  # paper Table II: 30-minute slots

#: the generated columns and their Spark SQL types, in frame order
COLUMNS = {
    "day": "INT", "slot": "INT", "x": "DOUBLE", "y": "DOUBLE",
    "dest_x": "DOUBLE", "dest_y": "DOUBLE", "revenue": "DOUBLE",
}
#: generated rows are stored in arrays sized for the expected total plus
#: this many standard deviations of its Poisson noise (grown if exceeded)
_CAPACITY_SIGMAS = 8
#: rows per Parquet row group of a :func:`taxi_trips` file (the writer's
#: retained buffers grow with it; 2^13 to 2^17 moved peak RSS by < 1 MB)
_ROW_GROUP_ROWS = 1 << 16
#: :func:`taxi_trips` frame -> its generated columns (dropped with the frame)
_VIEW_COLUMNS = weakref.WeakKeyDictionary()


def intensity_field(cfg: CityConfig, side: int = GEN_SIDE) -> np.ndarray:
    """Spatial intensity on a ``side x side`` lattice, normalised to sum 1.

    Index convention: ``field[iy, ix]`` with ``ix`` along x/width and ``iy``
    along y/height; cell centres at ``(ix + 0.5)/side`` in unit coordinates.
    """
    c = (np.arange(side) + 0.5) / side
    gx, gy = np.meshgrid(c, c)  # gx: x coordinate, gy: y coordinate
    # every component is normalised to unit mass, then mixed by its weight,
    # so weights are mass fractions (not peak amplitudes)
    f = np.full((side, side), float(cfg.floor) / side**2)
    for cx, cy, sig, w in cfg.hotspots:
        g = np.exp(-(((gx - cx) ** 2 + (gy - cy) ** 2) / (2 * sig**2)))
        f += w * g / g.sum()
    if cfg.road is not None:
        x0, y0, x1, y1, sig, w = cfg.road
        # distance from each cell centre to the segment (x0,y0)-(x1,y1)
        dx, dy = x1 - x0, y1 - y0
        t = ((gx - x0) * dx + (gy - y0) * dy) / (dx * dx + dy * dy)
        t = np.clip(t, 0.0, 1.0)
        d2 = (gx - (x0 + t * dx)) ** 2 + (gy - (y0 + t * dy)) ** 2
        g = np.exp(-d2 / (2 * sig**2))
        f += w * g / g.sum()
    return f / f.sum()


def temporal_profile(slots: int = SLOTS_PER_DAY) -> np.ndarray:
    """Fraction of a day's orders per slot (sums to 1): AM + PM peaks."""
    t = np.arange(slots)
    prof = (
        0.35
        + 1.2 * np.exp(-(((t - 17 * slots / 48) / (2.5 * slots / 48)) ** 2))
        + 1.4 * np.exp(-(((t - 37 * slots / 48) / (3.5 * slots / 48)) ** 2))
    )
    return prof / prof.sum()


def day_factors(days: int, cfg: CityConfig) -> np.ndarray:
    """Per-day demand multiplier: day 0 is a Monday; weekends are damped."""
    f = np.ones(days)
    f[np.arange(days) % 7 >= 5] = cfg.weekend_factor
    return f


def true_cell_means(
    cfg: CityConfig, *, sf: float, slot: int, side: int = GEN_SIDE
) -> np.ndarray:
    """Ground-truth Poisson mean per generator cell for a weekday ``slot``.

    Tests use this as the oracle for alpha estimation.
    """
    return intensity_field(cfg, side) * (cfg.daily_orders * sf) * temporal_profile()[slot]


def _trip_columns(
    cfg: CityConfig, *, sf: float, days: int, slots: int, seed: int | None
) -> dict[str, np.ndarray]:
    """The generated trips as one numpy array per :data:`COLUMNS` entry.

    Days are written into arrays sized once for the expected total, so no
    per-day chunks are held and concatenated (their freed heap memory
    stays resident).
    """
    g = np.random.default_rng(cfg.seed if seed is None else seed)
    fld = intensity_field(cfg)
    prof = temporal_profile(slots)
    dayf = day_factors(days, cfg)
    flat = fld.ravel()
    cell_w, cell_h = cfg.width_km / GEN_SIDE, cfg.height_km / GEN_SIDE
    mean = cfg.daily_orders * sf * dayf.sum()  # of the Poisson total (fld and prof sum to 1)
    rows = max(0, int(mean + _CAPACITY_SIGMAS * np.sqrt(mean)))
    cols = {c: np.empty(rows, np.int32 if t == "INT" else np.float64) for c, t in COLUMNS.items()}
    end = 0
    for d in range(days):
        lam = flat[None, :] * (cfg.daily_orders * sf * dayf[d]) * prof[:, None]
        counts = g.poisson(lam)  # (slots, GEN_SIDE**2)
        s_idx, c_idx = np.nonzero(counts)
        reps = counts[s_idx, c_idx]
        slot_col = np.repeat(s_idx, reps)
        cell = np.repeat(c_idx, reps)
        n = cell.size
        if n == 0:
            continue
        ix, iy = cell % GEN_SIDE, cell // GEN_SIDE
        x = (ix + g.random(n)) * cell_w
        y = (iy + g.random(n)) * cell_h
        dest = g.choice(GEN_SIDE * GEN_SIDE, size=n, p=flat)
        dx = (dest % GEN_SIDE + g.random(n)) * cell_w
        dy = (dest // GEN_SIDE + g.random(n)) * cell_h
        dist = np.hypot(dx - x, dy - y)
        revenue = 2.5 + 1.8 * dist * (1.0 + 0.2 * g.standard_normal(n))
        if end + n > cols["day"].size:
            cols = {c: np.resize(v, 2 * (end + n)) for c, v in cols.items()}
        day_rows = slice(end, end + n)
        for c, v in (
            ("day", d), ("slot", slot_col), ("x", x), ("y", y), ("dest_x", dx), ("dest_y", dy),
            ("revenue", np.maximum(revenue, 1.0).round(2)),
        ):
            cols[c][day_rows] = v
        end += n
    return {c: v[:end] for c, v in cols.items()}


def taxi_trips_pdf(
    cfg: CityConfig,
    *,
    sf: float,
    days: int,
    slots: int = SLOTS_PER_DAY,
    seed: int | None = None,
) -> pd.DataFrame:
    """Generate a city's trips as pandas (deterministic in ``seed``).

    Columns: ``day`` (0-based, day 0 = Monday), ``slot``, ``x``/``y``
    (origin, km), ``dest_x``/``dest_y`` (km), ``revenue`` (fare). Counts per
    (day, slot, cell) are Poisson(intensity x daily volume x slot profile x
    weekday factor); positions are uniform inside the cell (events are
    homogeneous below the ``GEN_SIDE`` lattice by construction).
    """
    return pd.DataFrame(_trip_columns(cfg, sf=sf, days=days, slots=slots, seed=seed))


def taxi_trips(
    spark: SparkSession,
    cfg: CityConfig,
    *,
    sf: float,
    days: int,
    slots: int = SLOTS_PER_DAY,
    seed: int | None = None,
) -> DataFrame:
    """Spark view of :func:`taxi_trips_pdf` (same rows, same order).

    The generated columns are written once as an uncompressed Parquet file
    under the session's ``SparkFiles`` root, which Spark deletes when the
    session stops, and the view is a scan of that file. The columns stay on
    the driver for :func:`trip_columns`, keyed by the returned frame (which
    ``DataFrame.cache()`` returns unchanged).
    """
    cols = _trip_columns(cfg, sf=sf, days=days, slots=slots, seed=seed)
    path = os.path.join(SparkFiles.getRootDirectory(), f"trips-{cfg.name}-{uuid.uuid4().hex}.parquet")
    pq.write_table(
        pa.table(cols), path,
        row_group_size=_ROW_GROUP_ROWS, compression="none", use_dictionary=False,
    )
    frame = spark.read.schema(", ".join(f"{c} {t}" for c, t in COLUMNS.items())).parquet(path)
    for col in cols.values():
        col.setflags(write=False)
    _VIEW_COLUMNS[frame] = cols
    return frame


def trip_columns(events: DataFrame) -> dict[str, np.ndarray]:
    """The driver-side columns behind a frame made by :func:`taxi_trips`
    (read-only, in the frame's row order)."""
    try:
        return _VIEW_COLUMNS[events]
    except (KeyError, TypeError):
        raise ValueError(f"{type(events).__name__} was not made by synth_data.taxi_trips") from None
