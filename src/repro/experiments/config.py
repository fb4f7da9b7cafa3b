"""Experiment settings — the reproduction's analogue of paper Table II.

The paper runs N = 128x128 HGrids, n from 4x4 to 76x76, 30-minute slots,
three prediction models, on months of real trips. We scale the lattice and
data volume down together (DESIGN.md §6) so per-cell densities match the
paper's regime: TESTS (SF=0.01, N=16^2) for unit tests, BENCH (SF=0.1,
N=32^2) for the jobs. Fractions of N_side are preserved: the paper's
default/original grid 16 of 128 (2km x 2km) maps to N_side/8; the sweep's
upper end 76 of 128 maps to ~0.6*N_side.
"""
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

from pyspark.sql import DataFrame, SparkSession

from repro.core.alpha import weekday_days
from repro.core.search import brute_force, iterative_method, ternary_search
from repro.core.upper_bound import GridCounts
from repro.synth_data import CITIES, SLOTS_PER_DAY, CityConfig, taxi_trips


@dataclass(frozen=True)
class Settings:
    """One experiment scale (paper Table II analogue). Only the volume
    (``sf``) and the HGrid lattice vary; the generated days, the slots, the
    day splits and K are the same at every scale, so every scale holds its
    splits."""

    sf: float
    N_side: int
    days: ClassVar[int] = 33  # ~a month of training + validation + a test day
    slots: ClassVar[int] = SLOTS_PER_DAY
    train_day_range: ClassVar[tuple[int, int]] = (0, 28)
    val_day_range: ClassVar[tuple[int, int]] = (28, 32)
    test_day: ClassVar[int] = 32  # 32 % 7 == 4 -> a Friday (a workday, like the paper's)
    default_slot: ClassVar[int] = 17  # 8:30 AM — the paper's default 8:00-8:30 window
    K: ClassVar[int | None] = None  # expression-error truncation; None = auto (Thm III.2)

    @property
    def s_min(self) -> int:
        """Smallest swept side — paper's 4 of 128, floored at 1."""
        return max(1, round(4 * self.N_side / 128))

    @property
    def s_max(self) -> int:
        """Largest swept side — paper's 76 of 128 (keeps nm > N strict)."""
        return max(2, round(76 * self.N_side / 128))

    @property
    def s_default(self) -> int:
        """The '2km x 2km' prior: paper's 16 of 128 -> N_side/8 (Alg. 5 p)."""
        return max(1, self.N_side // 8)

    @property
    def train_days(self) -> list[int]:
        """Training weekdays — the paper estimates alpha from workdays only."""
        return weekday_days(range(*self.train_day_range))

    @property
    def val_days(self) -> list[int]:
        return weekday_days(range(*self.val_day_range))


TESTS = Settings(sf=0.01, N_side=16)
BENCH = Settings(sf=0.1, N_side=32)

#: Iterative Method (Alg. 5) search boundary b. Every committed result was
#: found with b = 3; the paper's is 4.
ITERATIVE_B = 3

#: Table IV's OGSS searches (§IV) over a scale's sweep: (bound_fn, settings) -> SearchResult.
SEARCHES = {
    "Ternary Search": lambda fn, st: ternary_search(fn, st.s_min, st.s_max),
    "Iterative Method": lambda fn, st: iterative_method(
        fn, st.s_min, st.s_max, p=st.s_default, b=ITERATIVE_B
    ),
    "Brute-force Search": lambda fn, st: brute_force(fn, st.s_min, st.s_max),
}


@dataclass
class CityData:
    """A loaded city: config, Spark view of its events, splits and count cache."""

    cfg: CityConfig
    events: DataFrame
    settings: Settings

    @cached_property
    def counts(self) -> GridCounts:
        st = self.settings
        return GridCounts(self.events, self.cfg, st.N_side, st.days, st.slots, st.train_days)


def load_city(spark: SparkSession, name: str, settings: Settings) -> CityData:
    """Generate one city's synthetic trips at the given scale. The count
    cache bins the generated columns; the Spark view is read only by the
    oracles, which rescan its Parquet file."""
    cfg = CITIES[name]
    ev = taxi_trips(spark, cfg, sf=settings.sf, days=settings.days, slots=settings.slots)
    return CityData(cfg=cfg, events=ev, settings=settings)
