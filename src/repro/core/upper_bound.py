"""Upper bound e(sqrt(n)) of the total real error — paper Algorithm 3.

``UpperBound(n, N, X, Model)`` = total model error (n * MAE, Eq. 20)
+ total expression error (Algorithm 2 over every HGrid). Its two inputs
per candidate n are count tables: the (days, slots, n) demand tensor and
the (slots, fine_side^2) alpha table of
:func:`repro.core.alpha.alpha_by_hgrid`. :class:`GridCounts` bins each with
``np.bincount`` over the city's one event table on first use and
keeps it for the city (``CityData.counts``), so the evaluator, Table III/IV
and the error curves share one cache. Per (n, slot) the evaluator trains
the model fresh and runs the batched Algorithm-2 kernel locally over every
HGrid of that slot's alpha row at once, matching the paper's cost anatomy
where "the time cost of training the model is considerable when
calculating e(sqrt(n))". :meth:`UpperBoundEvaluator.evaluate` is the only
code that fits a per-(n, slot) model and adds up a bound: its result
carries the fitted model, so the error curves (real error) and Table IV's
optimal ratio (POLAR forecasts) read the memo instead of refitting.
"""
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.core.alpha import alpha_by_hgrid
from repro.core.expression_error import total_expression_error_local
from repro.core.grids import EventTable, GridSpec, grid_spec
from repro.core.model_error import demand_tensor, total_model_error
from repro.models.base import Predictor
from repro.synth_data import CityConfig, trip_columns


@dataclass(frozen=True)
class UpperBoundResult:
    """One e(sqrt(n)) evaluation: the bound, its two components, the model
    fitted for it and the evaluation's wall seconds (fit, error, kernel)."""

    n_side: int
    slot: int
    model_error: float
    expr_error: float
    model: Predictor = field(compare=False, repr=False)
    eval_s: float = field(compare=False, repr=False)

    @property
    def bound(self) -> float:
        return self.model_error + self.expr_error


@dataclass
class GridCounts:
    """One city's event table and its count tables per grid side: each made
    on first use, then shared read-only. ``events`` must be a
    :func:`~repro.synth_data.taxi_trips` view; the table is its generated
    columns, so filling the cache runs no Spark job."""

    events: DataFrame
    cfg: CityConfig
    N_side: int
    days: int
    slots: int
    train_days: list[int]
    _tensors: dict = field(default_factory=dict, repr=False)
    _alpha_cache: dict = field(default_factory=dict, repr=False)

    @cached_property
    def table(self) -> EventTable:
        """The events as driver-side columns; ``ValueError`` for a frame
        :func:`~repro.synth_data.taxi_trips` did not make."""
        return EventTable(**trip_columns(self.events))

    def spec(self, n_side: int) -> GridSpec:
        return grid_spec(self.cfg, n_side, self.N_side)

    def tensor(self, n_side: int) -> np.ndarray:
        """(days, slots, n) demand tensor at side ``n_side``."""
        if n_side not in self._tensors:
            t = demand_tensor(self.table, self.spec(n_side), days=self.days, slots=self.slots)
            t.setflags(write=False)
            self._tensors[n_side] = t
        return self._tensors[n_side]

    def alphas(self, n_side: int) -> tuple[np.ndarray, np.ndarray]:
        """(slots, fine^2) training-weekday alphas and the HGrid->MGrid map."""
        if n_side not in self._alpha_cache:
            pair = alpha_by_hgrid(
                self.table, self.spec(n_side), train_days=self.train_days, slots=self.slots
            )
            for a in pair:
                a.setflags(write=False)
            self._alpha_cache[n_side] = pair
        return self._alpha_cache[n_side]


@dataclass
class UpperBoundEvaluator:
    """Caching evaluator of Algorithm 3 over one city's events.

    ``evaluate(n_side, slot)`` returns the bound for n = n_side^2 at one
    time slot. Results are memoised per (n_side, slot); ``calls`` counts
    distinct bound computations and ``elapsed`` their total wall time, the
    sum of their ``eval_s`` (Table IV sums a search's own points instead).
    A slot outside ``[0, slots)`` raises ``ValueError``. Count tables come
    from ``_counts``: the city's shared cache (:meth:`for_city`) or its own.
    """

    # unread: perfbench binds it (tests/test_perfbench_contract.py, ROADMAP item 2)
    spark: SparkSession
    events: DataFrame
    cfg: CityConfig
    N_side: int
    model_factory: callable  # () -> Predictor
    days: int
    slots: int
    train_days: list[int]
    val_days: list[int]
    K: int | None = None
    calls: int = 0
    elapsed: float = 0.0
    _bounds: dict = field(default_factory=dict)
    # an init field, so dataclasses.replace() copies share the count cache
    _counts: GridCounts | None = None

    def __post_init__(self):
        if self._counts is None:
            self._counts = GridCounts(
                self.events, self.cfg, self.N_side, self.days, self.slots, self.train_days
            )

    @classmethod
    def for_city(cls, data, model_factory) -> "UpperBoundEvaluator":
        """An evaluator over ``data`` (a ``CityData``) sharing ``data.counts``."""
        st = data.settings
        return cls(None, data.events, data.cfg, st.N_side, model_factory, st.days, st.slots,
                   st.train_days, st.val_days, st.K, _counts=data.counts)

    def evaluate(self, n_side: int, slot: int) -> UpperBoundResult:
        if not 0 <= slot < self.slots:
            raise ValueError(f"slot {slot} is outside [0, {self.slots})")
        key = (n_side, slot)
        if key in self._bounds:
            return self._bounds[key]
        t0 = time.perf_counter()
        spec = self._counts.spec(n_side)
        tensor = self._counts.tensor(n_side)
        model = self.model_factory().fit(tensor, self.train_days, slot)
        me = total_model_error(tensor, model, eval_days=self.val_days, slot=slot)
        alphas, mg = self._counts.alphas(n_side)
        ee = total_expression_error_local(alphas[slot], mg, spec.m, self.K)
        res = UpperBoundResult(n_side, slot, me, ee, model, time.perf_counter() - t0)
        self._bounds[key] = res
        self.calls += 1
        self.elapsed += res.eval_s
        return res

    def bound_fn(self, slot: int):
        """e(sqrt(n)) as a plain ``s -> float`` for the §IV search loops."""
        return lambda n_side: self.evaluate(n_side, slot).bound
