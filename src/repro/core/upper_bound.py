"""Upper bound e(sqrt(n)) of the total real error — paper Algorithm 3.

``UpperBound(n, N, X, Model)`` = total model error (n * MAE, Eq. 20)
+ total expression error (Algorithm 2 over every HGrid). The evaluator
below backs the §IV search algorithms. Per candidate n it issues two Spark
aggregations — the (day, slot, mgrid) demand tensor and the
(slot, hgrid) alpha table of :func:`repro.core.alpha.alpha_by_hgrid` —
and caches both (pure data prep, amortised over the slots the search
probes at that n). Per (n, slot) call it trains the model fresh and runs
the O(mK) Algorithm-2 kernel locally over that slot's alpha row, matching
the paper's cost anatomy where "the time cost of training the model is
considerable when calculating e(sqrt(n))". The error-curve harness uses
the same aggregation and kernel.
"""
import time
from dataclasses import dataclass, field

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.core.alpha import alpha_by_hgrid
from repro.core.expression_error import total_expression_error_local
from repro.core.grids import GridSpec, grid_spec
from repro.core.model_error import demand_tensor, total_model_error
from repro.synth_data import CityConfig


@dataclass(frozen=True)
class UpperBoundResult:
    """One e(sqrt(n)) evaluation: the bound and its two components."""

    n_side: int
    slot: int
    model_error: float
    expr_error: float

    @property
    def bound(self) -> float:
        return self.model_error + self.expr_error


@dataclass
class UpperBoundEvaluator:
    """Caching evaluator of Algorithm 3 over one city's events.

    ``evaluate(n_side, slot)`` returns the bound for n = n_side^2 at one
    time slot. Results are memoised per (n_side, slot); ``calls`` counts
    distinct bound computations and ``elapsed`` their total wall time —
    the quantities Table IV reports as search cost.
    """

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
    _tensors: dict = field(default_factory=dict)
    _alpha_cache: dict = field(default_factory=dict)
    _bounds: dict = field(default_factory=dict)

    def spec(self, n_side: int) -> GridSpec:
        return grid_spec(self.cfg, n_side, self.N_side)

    def _tensor(self, n_side: int) -> np.ndarray:
        if n_side not in self._tensors:
            self._tensors[n_side] = demand_tensor(
                self.events, self.spec(n_side), days=self.days, slots=self.slots
            )
        return self._tensors[n_side]

    def _alphas(self, n_side: int) -> tuple[np.ndarray, np.ndarray]:
        """(slots, fine^2) training-weekday alphas and the HGrid->MGrid map,
        from ONE Spark aggregation per grid size (amortised over all the
        slots the search will probe at this n)."""
        if n_side not in self._alpha_cache:
            self._alpha_cache[n_side] = alpha_by_hgrid(
                self.events, self.spec(n_side),
                train_days=self.train_days, slots=self.slots,
            )
        return self._alpha_cache[n_side]

    def evaluate(self, n_side: int, slot: int) -> UpperBoundResult:
        key = (n_side, slot)
        if key in self._bounds:
            return self._bounds[key]
        t0 = time.perf_counter()
        spec = self.spec(n_side)
        tensor = self._tensor(n_side)
        model = self.model_factory().fit(tensor, self.train_days, slot)
        me = total_model_error(tensor, model, eval_days=self.val_days, slot=slot)
        alphas, mg = self._alphas(n_side)
        ee = total_expression_error_local(alphas[slot], mg, spec.m, self.K)
        res = UpperBoundResult(n_side, slot, me, ee)
        self._bounds[key] = res
        self.calls += 1
        self.elapsed += time.perf_counter() - t0
        return res

    def bound_fn(self, slot: int):
        """e(sqrt(n)) as a plain ``s -> float`` for the §IV search loops."""
        return lambda n_side: self.evaluate(n_side, slot).bound
