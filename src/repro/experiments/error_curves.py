"""Error-vs-n curves (paper §V-C, Figures 3-5 — reproduced as data).

For a sweep of grid sizes n this reports, per the paper's definitions:
total expression error (Algorithm 2), total model error (Eq. 20), their sum
(the upper bound of Theorem II.1), and the *measured* real error on
held-out days. The first three are the Algorithm-3 evaluator's own result
per (n, slot); the real error is measured with the model that result
carries, so a curve fits one model per side. Figures are out of scope; the
trend assertions in ``tests/test_trends.py`` and the table harnesses
consume these frames.
"""
import pandas as pd
from pyspark.sql import SparkSession

# kept only so perfbench/tracer.py can patch these names here (the
# benchmark change of ROADMAP item 2 deletes them); this module calls none
from repro.core.alpha import alpha_by_hgrid  # noqa: F401
from repro.core.expression_error import (  # noqa: F401
    total_expression_error_local as total_expression_error,
)
from repro.core.model_error import demand_tensor, total_model_error  # noqa: F401
from repro.core.real_error import measured_real_error
from repro.core.upper_bound import UpperBoundEvaluator
from repro.experiments.config import CityData
from repro.models import MODELS


def error_curves(
    # unread: perfbench binds it (tests/test_perfbench_contract.py, ROADMAP item 2)
    spark: SparkSession,
    data: CityData,
    *,
    model_name: str = "deepst",
    n_sides: list[int],
    slot: int | None = None,
) -> pd.DataFrame:
    """One row per swept n: (n_side, n, m, model_error, expr_error, bound,
    real_error). The model is trained per (n, slot) on training weekdays;
    model and real error are measured on validation weekdays."""
    st = data.settings
    slot = st.default_slot if slot is None else slot
    evaluator = UpperBoundEvaluator.for_city(data, MODELS[model_name])
    rows = []
    for s in n_sides:
        r = evaluator.evaluate(s, slot)
        spec = data.counts.spec(s)
        re = measured_real_error(
            data.counts.table, spec, data.counts.tensor(s), r.model,
            slot=slot, eval_days=st.val_days,
        )
        rows.append(
            {
                "n_side": s,
                "n": spec.n,
                "m": spec.m,
                "model_error": r.model_error,
                "expr_error": r.expr_error,
                "bound": r.bound,
                "real_error": re,
            }
        )
    return pd.DataFrame(rows)
