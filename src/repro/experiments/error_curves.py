"""Error-vs-n curves (paper §V-C, Figures 3-5 — reproduced as data).

For a sweep of grid sizes n this computes, per the paper's definitions:
total expression error (Algorithm 2), total model error (Eq. 20), their sum
(the upper bound of Theorem II.1), and the *measured* real error on
held-out days. Figures are out of scope; the trend assertions in
``tests/test_trends.py`` and the table harnesses consume these frames.
"""
import pandas as pd
from pyspark.sql import SparkSession

# perfbench/tracer.py patches these names here: the local kernel driver as
# ``total_expression_error``; ``alpha_by_hgrid`` and ``demand_tensor`` only for it
from repro.core.alpha import alpha_by_hgrid  # noqa: F401
from repro.core.expression_error import (
    total_expression_error_local as total_expression_error,
)
from repro.core.model_error import demand_tensor, total_model_error  # noqa: F401
from repro.core.real_error import measured_real_error
from repro.experiments.config import CityData
from repro.models import MODELS


def error_curves(
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
    rows = []
    for s in n_sides:
        spec, tensor = data.counts.spec(s), data.counts.tensor(s)
        model = MODELS[model_name]().fit(tensor, st.train_days, slot)
        me = total_model_error(tensor, model, eval_days=st.val_days, slot=slot)
        alphas, mg = data.counts.alphas(s)
        ee = total_expression_error(alphas[slot], mg, spec.m, st.K)
        re = measured_real_error(
            data.counts.table, spec, tensor, model, slot=slot, eval_days=st.val_days
        )
        rows.append(
            {
                "n_side": s,
                "n": spec.n,
                "m": spec.m,
                "model_error": me,
                "expr_error": ee,
                "bound": me + ee,
                "real_error": re,
            }
        )
    return pd.DataFrame(rows)
