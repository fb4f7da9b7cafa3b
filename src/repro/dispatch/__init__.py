"""Prediction-based task-assignment substrate (paper §V-D case study).

Simplified re-implementations of the two dispatchers the paper evaluates:
POLAR (Tong et al., VLDB'17 — maximise served orders) and LS (Cheng et
al., ICDE'19 — maximise revenue). See DESIGN.md §4 for the substitution
rationale: both are two-stage prediction-guided dispatchers whose
performance is U-shaped in the grid count n, which is the property the
case study measures.
"""
