"""Demand-aware route-planning substrate (paper §V-D, DAIF case study)."""
