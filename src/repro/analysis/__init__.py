"""Analysis: the paper's evaluation metrics.

- :mod:`repro.analysis.cov` — per-phase CPI coefficient of variation and
  the execution-weighted overall CoV (paper §3.1).
- :mod:`repro.analysis.runs` — run-length extraction from phase-ID
  streams (paper §4.5's definition of phase length).
- :mod:`repro.analysis.phase_stats` — stable/transition phase length
  statistics (Figure 5).
- :mod:`repro.analysis.prediction_stats` — accuracy/coverage summaries.
- :mod:`repro.analysis.tables` — plain-text table rendering for the
  experiment harness.
- :mod:`repro.analysis.agreement` — purity / adjusted Rand agreement
  between labelings (classification vs ground truth, online vs
  SimPoint).
- :mod:`repro.analysis.hardware` — SRAM storage budget of the
  architecture (the paper's implementability claim, quantified).
"""

from repro.analysis.agreement import (
    adjusted_rand_index,
    purity,
    region_agreement,
)
from repro.analysis.compare import ClassificationComparison, compare_runs
from repro.analysis.cov import per_phase_cov, weighted_cov
from repro.analysis.hardware import (
    classifier_budget,
    full_architecture_budget,
    predictor_budget,
)
from repro.analysis.phase_stats import PhaseLengthSummary, phase_length_summary
from repro.analysis.profile import (
    PhaseProfile,
    format_profile_table,
    profile_phases,
    top_phases,
)
from repro.analysis.runs import PhaseRun, extract_runs, run_length_histogram
from repro.analysis.timeline import render_timeline

__all__ = [
    "ClassificationComparison",
    "PhaseLengthSummary",
    "PhaseProfile",
    "PhaseRun",
    "format_profile_table",
    "profile_phases",
    "top_phases",
    "adjusted_rand_index",
    "classifier_budget",
    "full_architecture_budget",
    "predictor_budget",
    "compare_runs",
    "purity",
    "region_agreement",
    "render_timeline",
    "extract_runs",
    "per_phase_cov",
    "phase_length_summary",
    "run_length_histogram",
    "weighted_cov",
]
