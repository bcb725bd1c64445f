"""Replay inputs and result records shared by every driver.

:mod:`repro.core.pipeline` turns a camera path into the policy-independent
visible sets a replay issues (:class:`PipelineContext`), and
:mod:`repro.core.metrics` / :mod:`repro.core.interactive` hold the
:class:`~repro.core.metrics.RunResult` and budgeted-replay records the
drivers produce.  The drivers themselves — including Algorithm 1's
:class:`~repro.runtime.AppAwareOptimizer` — live in :mod:`repro.runtime`.
"""

from repro.core.metrics import StepMetrics, RunResult
from repro.core.pipeline import (
    compute_visible_sets,
    collect_demand_trace,
    PipelineContext,
)
from repro.core.interactive import (
    BudgetedResult,
    BudgetedStep,
    render_quality_series,
)
from repro.core.session import OutOfCoreSession
from repro.core.results_io import run_to_dict, save_run_json, save_steps_csv, load_run_json

__all__ = [
    "BudgetedResult",
    "BudgetedStep",
    "render_quality_series",
    "OutOfCoreSession",
    "run_to_dict",
    "save_run_json",
    "save_steps_csv",
    "load_run_json",
    "StepMetrics",
    "RunResult",
    "compute_visible_sets",
    "collect_demand_trace",
    "PipelineContext",
]
