"""repro — application-aware data replacement for interactive scientific visualization.

A from-scratch reproduction of *"An Application-Aware Data Replacement
Policy for Interactive Large-Scale Scientific Visualization"* (Yu, Yu,
Jiang, Wang; IPDPS workshops 2017): volume blocking, a simulated
DRAM/SSD/HDD hierarchy with pluggable replacement policies, camera-path
visibility prediction (``T_visible``), entropy-based block importance
(``T_important``), the application-aware optimizer (Algorithm 1), and an
experiment harness regenerating every table and figure of the paper's
evaluation.

Quickstart::

    from repro import ExperimentSetup, random_path, compare_policies

    setup = ExperimentSetup.for_dataset("3d_ball", target_n_blocks=512)
    path = random_path(n_positions=50, degree_change=(5, 10), distance=3.0,
                       view_angle_deg=setup.view_angle_deg)
    results = compare_policies(setup, path)
    print({k: r.total_miss_rate for k, r in results.items()})
"""

from repro.volume import (
    Volume,
    BlockGrid,
    make_dataset,
    DATASETS,
    dataset_table,
    InMemoryBlockStore,
    FileBlockStore,
)
from repro.storage import (
    StorageDevice,
    DRAM,
    SSD,
    HDD,
    CacheLevel,
    MemoryHierarchy,
    make_standard_hierarchy,
)
from repro.policies import (
    ReplacementPolicy,
    FIFOPolicy,
    LRUPolicy,
    ARCPolicy,
    BeladyPolicy,
    make_policy,
    POLICY_NAMES,
)
from repro.camera import (
    Camera,
    CameraPath,
    spherical_path,
    random_path,
    zoom_path,
    visible_blocks,
    visible_mask,
    SamplingConfig,
    optimal_radius,
)
from repro.importance import block_entropies, compute_importance
from repro.tables import (
    VisibleTable,
    ImportanceTable,
    LookupCostModel,
    build_visible_table,
    build_importance_table,
    build_tables,
)
from repro.render import (
    TransferFunction,
    RenderCostModel,
    Raycaster,
    RenderSettings,
    visible_histogram,
    visible_correlation_matrix,
    visible_statistics,
    BlockRangeIndex,
    RangeQuery,
    evaluate_query,
)
from repro.core import (
    PipelineContext,
    compute_visible_sets,
    collect_demand_trace,
    RunResult,
    StepMetrics,
    render_quality_series,
    BudgetedResult,
    OutOfCoreSession,
)
from repro.prefetch import (
    Prefetcher,
    NoPrefetcher,
    TableLookupPrefetcher,
    MotionExtrapolationPrefetcher,
    MarkovPrefetcher,
)
from repro.runtime import (
    AppAwareOptimizer,
    OptimizerConfig,
    run_baseline,
    run_budgeted,
    run_temporal,
    run_with_prefetcher,
)
from repro.experiments import (
    ExperimentSetup,
    compare_policies,
    fresh_hierarchy,
    belady_hierarchy,
)
from repro.trace import (
    TraceEvent,
    Tracer,
    NullTracer,
    NULL_TRACER,
    TraceSummary,
    aggregate,
    write_jsonl,
    read_jsonl,
    write_chrome_trace,
)
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    NULL_REGISTRY,
    PhaseProfiler,
    NullProfiler,
    NULL_PROFILER,
)

__version__ = "1.1.0"

__all__ = [
    # volume
    "Volume",
    "BlockGrid",
    "make_dataset",
    "DATASETS",
    "dataset_table",
    "InMemoryBlockStore",
    "FileBlockStore",
    # storage
    "StorageDevice",
    "DRAM",
    "SSD",
    "HDD",
    "CacheLevel",
    "MemoryHierarchy",
    "make_standard_hierarchy",
    # policies
    "ReplacementPolicy",
    "FIFOPolicy",
    "LRUPolicy",
    "ARCPolicy",
    "BeladyPolicy",
    "make_policy",
    "POLICY_NAMES",
    # camera
    "Camera",
    "CameraPath",
    "spherical_path",
    "random_path",
    "zoom_path",
    "visible_blocks",
    "visible_mask",
    "SamplingConfig",
    "optimal_radius",
    # importance & tables
    "block_entropies",
    "compute_importance",
    "VisibleTable",
    "ImportanceTable",
    "LookupCostModel",
    "build_visible_table",
    "build_importance_table",
    "build_tables",
    # render
    "TransferFunction",
    "RenderCostModel",
    "Raycaster",
    "RenderSettings",
    "visible_histogram",
    "visible_correlation_matrix",
    "visible_statistics",
    "BlockRangeIndex",
    "RangeQuery",
    "evaluate_query",
    # core
    "AppAwareOptimizer",
    "OptimizerConfig",
    "PipelineContext",
    "run_baseline",
    "compute_visible_sets",
    "collect_demand_trace",
    "RunResult",
    "StepMetrics",
    "run_temporal",
    "run_budgeted",
    "render_quality_series",
    "BudgetedResult",
    "OutOfCoreSession",
    # prefetch
    "Prefetcher",
    "NoPrefetcher",
    "TableLookupPrefetcher",
    "MotionExtrapolationPrefetcher",
    "MarkovPrefetcher",
    "run_with_prefetcher",
    # experiments
    "ExperimentSetup",
    "compare_policies",
    "fresh_hierarchy",
    "belady_hierarchy",
    # trace
    "TraceEvent",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "TraceSummary",
    "aggregate",
    "write_jsonl",
    "read_jsonl",
    "write_chrome_trace",
    # obs
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "PhaseProfiler",
    "NullProfiler",
    "NULL_PROFILER",
    "__version__",
]
