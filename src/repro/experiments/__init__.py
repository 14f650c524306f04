"""Experiment harnesses — one module per paper table/figure + ablations.

Each module exposes ``run_*`` (returns structured rows) and ``render_*``
(returns the text table the benchmarks print).  Benchmarks in
``benchmarks/`` are thin wrappers over these.
"""

from .ablations import (
    LockingRow,
    PolicyRow,
    TtlRow,
    render_locking_ablation,
    render_policy_ablation,
    render_ttl_ablation,
    run_locking_ablation,
    run_policy_ablation,
    run_ttl_ablation,
)
from .balancer_study import (
    BalancerRow,
    render_balancer_study,
    run_balancer_study,
)
from .capacity import (
    CapacityParams,
    KneeCell,
    ProbeResult,
    find_knee,
    knee_report,
    probe_rate,
    render_knee_table,
    run_capacity_search,
    write_knee_report,
)
from .capacity_study import (
    CapacityRow,
    render_capacity_study,
    run_capacity_study,
)
from .common import run_cluster_trace, run_single_server_fleet, warm_cluster
from .directory_grid import (
    GRID_MIXES,
    GridCell,
    GridMix,
    grid_to_dicts,
    render_directory_grid,
    run_directory_grid,
)
from .figure3 import Figure3Result, render_figure3, run_figure3
from .figure4 import Figure4Row, figure4_workload, render_figure4, run_figure4
from .invalidation_study import (
    InvalidationRow,
    render_invalidation_study,
    run_invalidation_study,
)
from .heterogeneity_study import (
    HETEROGENEITY_CONFIGS,
    HeterogeneityRow,
    render_heterogeneity_study,
    run_heterogeneity_study,
)
from .hit_ratio import (
    HitRatioRow,
    render_hit_ratio_table,
    run_hit_ratio_experiment,
    run_table5,
    run_table6,
)
from .threshold_study import (
    CacheSizeRow,
    ThresholdStudyRow,
    render_cache_size_study,
    render_threshold_study,
    run_cache_size_study,
    run_threshold_study,
)
from .proxy_study import (
    PROXY_CONFIGS,
    ProxyStudyRow,
    render_proxy_study,
    run_proxy_study,
)
from .table1 import PAPER_1S_ROW, Table1Result, render_table1, run_table1
from .table2 import Table2Row, render_table2, run_table2
from .table3 import Table3Row, render_table3, run_table3
from .table4 import PseudoServer, Table4Row, render_table4, run_table4

__all__ = [
    "run_table1",
    "render_table1",
    "Table1Result",
    "PAPER_1S_ROW",
    "run_table2",
    "render_table2",
    "Table2Row",
    "run_figure3",
    "render_figure3",
    "Figure3Result",
    "run_figure4",
    "render_figure4",
    "Figure4Row",
    "figure4_workload",
    "run_table3",
    "render_table3",
    "Table3Row",
    "run_table4",
    "render_table4",
    "Table4Row",
    "PseudoServer",
    "run_directory_grid",
    "render_directory_grid",
    "grid_to_dicts",
    "GridCell",
    "GridMix",
    "GRID_MIXES",
    "run_table5",
    "run_table6",
    "run_hit_ratio_experiment",
    "render_hit_ratio_table",
    "HitRatioRow",
    "run_policy_ablation",
    "render_policy_ablation",
    "PolicyRow",
    "run_locking_ablation",
    "render_locking_ablation",
    "LockingRow",
    "run_ttl_ablation",
    "render_ttl_ablation",
    "TtlRow",
    "run_invalidation_study",
    "render_invalidation_study",
    "InvalidationRow",
    "run_balancer_study",
    "render_balancer_study",
    "BalancerRow",
    "run_threshold_study",
    "render_threshold_study",
    "ThresholdStudyRow",
    "run_cache_size_study",
    "render_cache_size_study",
    "CacheSizeRow",
    "run_proxy_study",
    "render_proxy_study",
    "ProxyStudyRow",
    "PROXY_CONFIGS",
    "run_heterogeneity_study",
    "render_heterogeneity_study",
    "HeterogeneityRow",
    "HETEROGENEITY_CONFIGS",
    "run_capacity_study",
    "render_capacity_study",
    "CapacityParams",
    "KneeCell",
    "ProbeResult",
    "probe_rate",
    "find_knee",
    "run_capacity_search",
    "knee_report",
    "render_knee_table",
    "write_knee_report",
    "CapacityRow",
    "run_cluster_trace",
    "run_single_server_fleet",
    "warm_cluster",
]
