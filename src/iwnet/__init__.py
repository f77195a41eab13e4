"""Community detection in interval-weighted networks.

Edge weights are closed real intervals [lo, hi]; modularity and the
Louvain algorithm are extended to them through interval contingency
tables, the signed endpoint difference D, and two interval strategies
(Classic and Hybrid Louvain) next to the degenerate midpoint baseline.

The reference module (``iwnet.oracle``: the brute-force search, the
paper's pairwise formulas and the partition-level Q and Q_max) is
imported on first use of one of its names, so importing the package does
not load it.
"""

from . import errors
from .interval import Interval, ZERO, hausdorff, signed_diff
from .louvain import (
    CLASSIC_INTERVAL,
    HYBRID,
    MIDPOINT,
    LouvainRun,
    PassRecord,
    Strategy,
    emit_trace,
    evaluate_moves,
    run,
)
from .network import (
    DirectedFlowRecord,
    IWNetwork,
    aggregate_minmax,
    aggregate_sum,
    format_matrix,
    network_from_csv,
    read_flow_csv,
    symmetrize,
)
from .partition import Partition

__version__ = "0.1.0"

__all__ = [
    "errors",
    "Interval",
    "ZERO",
    "hausdorff",
    "signed_diff",
    "Partition",
    "DirectedFlowRecord",
    "IWNetwork",
    "symmetrize",
    "aggregate_sum",
    "aggregate_minmax",
    "format_matrix",
    "read_flow_csv",
    "network_from_csv",
    "ExpectedTable",
    "expected_scalar",
    "expected_interval_adjusted",
    "adjusted_total_bounds",
    "q_scalar_communities",
    "q_max_scalar_communities",
    "dq_scalar_full",
    "dq_scalar_reduced",
    "q_interval",
    "q_interval_communities",
    "q_max_interval_adjusted",
    "Strategy",
    "CLASSIC_INTERVAL",
    "HYBRID",
    "MIDPOINT",
    "PassRecord",
    "LouvainRun",
    "run",
    "evaluate_moves",
    "emit_trace",
    "OracleReport",
    "partitions",
    "q_definitional",
    "enumerate_best",
    "__version__",
]

_ORACLE = frozenset({
    "OracleReport", "partitions", "q_definitional", "enumerate_best", "ExpectedTable",
    "expected_scalar", "expected_interval_adjusted", "adjusted_total_bounds",
    "dq_scalar_full", "dq_scalar_reduced", "q_interval", "q_scalar_communities",
    "q_max_scalar_communities", "q_interval_communities", "q_max_interval_adjusted",
})


def __getattr__(name: str):
    if name in _ORACLE:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
