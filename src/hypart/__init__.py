"""Serial multilevel hypergraph partitioner.

Coarsening clusters hyperedges in a similarity graph, extracts vertex
cores from identical cluster signatures and contracts matched vertex
pairs; the coarsest hypergraph is partitioned by a set of candidate
generators and the result is refined with FM passes while walking back
up the levels. Recursive bisection extends the bipartitioner to k parts.
"""

from .model import (BalanceWindow, Hypergraph, InfeasibleBalanceError,
                    Partition, max_imbalance, partition_cost, validate)
from .io import (MatrixFormatError, PartitionFormatError, read_matrix_market,
                 read_partition, write_partition, WEIGHT_SCHEMES)
from .roughset import (CoreDecomposition, EdgePartitioning,
                       build_edge_partitions, extract_cores)
from .coarsen import (LevelLink, Matching, contract, initial_threshold,
                      match_in_cores, match_noncore, update_threshold)
from .refine import FM_MODES, fm_pass, project, refine_bipartition
from .initpart import INIT_METHODS, generate_candidate, select_best
from .driver import (PHASE_KEYS, PartitionConfig, RunStats, bipartition,
                     induce_subhypergraph, partition_kway, run_many)

__version__ = "0.1.0"

__all__ = [
    "BalanceWindow", "Hypergraph", "InfeasibleBalanceError", "Partition",
    "max_imbalance", "partition_cost", "validate",
    "MatrixFormatError", "PartitionFormatError", "read_matrix_market",
    "read_partition", "write_partition", "WEIGHT_SCHEMES",
    "CoreDecomposition", "EdgePartitioning", "build_edge_partitions",
    "extract_cores",
    "LevelLink", "Matching", "contract", "initial_threshold", "match_in_cores",
    "match_noncore", "update_threshold",
    "FM_MODES", "fm_pass", "project", "refine_bipartition",
    "INIT_METHODS", "generate_candidate", "select_best",
    "PHASE_KEYS", "PartitionConfig", "RunStats", "bipartition",
    "induce_subhypergraph", "partition_kway", "run_many",
    "__version__",
]
