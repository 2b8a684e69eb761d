"""Global rigidity of graphs in analytic normed planes.

A graph on at least five vertices is globally rigid in every analytic
normed plane exactly when it is 2-connected and redundantly rigid there,
equivalently when its edge set is a connected matroid in the simple
(2,2)-sparsity matroid.  This package provides the combinatorial decision
with certificates, the construction/deconstruction move algebra over the
base graphs K5- and B1, and exact lp rigidity-operator ranks for
cross-validation.
"""

from .catalog import (
    b1,
    b2,
    bowtie,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    k5_minus,
    path_graph,
    prism_graph,
    two_k4_shared_vertex,
    wheel_graph,
)
from .decide import (
    RigidityReport,
    certify,
    euclidean_transfer,
    hendrickson_check,
    is_globally_rigid_analytic,
    is_globally_rigid_euclidean,
    sufficient_checks,
)
from .geometry import (
    NormedPlane,
    Placement,
    RigidityOperator,
    cut_vertex_counterexample,
    deletion_ranks,
    is_congruent,
    is_inf_rigid,
    is_redundantly_rigid,
    random_regular_placement,
    rank_of,
    rigidity_operator,
    support_functional,
    z_reflection,
)
from .graphs import (
    Graph,
    Separation,
    edge_connectivity,
    enumerate_separations,
    is_isomorphic,
    is_k_connected,
)
from .moves import (
    Move,
    MoveError,
    ReductionTrace,
    apply,
    find_admissible_reduction,
    inverse,
    join,
    random_m22_graph,
    rebuild_from_trace,
    reduce_to_base,
    separations_of,
)
from .sparsity import (
    EarDecomposition,
    PebbleGame,
    ear_decomposition,
    fundamental_circuit,
    is_circuit22,
    is_m22_connected,
    is_sparse,
    is_tight,
    m22_components,
    rank2k,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
