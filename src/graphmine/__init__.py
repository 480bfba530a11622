"""Graph mining at desk scale: community detection, node embedding,
whole-graph embedding, evaluation, and a reproducible CLI.

All estimators share one base class,
:class:`~graphmine.graph_core.Estimator`, and one lifecycle: construct with
inspectable default hyperparameters, ``fit``, which returns the estimator,
then read results with ``get_embedding`` / ``get_memberships``.  All
randomness flows through :class:`~graphmine.graph_core.RandomSource`, so
every result is a pure function of its inputs and seeds.
"""

from .errors import (
    ConnectivityRetryExhausted,
    DegenerateSplit,
    DimensionMismatch,
    DisconnectedGraph,
    DuplicateEdge,
    EmptyCorpus,
    GraphContractError,
    GraphMineError,
    GraphTooLarge,
    IncompleteFeatureMap,
    IncompleteMembership,
    InputContractError,
    IsolatedNode,
    LengthMismatch,
    MatrixTooLarge,
    NoConvergence,
    NotFitted,
    NotSymmetric,
    OutOfRangeNode,
    RankTooLarge,
    SelfLoop,
    SingleClassTest,
    TooManyEdges,
)
from .graph_core import (
    Estimator,
    Graph,
    RandomSource,
    ValidationReport,
    build_graph,
    erdos_renyi_gnm,
    normalized_laplacian,
    require_connected,
    transition_matrix,
    triangle_matrix,
    triangles_per_node,
    validate_graph,
)
from .linalg import (
    DENSE_SIZE_CAP,
    EigenDecomposition,
    SvdResult,
    eig_symmetric,
    eigvals_symmetric,
    randomized_svd,
)
from .community import (
    LabelPropagationModel,
    ScdModel,
    SymNmfModel,
    canonicalize_memberships,
    modularity,
)
from .node_embedding import (
    NETMF_NODE_CAP,
    DeepWalkModel,
    NetMfModel,
    SkipGramParams,
    WalkCorpus,
    WalkletsModel,
    generate_walks,
    sgns_pair_gradients,
    sgns_pair_loss,
    sgns_train,
)
from .graph_embedding import (
    GraphCorpus,
    NetLsdModel,
    SfModel,
    WlFeatureSet,
    WlSvdModel,
    wl_features,
)
from .evaluation import (
    SoftmaxModel,
    SplitIndices,
    auc,
    nmi,
    softmax_fit,
    softmax_loss_and_gradient,
    softmax_predict,
    train_test_split,
)
from .io import (
    format_float,
    read_corpus_jsonl,
    read_edge_list,
    read_embedding_csv,
    read_labels_csv,
    read_membership,
    write_edge_list,
    write_embedding_csv,
    write_labels_csv,
    write_membership,
)

__version__ = "0.1.0"
