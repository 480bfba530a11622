"""Exception taxonomy shared by every module.

Two broad families matter to callers:

* :class:`InputContractError`: the caller handed us something malformed
  (bad ids, impossible parameters, mismatched shapes).  The CLI maps these
  to exit code 2.
* :class:`GraphContractError`: the input parsed fine but the graph violates
  a structural requirement of the requested algorithm (disconnected, too
  large for the dense solver, ...).  The CLI maps these to exit code 3.
"""

__all__ = [
    "GraphMineError",
    "InputContractError",
    "GraphContractError",
    "OutOfRangeNode",
    "SelfLoop",
    "DuplicateEdge",
    "TooManyEdges",
    "ConnectivityRetryExhausted",
    "IsolatedNode",
    "DisconnectedGraph",
    "GraphTooLarge",
    "NotSymmetric",
    "NoConvergence",
    "MatrixTooLarge",
    "RankTooLarge",
    "NotFitted",
    "EmptyCorpus",
    "IncompleteFeatureMap",
    "IncompleteMembership",
    "LengthMismatch",
    "DegenerateSplit",
    "DimensionMismatch",
    "SingleClassTest",
]


class GraphMineError(Exception):
    """Base class for every library-raised error."""


class InputContractError(GraphMineError):
    """Malformed caller input: bad ids, impossible parameters, shape clashes."""


class GraphContractError(GraphMineError):
    """Structurally valid input that an algorithm's graph contract rejects."""


# --- graph construction and generation ---

class OutOfRangeNode(InputContractError):
    """A node id (an edge endpoint, a walk step) lies outside 0..n-1."""


class SelfLoop(InputContractError):
    """An edge joins a node to itself."""


class DuplicateEdge(InputContractError):
    """The same unordered node pair appears more than once."""


class TooManyEdges(InputContractError):
    """Requested edge count exceeds n*(n-1)/2."""


class ConnectivityRetryExhausted(GraphContractError):
    """No connected graph found within the retry budget."""


class IsolatedNode(GraphContractError):
    """A degree-zero node blocks a matrix that divides by degrees."""


class DisconnectedGraph(GraphContractError):
    """The algorithm requires a connected graph."""


class GraphTooLarge(GraphContractError):
    """The graph exceeds a documented size cap of the requested algorithm."""


# --- numerical kernels ---

class NotSymmetric(InputContractError):
    """Matrix has a non-finite entry or asymmetry above the solver tolerance."""


class NoConvergence(GraphMineError):
    """A numerical kernel failed to converge: LAPACK reported an error, or
    skip-gram training ended with a weight that is NaN or exceeds 1e6 in
    absolute value."""


class MatrixTooLarge(InputContractError):
    """Dense matrix exceeds the dense-eigensolver size cap."""


class RankTooLarge(InputContractError):
    """Requested decomposition rank exceeds what the input admits."""


# --- estimator lifecycle and corpora ---

class NotFitted(GraphMineError):
    """A getter was called before fit."""


class EmptyCorpus(InputContractError):
    """An operation requires at least one graph or training pair."""


class IncompleteFeatureMap(InputContractError):
    """A node feature map omits at least one node of its graph."""


class IncompleteMembership(InputContractError):
    """A membership map does not cover every node of the graph."""


# --- evaluation ---

class LengthMismatch(InputContractError):
    """Paired vectors differ in length."""


class DegenerateSplit(InputContractError):
    """A train/test split would leave one side empty."""


class DimensionMismatch(InputContractError):
    """Row counts or widths of paired matrices disagree."""


class SingleClassTest(InputContractError):
    """AUC needs at least one positive and one negative in the test labels."""
