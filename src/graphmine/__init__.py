"""Graph mining at desk scale: community detection, node embedding,
whole-graph embedding, evaluation, and a reproducible CLI.

All estimators share one base class,
:class:`~graphmine.graph_core.Estimator`, and one lifecycle: construct with
inspectable default hyperparameters, ``fit``, which returns the estimator,
then read results with ``get_embedding`` / ``get_memberships``.  All
randomness flows through :class:`~graphmine.graph_core.RandomSource`, so
every result is a pure function of its inputs and seeds.
"""

from .errors import *
from .graph_core import *
from .linalg import *
from .community import *
from .node_embedding import *
from .graph_embedding import *
from .evaluation import *
from .io import *

__version__ = "0.1.0"
