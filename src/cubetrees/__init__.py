"""Maximum edge-disjoint spanning tree decompositions of hypercubes.

Construct the floor(n/2) edge-disjoint spanning trees of the n-cube with
their structured leftover (a matching for even n, a k-component forest for
odd n), verify every claimed property independently, and cross-check the
closed-form invariants against brute-force oracles on small graphs.

The names below are the documented library API; everything else lives in
the submodules (cubetrees.hypercube, cubetrees.oracle, ...).
"""

from .bounds import bounds_for
from .broadcast import broadcast_metrics, tree_depths
from .construct import Decomposition, construct
from .files import read_decomposition, write_decomposition
from .verify import verify_decomposition

__all__ = [
    "Decomposition",
    "bounds_for",
    "broadcast_metrics",
    "construct",
    "read_decomposition",
    "tree_depths",
    "verify_decomposition",
    "write_decomposition",
]

__version__ = "0.1.0"
