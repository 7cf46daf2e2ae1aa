"""Exact calculus, pattern detectors, constructions and brute-force oracles for
the squared-codegree norm of Fano-free 3-uniform hypergraphs.

The package root holds the few names a caller needs to parse a host, test it
and run the verification suites; everything else is imported from its module
(`fano_l2.search`, `fano_l2.multigraphs`, ...).
"""

from .formats import parse_3graph
from .hypergraphs import Uniform3Graph
from .patterns import FANO_EDGES, contains_fano, is_bipartite3, link_triple_violation
from .search import max_k4free_multigraph
from .verify import run_suite

__all__ = [
    "FANO_EDGES",
    "Uniform3Graph",
    "contains_fano",
    "is_bipartite3",
    "link_triple_violation",
    "max_k4free_multigraph",
    "parse_3graph",
    "run_suite",
]
