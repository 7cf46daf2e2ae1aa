"""Simple graphs with bitmask adjacency, plus the extremal graph families used as
references for two-edge-star maximization.

Vertices are 0-indexed. All constructors validate and the objects are immutable:
mutating operations return new graphs.
"""

from __future__ import annotations

from itertools import chain, combinations
from math import comb
from typing import Iterable, Iterator


def all_pairs(n: int) -> list[tuple[int, int]]:
    """Lexicographically ordered vertex pairs of an n-vertex graph."""
    return list(combinations(range(n), 2))


def bipartitions(n: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every split of the n vertices as (part holding vertex 0, other part).

    The other part runs over the subsets of 1..n-1 in ascending bitmask order
    (bit v-1 for vertex v), starting from the empty set.
    """
    for subset in range(1 << max(n - 1, 0)):
        side = tuple(v for v in range(1, n) if subset >> (v - 1) & 1)
        yield tuple(v for v in range(n) if v not in side), side


class SimpleGraph:
    """Undirected simple graph stored as one adjacency bitmask row per vertex."""

    __slots__ = ("n", "_rows", "_edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        rows = [0] * n
        edge_set: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            e = (u, v) if u < v else (v, u)
            if e in edge_set:
                raise ValueError(f"duplicate edge {e}")
            edge_set.add(e)
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self._rows = tuple(rows)
        self._edges = tuple(sorted(edge_set))

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._edges

    def degrees(self) -> tuple[int, ...]:
        return tuple(r.bit_count() for r in self._rows)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SimpleGraph)
            and self.n == other.n
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self.n, self._rows))

    def __repr__(self) -> str:
        return f"SimpleGraph(n={self.n}, m={self.edge_count})"

    # ----- calculus -------------------------------------------------------

    def norm_p(self, p: int) -> int:
        """Sum of degree^p over vertices, an exact integer for p >= 1."""
        if p < 1:
            raise ValueError(f"norm exponent must be >= 1, got {p}")
        return sum(d**p for d in self.degrees())

    def star_count(self) -> int:
        """Number of two-edge stars, counted as C(degree, 2) summed over vertices."""
        return sum(comb(d, 2) for d in self.degrees())

    # ----- transforms -----------------------------------------------------

    def complement(self) -> SimpleGraph:
        rows = self._rows
        return SimpleGraph(
            self.n, ((u, v) for u, v in combinations(range(self.n), 2) if not rows[u] >> v & 1)
        )


# ----- reference families -------------------------------------------------


def clique_plus_isolated(n: int, k: int) -> SimpleGraph:
    """A k-clique on the first k vertices, the remaining n-k vertices isolated."""
    if not 0 <= k <= n:
        raise ValueError(f"clique size {k} outside 0..{n}")
    return SimpleGraph(n, combinations(range(k), 2))


def complete_minus_clique(n: int, k: int) -> SimpleGraph:
    """Complement of ``clique_plus_isolated``: K_n with the edges inside the
    first k vertices removed. The first k vertices form an independent set."""
    return clique_plus_isolated(n, k).complement()


def complete_split_plus_isolated(n: int, k: int, ell: int) -> SimpleGraph:
    """``complete_minus_clique(k + ell, k)`` padded with n-k-ell isolated vertices.

    The independent part has k vertices of degree ell, the clique part has ell
    vertices of degree k+ell-1, so the edge count is C(k+ell, 2) - C(k, 2).
    """
    if k < 0 or ell < 0 or k + ell > n:
        raise ValueError(f"parts ({k},{ell}) do not fit into {n} vertices")
    core = complete_minus_clique(k + ell, k)
    return SimpleGraph(n, core.edges())


def quasi_complete(n: int, m: int) -> SimpleGraph:
    """The m-edge graph filling a clique greedily: a maximal clique on the first
    k vertices with C(k,2) <= m, plus vertex k joined to the first m - C(k,2)
    clique vertices."""
    if not 0 <= m <= comb(n, 2):
        raise ValueError(f"edge count {m} outside 0..{comb(n, 2)}")
    k = 0
    while comb(k + 1, 2) <= m:
        k += 1
    rest = m - comb(k, 2)
    return SimpleGraph(n, chain(combinations(range(k), 2), ((u, k) for u in range(rest))))


def quasi_star(n: int, m: int) -> SimpleGraph:
    """Complement of ``quasi_complete(n, C(n,2) - m)``: full-degree vertices are
    added one dominated edge at a time."""
    return quasi_complete(n, comb(n, 2) - m).complement()
