"""3-uniform hypergraphs with the codegree-power calculus.

The central quantity is the p-norm: the sum of codegree(pair)^p over the shadow
(pairs covered by at least one edge). Pairs outside the shadow have codegree 0
and contribute nothing, so summing over the shadow equals summing over all
pairs for every exponent p >= 1. The two-edge star (two triples sharing a pair)
ties the 2-norm to subgraph counts:

    norm_2(H) = 2 * N(two-edge star, H) + 3 * |H|

and the per-vertex version of the same bookkeeping gives three independent
routes to the 2-norm degree, all exposed here.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable, Iterator

from .graphs import SimpleGraph

Triple = tuple[int, int, int]


class Uniform3Graph:
    """Immutable 3-uniform hypergraph on vertices 0..n-1.

    Codegrees of all covered pairs are computed eagerly at construction, since
    every norm, star count and degree expansion reads them.
    """

    __slots__ = ("n", "_triples", "_edge_set", "_codegree", "_incident", "_degree")

    def __init__(self, n: int, triples: Iterable[Iterable[int]] = ()) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        canon: list[Triple] = []
        seen: set[Triple] = set()
        for t in triples:
            tt = tuple(sorted(t))
            if len(tt) != 3 or len(set(tt)) != 3:
                raise ValueError(f"not a 3-element vertex set: {tuple(t)}")
            if not (0 <= tt[0] and tt[2] < n):
                raise ValueError(f"edge {tt} outside vertex range 0..{n - 1}")
            if tt in seen:
                raise ValueError(f"duplicate edge {tt}")
            seen.add(tt)
            canon.append(tt)  # type: ignore[arg-type]
        canon.sort()
        codegree: dict[tuple[int, int], int] = {}
        incident: list[list[int]] = [[] for _ in range(n)]
        degree = [0] * n
        for idx, (a, b, c) in enumerate(canon):
            for pair in ((a, b), (a, c), (b, c)):
                codegree[pair] = codegree.get(pair, 0) + 1
            for v in (a, b, c):
                incident[v].append(idx)
                degree[v] += 1
        self.n = n
        self._triples = tuple(canon)
        self._edge_set = seen
        self._codegree = codegree
        self._incident = tuple(tuple(ix) for ix in incident)
        self._degree = tuple(degree)

    # ----- basic structure --------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self._triples)

    def triples(self) -> tuple[Triple, ...]:
        return self._triples

    def has_edge(self, a: int, b: int, c: int) -> bool:
        return tuple(sorted((a, b, c))) in self._edge_set

    def degree(self, v: int) -> int:
        return self._degree[v]

    def degrees(self) -> tuple[int, ...]:
        return self._degree

    def codegree(self, u: int, v: int) -> int:
        pair = (u, v) if u < v else (v, u)
        return self._codegree.get(pair, 0)

    def shadow(self) -> tuple[tuple[int, int], ...]:
        """Pairs covered by at least one edge, sorted."""
        return tuple(sorted(self._codegree))

    def triples_containing(self, v: int) -> Iterator[Triple]:
        for idx in self._incident[v]:
            yield self._triples[idx]

    def link(self, v: int) -> SimpleGraph:
        """The link graph of v, on the same vertex set (v itself is isolated)."""
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} outside range")
        pairs = [tuple(w for w in t if w != v) for t in self.triples_containing(v)]
        return SimpleGraph(self.n, pairs)  # type: ignore[arg-type]

    def remove_vertex(self, v: int) -> Uniform3Graph:
        """Delete v and its edges; remaining vertices shift down to 0..n-2."""
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} outside range")

        def shift(x: int) -> int:
            return x if x < v else x - 1

        kept = [
            tuple(shift(x) for x in t) for t in self._triples if v not in t
        ]
        return Uniform3Graph(self.n - 1, kept)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Uniform3Graph)
            and self.n == other.n
            and self._triples == other._triples
        )

    def __hash__(self) -> int:
        return hash((self.n, self._triples))

    def __repr__(self) -> str:
        return f"Uniform3Graph(n={self.n}, edges={self.edge_count})"

    # ----- norm calculus ------------------------------------------------------

    def lp_norm(self, p: float) -> int | float:
        """Sum of codegree^p over the shadow. Exact for integral p."""
        if p < 1:
            raise ValueError(f"norm exponent must be >= 1, got {p}")
        if float(p).is_integer():
            q = int(p)
            return sum(d**q for d in self._codegree.values())
        return float(sum(d ** float(p) for d in self._codegree.values()))

    def count_stars(self, k: int) -> int:
        """Copies of the k-edge star sharing a fixed pair: sum of C(codegree, k).

        k = 1 recovers 3 * |H| since each edge is counted once per pair it covers.
        """
        if k < 1:
            raise ValueError(f"star size must be >= 1, got {k}")
        return sum(comb(d, k) for d in self._codegree.values())

    def lp_norm_degree(self, v: int, p: float) -> int | float:
        """Drop in the p-norm when v is deleted.

        The p = 2 case is computed in place from v's link; other exponents
        materialize the deletion.
        """
        if p == 2:
            return self.l2_degree_expanded(v)
        return self.lp_norm(p) - self.remove_vertex(v).lp_norm(p)

    def l2_degree_expanded(self, v: int) -> int:
        """2-norm degree via the local expansion: the squared codegrees of the
        pairs at v, plus twice the codegrees of the link pairs, minus deg(v)."""
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} outside range")
        at_v = 0
        over_link = 0
        link_pairs: set[tuple[int, int]] = set()
        for t in self.triples_containing(v):
            a, b = (x for x in t if x != v)
            link_pairs.add((a, b))
        for (x, y), d in self._codegree.items():
            if x == v or y == v:
                at_v += d * d
            elif (x, y) in link_pairs:
                over_link += d
        return at_v + 2 * over_link - self._degree[v]

    def star_degree(self, v: int) -> int:
        """Number of two-edge stars meeting v, either in the shared pair or as
        one of the two loose tips."""
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} outside range")
        link_pairs: set[tuple[int, int]] = set()
        for t in self.triples_containing(v):
            a, b = (x for x in t if x != v)
            link_pairs.add((a, b))
        total = 0
        for (x, y), d in self._codegree.items():
            if x == v or y == v:
                total += comb(d, 2)
            elif (x, y) in link_pairs:
                total += d - 1
        return total

    def two_edge_stars(self) -> Iterator[tuple[tuple[int, int], int, int]]:
        """All two-edge star copies as (shared pair, tip, tip) with tips sorted."""
        by_pair: dict[tuple[int, int], list[int]] = {}
        for a, b, c in self._triples:
            by_pair.setdefault((a, b), []).append(c)
            by_pair.setdefault((a, c), []).append(b)
            by_pair.setdefault((b, c), []).append(a)
        for pair, tips in by_pair.items():
            tips.sort()
            for i in range(len(tips)):
                for j in range(i + 1, len(tips)):
                    yield pair, tips[i], tips[j]


# ----- constructions --------------------------------------------------------


def complete3(n: int) -> Uniform3Graph:
    """All triples on n vertices."""
    return Uniform3Graph(
        n,
        [
            (a, b, c)
            for a in range(n)
            for b in range(a + 1, n)
            for c in range(b + 1, n)
        ],
    )


def bipartite3(a: int, b: int) -> Uniform3Graph:
    """Complete bipartite 3-graph: parts {0..a-1} and {a..a+b-1}, edges are the
    triples meeting both parts."""
    if a < 0 or b < 0:
        raise ValueError("part sizes must be nonnegative")
    n = a + b
    triples = []
    for x in range(n):
        for y in range(x + 1, n):
            for z in range(y + 1, n):
                inside_first = (x < a) + (y < a) + (z < a)
                if 0 < inside_first < 3:
                    triples.append((x, y, z))
    return Uniform3Graph(n, triples)


def balanced_bipartite3(n: int) -> Uniform3Graph:
    """The balanced complete bipartite 3-graph on n vertices (larger part first)."""
    a = (n + 1) // 2
    return bipartite3(a, n - a)


def bn_l2_closed(n: int) -> int:
    """Closed form of the 2-norm of the balanced complete bipartite 3-graph:

        floor(n^2/4) * (n-2)^2 + floor(n^2/4)^2 - (n/2) * floor(n^2/4)

    evaluated in exact rationals; the result is provably integral.
    """
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    q = Fraction(n * n // 4)
    value = q * (n - 2) ** 2 + q * q - Fraction(n, 2) * q
    if value.denominator != 1:
        raise ArithmeticError(f"closed form not integral at n={n}")
    return int(value)


def bn_min_l2_degree(n: int) -> int:
    """Minimum 2-norm degree of the balanced complete bipartite 3-graph, from the
    per-part expansion (exact integers, usable far beyond materializable sizes)."""
    if n < 2:
        return 0
    a = (n + 1) // 2
    b = n - a

    def part_value(s: int, t: int) -> int:
        # 2-norm degree of a vertex in the part of size s (other part size t).
        squares = (s - 1) * t * t + t * (n - 2) * (n - 2)
        link_sum = comb(t, 2) * s + (s - 1) * t * (n - 2)
        deg = comb(t, 2) + (s - 1) * t
        return squares + 2 * link_sum - deg

    values = [part_value(a, b)]
    if b:
        values.append(part_value(b, a))
    return min(values)


def random_3graph(n: int, edge_prob: float, rng) -> Uniform3Graph:
    """Each triple kept independently with the given probability; rng is any
    object with a ``random()`` method (typically random.Random with a seed)."""
    triples = [
        (a, b, c)
        for a in range(n)
        for b in range(a + 1, n)
        for c in range(b + 1, n)
        if rng.random() < edge_prob
    ]
    return Uniform3Graph(n, triples)
