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

from collections import Counter
from functools import cached_property
from itertools import chain, combinations, islice, repeat
from math import comb
from operator import eq, lt
from typing import Iterable

Triple = tuple[int, int, int]


def _sorted_checked(n: int, items) -> list[Triple]:
    """The edge list in canonical order, each triple sorted and checked in
    input order; raises the error of the first invalid triple."""
    seen: set[Triple] = set()
    for t in map(tuple, items):
        if not set(map(type, t)) <= {int}:
            raise ValueError(f"non-integer vertex in {t}")
        tt = tuple(sorted(t))
        if len(tt) != 3 or len(set(tt)) != 3:
            raise ValueError(f"not a 3-element vertex set: {t}")
        if not (0 <= tt[0] and tt[2] < n):
            raise ValueError(f"edge {tt} outside vertex range 0..{n - 1}")
        if tt in seen:
            raise ValueError(f"duplicate edge {tt}")
        seen.add(tt)
    return sorted(seen)


def _is_canonical(n: int, canon: list) -> bool:
    """Whether a sorted edge list is canonical: each edge an increasing int
    triple inside 0..n-1, and no edge repeated."""
    if not set(map(len, canon)) <= {3} or any(map(eq, canon, islice(canon, 1, None))):
        return False
    flat = list(chain.from_iterable(canon))
    if not set(map(type, flat)) <= {int}:
        return False
    A, B, C = flat[0::3], flat[1::3], flat[2::3]
    return all(map(lt, A, B)) and all(map(lt, B, C)) and (not canon or (0 <= A[0] and max(C) < n))


class Uniform3Graph:
    """Immutable 3-uniform hypergraph on vertices 0..n-1.

    Construction is for outside input: it sorts and checks the triples one
    by one, naming the first invalid triple, and counts the vertex degrees.
    The package's own hosts are canonical (increasing int triples inside
    0..n-1, in lexicographic order, none repeated) by construction and are
    stored by `_canonical`, which only counts: `bipartite3` (and so
    `balanced_bipartite3`) lists them with three increasing ranges,
    `complete3` and `random_3graph` take them, all or a filtered part, from
    `combinations(range(n), 3)`, `remove_vertex` relabels a host's triples
    increasingly, `parse_3graph` keeps text that passes `_is_canonical`,
    and the search witnesses and verify's deletion subsets are sorted or
    filtered canonical lists. The codegree table, which every norm,
    star count and degree expansion reads, and the per-vertex link lists
    (the other two vertices of each triple through the vertex), which the
    per-vertex degree routes read, are built on first read: the plane and
    K5^3 kernels and the 2-colouring read only the sorted triples and the
    degrees. The codegree table maps each covered pair (u, v), u < v, to
    its codegree, both Python ints, in ascending pair order; it is counted
    in one NumPy pass.
    """

    def __init__(self, n: int, triples: Iterable[Iterable[int]] = ()) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        self._fill(n, _sorted_checked(n, triples))

    @classmethod
    def _canonical(cls, n: int, canon: Iterable[Triple]) -> Uniform3Graph:
        """A host on triples known to be canonical, stored without the checks
        and the sort of construction."""
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        host = cls.__new__(cls)
        host._fill(n, canon)
        return host

    def _fill(self, n: int, canon: Iterable[Triple]):
        """Store canonical triples and count the degrees."""
        self.n = n
        self._triples = tuple(canon)
        counts = Counter(chain.from_iterable(self._triples))
        self._degree = tuple(map(counts.get, range(n), repeat(0, n)))

    @cached_property
    def _codegree(self) -> dict[tuple[int, int], int]:
        # imported here: `search` imports numpy at module level, so `import
        # fano_l2` loads it anyway, but numpy first in the package's import
        # order raised that import's peak RSS from 29.1 to 30.1 MB (Python
        # 3.11.7, NumPy 2.4.6, x86_64 Linux)
        import numpy as np

        n = self.n
        t = np.fromiter(
            chain.from_iterable(self._triples), dtype=np.int64, count=3 * len(self._triples)
        ).reshape(-1, 3)
        # pair (u, v) with u < v has code u*n + v, so codes order the pairs
        # lexicographically; n*n fits int64, as the degree tuple holds n items
        a, b, c = t[:, 0] * n, t[:, 1], t[:, 2]
        # sorting the 3m codes, not counting into n*n cells, keeps a wide
        # sparse host's table the size of its triples
        codes, counts = np.unique(
            np.concatenate((a + b, a + c, b * n + c)), return_counts=True
        )
        u, v = np.divmod(codes, n)
        return dict(zip(zip(u.tolist(), v.tolist()), counts.tolist()))

    @cached_property
    def _links(self) -> list[list[tuple[int, int]]]:
        links: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for a, b, c in self._triples:
            links[a].append((b, c))
            links[b].append((a, c))
            links[c].append((a, b))
        return links

    # ----- basic structure --------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self._triples)

    def triples(self) -> tuple[Triple, ...]:
        return self._triples

    def degree(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} outside range")
        return self._degree[v]

    def degrees(self) -> tuple[int, ...]:
        return self._degree

    def codegree(self, u: int, v: int) -> int:
        pair = (u, v) if u < v else (v, u)
        return self._codegree.get(pair, 0)

    def remove_vertex(self, v: int) -> Uniform3Graph:
        """Delete v and its edges; remaining vertices shift down to 0..n-2.

        The shift is strictly increasing, so it keeps each surviving triple
        increasing, keeps their lexicographic order and maps no two of them
        to one: the relabelled triples are canonical and skip the checks."""
        n = self.n
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} outside range")
        shift = list(range(n))
        shift[v + 1:] = range(v, n - 1)
        kept = [
            (shift[a], shift[b], shift[c])
            for a, b, c in self._triples
            if v != a and v != b and v != c
        ]
        return Uniform3Graph._canonical(n - 1, kept)

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

    def lp_norm(self, p: int) -> int:
        """Sum of codegree^p over the shadow, an exact integer for p >= 1."""
        if p < 1:
            raise ValueError(f"norm exponent must be >= 1, got {p}")
        return sum(d**p for d in self._codegree.values())

    def count_stars(self) -> int:
        """Copies of the two-edge star sharing a fixed pair: sum of
        C(codegree, 2) over the shadow."""
        return sum(comb(d, 2) for d in self._codegree.values())

    def _pairs_at(self, v: int) -> tuple[set[int], list[tuple[int, int]]]:
        """The neighbours of v and the link pairs of v (one per incident
        triple), read from v's link list only."""
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} outside range")
        links = self._links[v]
        return set(chain.from_iterable(links)), links

    def l2_degree_expanded(self, v: int) -> int:
        """2-norm degree of v, the drop in the 2-norm when v is deleted,
        computed in place by the local expansion: the squared codegrees of the
        pairs at v, plus twice the codegrees of the link pairs, minus deg(v)."""
        neighbours, link_pairs = self._pairs_at(v)
        at_v = sum(self.codegree(v, x) ** 2 for x in neighbours)
        over_link = sum(self._codegree[pair] for pair in link_pairs)
        return at_v + 2 * over_link - self._degree[v]

    # kept only because the benchmark's tracer (perfbench/tracing.py) wraps this name
    lp_norm_degree = l2_degree_expanded

    def star_degree(self, v: int) -> int:
        """Number of two-edge stars meeting v, either in the shared pair or as
        one of the two loose tips."""
        neighbours, link_pairs = self._pairs_at(v)
        shared = sum(comb(self.codegree(v, x), 2) for x in neighbours)
        return shared + sum(self._codegree[pair] - 1 for pair in link_pairs)


# ----- constructions --------------------------------------------------------


def complete3(n: int) -> Uniform3Graph:
    """All triples on n vertices."""
    return Uniform3Graph._canonical(n, combinations(range(n), 3))


def bipartite3(a: int, b: int) -> Uniform3Graph:
    """Complete bipartite 3-graph: parts {0..a-1} and {a..a+b-1}, edges are the
    triples meeting both parts."""
    if a < 0 or b < 0:
        raise ValueError("part sizes must be nonnegative")
    n = a + b
    # x runs over the first part and z over the second, so each triple is
    # crossing, and the three ranges list them in lexicographic order
    return Uniform3Graph._canonical(
        n,
        [(x, y, z) for x in range(a) for y in range(x + 1, n) for z in range(max(y + 1, a), n)],
    )


def balanced_bipartite3(n: int) -> Uniform3Graph:
    """The balanced complete bipartite 3-graph on n vertices (larger part first)."""
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    a = (n + 1) // 2
    return bipartite3(a, n - a)


def bn_l2_closed(n: int) -> int:
    """Closed form of the 2-norm of the balanced complete bipartite 3-graph:

        floor(n^2/4) * (n-2)^2 + floor(n^2/4)^2 - (n/2) * floor(n^2/4)

    in exact integers: n * floor(n^2/4) is even, as for odd n it is
    n(n^2 - 1)/4 and 8 divides n(n^2 - 1).
    """
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    q = n * n // 4
    return q * (n - 2) ** 2 + q * q - n * q // 2


def bn_min_l2_degree(n: int) -> int:
    """Minimum 2-norm degree of the balanced complete bipartite 3-graph, from the
    per-part expansion (exact integers, usable far beyond materializable sizes)."""
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
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

    return min(part_value(a, b), part_value(b, a))


def random_3graph(n: int, edge_prob: float, rng) -> Uniform3Graph:
    """Each triple kept independently with the given probability; rng is any
    object with a ``random()`` method (typically random.Random with a seed)."""
    return Uniform3Graph._canonical(
        n, [t for t in combinations(range(n), 3) if rng.random() < edge_prob]
    )
