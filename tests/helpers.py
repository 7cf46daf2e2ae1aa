"""Oracles and samplers that only the tests use."""

from bisect import bisect_left
from fractions import Fraction
from itertools import combinations, permutations, product
from math import sqrt

import numpy as np

from fano_l2 import search
from fano_l2.formats import FormatError, _header, _ints
from fano_l2.graphs import SimpleGraph, all_pairs
from fano_l2.hypergraphs import Uniform3Graph
from fano_l2.multigraphs import MATCHINGS, K4Witness, MMultigraph
from fano_l2.patterns import FANO_EDGES
from fano_l2.search import _relabel


def has_edge(H: Uniform3Graph, *vertices: int) -> bool:
    """Whether H holds the triple on the three given vertices, in any order;
    a binary search of the sorted edge list."""
    triple = tuple(sorted(vertices))
    edges = H.triples()
    i = bisect_left(edges, triple)
    return i < len(edges) and edges[i] == triple


def link(H: Uniform3Graph, v: int) -> SimpleGraph:
    """The link graph of v, on H's vertex set (v itself is isolated)."""
    if not 0 <= v < H.n:
        raise ValueError(f"vertex {v} outside range")
    return SimpleGraph(H.n, [tuple(w for w in t if w != v) for t in H.triples() if v in t])


def two_edge_stars(h: Uniform3Graph):
    """All two-edge star copies of h as (shared pair, tip, tip), tips sorted."""
    by_pair: dict[tuple[int, int], list[int]] = {}
    for a, b, c in h.triples():
        by_pair.setdefault((a, b), []).append(c)
        by_pair.setdefault((a, c), []).append(b)
        by_pair.setdefault((b, c), []).append(a)
    for pair, tips in by_pair.items():
        tips.sort()
        for i in range(len(tips)):
            for j in range(i + 1, len(tips)):
                yield pair, tips[i], tips[j]


def star_participation_oracle(h: Uniform3Graph) -> tuple[dict, dict, dict]:
    """How many two-edge stars each edge, vertex and pair of h lies in,
    bucketed star by star from `two_edge_stars`: the per-star count
    `verify._star_participation` must agree with. Only what lies in some
    star has an entry."""
    per_edge: dict = {}
    per_vertex: dict = {}
    per_pair: dict = {}
    for (u, v), a, b in two_edge_stars(h):
        e1 = tuple(sorted((u, v, a)))
        e2 = tuple(sorted((u, v, b)))
        for e in (e1, e2):
            per_edge[e] = per_edge.get(e, 0) + 1
        for w in set(e1) | set(e2):
            per_vertex[w] = per_vertex.get(w, 0) + 1
        for p in {q for e in (e1, e2) for q in combinations(e, 2)}:
            per_pair[p] = per_pair.get(p, 0) + 1
    return per_edge, per_vertex, per_pair


def fano_plane() -> Uniform3Graph:
    """The Fano plane: 7 points, 7 lines, every point on 3 lines."""
    return Uniform3Graph(7, FANO_EDGES)


def contains_pattern(host: Uniform3Graph, pattern: Uniform3Graph) -> tuple[int, ...] | None:
    """Injective edge-preserving embedding of pattern into host, or None: the
    generic backtracking embedder that `contains_fano` and `contains_k53`
    must agree with.

    The returned tuple maps pattern vertex i to host vertex witness[i].
    Pattern vertices are branched in descending degree order (ties by
    index). At each branching position, the earlier-placed vertices sharing
    edges with the new one prune by codegree, and the pattern edges it
    completes are checked for membership. The witness is the
    lexicographically first assignment under this fixed order, so repeated
    runs agree exactly.
    """
    g = pattern
    if g.n > host.n or g.edge_count > host.edge_count:
        return None
    if g.n == 0:
        return ()
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    pos = {v: t for t, v in enumerate(order)}
    earlier = [
        [(q, c) for q in order[:t] if (c := g.codegree(p, q))]
        for t, p in enumerate(order)
    ]
    completed: list[list[tuple[int, int, int]]] = [[] for _ in range(g.n)]
    for triple in g.triples():
        completed[max(pos[x] for x in triple)].append(triple)
    edges = set(host.triples())
    witness = [-1] * g.n
    used = bytearray(host.n)
    host_degrees = host.degrees()

    def extend(t: int) -> bool:
        if t == g.n:
            return True
        p = order[t]
        dp = g.degree(p)
        for h in range(host.n):
            if used[h] or host_degrees[h] < dp:
                continue
            ok = True
            for q, c in earlier[t]:
                if host.codegree(h, witness[q]) < c:
                    ok = False
                    break
            if ok:
                for triple in completed[t]:
                    if tuple(sorted(h if x == p else witness[x] for x in triple)) not in edges:
                        ok = False
                        break
            if ok:
                witness[p] = h
                used[h] = 1
                if extend(t + 1):
                    return True
                used[h] = 0
                witness[p] = -1
        return False

    return tuple(witness) if extend(0) else None


def verify_k4_witness(mg: MMultigraph, w: K4Witness) -> bool:
    """Recheck a witness against the raw color sets."""
    quad = w.vertices
    if len(set(quad)) != 4 or len(set(w.matching_layers)) != 3:
        return False
    for t, ((i1, j1), (i2, j2)) in enumerate(MATCHINGS):
        bit = 1 << (w.matching_layers[t] - 1)
        if not (mg.mask(quad[i1], quad[j1]) & bit and mg.mask(quad[i2], quad[j2]) & bit):
            return False
    return True


def random_sub_multigraph(mg: MMultigraph, rng, keep_prob: float) -> MMultigraph:
    """Independently keep each color of each pair with the given probability."""
    masks: dict[tuple[int, int], int] = {}
    for pair, mask in mg.pairs():
        kept = 0
        for i in range(mg.m):
            if mask >> i & 1 and rng.random() < keep_prob:
                kept |= 1 << i
        if kept:
            masks[pair] = kept
    return MMultigraph.from_masks(mg.n, mg.m, masks)


def contains_k4_oracle(mg: MMultigraph) -> K4Witness | None:
    """The plain scan `contains_k4` must agree with: every layer triple in
    increasing order, every vertex 4-set inside, every matching assignment."""
    quads = list(combinations(range(mg.n), 4))
    for layer_triple in combinations(range(1, mg.m + 1), 3):
        bits = tuple(1 << (i - 1) for i in layer_triple)
        for quad in quads:
            sets = [
                mg.mask(quad[i1], quad[j1]) & mg.mask(quad[i2], quad[j2])
                for (i1, j1), (i2, j2) in MATCHINGS
            ]
            for assign in permutations(range(3)):
                if all(sets[t] & bits[assign[t]] for t in range(3)):
                    return K4Witness(quad, tuple(layer_triple[a] for a in assign))
    return None


def uniform3_fields_oracle(n: int, triples) -> dict:
    """The per-triple construction `Uniform3Graph` must agree with: each
    triple sorted and checked in input order, then the codegrees, link
    lists and degrees filled in one pass over the sorted edges. Returns the
    fields by slot name, or raises the first invalid triple's ValueError."""
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    canon = []
    seen = set()
    for t in triples:
        if any(type(v) is not int for v in t):
            raise ValueError(f"non-integer vertex in {tuple(t)}")
        tt = tuple(sorted(t))
        if len(tt) != 3 or len(set(tt)) != 3:
            raise ValueError(f"not a 3-element vertex set: {tuple(t)}")
        if not (0 <= tt[0] and tt[2] < n):
            raise ValueError(f"edge {tt} outside vertex range 0..{n - 1}")
        if tt in seen:
            raise ValueError(f"duplicate edge {tt}")
        seen.add(tt)
        canon.append(tt)
    canon.sort()
    codegree = {}
    links = [[] for _ in range(n)]
    degree = [0] * n
    for a, b, c in canon:
        for pair in ((a, b), (a, c), (b, c)):
            codegree[pair] = codegree.get(pair, 0) + 1
        for v in (a, b, c):
            links[v].append(tuple(x for x in (a, b, c) if x != v))
            degree[v] += 1
    return {
        "_triples": tuple(canon),
        "_codegree": codegree,
        "_links": links,
        "_degree": tuple(degree),
    }


def parse_3graph_oracle(text: str) -> Uniform3Graph:
    """The per-line parser `parse_3graph` must agree with: the header read by
    `formats._header`, then each nonblank line after it split and checked on
    its own, in order, raising the FormatError of the first bad one."""
    (n,), _body = _header(text, "3graph", (0,))
    lines = [(i, line.split()) for i, line in enumerate(text.splitlines(), start=1) if line.strip()]
    seen: set[tuple[int, int, int]] = set()
    for lineno, tokens in lines[1:]:
        u, v, w = _ints(lineno, tokens, 3)
        if not 0 <= u < v < w < n:
            raise FormatError(f"line {lineno}: vertices must satisfy 0 <= u < v < w < {n}")
        if (u, v, w) in seen:
            raise FormatError(f"line {lineno}: duplicate edge {u} {v} {w}")
        seen.add((u, v, w))
    return Uniform3Graph(n, seen)


def canonical_3graph(H: Uniform3Graph) -> tuple[tuple[int, int, int], ...]:
    """Lexicographically minimal relabeling of the edge set; equal exactly
    for isomorphic graphs (intended for small n)."""
    return min(_relabel(H.triples(), perm) for perm in permutations(range(H.n)))


def aes_scan_oracle(n: int) -> tuple[int, int, dict]:
    """The full-mask scan `aes_scan` must agree with: one entry per labelled
    graph, a pass over all of them per triangle and per vertex. Returns the
    optimum, the graphs scanned and the three counts of the report."""
    pairs = all_pairs(n)
    masks = np.arange(1 << len(pairs), dtype=np.uint32)
    triangle_free = np.ones(len(masks), dtype=bool)
    for a, b, c in combinations(range(n), 3):
        t = np.uint32(
            (1 << pairs.index((a, b))) | (1 << pairs.index((a, c))) | (1 << pairs.index((b, c)))
        )
        triangle_free &= (masks & t) != t
    mindeg = np.full(len(masks), 255, dtype=np.uint8)
    for w in range(n):
        incidence = sum(1 << i for i, p in enumerate(pairs) if w in p)
        mindeg = np.minimum(mindeg, np.bitwise_count(masks & np.uint32(incidence)))
    above = triangle_free & (mindeg > (2 * n) // 5)
    boundary = triangle_free & (mindeg == (2 * n) // 5)
    selected = np.flatnonzero(above | boundary)
    odd = ~search._two_colourable(n, pairs, masks[selected])
    params = {
        "triangle_free": int(triangle_free.sum()),
        "above_threshold": int(above.sum()),
        "boundary_nonbipartite": int((odd & boundary[selected]).sum()),
    }
    return int((odd & above[selected]).sum()), len(masks), params


def bipartition(g: SimpleGraph) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """A proper 2-colouring as (side0, side1) by depth-first search, or None
    if an odd cycle exists; the oracle `search._two_colourable` must agree
    with."""
    neighbours: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges():
        neighbours[u].append(v)
        neighbours[v].append(u)
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for w in neighbours[u]:
                if color[w] == -1:
                    color[w] = 1 - color[u]
                    stack.append(w)
                elif color[w] == color[u]:
                    return None
    side0 = tuple(v for v in range(g.n) if color[v] == 0)
    side1 = tuple(v for v in range(g.n) if color[v] == 1)
    return side0, side1


# ----- dense-core peeling (acceptance criterion 13) -----------------------------


def extract_dense_core(mg: MMultigraph, beta: Fraction | int | float) -> tuple[int, ...]:
    """Greedy peel: while the minimum degree inside the surviving set is below
    beta times the survivor count, delete the lowest-index minimum-degree
    vertex. Returns the survivors (possibly empty) in increasing order.

    All comparisons are exact rational comparisons.
    """
    b = Fraction(beta)
    if not 0 <= b <= Fraction(7, 2):
        raise ValueError(f"beta must lie in [0, 7/2], got {beta}")
    alive = set(range(mg.n))
    degs = list(mg.degrees())
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in alive}
    for (u, v), mask in mg.pairs():
        c = mask.bit_count()
        adj[u].append((v, c))
        adj[v].append((u, c))
    while alive:
        k = len(alive)
        victim = -1
        dmin = None
        for v in sorted(alive):
            if dmin is None or degs[v] < dmin:
                dmin = degs[v]
                victim = v
        if Fraction(dmin) >= b * k:
            break
        alive.remove(victim)
        for w, c in adj[victim]:
            if w in alive:
                degs[w] -= c
    return tuple(sorted(alive))


def core_size_bound(
    size: int | Fraction | float, n: int, beta: Fraction | int | float
) -> float:
    """sqrt((4*size - 2*beta*n(n+1)) / (7 - 2*beta)), clamped at 0.

    Lower bound on the surviving vertex count when peeling a pattern-free
    5-layer multigraph of the given size at threshold beta.
    """
    b = Fraction(beta)
    if not 0 <= b < Fraction(7, 2):
        raise ValueError(f"beta must lie in [0, 7/2), got {beta}")
    radicand = 4 * Fraction(size) - 2 * b * n * (n + 1)
    if radicand <= 0:
        return 0.0
    return sqrt(radicand / (7 - 2 * b))


def min_degree_inside(mg: MMultigraph, vertices) -> int:
    """The minimum degree of the sub-multigraph induced on a non-empty vertex
    set."""
    degs = dict.fromkeys(vertices, 0)
    for (u, v), mask in mg.pairs():
        if u in degs and v in degs:
            degs[u] += mask.bit_count()
            degs[v] += mask.bit_count()
    return min(degs.values())


# ----- link validator (acceptance criterion 15) ---------------------------------


def link_matching_violation(
    H: Uniform3Graph, v: int
) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]] | None:
    """Three pairwise disjoint link edges of v whose eight crossing triples
    are all edges of H, or None. Any such triple of link edges extends to a
    Fano plane through v, so a Fano-free host never produces one."""
    if not 0 <= v < H.n:
        raise ValueError(f"vertex {v} out of range")
    link_edges = link(H, v).edges()
    for e1, e2, e3 in combinations(link_edges, 3):
        if len({*e1, *e2, *e3}) != 6:
            continue
        if all(has_edge(H, a, b, c) for a, b, c in product(e1, e2, e3)):
            return e1, e2, e3
    return None
