"""Forbidden-pattern detection for 3-graphs.

Both patterns run on one table of "common third vertex" sets, built once
per host over the shadow pairs. In the Fano plane embedder two placed
points fix the third point of their line, so the images of points 3..6
come from set intersections; the same kernel answers, for one edge,
whether some plane has that edge as a line. The complete 3-graph on five
vertices walks three vertices of an edge and intersects their pairs' sets
for the other two. Also here: bipartiteness testing, and the link-based
necessary condition satisfied by every Fano-free host: no edge whose three
links stack into the three-matching multigraph pattern.
"""

from __future__ import annotations

from .hypergraphs import Uniform3Graph
from .multigraphs import K4Witness, MMultigraph, contains_k4

# the seven lines of the Fano plane on points 0..6
FANO_EDGES = (
    (0, 1, 2),
    (2, 3, 4),
    (4, 5, 0),
    (0, 6, 3),
    (1, 6, 4),
    (2, 6, 5),
    (1, 3, 5),
)


def _plane_rows(host: Uniform3Graph) -> dict[int, dict[int, set[int]]]:
    """rows[u][v]: the set of vertices w such that uvw is an edge; the table
    both the plane and the K5^3 kernels read.

    Only edges whose three vertices have degree at least 3, as every point of
    a plane and every vertex of a K5^3 has, enter the table, so it holds
    three sets per such edge and nothing else. rows[u][v] and rows[v][u]
    are the same set, and each row holds its keys in ascending order.
    """
    thirds: dict[tuple[int, int], set[int]] = {}
    for a, b, c in host.triples():
        if min(host.degree(a), host.degree(b), host.degree(c)) < 3:
            continue
        thirds.setdefault((a, b), set()).add(c)
        thirds.setdefault((a, c), set()).add(b)
        thirds.setdefault((b, c), set()).add(a)
    rows: dict[int, dict[int, set[int]]] = {}
    # sorted pairs (u, v), u < v, reach every row in ascending key order
    for (u, v), ws in sorted(thirds.items()):
        rows.setdefault(u, {})[v] = ws
        rows.setdefault(v, {})[u] = ws
    return rows


_EMPTY: frozenset[int] = frozenset()


def _complete_plane(
    rows: dict[int, dict[int, set[int]]], h0: int, h1: int, h2: int
) -> tuple[int, int, int, int] | None:
    """The lexicographically first (h3, h4, h5, h6) completing a plane whose
    line (0, 1, 2) is (h0, h1, h2), or None.

    Each point after h3 is fixed by lines through two placed points:
    h4 on (2, 3, 4), h5 on (4, 5, 0) and (1, 3, 5), h6 on (0, 6, 3),
    (1, 6, 4) and (2, 6, 5). Every two points of the plane share a line, so
    a map sending every line to an edge is injective.
    """
    r0, r1, r2 = rows[h0], rows[h1], rows[h2]
    for h3, s23 in r2.items():
        s03 = r0.get(h3, _EMPTY)
        s13 = r1.get(h3, _EMPTY)
        if not (s03 and s13):
            continue
        for h4 in sorted(s23):
            s5 = r0.get(h4, _EMPTY) & s13
            s6 = r1.get(h4, _EMPTY) & s03
            if not (s5 and s6):
                continue
            for h5 in sorted(s5):
                last = s6 & r2.get(h5, _EMPTY)
                if last:
                    return h3, h4, h5, min(last)
    return None


def _first_plane_line(
    host: Uniform3Graph, rows: dict[int, dict[int, set[int]]]
) -> tuple[int, int, int] | None:
    """The first edge of host, in `triples()` order, that is a line of some
    Fano plane in host, or None.

    One orientation per edge suffices: the stabilizer of a line in the
    plane's automorphism group permutes that line's three points
    arbitrarily, so a plane through (a, b, c) also maps line (0, 1, 2) onto
    (a, b, c) in this order. An edge with a vertex outside the table lies
    on no plane.
    """
    for edge in host.triples():
        if all(x in rows for x in edge) and _complete_plane(rows, *edge) is not None:
            return edge
    return None


def contains_fano(host: Uniform3Graph) -> tuple[int, ...] | None:
    """Embedding of the Fano plane into host, or None.

    The witness maps point i of the lines `FANO_EDGES` to host vertex
    witness[i] and is the lexicographically first such map over
    (witness[0], ..., witness[6]), the one a generic backtracking embedder
    returns. Its witness[0] is the smallest vertex on any plane, since the
    plane's automorphisms move point 0 to every point. Each plane line
    through that vertex starts with it, so it starts the first plane line
    too, and the search runs at that h0 alone, over h1 ascending and h2 in
    rows[h0][h1] ascending.
    """
    rows = _plane_rows(host)
    first = _first_plane_line(host, rows)
    if first is None:
        return None
    h0 = first[0]
    return next(
        (h0, h1, h2, *rest)
        for h1, line in rows[h0].items()
        for h2 in sorted(line)
        if (rest := _complete_plane(rows, h0, h1, h2)) is not None
    )


def contains_k53(host: Uniform3Graph) -> tuple[int, ...] | None:
    """The lexicographically first vertex set of a complete 3-graph on 5
    vertices in host, ascending, or None.

    It runs on the plane kernel's table: every vertex of the clique has
    degree at least 6, so each of its edges is in the table. For a < b < c
    with abc an edge, the candidates for d > c are the common thirds of ab,
    ac and bc, and e is the smallest vertex that closes a triple with each
    pair from a, b, c, d. The walk meets 5-sets in lexicographic order, so
    at the first hit every such vertex lies above d.
    """
    rows = _plane_rows(host)
    for a in sorted(rows):
        ra = rows[a]
        for b, sab in ra.items():
            if b < a:
                continue
            rb = rows[b]
            for c in sorted(sab):
                if c < b:
                    continue
                rc = rows[c]
                s = sab & ra[c] & rb[c]
                for d in sorted(s):
                    if d < c:
                        continue
                    last = s & ra[d] & rb[d] & rc[d]
                    if last:
                        return a, b, c, d, min(last)
    return None


# ----- bipartiteness ---------------------------------------------------------


BIPARTITENESS_CAP = 30


def is_bipartite3(H: Uniform3Graph) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """A vertex bipartition leaving no edge inside either part, or None.

    Branches on the lowest unassigned vertex with unit propagation: an edge
    with two vertices settled on one side forces its third vertex to the
    other side. Vertex 0 is pinned to the first part, which costs nothing
    since the two sides are exchangeable.
    """
    if H.n > BIPARTITENESS_CAP:
        raise ValueError(f"vertex count {H.n} above bipartiteness cap {BIPARTITENESS_CAP}")
    if H.n == 0:
        return ((), ())

    def propagate(side: list[int], v: int) -> bool:
        stack = [v]
        while stack:
            x = stack.pop()
            for triple in H.triples_containing(x):
                assigned = [side[y] for y in triple]
                free = [y for y in triple if side[y] < 0]
                for s in (0, 1):
                    if assigned.count(s) == 3:
                        return False
                    if assigned.count(s) == 2 and len(free) == 1:
                        y = free[0]
                        side[y] = 1 - s
                        stack.append(y)
        return True

    def extend(side: list[int]) -> list[int] | None:
        try:
            v = side.index(-1)
        except ValueError:
            return side
        for s in (0, 1):
            trial = side.copy()
            trial[v] = s
            if propagate(trial, v):
                result = extend(trial)
                if result is not None:
                    return result
        return None

    side0 = [-1] * H.n
    side0[0] = 0
    if not propagate(side0, 0):
        return None
    final = extend(side0)
    if final is None:
        return None
    part1 = tuple(v for v in range(H.n) if final[v] == 0)
    part2 = tuple(v for v in range(H.n) if final[v] == 1)
    return part1, part2


# ----- link-based necessary condition ----------------------------------------


def edge_link_multigraph(H: Uniform3Graph, edge: tuple[int, int, int]) -> MMultigraph:
    """The 3-layer multigraph stacking the links of an edge's three vertices
    (in increasing vertex order) over the host's vertex set."""
    x, y, z = sorted(edge)
    if len({x, y, z}) != 3 or not (0 <= x and z < H.n):
        raise ValueError(f"invalid vertex triple {edge}")
    masks: dict[tuple[int, int], int] = {}
    for i, v in enumerate((x, y, z)):
        for pair in H.link(v).edges():
            masks[pair] = masks.get(pair, 0) | 1 << i
    return MMultigraph.from_masks(H.n, 3, masks)


def link_triple_violation(
    H: Uniform3Graph,
) -> tuple[tuple[int, int, int], K4Witness] | None:
    """First edge whose three stacked links contain the three-matching
    pattern, with the pattern witness, or None. Fano-free hosts never
    produce one.

    The pattern sits in the links of an edge e exactly when some Fano plane
    has e as a line. Its quad avoids e: every matching covers all four quad
    vertices, and each vertex x of e is isolated in its own link, which
    carries one matching. That matching gives the two other lines through
    x, and with e these are the seven lines. So the edges are tested with
    the plane kernel, and only the first edge that passes is handed to
    `contains_k4` for its witness.
    """
    edge = _first_plane_line(H, _plane_rows(H))
    if edge is None:
        return None
    return edge, contains_k4(edge_link_multigraph(H, edge))
