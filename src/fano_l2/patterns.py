"""Forbidden-pattern detection for 3-graphs.

Both patterns run on one table of "common third vertex" sets, built once
per host over the shadow pairs. In the Fano plane embedder two placed
points fix the third point of their line, so the images of points 3..6
come from set intersections; the same kernel answers, for one edge,
whether some plane has that edge as a line. It first rejects an edge whose
three vertices have fewer than four table neighbours in common, since each
of the four points off a line shares a line with all three of its points.
The scan for the first plane line drops each edge that completes no plane
from the table as it passes and returns that line with its completion,
which is the embedding. The cache keeps this embedding, not the table, for
the last host, so the embedder and the link-based test below share one
scan. The complete 3-graph on five vertices walks three vertices of an edge
and intersects their pairs' sets for the other two, on its own unpruned
table. Also here: bipartiteness testing by 2-colouring with vertex
bitmasks, and the link-based necessary condition satisfied by every
Fano-free host: no edge whose three links stack into the three-matching
multigraph pattern.
"""

from __future__ import annotations

from functools import lru_cache

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

    Every vertex of degree at least 3, as every point of a plane and every
    vertex of a K5^3 has, gets a row, and only edges whose three vertices
    have rows enter the table, so it holds three sets per such edge and
    nothing else. One pass over the triples fills it: the first edge on a
    pair stores one new set under both rows[u][v] and rows[v][u], so a
    change to either is a change to both. Rows hold their keys in no
    particular order.
    """
    degree = host.degrees()
    rows: dict[int, dict[int, set[int]]] = {v: {} for v, d in enumerate(degree) if d >= 3}
    for a, b, c in host.triples():
        # the four-keys reject of `_complete_plane` turns these edges away
        # too, but after the table holds them: on a 30,000-triple sunflower
        # `contains_fano` took 2 ms and no traced memory with this filter and
        # 1.3 s and 55 MB without it (Python 3.11, 2-core x86-64)
        if degree[a] < 3 or degree[b] < 3 or degree[c] < 3:
            continue
        ra, rb, rc = rows[a], rows[b], rows[c]
        if b in ra:
            ra[b].add(c)
        else:
            ra[b] = rb[a] = {c}
        if c in ra:
            ra[c].add(b)
        else:
            ra[c] = rc[a] = {b}
        if c in rb:
            rb[c].add(a)
        else:
            rb[c] = rc[b] = {a}
    return rows


def _complete_plane(
    r0: dict[int, set[int]], r1: dict[int, set[int]], r2: dict[int, set[int]]
) -> tuple[int, int, int, int] | None:
    """The lexicographically first (h3, h4, h5, h6) completing a plane whose
    line (0, 1, 2) is (h0, h1, h2), or None, given the rows r0, r1 and r2
    of h0, h1 and h2.

    Each point after h3 is fixed by lines through two placed points:
    h4 on (2, 3, 4), h5 on (4, 5, 0) and (1, 3, 5), h6 on (0, 6, 3),
    (1, 6, 4) and (2, 6, 5). Every two points of the plane share a line, so
    a map sending every line to an edge is injective.

    Each of the four points h3..h6 shares a line with each of h0, h1 and
    h2, and a plane's lines stay in the table, so all four are keys of all
    three rows. The edge is rejected unless the rows share at least four
    keys, and h3, h4 and h5 are drawn from the shared keys in ascending
    order; a row keeps a key only while its set is non-empty, so no
    candidate left out completes a plane.
    """
    common = r0.keys() & r1.keys() & r2.keys()
    if len(common) < 4:
        return None
    for h3 in sorted(common):
        s03, s13 = r0[h3], r1[h3]
        for h4 in sorted(r2[h3] & common):
            s5 = r0[h4] & s13
            s6 = r1[h4] & s03
            if not (s5 and s6):
                continue
            for h5 in sorted(s5 & common):
                last = s6 & r2[h5]
                if last:
                    return h3, h4, h5, min(last)
    return None


def _first_plane(
    host: Uniform3Graph, rows: dict[int, dict[int, set[int]]]
) -> tuple[int, ...] | None:
    """(a, b, c, *rest) for the first edge (a, b, c) of host, in `triples()`
    order, that is a line of some Fano plane in host, with rest the
    completion `_complete_plane` gives it, or None.

    One orientation per edge suffices: the stabilizer of a line in the
    plane's automorphism group permutes that line's three points
    arbitrarily, so a plane through (a, b, c) also maps line (0, 1, 2) onto
    (a, b, c) in this order. An edge is in the table exactly when its three
    vertices have rows, and an edge outside it lies on no plane.

    Each edge that completes no plane is removed from rows as the scan
    passes it: its third vertex leaves the set of each of its three pairs,
    and a pair whose set empties loses its key in both rows. An edge on no
    plane belongs to no plane, so removing it removes no plane: later edges
    see the same planes, and the same first completions, with fewer dead
    ends. Both rows of a pair hold one set, so one discard updates both.
    """
    for a, b, c in host.triples():
        ra, rb, rc = rows.get(a), rows.get(b), rows.get(c)
        if ra is None or rb is None or rc is None:
            continue
        rest = _complete_plane(ra, rb, rc)
        if rest is not None:
            return a, b, c, *rest
        ws = ra[b]
        ws.discard(c)
        if not ws:
            del ra[b], rb[a]
        ws = ra[c]
        ws.discard(b)
        if not ws:
            del ra[c], rc[a]
        ws = rb[c]
        ws.discard(a)
        if not ws:
            del rb[c], rc[b]
    return None


@lru_cache(maxsize=1)
def _plane_search(host: Uniform3Graph) -> tuple[int, ...] | None:
    """`_first_plane` on a fresh plane table of host. Hosts are immutable and
    hash on their edges, so `contains_fano` and `link_triple_violation` on
    one host share a scan; the cache holds the embedding, not the table."""
    return _first_plane(host, _plane_rows(host))


def contains_fano(host: Uniform3Graph) -> tuple[int, ...] | None:
    """Embedding of the Fano plane into host, or None.

    The witness maps point i of the lines `FANO_EDGES` to host vertex
    witness[i] and is the lexicographically first such map over
    (witness[0], ..., witness[6]), the one a generic backtracking embedder
    returns. It is the embedding `_first_plane` returns. Let h0 be the
    smallest vertex on any plane; the plane's automorphisms move point 0 to
    every point, so witness[0] = h0, and each plane line through h0 starts
    with it, the first plane line (a, b, c) too. A plane through h0 and h1
    has a line (h0, x, y) with min(x, y) <= h1, an edge on a plane, which
    comes no earlier than (a, b, c), so h1 >= b; a plane maps line (0, 1, 2)
    onto (a, b, c), so witness[1] = b. With h1 = b the same argument gives
    h2 >= c, so witness[2] = c, and the rest is the first completion of
    (a, b, c). The scan stops at (a, b, c), so it completes on the table a
    walk over h1 and h2 at h0 would read. It reads the cached
    `_plane_search`, so a following `link_triple_violation` on the same host
    does not scan again.
    """
    return _plane_search(host)


def contains_k53(host: Uniform3Graph) -> tuple[int, ...] | None:
    """The lexicographically first vertex set of a complete 3-graph on 5
    vertices in host, ascending, or None.

    It runs on the plane kernel's table: every vertex of the clique has
    degree at least 6, so each of its edges is in the table. For a < b < c
    with abc an edge, the candidates for d > c are the common thirds of ab,
    ac and bc, and e is the smallest vertex that closes a triple with each
    pair from a, b, c, d. Rows keep their keys in no order, so the walk
    sorts each row and set it draws a, b, c and d from; it meets 5-sets in
    lexicographic order, so at the first hit every such vertex lies above d.
    """
    rows = _plane_rows(host)
    for a in sorted(rows):
        ra = rows[a]
        for b in sorted(ra):
            if b < a:
                continue
            sab, rb = ra[b], rows[b]
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

    Colours each connected component on its own, in order of its lowest
    vertex, which is pinned to the first part (the component's two sides
    are exchangeable), so a part that cannot be coloured never backtracks
    through the colourings of vertices it does not touch. Within one it
    branches on the lowest unassigned vertex, first part before second, with
    unit propagation: an edge with two vertices settled on one side forces
    its third vertex to the other side. So the result is the first proper
    2-colouring in lexicographic order of the colour vector. The two sides
    are vertex bitmasks, and each vertex keeps one mask per edge through
    it, of that edge's two other vertices: putting x on a side tests each of
    its edges with two ands.
    """
    if H.n > BIPARTITENESS_CAP:
        raise ValueError(f"vertex count {H.n} above bipartiteness cap {BIPARTITENESS_CAP}")
    others: list[list[int]] = [[] for _ in range(H.n)]
    for a, b, c in H.triples():
        ea, eb, ec = 1 << a, 1 << b, 1 << c
        others[a].append(eb | ec)
        others[b].append(ea | ec)
        others[c].append(ea | eb)

    def settle(parts: tuple[int, int], v: int, s: int) -> tuple[int, int] | None:
        """parts with v on side s and every vertex this forces placed, or
        None when an edge falls inside one side."""
        sides = list(parts)
        sides[s] |= 1 << v
        stack = [(v, s)]
        while stack:
            x, t = stack.pop()
            same, other = sides[t], sides[1 - t]
            for pair in others[x]:
                hit = pair & same
                if hit == pair:
                    return None
                if hit and not pair & other:
                    y = pair ^ hit
                    other |= y
                    stack.append((y.bit_length() - 1, 1 - t))
            sides[1 - t] = other
        return sides[0], sides[1]

    def extend(parts: tuple[int, int], component: int) -> tuple[int, int] | None:
        free = component & ~(parts[0] | parts[1])
        if not free:
            return parts
        v = (free & -free).bit_length() - 1
        for s in (0, 1):
            trial = settle(parts, v, s)
            if trial is not None and (result := extend(trial, component)) is not None:
                return result
        return None

    parts: tuple[int, int] | None = (0, 0)
    everyone = (1 << H.n) - 1
    while parts is not None and (left := everyone & ~(parts[0] | parts[1])):
        low = left & -left
        component = frontier = low
        while frontier:
            x = frontier & -frontier
            frontier ^= x
            grown = 0
            for pair in others[x.bit_length() - 1]:
                grown |= pair
            frontier |= grown & ~component
            component |= grown
        # the lowest vertex alone on the first side forces nothing
        parts = extend((parts[0] | low, parts[1]), component)
    if parts is None:
        return None
    first, second = parts
    return (
        tuple(v for v in range(H.n) if first >> v & 1),
        tuple(v for v in range(H.n) if second >> v & 1),
    )


# ----- link-based necessary condition ----------------------------------------


def edge_link_multigraph(H: Uniform3Graph, edge: tuple[int, int, int]) -> MMultigraph:
    """The 3-layer multigraph stacking the links of an edge's three vertices
    (in increasing vertex order) over the host's vertex set.

    One pass over the triples: a triple holding the i-th vertex of the edge
    sets bit i on the pair of its other two vertices."""
    x, y, z = sorted(edge)
    if len({x, y, z}) != 3 or not (0 <= x and z < H.n):
        raise ValueError(f"invalid vertex triple {edge}")
    bit = {x: 1, y: 2, z: 4}
    masks: dict[tuple[int, int], int] = {}
    for a, b, c in H.triples():
        for v, pair in ((a, (b, c)), (b, (a, c)), (c, (a, b))):
            if v in bit:
                masks[pair] = masks.get(pair, 0) | bit[v]
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
    `contains_k4` for its witness. The scan is the cached `_plane_search`
    that `contains_fano` reads, so after `contains_fano` on the same host
    only the witness search runs.
    """
    image = _plane_search(H)
    if image is None:
        return None
    edge = image[:3]
    return edge, contains_k4(edge_link_multigraph(H, edge))
