"""Seeded plane_check hosts and the brute-force oracles that label them.

Nothing here imports fano_l2: the oracles are the benchmark's own, so the
program is checked against an independent answer.

Two classes of host on 7..12 vertices, written as `3graph` text:

- free: no Fano plane. Half are relabelled random sub-hosts of a complete
  bipartite 3-graph; half are grown from such a host by adding triples
  inside one part, each kept only if the plane oracle still finds no plane,
  until the host is no longer bipartite. A speed-up that only helps
  bipartite hosts therefore has inputs on both sides.
- planted: a random 3-graph with one Fano plane planted on seven random
  vertices under a random labelling, so the embedder can stop early.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations

# The plane as the difference set {0, 1, 3} mod 7.
PLANE_LINES = tuple(tuple(sorted(((i + d) % 7 for d in (0, 1, 3)))) for i in range(7))

_SEVEN_TRIPLES = tuple(combinations(range(7), 3))
_SEVEN_INDEX = {t: i for i, t in enumerate(_SEVEN_TRIPLES)}


def _labelled_planes() -> tuple[int, ...]:
    """The 30 labelled planes on {0..6}, each a mask over the 35 triples."""
    masks = set()
    for perm in permutations(range(7)):
        mask = 0
        for line in PLANE_LINES:
            mask |= 1 << _SEVEN_INDEX[tuple(sorted(perm[x] for x in line))]
        masks.add(mask)
    return tuple(sorted(masks))


LABELLED_PLANES = _labelled_planes()
assert len(LABELLED_PLANES) == 30


def _subset_has_plane(subset: tuple[int, ...], edges: set) -> bool:
    mask = 0
    for i, (a, b, c) in enumerate(_SEVEN_TRIPLES):
        if (subset[a], subset[b], subset[c]) in edges:
            mask |= 1 << i
    return any(p & mask == p for p in LABELLED_PLANES)


def has_plane(n: int, edges: set) -> bool:
    """Brute force: does some 7-subset carry one of its 30 labelled planes?"""
    return any(_subset_has_plane(s, edges) for s in combinations(range(n), 7))


def has_plane_through(n: int, edges: set, triple: tuple[int, int, int]) -> bool:
    """Brute force restricted to the 7-subsets containing `triple`; a plane
    created by adding `triple` to a plane-free host lies in one of them."""
    rest = [v for v in range(n) if v not in triple]
    for extra in combinations(rest, 4):
        if _subset_has_plane(tuple(sorted(triple + extra)), edges):
            return True
    return False


def is_bipartite(n: int, edges) -> bool:
    """Brute force over the 2^(n-1) two-colourings with vertex 0 on side 0."""
    edge_masks = [(1 << a) | (1 << b) | (1 << c) for a, b, c in edges]
    for side in range(0, 1 << n, 2):
        if all(0 < side & m != m for m in edge_masks):
            return True
    return False


def is_bipartition(n: int, edges, parts) -> bool:
    """Do the two parts split the vertex set with no edge inside either?"""
    first, second = (set(p) for p in parts)
    if first & second or first | second != set(range(n)):
        return False
    return all(first & set(t) and second & set(t) for t in edges)


def write_3graph(n: int, edges) -> str:
    return "\n".join([f"3graph {n}", *(f"{a} {b} {c}" for a, b, c in sorted(edges))]) + "\n"


def _relabel(n: int, edges, rng: random.Random) -> set:
    perm = list(range(n))
    rng.shuffle(perm)
    return {tuple(sorted(perm[x] for x in t)) for t in edges}


def _bipartite_sub_host(
    n: int, a: int, keep: float, rng: random.Random
) -> tuple[list[int], set]:
    first = set(rng.sample(range(n), a))
    crossing = [t for t in combinations(range(n), 3) if 0 < len(first & set(t)) < 3]
    return sorted(first), set(rng.sample(crossing, round(keep * len(crossing))))


def _grown_host(n: int, a: int, keep: float, rng: random.Random) -> set | None:
    """Add inside triples to a bipartite sub-host while it stays plane-free,
    until it is not bipartite; None if the candidates run out first."""
    first, edges = _bipartite_sub_host(n, a, keep, rng)
    second = [v for v in range(n) if v not in first]
    inside = [t for part in (first, second) for t in combinations(part, 3)]
    rng.shuffle(inside)
    for t in inside:
        edges.add(t)
        if has_plane_through(n, edges, t):
            edges.discard(t)
        elif not is_bipartite(n, edges):
            return edges
    return None


def _planted_host(n: int, rng: random.Random) -> set:
    density = rng.uniform(0.1, 0.5)
    edges = {t for t in combinations(range(n), 3) if rng.random() < density}
    image = rng.sample(range(n), 7)
    edges |= {tuple(sorted(image[x] for x in line)) for line in PLANE_LINES}
    return edges


def make_hosts(seed: int, free: int, planted: int) -> list[dict]:
    """`free` plane-free and `planted` plane-containing hosts in a seeded
    shuffled order. Each entry holds the text, the class, the vertex count
    and the oracle answers the run is checked against.

    Vertex counts and part sizes cycle, and the kept share of crossing
    triples is stratified over [0.15, 0.45] and sampled exactly, so the
    total work of a host set varies little from seed to seed."""
    rng = random.Random(seed)
    strata = -(-free // 12)
    hosts = []
    for i in range(free):
        n = 7 + i % 6
        a = 3 + i // 12 % (n - 5)
        keep = 0.15 + 0.3 * (i // 12 + rng.random()) / strata
        if i // 6 % 2:
            edges = None
            while edges is None:
                edges = _grown_host(n, a, keep, rng)
                keep = min(1.0, keep + 0.05)  # sparse hosts stay bipartite
        else:
            edges = _bipartite_sub_host(n, a, keep, rng)[1]
        hosts.append(("free", n, _relabel(n, edges, rng)))
    for i in range(planted):
        n = 7 + i % 6
        hosts.append(("planted", n, _planted_host(n, rng)))
    rng.shuffle(hosts)
    out = []
    for cls, n, edges in hosts:
        plane = has_plane(n, edges)
        out.append(
            {
                "cls": cls,
                "n": n,
                "edges": sorted(edges),
                "text": write_3graph(n, edges),
                "plane": plane,
                "bipartite": None if plane else is_bipartite(n, edges),
            }
        )
    return out
