"""Layered multigraphs: m graphs on one vertex set, with the three-matching
pattern detector, the two extremal 5-layer constructions, the saturated
4-vertex family, partition certificates, and greedy dense-core peeling.

Colors are 1-based layer indices stored per pair as bitmasks (bit i-1 is
layer i). The forbidden pattern is three distinct layers carrying the three
perfect matchings of a common 4-vertex set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Iterable, Iterator, Mapping

from .graphs import SimpleGraph, bipartitions

Pair = tuple[int, int]

# The three perfect matchings of a sorted 4-set (a,b,c,d), as index pairs.
MATCHINGS = (
    ((0, 1), (2, 3)),
    ((0, 2), (1, 3)),
    ((0, 3), (1, 2)),
)


class MMultigraph:
    """Immutable m-layer multigraph on vertices 0..n-1."""

    __slots__ = ("n", "m", "_masks")

    def __init__(
        self, n: int, m: int, colors: Mapping[Pair, Iterable[int]] | None = None
    ) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        if m < 1:
            raise ValueError(f"layer count must be positive, got {m}")
        masks: dict[Pair, int] = {}
        for (u, v), layers in (colors or {}).items():
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise ValueError(f"invalid pair ({u},{v})")
            key = (u, v) if u < v else (v, u)
            mask = 0
            for layer in layers:
                if not 1 <= layer <= m:
                    raise ValueError(f"layer {layer} outside 1..{m}")
                mask |= 1 << (layer - 1)
            if key in masks:
                raise ValueError(f"pair {key} listed twice")
            if mask:
                masks[key] = mask
        self.n = n
        self.m = m
        self._masks = masks

    @classmethod
    def from_masks(cls, n: int, m: int, masks: Mapping[Pair, int]) -> MMultigraph:
        mg = cls(n, m)
        clean: dict[Pair, int] = {}
        full = (1 << m) - 1
        for (u, v), mask in masks.items():
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise ValueError(f"invalid pair ({u},{v})")
            if mask & ~full:
                raise ValueError(f"mask {mask:#x} uses layers beyond {m}")
            key = (u, v) if u < v else (v, u)
            if mask:
                if key in clean:
                    raise ValueError(f"pair {key} listed twice")
                clean[key] = mask
        mg._masks = clean
        return mg

    # ----- access ---------------------------------------------------------

    def mask(self, u: int, v: int) -> int:
        key = (u, v) if u < v else (v, u)
        return self._masks.get(key, 0)

    def colors(self, u: int, v: int) -> tuple[int, ...]:
        mask = self.mask(u, v)
        return tuple(i + 1 for i in range(self.m) if mask >> i & 1)

    def multiplicity(self, u: int, v: int) -> int:
        return self.mask(u, v).bit_count()

    def pairs(self) -> Iterator[tuple[Pair, int]]:
        """Colored pairs with their masks, in sorted pair order."""
        yield from sorted(self._masks.items())

    @property
    def size(self) -> int:
        """Total edge count over all layers."""
        return sum(mask.bit_count() for mask in self._masks.values())

    def degree(self, v: int) -> int:
        return sum(
            mask.bit_count() for (a, b), mask in self._masks.items() if v in (a, b)
        )

    def degrees(self) -> tuple[int, ...]:
        degs = [0] * self.n
        for (a, b), mask in self._masks.items():
            c = mask.bit_count()
            degs[a] += c
            degs[b] += c
        return tuple(degs)

    def min_degree(self) -> int:
        return min(self.degrees()) if self.n else 0

    def layer(self, i: int) -> SimpleGraph:
        if not 1 <= i <= self.m:
            raise ValueError(f"layer {i} outside 1..{self.m}")
        bit = 1 << (i - 1)
        return SimpleGraph(
            self.n, [pair for pair, mask in self._masks.items() if mask & bit]
        )

    def induced(self, vertices: Iterable[int]) -> MMultigraph:
        """Induced sub-multigraph, relabeled by position in the sorted vertex list."""
        vs = sorted(set(vertices))
        if vs and not (0 <= vs[0] and vs[-1] < self.n):
            raise ValueError("vertices outside range")
        index = {v: i for i, v in enumerate(vs)}
        masks = {
            (index[a], index[b]): mask
            for (a, b), mask in self._masks.items()
            if a in index and b in index
        }
        return MMultigraph.from_masks(len(vs), self.m, masks)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MMultigraph)
            and (self.n, self.m) == (other.n, other.m)
            and self._masks == other._masks
        )

    def __hash__(self) -> int:
        return hash((self.n, self.m, tuple(sorted(self._masks.items()))))

    def __repr__(self) -> str:
        return f"MMultigraph(n={self.n}, m={self.m}, size={self.size})"


# ----- pattern detection ----------------------------------------------------


@dataclass(frozen=True, slots=True)
class K4Witness:
    """Three layers carrying the three perfect matchings of one 4-set.

    ``matching_layers[t]`` is the layer holding matching t of the sorted
    vertex 4-tuple, in the fixed matching order (01|23, 02|13, 03|12).
    """

    vertices: tuple[int, int, int, int]
    matching_layers: tuple[int, int, int]

    @property
    def layers(self) -> tuple[int, int, int]:
        return tuple(sorted(self.matching_layers))  # type: ignore[return-value]


def _matching_layer_sets(mg: MMultigraph, quad: tuple[int, ...]) -> list[int]:
    """Bitmask of layers fully containing each of the three matchings of quad."""
    out = []
    for (i1, j1), (i2, j2) in MATCHINGS:
        out.append(mg.mask(quad[i1], quad[j1]) & mg.mask(quad[i2], quad[j2]))
    return out


def contains_k4(mg: MMultigraph) -> K4Witness | None:
    """First forbidden-pattern witness under the fixed scan order, or None.

    Layer triples are scanned in increasing order, vertex 4-sets inside, and
    for each combination the three matchings are assigned to the three layers
    in every order until one fits. A 4-set with an uncoloured vertex, or a
    triple with an unused layer, never carries the pattern, so only the
    vertices on coloured pairs and the layers some pair uses are scanned,
    in the order of the full scan, which gives the same witness.

    Hosts too small to carry the pattern (fewer than 4 vertices or 3 layers)
    give None rather than an error.
    """
    used = 0
    touched: set[int] = set()
    for pair, mask in mg._masks.items():
        used |= mask
        touched.update(pair)
    layers = [i + 1 for i in range(used.bit_length()) if used >> i & 1]
    quads = list(combinations(sorted(touched), 4))
    for layer_triple in combinations(layers, 3):
        bits = tuple(1 << (i - 1) for i in layer_triple)
        for quad in quads:
            sets = _matching_layer_sets(mg, quad)
            for assign in permutations(range(3)):
                if all(sets[t] & bits[assign[t]] for t in range(3)):
                    layers = tuple(layer_triple[assign[t]] for t in range(3))
                    return K4Witness(quad, layers)  # type: ignore[arg-type]
    return None


# ----- constructions ----------------------------------------------------------


def bipartite_construction_5(n: int) -> MMultigraph:
    """Five layers over a balanced bipartition: layers 1,2 are the first side's
    clique plus everything across, layers 3,4 the same for the second side, and
    layer 5 the crossing pairs alone. Total size 2*C(n,2) + 3*floor(n^2/4)."""
    if n < 2:
        raise ValueError(f"need at least 2 vertices, got {n}")
    a = (n + 1) // 2
    masks: dict[Pair, int] = {}
    for u in range(n):
        for v in range(u + 1, n):
            if v < a:
                masks[(u, v)] = 0b00011
            elif u >= a:
                masks[(u, v)] = 0b01100
            else:
                masks[(u, v)] = 0b11111
    return MMultigraph.from_masks(n, 5, masks)


def turan_layers_5(n: int) -> MMultigraph:
    """Five identical copies of the complete 3-partite graph with near-equal
    parts (the densest graph with no 4-clique). Total size 5*floor(n^2/3)."""
    if n < 3:
        raise ValueError(f"need at least 3 vertices, got {n}")
    masks: dict[Pair, int] = {}
    for u in range(n):
        for v in range(u + 1, n):
            if u % 3 != v % 3:
                masks[(u, v)] = 0b11111
    return MMultigraph.from_masks(n, 5, masks)


def saturated_family_4() -> tuple[MMultigraph, ...]:
    """All 96 labeled 4-vertex 5-layer multigraphs of size 25 avoiding the
    pattern: four pairs carry every layer and one matching splits the layer set
    between its two pairs. Three matching choices times 32 ordered splits."""
    members = []
    quad = (0, 1, 2, 3)
    full = 0b11111
    for light in range(3):
        (i1, j1), (i2, j2) = MATCHINGS[light]
        light_pairs = (
            (quad[i1], quad[j1]),
            (quad[i2], quad[j2]),
        )
        heavy_pairs = []
        for t, matching in enumerate(MATCHINGS):
            if t == light:
                continue
            for a, b in matching:
                heavy_pairs.append((quad[a], quad[b]))
        for split in range(32):
            masks = {pair: full for pair in heavy_pairs}
            if split:
                masks[light_pairs[0]] = split
            if full ^ split:
                masks[light_pairs[1]] = full ^ split
            members.append(MMultigraph.from_masks(4, 5, masks))
    return tuple(members)


# ----- partition certificates --------------------------------------------------


@dataclass(frozen=True, slots=True)
class PartitionCertificate:
    """A bipartition with a layer role assignment.

    ``layer_roles[r-1]`` is the actual layer playing role r. Roles 1 and 2 must
    be empty inside part2, roles 3,4,5 empty inside part1, and no pair inside
    part2 may carry more than 2 layers.
    """

    part1: tuple[int, ...]
    part2: tuple[int, ...]
    layer_roles: tuple[int, ...]


def _layer_empty_inside(mg: MMultigraph, part: tuple[int, ...]) -> int:
    """Bitmask of layers with no edge inside the given part."""
    present = 0
    for u, v in combinations(part, 2):
        present |= mg.mask(u, v)
    return ~present & ((1 << mg.m) - 1)


def is_certificate_valid(mg: MMultigraph, cert: PartitionCertificate) -> bool:
    """Re-verify a certificate against the raw color sets."""
    if mg.m != 5:
        return False
    if sorted(cert.part1 + cert.part2) != list(range(mg.n)):
        return False
    if sorted(cert.layer_roles) != list(range(1, 6)):
        return False
    empty1 = _layer_empty_inside(mg, cert.part1)
    empty2 = _layer_empty_inside(mg, cert.part2)
    r = cert.layer_roles
    bits = [1 << (layer - 1) for layer in r]
    ok = (
        empty2 & bits[0]
        and empty2 & bits[1]
        and empty1 & bits[2]
        and empty1 & bits[3]
        and empty1 & bits[4]
    )
    if not ok:
        return False
    return all(
        mg.multiplicity(u, v) <= 2 for u, v in combinations(cert.part2, 2)
    )


# the search walks 2^(n-1) bipartitions
PARTITION_SEARCH_CAP = 24


def find_nice_partition(mg: MMultigraph) -> PartitionCertificate | None:
    """First nice partition under the fixed enumeration order, or None."""
    if mg.m != 5:
        raise ValueError("partition search is defined for 5-layer multigraphs")
    if mg.n > PARTITION_SEARCH_CAP:
        raise ValueError(f"vertex count {mg.n} above search cap {PARTITION_SEARCH_CAP}")
    # Both role orientations of each bipartition are tried since the
    # conditions are asymmetric.
    for pinned, side in bipartitions(mg.n):
        for part1, part2 in ((pinned, side), (side, pinned)):
            empty1 = _layer_empty_inside(mg, part1)
            empty2 = _layer_empty_inside(mg, part2)
            if any(
                mg.multiplicity(u, v) > 2 for u, v in combinations(part2, 2)
            ):
                continue
            for trio in combinations(range(1, 6), 3):
                if any(not empty1 >> (layer - 1) & 1 for layer in trio):
                    continue
                duo = tuple(x for x in range(1, 6) if x not in trio)
                if any(not empty2 >> (layer - 1) & 1 for layer in duo):
                    continue
                cert = PartitionCertificate(part1, part2, duo + trio)
                if not is_certificate_valid(mg, cert):
                    raise AssertionError("partition search produced an invalid certificate")
                return cert
    return None


# ----- dense core peeling -------------------------------------------------------


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
