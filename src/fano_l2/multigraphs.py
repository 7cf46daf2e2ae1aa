"""Layered multigraphs: m graphs on one vertex set, with the three-matching
pattern detector, the two extremal 5-layer constructions, the saturated
4-vertex family, and partition certificates.

Colors are 1-based layer indices stored per pair as bitmasks (bit i-1 is
layer i). The forbidden pattern is three distinct layers carrying the three
perfect matchings of a common 4-vertex set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations, permutations
from operator import or_
from typing import Iterator, Mapping

from .graphs import bipartitions

Pair = tuple[int, int]

# The three perfect matchings of a sorted 4-set (a,b,c,d), as index pairs.
MATCHINGS = (
    ((0, 1), (2, 3)),
    ((0, 2), (1, 3)),
    ((0, 3), (1, 2)),
)


class MMultigraph:
    """Immutable m-layer multigraph on vertices 0..n-1.

    `MMultigraph(n, m)` is the empty host; `from_masks` builds and validates
    every coloured one.
    """

    __slots__ = ("n", "m", "_masks")

    def __init__(self, n: int, m: int) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        if m < 1:
            raise ValueError(f"layer count must be positive, got {m}")
        self.n = n
        self.m = m
        self._masks: dict[Pair, int] = {}

    @classmethod
    def from_masks(cls, n: int, m: int, masks: Mapping[Pair, int]) -> MMultigraph:
        """The multigraph whose pair (u, v) carries the layers of masks[u, v]
        (bit i-1 for layer i); a pair may be given in either order, once."""
        mg = cls(n, m)
        clean: dict[Pair, int] = {}
        for (u, v), mask in masks.items():
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise ValueError(f"invalid pair ({u},{v})")
            # a shift: a test against ~(2^m - 1) would build an m-bit
            # complement for every pair
            if mask >> m:
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
        return tuple(_low_layers(self.mask(u, v)))

    def multiplicity(self, u: int, v: int) -> int:
        return self.mask(u, v).bit_count()

    def pairs(self) -> Iterator[tuple[Pair, int]]:
        """Colored pairs with their masks, in sorted pair order."""
        yield from sorted(self._masks.items())

    @property
    def size(self) -> int:
        """Total edge count over all layers."""
        return sum(mask.bit_count() for mask in self._masks.values())

    def degrees(self) -> tuple[int, ...]:
        degs = [0] * self.n
        for (a, b), mask in self._masks.items():
            c = mask.bit_count()
            degs[a] += c
            degs[b] += c
        return tuple(degs)

    def min_degree(self) -> int:
        return min(self.degrees()) if self.n else 0

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


def _low_layers(mask: int, k: int | None = None) -> list[int]:
    """The 1-based layers of a mask in increasing order, the first k only
    when k is given."""
    layers = []
    while mask and len(layers) != k:
        low = mask & -mask
        layers.append(low.bit_length())
        mask ^= low
    return layers


def hall_fits(s0: int, s1: int, s2: int) -> bool:
    """Whether three distinct layers represent the layer sets s0, s1, s2, one
    each. By Hall's theorem they do exactly when each set is non-empty, each
    union of two holds two layers and the union of all three holds three."""
    return (
        s0 != 0 and s1 != 0 and s2 != 0
        and (s0 | s1).bit_count() >= 2
        and (s0 | s2).bit_count() >= 2
        and (s1 | s2).bit_count() >= 2
        and (s0 | s1 | s2).bit_count() >= 3
    )


def _first_fitting_triple(
    sets: tuple[int, int, int], bound: tuple[int, ...] | None
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The smallest layer triple, below bound when bound is set, that gives
    the three matchings distinct layers from their sets, with the first
    assignment that fits, or None."""
    for triple in combinations(_low_layers(sets[0] | sets[1] | sets[2]), 3):
        if bound is not None and triple >= bound:
            return None
        bits = tuple(1 << (i - 1) for i in triple)
        for assign in permutations(range(3)):
            if all(sets[t] & bits[assign[t]] for t in range(3)):
                return triple, tuple(triple[a] for a in assign)
    return None


def contains_k4(mg: MMultigraph) -> K4Witness | None:
    """The witness with the smallest (layer triple, vertex 4-set), or None.

    This is the first witness of the plain scan: layer triples in increasing
    order, vertex 4-sets inside, and the three matchings assigned to the
    three layers in every order until one fits. Every pattern quad is a
    4-clique of the support graph (the coloured pairs), so the support
    4-cliques are enumerated in increasing order from up-neighbour lists.
    Each quad's three matching intersections s0, s1, s2 are formed once, and
    by Hall's theorem three distinct layers represent them exactly when each
    is non-empty, each union of two has two layers and the union of all
    three has three. Only for a quad that passes are the layer triples of
    s0|s1|s2 walked, up to the best triple so far. The cost is the support
    4-cliques times the layers of their matching intersections, not
    C(n,4)*C(m,3); the scan stops early once a quad takes the three lowest
    layers in use.

    Hosts too small to carry the pattern (fewer than 4 vertices or 3 layers)
    give None rather than an error.
    """
    masks = mg._masks
    # or the distinct masks only: or-ing every pair's mask in turn copies a
    # wide mask once per pair
    floor = tuple(_low_layers(reduce(or_, set(masks.values()), 0), 3))
    if len(floor) < 3:
        return None
    up: dict[int, list[int]] = {}
    for a, b in sorted(masks):
        up.setdefault(a, []).append(b)
    best = None
    for a, up_a in up.items():
        for i in range(len(up_a) - 2):
            b = up_a[i]
            # common up-neighbours of a and b above b, probing the longer list
            up_b = up.get(b, ())
            if len(up_b) < len(up_a) - i:
                common = [c for c in up_b if (a, c) in masks]
            else:
                common = [c for c in up_a[i + 1:] if (b, c) in masks]
            ab = masks[a, b]
            for j in range(len(common) - 1):
                c = common[j]
                ac, bc = masks[a, c], masks[b, c]
                for d in common[j + 1:]:
                    cd = masks.get((c, d))
                    if cd is None:
                        continue
                    s0, s1, s2 = ab & cd, ac & masks[b, d], masks[a, d] & bc
                    if not hall_fits(s0, s1, s2):
                        continue
                    found = _first_fitting_triple((s0, s1, s2), None if best is None else best[0])
                    if found is None:
                        continue
                    best = found[0], (a, b, c, d), found[1]
                    if best[0] == floor:
                        return K4Witness(best[1], best[2])  # type: ignore[arg-type]
    return None if best is None else K4Witness(best[1], best[2])  # type: ignore[arg-type]


# ----- constructions ----------------------------------------------------------


def bipartite_construction_5(n: int) -> MMultigraph:
    """Five layers over a balanced bipartition: layers 1,2 are the first side's
    clique plus everything across, layers 3,4 the same for the second side, and
    layer 5 the crossing pairs alone. Total size 2*C(n,2) + 3*floor(n^2/4)."""
    if n < 2:
        raise ValueError(f"need at least 2 vertices, got {n}")
    a = (n + 1) // 2
    masks = {
        (u, v): 0b00011 if v < a else 0b01100 if u >= a else 0b11111
        for u, v in combinations(range(n), 2)
    }
    return MMultigraph.from_masks(n, 5, masks)


def turan_layers_5(n: int) -> MMultigraph:
    """Five identical copies of the complete 3-partite graph with near-equal
    parts (the densest graph with no 4-clique). Total size 5*floor(n^2/3)."""
    if n < 3:
        raise ValueError(f"need at least 3 vertices, got {n}")
    masks = {(u, v): 0b11111 for u, v in combinations(range(n), 2) if u % 3 != v % 3}
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
