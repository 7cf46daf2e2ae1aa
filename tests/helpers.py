"""Oracles and samplers that only the tests use."""

from itertools import combinations, permutations

from fano_l2.multigraphs import MATCHINGS, K4Witness, MMultigraph


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
