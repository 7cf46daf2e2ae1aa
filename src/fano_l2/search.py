"""Independent brute-force and branch-and-bound oracles.

Everything here recomputes extremal values from scratch so the analytic
formulas and constructions elsewhere in the package can be checked against
exhaustive ground truth at desk scale: the full 4-vertex multigraph census,
branch-and-bound for multigraph Turán numbers, two-edge-star maxima over all
small graphs, the minimum-degree bipartiteness scan, the maximum-norm
Fano-free search up to seven vertices, and the bipartite norm scan.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from itertools import combinations, permutations
from math import comb, factorial, prod

import numpy as np

from .graphs import SimpleGraph, all_pairs, bipartitions, quasi_complete, quasi_star
from .hypergraphs import Uniform3Graph, bipartite3, bn_l2_closed
from .multigraphs import MATCHINGS, MMultigraph, contains_k4, hall_fits, turan_layers_5
from .patterns import FANO_EDGES, contains_fano, is_bipartite3
from .formats import write_3graph, write_graph, write_mgraph


@dataclass(frozen=True, slots=True)
class SearchReport:
    """Outcome of one oracle run; witness is serialized in the named format,
    and params holds any further counts the engine measured. The defaults
    are those of a complete exhaustive scan with no layer count and no
    witness."""

    objective: str
    n: int
    optimum: int
    nodes: int
    elapsed: float
    m: int | None = None
    witness: str = ""
    witness_kind: str = "none"
    complete: bool = True
    engine: str = "exhaustive"
    params: dict = field(default_factory=dict)


# ----- 4-vertex multigraph census ---------------------------------------------
#
# State encoding: the six pair color masks in the fixed order
#   C(01), C(23), C(02), C(13), C(03), C(12)
# so the three perfect matchings occupy consecutive slots. The scan iterates
# the first matching (a1, b1) as an outer block and the other two as the
# inner part, which makes ascending block-then-inner order the lexicographic
# order of the full state.
#
# Relabelling the m layers by one permutation in all six masks maps the state
# space onto itself and keeps pattern-freeness, size and every clause
# condition, since all of them read only popcounts of unions and
# intersections. So two blocks in one orbit of that action have the same
# histogram, pattern-free count, clause counts and block maximum, and the
# census scans one block per orbit, weighted by the orbit size. An orbit is
# fixed by (|a1 & b1|, |a1 - b1|, |b1 - a1|); its representative puts a1 on
# the lowest bits and b1 on the lowest bits it can reach, which makes it the
# smallest block of its orbit. The first block in ascending order that
# reaches the maximum is therefore a representative, and scanning the
# representatives in ascending order finds the same lexicographically
# minimal witness as scanning every block.
#
# Inside a block, everything the census reads from a matching with masks
# (a, b) is a function of its key (a & b, |a| + |b|, |a| == m or |b| == m):
# the Hall test of the pattern reads the intersections, the size the
# popcount sums, and the clauses those and the full-multiplicity flags. So
# the 4^m pairs of one matching fall into classes (138 at m=5), and the
# inner part is the product of two class tables: 19,044 rows at m=5 instead
# of 2^20 states, each row weighted by the c2*c3 states it stands for.
# Classes come in ascending order of their smallest pair, so rows come in
# ascending order of their smallest state (min2 << 2m) | min3, and the first
# row of a block to reach its maximum holds the smallest maximizing state of
# the block, the one a scan of single states finds.

_CENSUS_PAIRS = tuple(pair for matching in MATCHINGS for pair in matching)


def _matching_classes(m: int) -> dict[tuple[int, int, bool], list[int]]:
    """Map each class key (a & b, |a| + |b|, a or b full) of one matching's
    pairs (a, b) to [pair count, smallest pair a << m | b], in ascending
    order of the smallest pair; the counts sum to 4^m."""
    pop = [x.bit_count() for x in range(1 << m)]
    classes: dict[tuple[int, int, bool], list[int]] = {}
    for pair in range(1 << 2 * m):
        a, b = divmod(pair, 1 << m)
        key = (a & b, pop[a] + pop[b], pop[a] == m or pop[b] == m)
        classes.setdefault(key, [0, pair])[0] += 1
    return classes


def _inner_rows(m: int) -> dict:
    """The class product for matchings 2 and 3, class2 major: per row the
    intersections, popcount sums and full flags it reads, and its state
    count c2*c3; the counts sum to 16^m."""
    classes = _matching_classes(m)
    n = len(classes)
    pop = np.array([x.bit_count() for x in range(1 << m)], dtype=np.int64)
    inter = np.array([key[0] for key in classes], dtype=np.int64)
    sums = np.array([key[1] for key in classes], dtype=np.int64)
    full = np.array([key[2] for key in classes], dtype=bool)
    count = np.array([c for c, _ in classes.values()], dtype=np.int64)
    i2, i3 = np.repeat(inter, n), np.tile(inter, n)
    s2, s3 = np.repeat(sums, n), np.tile(sums, n)
    u23 = i2 | i3
    has_i2, has_i3 = i2 > 0, i3 > 0
    return {
        "pop": pop,
        "smallest": [pair for _, pair in classes.values()],
        "classes": n,
        "count": np.repeat(count, n) * np.tile(count, n),
        "i2": i2,
        "i3": i3,
        "u23": u23,
        "s2": s2,
        "s3": s3,
        "has_i2": has_i2,
        "has_i3": has_i3,
        "hall_base": has_i2 & has_i3 & (pop[u23] >= 2),
        "full23": np.repeat(full, n) | np.tile(full, n),
    }


def _block_orbits(m: int) -> list[tuple[int, int]]:
    """One (block, orbit size) pair per layer-relabelling orbit of outer
    blocks, in ascending block order; the sizes sum to 4^m. An orbit's
    smallest block has a class-prefix a1 and then, inside the classes a1
    splits the layers into, a class-prefix b1; the orbit size is
    m! / prod |c|! over the classes b1 splits those into."""
    full = ((1 << m) - 1,)
    orbits = []
    for a1 in _class_prefix_masks(m, full, m):
        classes = _split_classes(full, a1)
        for b1 in _class_prefix_masks(m, classes, m):
            final = _split_classes(classes, b1)
            size = factorial(m) // prod(factorial(c.bit_count()) for c in final)
            orbits.append((a1 << m | b1, size))
    return sorted(orbits)


@dataclass(frozen=True, slots=True)
class CensusReport:
    """Aggregate over all 4-vertex m-layer states. blocks is the number of
    outer blocks actually scanned, classes the pair classes of one matching
    and inner_rows the class-product rows scanned per block; table_build_s
    and scan_s time the class tables and the block scan, elapsed the whole
    report."""

    m: int
    states: int
    k4_free: int
    max_size: int
    max_count: int
    clause_i_violations: int
    clause_iii_violations: int
    clause_iv_violations: int
    clause_v_violations: int
    size_histogram: tuple[int, ...]
    witness: str
    blocks: int
    classes: int
    inner_rows: int
    table_build_s: float
    scan_s: float
    elapsed: float


def _census_report(m: int, blocks: list[tuple[int, int]]) -> CensusReport:
    """Census report from a scan of (block, weight) pairs that together
    count every outer block once: each block counted weight times and each
    inner row weighted by its state count. The witness, revalidated, is the
    smallest state of the first block, in the given order, to reach the
    maximum."""
    start = time.perf_counter()
    t = _inner_rows(m)
    built = time.perf_counter()
    pop = t["pop"]
    count = t["count"]
    s2, s3 = t["s2"], t["s3"]
    s23 = s2 + s3
    has_i2, has_i3 = t["has_i2"], t["has_i3"]
    size_bits = 1 << m
    hist = np.zeros(6 * m + 1, dtype=np.int64)
    k4_free = 0
    viol_i = viol_iii = viol_iv = viol_v = 0
    best = -1
    best_state = None
    for block, weight in blocks:
        a1, b1 = divmod(block, size_bits)
        i1 = a1 & b1
        pop_i1 = int(pop[i1])
        s1 = int(pop[a1]) + int(pop[b1])
        if pop_i1 >= 1:
            free = ~(
                t["hall_base"]
                & (pop[i1 | t["i2"]] >= 2)
                & (pop[i1 | t["i3"]] >= 2)
                & (pop[i1 | t["u23"]] >= 3)
            )
        else:
            free = np.ones(len(count), dtype=bool)
        sizes = s23 + s1
        # float64 weights are exact here: a block's sums stay below 16^m = 2^20
        hist += weight * np.bincount(
            sizes[free], weights=count[free], minlength=6 * m + 1
        ).astype(np.int64)
        k4_free += weight * int(count[free].sum())
        free_sizes = np.where(free, sizes, -1)
        block_best = int(free_sizes.max())
        if block_best > best:
            best = block_best
            row = int(np.argmax(free_sizes == block_best))
            class2, class3 = divmod(row, t["classes"])
            best_state = (
                a1,
                b1,
                *divmod(t["smallest"][class2], size_bits),
                *divmod(t["smallest"][class3], size_bits),
            )
        if m == 5:

            def states(mask) -> int:
                return int(count[free & mask].sum())

            v_i = v_iii = v_v = 0
            if s1 >= 8:
                v_i += states((s2 >= 7) & has_i3) + states((s3 >= 7) & has_i2)
            if s1 >= 7:
                v_i += states((s2 >= 8) & has_i3) + states((s3 >= 8) & has_i2)
            if pop_i1 > 0:
                v_i += states((s2 >= 8) & (s3 >= 7)) + states((s3 >= 8) & (s2 >= 7))
                v_v += states(s23 >= 17)
                v_iii += states((sizes >= 23) & has_i2 & has_i3)
            v_v += states((s1 + s2 >= 17) & has_i3) + states((s1 + s3 >= 17) & has_i2)
            if pop[a1] < m and pop[b1] < m:
                viol_iv += weight * states((sizes >= 22) & ~t["full23"])
            viol_i += weight * v_i
            viol_iii += weight * v_iii
            viol_v += weight * v_v
    scanned = time.perf_counter()
    witness_mg = MMultigraph.from_masks(4, m, dict(zip(_CENSUS_PAIRS, best_state)))
    if witness_mg.size != best or contains_k4(witness_mg) is not None:
        raise AssertionError("census witness failed revalidation")
    return CensusReport(
        m=m,
        states=(1 << m) ** 6,
        k4_free=k4_free,
        max_size=best,
        max_count=int(hist[best]),
        clause_i_violations=viol_i,
        clause_iii_violations=viol_iii,
        clause_iv_violations=viol_iv,
        clause_v_violations=viol_v,
        size_histogram=tuple(int(x) for x in hist),
        witness=write_mgraph(witness_mg),
        blocks=len(blocks),
        classes=t["classes"],
        inner_rows=len(count),
        table_build_s=built - start,
        scan_s=scanned - built,
        elapsed=time.perf_counter() - start,
    )


@functools.cache
def k4_census(m: int) -> CensusReport:
    """Count all (2^m)^6 color assignments on 4 vertices.

    Reports the pattern-free maximum size with a lexicographically minimal
    witness, the size histogram of pattern-free states, and (for m=5) the
    violation counts of the four structural clauses, all of which must be
    zero: ordered matching sums (8,7) force an empty intersection on the
    remaining matching, size >= 23 forces a saturated-family subgraph,
    size >= 22 forces a full-multiplicity pair, and matching sums adding to
    17 force an empty intersection.

    Every state is counted, but only one outer block per layer-relabelling
    orbit is scanned (56 of the 1024 blocks at m=5), weighted by the orbit
    size, and within a block one row per pair of matching classes (19,044
    rows standing for 2^20 states at m=5), weighted by its state count; the
    block comment above says why both are exact and why the witness is the
    one a scan of every state finds.

    Layer counts are limited to 1..5, the range whose values are frozen and
    checked (the clause counts exist for m=5 only); the tables would fit
    beyond it, but nothing would check what they count. A report is cached
    per layer count; `k4_census.cache_clear()` makes the next call cold.
    """
    if not 1 <= m <= 5:
        raise ValueError(f"layer count {m} outside the census range 1..5")
    return _census_report(m, _block_orbits(m))


# ----- branch and bound for multigraph Turán numbers -----------------------------


def _bnb_pair_order(n: int) -> list[tuple[int, int]]:
    """Pairs ordered so 4-vertex subsets complete as early as possible."""
    order = list(_CENSUS_PAIRS)
    for v in range(4, n):
        order.extend((u, v) for u in range(v))
    return order


def _split_classes(classes: tuple[int, ...], mask: int) -> tuple[int, ...]:
    """The layer partition `classes` refined by mask: each class splits into
    its layers inside and outside the mask, empty parts dropped, sorted."""
    return tuple(sorted(part for c in classes for part in (c & mask, c & ~mask) if part))


def _class_prefix_masks(m: int, classes: tuple[int, ...], limit: int) -> list[int]:
    """The layer masks of popcount at most limit, in non-increasing popcount
    order (ties ascending), whose bits inside each class of the layer
    partition `classes` are that class's lowest bits: one mask per orbit of
    the layer permutations that fix every class, the smallest of its orbit."""
    return [
        x
        for x in sorted(range(1 << m), key=lambda x: (-x.bit_count(), x))
        if x.bit_count() <= limit
        and all(c & ((1 << (x & c).bit_length()) - 1) == x & c for c in classes)
    ]


def max_k4free_multigraph(
    n: int,
    m: int,
    engine: str = "exhaustive",
    budget: float | None = None,
) -> SearchReport:
    """Maximum size of a pattern-free m-layer multigraph on n vertices.

    The exhaustive engine supports n=4 only: the 4-vertex census, which
    counts every state but scans one outer block per layer-relabelling
    orbit and one row per pair of matching classes; params holds its
    classes, inner_rows, blocks, table_build_s and scan_s. Both engines take
    1..5 layers. Branch and bound supports n in {4, 5}: depth-first over
    pair color masks in a fixed order, every pair capped at the multiplicity
    of the first (every assignment can be relabeled so a maximum-multiplicity
    pair comes first). The layers are
    relabeled at every pair, not only the first: the masks placed so far
    split the m layers into classes (one class at the root; a placed mask
    splits each class into its part inside and its part outside the mask),
    and a pair tries only the masks whose bits inside each class are that
    class's lowest, one per orbit of the layer permutations fixing the
    placed masks. The first pair therefore tries prefix masks only. The
    search space, both bounds and the pattern test are invariant under layer
    relabeling, and the search visits states in lexicographic order of their
    per-pair (-popcount, mask) keys; a state that comes first in its orbit
    has a class-prefix mask at every pair, or a permutation fixing the
    earlier masks would give it a smaller key. The first optimal state in
    search order, the witness, therefore survives the rule. At (5,5) the
    identical-layer construction seeds the incumbent and, as no leaf beats
    it, stays the witness; the first optimal leaf is another state, so a
    seedless run reports a different witness.
    Each pair tries its candidate masks in non-increasing popcount order
    against two tests: the quad bound (each 4-subset capped by the 4-vertex
    optimum, from per-subset popcount sums kept on push and pop), and the
    pattern test on each 4-subset the pair completes. The quad bound implies
    the capacity bound (size so far plus m for every open pair): each pair
    lies in C(n-2, 2) of the 4-subsets, so the uncapped sums add up to
    exactly C(n-2, 2) times it. The bound depends only on the popcount and
    never falls as it grows, so the first candidate that fails it ends the
    loop; a pattern hit skips only that candidate. A subtree is cut only
    when it cannot beat the incumbent, so the incumbent updates, and the
    witness, are those of the unpruned search. params counts the candidate
    trials by outcome: pattern_prunes, bound_prunes and descents sum to
    nodes on a complete run. A budget (seconds) turns the report incomplete
    instead of raising.
    """
    start = time.perf_counter()
    if engine == "exhaustive":
        if n != 4:
            raise ValueError("exhaustive engine requires n=4")
        census = k4_census(m)
        return SearchReport(
            objective="k4multi",
            n=4,
            m=m,
            optimum=census.max_size,
            witness=census.witness,
            witness_kind="mgraph",
            nodes=census.states,
            elapsed=time.perf_counter() - start,
            params={
                "classes": census.classes,
                "inner_rows": census.inner_rows,
                "blocks": census.blocks,
                "table_build_s": census.table_build_s,
                "scan_s": census.scan_s,
            },
        )
    if engine != "bnb":
        raise ValueError(f"unknown engine {engine!r}")
    if n not in (4, 5):
        raise ValueError("branch and bound supports n in {4, 5}")
    # the census range; every frozen value lies in it, and the candidate
    # tables below hold 2^m masks
    if not 1 <= m <= 5:
        raise ValueError(f"layer count {m} outside the branch-and-bound range 1..5")

    pairs = _bnb_pair_order(n)
    index = {p: i for i, p in enumerate(pairs)}
    total = len(pairs)
    pop = [x.bit_count() for x in range(1 << m)]
    # per pair index: the quads (4-subsets) holding it, the quads not
    # holding it, and the three matchings of each quad it completes
    quad_count = comb(n, 4)
    quads_of: list[list[int]] = [[] for _ in range(total)]
    completes_at: list[list[tuple]] = [[] for _ in range(total)]
    for q, quad in enumerate(combinations(range(n), 4)):
        mpairs = tuple(
            (index[(quad[i1], quad[j1])], index[(quad[i2], quad[j2])])
            for (i1, j1), (i2, j2) in MATCHINGS
        )
        members = [i for pair in mpairs for i in pair]
        for i in members:
            quads_of[i].append(q)
        completes_at[max(members)].append(mpairs)
    others_of = [[q for q in range(quad_count) if q not in mine] for mine in quads_of]
    # every 4-subset of a 5-vertex state is itself a 4-vertex state
    quad_cap = max_k4free_multigraph(4, m, engine="bnb").optimum if n == 5 else 6 * m
    # every pair lies in the quads that add two of the other n - 2 vertices
    quads_per_pair = comb(n - 2, 2)

    # incumbent seeding: the identical-layer construction when it applies,
    # else the empty state, so a deadline before the first leaf still reports
    masks = [0] * total
    if n == 5 and m == 5:
        seed = turan_layers_5(5)
        best = seed.size
        best_masks = [seed.mask(u, v) for u, v in pairs]
    else:
        best = 0
        best_masks = masks.copy()

    # running per-quad bounds, kept on push and pop: the popcounts assigned
    # so far plus m for each of the quad's pairs still open
    quad_sums = [6 * m] * quad_count
    nodes = pattern_prunes = bound_prunes = descents = 0
    deadline = None if budget is None else start + budget
    complete = True
    # candidate lists by (layer classes, popcount limit) and class splits by
    # (layer classes, mask), each built on first use
    options: dict[tuple[tuple[int, ...], int], list[int]] = {}
    splits: dict[tuple[tuple[int, ...], int], tuple[int, ...]] = {}

    def descend(depth: int, size: int, classes: tuple[int, ...], limit: int) -> None:
        nonlocal best, best_masks, nodes, complete
        nonlocal pattern_prunes, bound_prunes, descents
        if deadline is not None and nodes % 4096 == 0 and time.perf_counter() > deadline:
            complete = False
            return
        if depth == total:
            if size > best:
                best = size
                best_masks = masks.copy()
            return
        mine = quads_of[depth]
        # with this pair at popcount p, a quad holding it is capped at
        # min(quad_cap, open_sum + p) and every other quad at its own cap;
        # the quad bound sums the caps over all quads and divides by the
        # number of quads each pair lies in
        rest = 0
        for q in others_of[depth]:
            rest += min(quad_cap, quad_sums[q])
        open_sums = [quad_sums[q] - m for q in mine]
        checks = completes_at[depth]
        key = (classes, limit)
        candidates = options.get(key)
        if candidates is None:
            candidates = options[key] = _class_prefix_masks(m, classes, limit)
        last = -1
        for mask in candidates:
            nodes += 1
            p = pop[mask]
            if p != last:
                last = p
                bound = rest
                for s in open_sums:
                    bound += s + p if s + p < quad_cap else quad_cap
                bound //= quads_per_pair
            # the bound only grows with p, and p never grows along the
            # loop, so once it fails it fails for every later candidate
            if bound <= best:
                bound_prunes += 1
                break
            masks[depth] = mask
            for (a, b), (c, d), (e, f) in checks:
                if hall_fits(masks[a] & masks[b], masks[c] & masks[d], masks[e] & masks[f]):
                    pattern_prunes += 1
                    break
            else:
                descents += 1
                for q in mine:
                    quad_sums[q] += p - m
                # every later pair is capped at the first pair's count
                split = splits.get((classes, mask))
                if split is None:
                    split = splits[classes, mask] = _split_classes(classes, mask)
                descend(depth + 1, size + p, split, pop[masks[0]])
                for q in mine:
                    quad_sums[q] -= p - m
                if not complete:
                    return
        masks[depth] = 0

    descend(0, 0, ((1 << m) - 1,), m)
    witness_mg = MMultigraph.from_masks(n, m, dict(zip(pairs, best_masks)))
    if witness_mg.size != best or contains_k4(witness_mg) is not None:
        raise AssertionError("branch-and-bound witness failed revalidation")
    return SearchReport(
        objective="k4multi",
        n=n,
        m=m,
        optimum=best,
        witness=write_mgraph(witness_mg),
        witness_kind="mgraph",
        nodes=nodes,
        elapsed=time.perf_counter() - start,
        complete=complete,
        engine="bnb",
        params={
            "pattern_prunes": pattern_prunes,
            "bound_prunes": bound_prunes,
            "descents": descents,
        },
    )


# ----- two-edge-star maxima over all small graphs ---------------------------------


def _check_scan_capacity(n: int) -> None:
    # n=8 would put 2^28 graphs through the star table and grow 4,577,274
    # triangle-free graphs, and no value there is frozen or checked
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    if n > 7:
        raise ValueError(f"vertex count {n} above scan capacity")


def _mask(items, keep) -> int:
    """The edge-set bitmask of the items keep accepts: bit i stands for items[i]."""
    return sum(1 << i for i, item in enumerate(items) if keep(item))


def _members(items, mask: int) -> list:
    """The items of an edge-set bitmask, in item order: bit i stands for items[i]."""
    return [item for i, item in enumerate(items) if mask >> i & 1]


def _relabel(triples, perm) -> tuple[tuple[int, ...], ...]:
    """The triple set under the vertex map perm, each image triple sorted and
    then the triples sorted."""
    return tuple(sorted([tuple(sorted((perm[a], perm[b], perm[c]))) for a, b, c in triples]))


@functools.cache
def _graph_star_table(n: int) -> dict:
    """For every edge count m, the exhaustive max of the two-edge-star count
    over all n-vertex graphs, with the first attaining adjacency mask.

    The edge bits split into a low half and a high half, mask = high <<
    low_bits | low. A vertex of degree dl + dh from the two halves sits in C(dl, 2) +
    C(dh, 2) + dl * dh two-edge stars, so the count of a graph is
    SL[low] + SH[high] + sum_v DL[low, v] * DH[high, v], with tables over
    the halves alone. It is evaluated as one lows x highs block per edge
    count of the high half, never one entry per graph."""
    _check_scan_capacity(n)
    pairs = all_pairs(n)
    nbits = len(pairs)
    low_bits = nbits // 2
    incidence = [_mask(pairs, lambda p: w in p) for w in range(n)]

    def half(shift: int, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # for every mask of `width` edge bits from `shift`: the degree it
        # gives each vertex, its star count and its edge count
        masks = np.arange(1 << width, dtype=np.uint32)
        degrees = np.empty((len(masks), n), dtype=np.int32)
        for v, inc in enumerate(incidence):
            degrees[:, v] = np.bitwise_count(masks & np.uint32(inc >> shift & ((1 << width) - 1)))
        stars = (degrees * (degrees - 1) // 2).sum(axis=1, dtype=np.int32)
        return degrees, stars, np.bitwise_count(masks)

    dl, sl, low_edges = half(0, low_bits)
    dh, sh, high_edges = half(low_bits, nbits - low_bits)
    # lows by edge count, ascending within a count: rows bounds[l]:bounds[l+1]
    order = np.argsort(low_edges, kind="stable")
    dl, sl = dl[order], sl[order]
    bounds = np.searchsorted(low_edges[order], np.arange(low_bits + 2))
    widest = int(np.bincount(high_edges).max())
    # one pair of buffers, sliced per edge count, bounds peak memory: a fresh
    # block per edge count raised run_suite("all") max RSS from 35.3 to
    # 37.2 MB (x86_64 Linux, Python 3.11.7, NumPy 2.4.6)
    block_buf = np.empty((len(order), widest), dtype=np.int32)
    product_buf = np.empty_like(block_buf)
    table: dict[int, tuple[int, int]] = {}
    for h in range(nbits - low_bits + 1):
        highs = np.flatnonzero(high_edges == h)
        block = block_buf[:, : len(highs)]
        product = product_buf[:, : len(highs)]
        np.add(sl[:, None], sh[highs], out=block)
        for v in range(n):
            np.multiply(dl[:, v, None], dh[highs, v], out=product)
            block += product
        for l in range(low_bits + 1):
            rows = block[bounds[l] : bounds[l + 1]]
            best = int(rows.max())
            hit = rows == best
            # highs ascend, then lows within a row class: the first hit
            # column and its first hit row give the smallest attaining mask
            j = int(np.argmax(hit.any(axis=0)))
            i = int(np.argmax(hit[:, j]))
            mask = int(highs[j]) << low_bits | int(order[bounds[l] + i])
            old = table.get(l + h)
            if old is None or best > old[0] or (best == old[0] and mask < old[1]):
                table[l + h] = (best, mask)
    return {"pairs": pairs, "table": table, "states": 1 << nbits}


def max_s2_graph(n: int, m_edges: int) -> SearchReport:
    """Exhaustive maximum of the two-edge-star count over n-vertex graphs
    with exactly m_edges edges. Capacity-capped at n <= 7."""
    start = time.perf_counter()
    _check_scan_capacity(n)
    if not 0 <= m_edges <= comb(n, 2):
        raise ValueError(f"edge count {m_edges} out of range")
    data = _graph_star_table(n)
    best, mask = data["table"][m_edges]
    witness = SimpleGraph(n, _members(data["pairs"], mask))
    if witness.star_count() != best or witness.edge_count != m_edges:
        raise AssertionError("star-count witness failed revalidation")
    return SearchReport(
        objective="ak-s2",
        n=n,
        m=m_edges,
        optimum=best,
        witness=write_graph(witness),
        witness_kind="graph",
        nodes=data["states"],
        elapsed=time.perf_counter() - start,
    )


def s2_quasi_agreement(n: int) -> list[tuple[int, int, int, int]]:
    """Rows (m, exhaustive max, quasi-star count, quasi-complete count) for
    every edge count; the exhaustive max must equal the larger of the two."""
    data = _graph_star_table(n)
    rows = []
    for m in range(comb(n, 2) + 1):
        best = data["table"][m][0]
        star = quasi_star(n, m).star_count()
        clique = quasi_complete(n, m).star_count()
        rows.append((m, best, star, clique))
    return rows


# ----- minimum-degree bipartiteness scan -------------------------------------------


def _two_colourable(n: int, pairs, graphs: np.ndarray) -> np.ndarray:
    """Which graphs (adjacency masks over pairs) are 2-colourable: those with
    no edge inside either side of some split of the vertices."""
    ok = np.zeros(len(graphs), dtype=bool)
    for _, side in bipartitions(n):
        inside = _mask(pairs, lambda p: (p[0] in side) == (p[1] in side))
        ok |= (graphs & np.uint32(inside)) == 0
    return ok


def _triangle_free_graphs(n: int, pairs) -> tuple[np.ndarray, int]:
    """Every triangle-free graph on n vertices, as adjacency masks over
    pairs, and the number of candidates tested to find them.

    The graphs grow vertex by vertex: joining vertex k to a set S of
    0..k-1 keeps a triangle-free graph triangle-free exactly when S is
    independent in it, so each candidate (graph, S) costs one mask test."""
    graphs = np.zeros(1, dtype=np.uint32)  # the one graph on at most one vertex
    # over the sets s of 0..k-1 in ascending order (bit v for vertex v):
    # inside[s] holds the pairs inside s and join[s] those joining vertex k
    # to s. Adding a vertex v doubles the sets: those holding v follow those
    # that do not, in the same order.
    inside = join = np.zeros(1, dtype=np.uint32)
    tested = 0
    for k in range(1, n):
        inside = np.concatenate([inside, inside | join])
        join = np.zeros(1, dtype=np.uint32)
        for v in range(k):
            join = np.concatenate([join, join | _mask(pairs, {(v, k)}.__contains__)])
        independent = (graphs[:, None] & inside) == 0
        tested += independent.size
        graphs = (graphs[:, None] | join)[independent]
    return graphs, tested


def aes_scan(n: int) -> SearchReport:
    """Scan all n-vertex graphs: every triangle-free graph with minimum
    degree above 2n/5 must be bipartite, so the optimum (the count of
    non-bipartite ones) must be 0. The params count the triangle-free graphs,
    those above the threshold, and the non-bipartite triangle-free graphs
    sitting exactly at degree floor(2n/5), which stop the threshold from
    moving.

    Only the triangle-free graphs are built, grown vertex by vertex;
    states_scanned counts the candidates tested to grow them, while nodes
    counts every labelled graph, 2^C(n,2)."""
    start = time.perf_counter()
    _check_scan_capacity(n)
    pairs = all_pairs(n)
    graphs, tested = _triangle_free_graphs(n, pairs)
    mindeg = np.full(len(graphs), 255, dtype=np.uint8)
    for w in range(n):
        incidence = _mask(pairs, lambda p: w in p)
        mindeg = np.minimum(mindeg, np.bitwise_count(graphs & np.uint32(incidence)))
    # 5 * d > 2n exactly when d > floor(2n/5)
    above = mindeg > (2 * n) // 5
    boundary = mindeg == (2 * n) // 5
    selected = np.flatnonzero(above | boundary)
    odd = ~_two_colourable(n, pairs, graphs[selected])
    violations = int((odd & above[selected]).sum())
    boundary_nonbip = int((odd & boundary[selected]).sum())
    return SearchReport(
        objective="aes",
        n=n,
        optimum=violations,
        nodes=1 << len(pairs),
        elapsed=time.perf_counter() - start,
        params={
            "triangle_free": len(graphs),
            "above_threshold": int(above.sum()),
            "boundary_nonbipartite": boundary_nonbip,
            "states_scanned": tested,
        },
    )


# ----- maximum-norm Fano-free search ------------------------------------------------


def _fano_copy_masks(n: int) -> list[int]:
    """Edge-subset masks (over the triples of n vertices) of all labeled
    Fano planes; below seven vertices there are none."""
    triples = list(combinations(range(n), 3))
    # the plane's automorphisms take any two points to any two, so every
    # labelling of seven points is reached by a vertex map fixing 0 and 1
    # (each four times)
    planes = {_relabel(FANO_EDGES, (0, 1, *rest)) for rest in permutations(range(2, 7))}
    return sorted(
        _mask(triples, set(_relabel(plane, points)).__contains__)
        for points in combinations(range(n), 7)
        for plane in planes
    )


def max_l2_fano_free(n: int, budget: float | None = None) -> SearchReport:
    """Maximum squared norm of a Fano-free 3-graph on n vertices.

    Every Fano-free graph is the complete graph minus an edge set hitting
    all labeled copies of the plane, and the norm is monotone, so the search
    branches over which of the seven triples of the first uncovered copy
    gets deleted, in ascending order, each later branch banning the triples
    earlier ones deleted. The norm is carried down the recursion beside the
    codegrees, and a deletion is pruned when the norm after it cannot beat
    the incumbent; params counts those bound_prunes. Below seven vertices
    there is no copy, and the single leaf is the complete graph.
    """
    start = time.perf_counter()
    if n < 3 or n > 7:
        raise ValueError("supported vertex counts are 3..7")

    triples = list(combinations(range(n), 3))
    # each copy as its mask and its seven triple indices, ascending
    fanos = [(f, _members(range(len(triples)), f)) for f in _fano_copy_masks(n)]
    pair_index = {p: i for i, p in enumerate(all_pairs(n))}
    triple_pairs = [
        (pair_index[(a, b)], pair_index[(a, c)], pair_index[(b, c)])
        for a, b, c in triples
    ]
    # the complete graph's: every pair in n - 2 triples
    codegrees = [n - 2] * len(pair_index)

    best = -1
    best_deleted: int | None = None
    nodes = bound_prunes = 0
    deadline = None if budget is None else start + budget
    complete = True

    def descend(deleted: int, banned: int, norm: int) -> None:
        nonlocal best, best_deleted, nodes, bound_prunes, complete
        nodes += 1
        if deadline is not None and nodes % 1024 == 0 and time.perf_counter() > deadline:
            complete = False
            return
        uncovered = next((members for f, members in fanos if not f & deleted), None)
        if uncovered is None:
            if norm > best:
                best = norm
                best_deleted = deleted
            return
        for t in uncovered:
            bit = 1 << t
            if banned & bit:
                continue
            # a pair of codegree d loses d^2 - (d - 1)^2 = 2d - 1
            cost = sum(2 * codegrees[p] - 1 for p in triple_pairs[t])
            if norm - cost > best:
                for p in triple_pairs[t]:
                    codegrees[p] -= 1
                descend(deleted | bit, banned, norm - cost)
                for p in triple_pairs[t]:
                    codegrees[p] += 1
                if not complete:
                    return
            else:
                bound_prunes += 1
            banned |= bit

    descend(0, 0, len(pair_index) * (n - 2) ** 2)
    if best_deleted is None:
        raise AssertionError("no hitting set found")
    # the complement's bits are the kept triples
    host = Uniform3Graph(n, _members(triples, ~best_deleted))
    if host.lp_norm(2) != best or contains_fano(host) is not None:
        raise AssertionError("maximum-norm witness failed revalidation")
    return SearchReport(
        objective="fano-l2",
        n=n,
        optimum=best,
        witness=write_3graph(host),
        witness_kind="3graph",
        nodes=nodes,
        elapsed=time.perf_counter() - start,
        complete=complete,
        engine="bnb",
        params={"bound_prunes": bound_prunes},
    )


# ----- bipartite norm scans -----------------------------------------------------------


def canonical_3graph(H: Uniform3Graph) -> tuple[tuple[int, int, int], ...]:
    """Lexicographically minimal relabeling of the edge set; equal exactly
    for isomorphic graphs (intended for small n)."""
    return min(_relabel(H.triples(), perm) for perm in permutations(range(H.n)))


def bipartite_l2_scan(n: int) -> SearchReport:
    """Scan every bipartition (vertex 0 pinned to the first part) and every
    subset of its crossing triples; the maximum squared norm must match the
    closed formula, attained only by balanced complete bipartite graphs.
    The params hold the closed value, the number of labeled maximizers,
    whether they are all isomorphic to the balanced host, and the blocks
    and states the scan really evaluated.

    Two bipartitions whose first parts have the same size a are relabellings
    of each other, so the scan evaluates one block per a, with parts range(a)
    and range(a, n), and maps its hits through part1 + part2 onto every
    bipartition of that size. nodes still counts the states of every
    bipartition."""
    start = time.perf_counter()
    # below 3 vertices there is no crossing triple; above 6 the 2^|cross|
    # subset blocks outgrow memory
    if not 3 <= n <= 6:
        raise ValueError(f"vertex count {n} outside the scan range 3..6")
    pairs = all_pairs(n)
    best = -1
    block_hits: dict[int, list[list[tuple[int, int, int]]]] = {}
    block_states: dict[int, int] = {}
    for a in range(1, n):
        cross = bipartite3(a, n - a).triples()
        masks = np.arange(1 << len(cross), dtype=np.uint32)
        block_states[a] = len(masks)
        # a codegree is at most n - 2 = 4, so d * d fits the uint8 count and
        # a norm (15 pairs at n = 6) fits uint16
        norms = np.zeros(len(masks), dtype=np.uint16)
        for u, v in pairs:
            pmask = _mask(cross, lambda t: u in t and v in t)
            if pmask:
                d = np.bitwise_count(masks & np.uint32(pmask))
                norms += d * d
        block_best = int(norms.max())
        if block_best < best:
            continue
        if block_best > best:
            best = block_best
            block_hits = {}
        block_hits[a] = [_members(cross, mask) for mask in masks[norms == block_best]]
    nodes = 0
    # the same labeled graph may be crossing for two bipartitions
    maximizers: set[tuple[tuple[int, ...], ...]] = set()
    for part1, part2 in bipartitions(n):
        if not part2:
            continue
        a = len(part1)
        nodes += block_states[a]
        sigma = part1 + part2
        for hit in block_hits.get(a, ()):
            maximizers.add(_relabel(hit, sigma))
    host = bipartite3((n + 1) // 2, n // 2)
    balanced = canonical_3graph(host)
    # every maximizer is a relabelled representative hit; a hit equal to the
    # labelled balanced host reuses its canonical form
    canon = {
        balanced if tuple(hit) == host.triples() else canonical_3graph(Uniform3Graph(n, hit))
        for hits in block_hits.values()
        for hit in hits
    }
    witness = Uniform3Graph(n, min(maximizers))
    if witness.lp_norm(2) != best or is_bipartite3(witness) is None:
        raise AssertionError("bipartite witness failed revalidation")
    return SearchReport(
        objective="bipartite-l2",
        n=n,
        optimum=best,
        witness=write_3graph(witness),
        witness_kind="3graph",
        nodes=nodes,
        elapsed=time.perf_counter() - start,
        params={
            "closed_value": bn_l2_closed(n),
            "maximizer_count": len(maximizers),
            "unique_up_to_iso": canon == {balanced},
            "blocks_scanned": len(block_states),
            "states_scanned": sum(block_states.values()),
        },
    )


def bipartite_norm_formula(a: int, b: int) -> int:
    """Closed squared norm of the complete bipartite 3-graph with parts a, b."""
    n = a + b
    return comb(a, 2) * b * b + comb(b, 2) * a * a + a * b * (n - 2) ** 2


def bipartite_s2_formula(a: int, b: int) -> int:
    """Closed two-edge-star count of the same graph."""
    n = a + b
    return 2 * comb(a, 2) * comb(b, 2) + a * b * comb(n - 2, 2)
