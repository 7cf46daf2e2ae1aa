"""Independent brute-force and branch-and-bound oracles.

Everything here recomputes extremal values from scratch so the analytic
formulas and constructions elsewhere in the package can be checked against
exhaustive ground truth at desk scale: the 4-vertex multigraph census,
counted through the three matching intersections, branch-and-bound for
multigraph Turán numbers, two-edge-star maxima over all small graphs, the
minimum-degree bipartiteness scan, the maximum-norm Fano-free search up to
eight vertices, and the bipartite norm scan.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from itertools import combinations, permutations
from math import comb
from typing import Iterator

import numpy as np

from .graphs import SimpleGraph, all_pairs, bipartitions, quasi_complete, quasi_star
from .hypergraphs import Uniform3Graph, bipartite3, bn_l2_closed
from .multigraphs import MATCHINGS, MMultigraph, contains_k4, hall_fits, turan_layers_5
from .patterns import FANO_EDGES, contains_fano, is_bipartite3
from .formats import write_3graph, write_graph, write_mgraph

_BLOCK = 1 << 14  # states a scan evaluates at once, keeping maxima, hits and counts


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
# so the three perfect matchings occupy consecutive slots, the pairs
# (a1, b1), (a2, b2), (a3, b3).
#
# The pattern test (hall_fits) reads only the matching intersections
# i_t = a_t & b_t. Fix a matching's intersection i and let p = pop(i): each
# layer outside i goes on a, on b or on neither, so C(m - p, t) * 2^t of the
# matching's pairs have size 2p + t, and exactly two of them hold a full
# pair (one when p = m), both of size m + p. So every count the census
# reports is a sum over popcount triples (p1, p2, p3) of the pattern-free
# intersection triples with those popcounts, times one per-matching table
# for each matching.

_CENSUS_PAIRS = tuple(pair for matching in MATCHINGS for pair in matching)
_CLAUSE_THRESHOLDS = (8, 7, 23, 22, 17)  # the m=5 clauses' sizes, in the paper's order


def _free_triples(m: int) -> np.ndarray:
    """free[p1, p2, p3]: the intersection triples (i1, i2, i3) that fail the
    Hall test, by their popcounts. i1 sits on the lowest p1 bits, weighted
    by C(m, p1), since relabelling the layers keeps the test; i2 and i3 run
    over all 4^m pairs."""
    # uint8 holds every mask and every popcount index at m <= 5
    pop = np.array([x.bit_count() for x in range(1 << m)], dtype=np.uint8)
    i1 = ((1 << np.arange(m + 1, dtype=np.uint8)) - 1)[:, None, None]
    i2 = np.arange(1 << m, dtype=np.uint8)[:, None]
    i3 = np.arange(1 << m, dtype=np.uint8)
    fits = (
        (i1 != 0) & (i2 != 0) & (i3 != 0)
        & (pop[i1 | i2] >= 2) & (pop[i1 | i3] >= 2) & (pop[i2 | i3] >= 2)
        & (pop[i1 | i2 | i3] >= 3)
    )
    popcounts = (pop[i1] * (m + 1) + pop[i2]) * (m + 1) + pop[i3]
    free = np.bincount(popcounts[~fits], minlength=(m + 1) ** 3).reshape((m + 1,) * 3)
    return free * np.array([comb(m, p) for p in range(m + 1)])[:, None, None]


def _matching_sizes(m: int) -> tuple[np.ndarray, np.ndarray]:
    """pairs[p, s] and full[p, s]: the pairs (a, b) of one matching with a
    given intersection of popcount p and with |a| + |b| = s, all of them and
    those with a or b full."""
    pairs = np.zeros((m + 1, 2 * m + 1), dtype=np.int64)
    full = np.zeros_like(pairs)
    for p in range(m + 1):
        for t in range(m - p + 1):
            pairs[p, 2 * p + t] = comb(m - p, t) << t
        full[p, m + p] = 2 if p < m else 1
    return pairs, full


def _first_free_state(m: int, best: int) -> tuple[int, ...]:
    """The lexicographically smallest pattern-free state of size best, the
    maximum: the first one a depth-first walk over the six masks, each in
    ascending order, meets."""
    pop = [x.bit_count() for x in range(1 << m)]

    def walk(state: tuple[int, ...], so_far: int) -> tuple[int, ...] | None:
        if len(state) == 6:
            a1, b1, a2, b2, a3, b3 = state
            return None if hall_fits(a1 & b1, a2 & b2, a3 & b3) else state
        for mask in range(1 << m):
            # cut the branch unless the open pairs, all full, reach best
            if so_far + pop[mask] + m * (5 - len(state)) >= best:
                found = walk((*state, mask), so_far + pop[mask])
                if found:
                    return found
        return None

    return walk((), 0)


@dataclass(frozen=True, slots=True)
class CensusReport:
    """Aggregate over all 4-vertex m-layer states. triples counts the
    intersection triples (i1, i2, i3) the Hall test ran on, (m + 1) * 4^m;
    table_build_s times the tables, elapsed the whole report."""

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
    triples: int
    table_build_s: float
    elapsed: float


@functools.cache
def k4_census(m: int) -> CensusReport:
    """Count all (2^m)^6 color assignments on 4 vertices.

    Reports the pattern-free maximum size with a lexicographically minimal
    witness, the size histogram of pattern-free states, and (for m=5) the
    violation counts of the four structural clauses, all of which must be
    zero: ordered matching sums (8,7) force an empty intersection on the
    remaining matching, size >= 23 forces a saturated-family subgraph,
    size >= 22 forces a full-multiplicity pair, and matching sums adding to
    17 force an empty intersection (_CLAUSE_THRESHOLDS holds these sizes).

    Every count is a sum over popcount triples of the three matching
    intersections, from (m + 1) * 4^m Hall tests and three per-matching
    tables (the block comment above says why). The Hall test is symmetric
    in the matchings, so a clause over any two of them is a multiple of the
    one over the first two. The witness, revalidated, is the first maximum
    pattern-free state a depth-first walk over ascending masks meets.

    Layer counts are limited to 1..5, the range whose values are frozen and
    checked (the clause counts exist for m=5 only); the tables would fit
    beyond it, but nothing would check what they count. A report is cached
    per layer count; `k4_census.cache_clear()` makes the next call cold.
    """
    if not 1 <= m <= 5:
        raise ValueError(f"layer count {m} outside the census range 1..5")
    start = time.perf_counter()
    free = _free_triples(m)
    pairs, full = _matching_sizes(m)
    built = time.perf_counter()

    def joint(t1: np.ndarray, t2: np.ndarray, t3: np.ndarray) -> np.ndarray:
        # pattern-free states by (s1, s2, s3), each table t[p, s] counting
        # one matching's pairs per intersection of popcount p
        counts = np.tensordot(t1, free, (0, 0))
        for t in (t2, t3):
            counts = np.tensordot(counts, t, (1, 0))
        return counts

    s1, s2, s3 = np.indices((2 * m + 1,) * 3, dtype=np.uint8)
    sizes = s1 + s2 + s3
    counts = joint(pairs, pairs, pairs)
    hist = np.zeros(6 * m + 1, dtype=np.int64)
    np.add.at(hist, sizes, counts)
    best = int(np.flatnonzero(hist)[-1])
    viol_i = viol_iii = viol_iv = viol_v = 0
    if m == 5:
        a, b, saturated, full_pair, total = _CLAUSE_THRESHOLDS
        # with_i counts only the pairs whose intersection is not empty
        with_i = pairs.copy()
        with_i[0] = 0
        third_met = joint(pairs, pairs, with_i)
        no_full = pairs - full
        # by symmetry: six ordered matching pairs for clause i, three unordered for v
        viol_i = 6 * int(third_met[(s1 >= a) & (s2 >= b)].sum())
        viol_iii = int(joint(with_i, with_i, with_i)[sizes >= saturated].sum())
        viol_iv = int(joint(no_full, no_full, no_full)[sizes >= full_pair].sum())
        viol_v = 3 * int(third_met[s1 + s2 >= total].sum())
    witness = dict(zip(_CENSUS_PAIRS, _first_free_state(m, best)))
    witness_mg = MMultigraph.from_masks(4, m, witness)
    if witness_mg.size != best or contains_k4(witness_mg) is not None:
        raise AssertionError("census witness failed revalidation")
    return CensusReport(
        m=m,
        states=(1 << m) ** 6,
        k4_free=int(counts.sum()),
        max_size=best,
        max_count=int(hist[best]),
        clause_i_violations=viol_i,
        clause_iii_violations=viol_iii,
        clause_iv_violations=viol_iv,
        clause_v_violations=viol_v,
        size_histogram=tuple(int(x) for x in hist),
        witness=write_mgraph(witness_mg),
        triples=(m + 1) << 2 * m,
        table_build_s=built - start,
        elapsed=time.perf_counter() - start,
    )


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

    The exhaustive engine supports n=4 only and takes no budget: the
    4-vertex census, which counts every state through the popcounts of the
    three matching intersections; params holds its triples (the Hall tests
    it ran) and table_build_s. Both engines take 1..5 layers. Branch and
    bound supports n in {4, 5}: depth-first over pair color masks in a fixed
    order, every pair capped at the multiplicity of the first (every
    assignment can be relabeled so a maximum-multiplicity pair comes first).
    The layers are relabeled at every pair, not only the first: the masks
    placed so far split the m layers into classes (one class at the root; a
    placed mask splits each class into its part inside and its part outside
    the mask), and a pair tries only the masks whose bits inside each class
    are that class's lowest, one per orbit of the layer permutations fixing
    the placed masks. The first pair therefore tries prefix masks only. The
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
    nodes on a complete run. A budget (seconds, nonnegative) turns the
    report incomplete instead of raising.
    """
    start = time.perf_counter()
    if engine == "exhaustive":
        if n != 4:
            raise ValueError("exhaustive engine requires n=4")
        if budget is not None:
            raise ValueError("the exhaustive engine takes no budget")
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
            params={"triples": census.triples, "table_build_s": census.table_build_s},
        )
    if engine != "bnb":
        raise ValueError(f"unknown engine {engine!r}")
    if n not in (4, 5):
        raise ValueError("branch and bound supports n in {4, 5}")
    # the census range; every frozen value lies in it, and the candidate
    # tables below hold 2^m masks
    if not 1 <= m <= 5:
        raise ValueError(f"layer count {m} outside the branch-and-bound range 1..5")
    if budget is not None and not budget >= 0:  # NaN too: no clock passes it
        raise ValueError(f"budget must be a nonnegative number of seconds, got {budget}")

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
    # n=8 would take 128 (star table) and 45 (triangle-free growth) times n=7's
    # time, in the same memory, and no value there is frozen or checked
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


def _star_half(
    n: int, pairs, shift: int, width: int, reverse: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For every mask of `width` edge bits from `shift` over pairs: the
    degree it gives each vertex v, packed in byte v (byte 7 - v if
    reverse), its two-edge-star count and its edge count."""
    masks = np.arange(1 << width, dtype=np.uint32)
    packed = np.zeros(len(masks), dtype=np.uint64)
    stars = np.zeros(len(masks), dtype=np.uint64)
    for v in range(n):
        inc = _mask(pairs, lambda p: v in p) >> shift & ((1 << width) - 1)
        degree = np.bitwise_count(masks & np.uint32(inc)).astype(np.uint64)
        packed |= degree << np.uint64(8 * (7 - v if reverse else v))
        stars += (degree * degree - degree) // 2
    return packed, stars, np.bitwise_count(masks)


@functools.cache
def _graph_star_table(n: int) -> dict:
    """For every edge count m, the exhaustive max of the two-edge-star count
    over all n-vertex graphs, with the first attaining adjacency mask.

    The edge bits split into a low half and a high half, mask = high <<
    low_bits | low. A vertex of degree dl + dh from the two halves sits in C(dl, 2) +
    C(dh, 2) + dl * dh two-edge stars, so the count of a graph is
    SL[low] + SH[high] + sum_v DL[low, v] * DH[high, v], with tables over
    the halves alone. It is evaluated per pair of edge counts of the two
    halves, in lows x highs blocks of about _BLOCK entries, never per graph.

    The cross term comes from one product of packed degrees: PL[low] holds
    DL[low, v] in byte v and PH[high] holds DH[high, v] in byte 7 - v, so
    DL[low, v] * DH[high, w] lands in byte 7 + v - w, and byte 7, the top
    one, is sum_v DL[low, v] * DH[high, v]. Each byte of the product sums at
    most n terms of at most 6 * 6, at most 252 < 256 at the n <= 7 that
    _check_scan_capacity allows, so no byte carries into the next, and the
    wrap-around mod 2^64 drops only the bytes above the top one."""
    _check_scan_capacity(n)
    pairs = all_pairs(n)
    nbits = len(pairs)
    low_bits = nbits // 2
    pl, sl, low_edges = _star_half(n, pairs, 0, low_bits, reverse=False)
    ph, sh, high_edges = _star_half(n, pairs, low_bits, nbits - low_bits, reverse=True)
    # lows by edge count, ascending within a count: rows bounds[l]:bounds[l+1]
    order = np.argsort(low_edges, kind="stable")
    pl, sl = pl[order], sl[order]
    bounds = np.searchsorted(low_edges[order], np.arange(low_bits + 2))
    # one buffer, reshaped per block; a block holds at least one row
    block_buf = np.empty(max(_BLOCK, int(np.bincount(high_edges).max())), dtype=np.uint64)
    table: dict[int, tuple[int, int]] = {}
    for h in range(nbits - low_bits + 1):
        highs = np.flatnonzero(high_edges == h)
        ph_h, sh_h = ph[highs], sh[highs]
        rows = max(1, _BLOCK // len(highs))
        for l in range(low_bits + 1):
            for lo in range(bounds[l], bounds[l + 1], rows):
                hi = min(lo + rows, bounds[l + 1])
                block = block_buf[: (hi - lo) * len(highs)].reshape(hi - lo, len(highs))
                np.multiply(pl[lo:hi, None], ph_h, out=block)
                block >>= np.uint64(56)
                block += sl[lo:hi, None]
                block += sh_h
                best = int(block.max())
                hit = block == best
                # highs ascend, then lows within a row class: the first hit
                # column and its first hit row give the block's smallest mask
                j = int(np.argmax(hit.any(axis=0)))
                i = int(np.argmax(hit[:, j]))
                mask = int(highs[j]) << low_bits | int(order[lo + i])
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


def _triangle_free_graphs(n: int, pairs) -> Iterator[tuple[np.ndarray, int]]:
    """Every triangle-free graph on n vertices, as adjacency masks over
    pairs, in blocks, each with the candidates tested so far.

    The graphs grow vertex by vertex: joining vertex k to a set S of
    0..k-1 keeps a triangle-free graph triangle-free exactly when S is
    independent in it, so each candidate (graph, S) costs one mask test.
    The last vertex joins the graphs about _BLOCK candidates at a time."""
    graphs = np.zeros(1, dtype=np.uint32)  # the one graph on at most one vertex
    if n <= 1:
        yield graphs, 0
        return
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
        if k < n - 1:
            independent = (graphs[:, None] & inside) == 0
            tested += independent.size
            graphs = (graphs[:, None] | join)[independent]
    rows = max(1, _BLOCK // len(inside))
    for part in np.split(graphs[:, None], range(rows, len(graphs), rows)):
        independent = (part & inside) == 0
        tested += independent.size
        yield (part | join)[independent], tested


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
    incidences = [np.uint32(_mask(pairs, lambda p: w in p)) for w in range(n)]
    triangle_free = 0
    kept = []  # per block the graphs of degree at least floor(2n/5), and which exceed it
    for graphs, tested in _triangle_free_graphs(n, pairs):
        triangle_free += len(graphs)
        mindeg = np.full(len(graphs), 255, dtype=np.uint8)
        for incidence in incidences:
            mindeg = np.minimum(mindeg, np.bitwise_count(graphs & incidence))
        # 5 * d > 2n exactly when d > floor(2n/5)
        keep = mindeg >= (2 * n) // 5
        kept.append((graphs[keep], mindeg[keep] > (2 * n) // 5))
    selected, above = map(np.concatenate, zip(*kept))
    odd = ~_two_colourable(n, pairs, selected)
    return SearchReport(
        objective="aes",
        n=n,
        optimum=int((odd & above).sum()),
        nodes=1 << len(pairs),
        elapsed=time.perf_counter() - start,
        params={
            "triangle_free": triangle_free,
            "above_threshold": int(above.sum()),
            "boundary_nonbipartite": int((odd & ~above).sum()),
            "states_scanned": tested,
        },
    )


# ----- maximum-norm Fano-free search ------------------------------------------------


def _fano_cover(n: int) -> tuple[list[list[int]], list[int]]:
    """Each labeled plane's triple indices, the copies in ascending order of
    their edge mask (bit t for triple t of n vertices), and per triple t the
    mask of the copies holding t (bit i for copy i); none below seven."""
    index = {t: i for i, t in enumerate(combinations(range(n), 3))}
    # the plane's automorphisms take any two points to any two, so every
    # labelling of seven points is reached by a vertex map fixing 0 and 1
    # (each four times)
    planes = {_relabel(FANO_EDGES, (0, 1, *rest)) for rest in permutations(range(2, 7))}
    # _relabel sorts the triples, so each copy's indices ascend
    copies = sorted(
        ([index[t] for t in _relabel(plane, points)]
         for points in combinations(range(n), 7) for plane in planes),
        key=lambda members: sum(1 << t for t in members),
    )
    cover = [0] * len(index)
    for i, members in enumerate(copies):
        for t in members:
            cover[t] |= 1 << i
    return copies, cover


def max_l2_fano_free(n: int, budget: float | None = None) -> SearchReport:
    """Maximum squared norm of a Fano-free 3-graph on n vertices.

    Every Fano-free graph is the complete graph minus an edge set hitting
    all labeled copies of the plane, and the norm is monotone, so the search
    branches over which of the seven triples of the first uncovered copy
    gets deleted, in ascending order, each later branch banning the triples
    earlier ones deleted. A node is four ints: the uncovered copies, the
    deleted and the banned triples (masks), and the norm. A deletion's cost
    is read off the deleted triples sharing a pair with it, and it is
    pruned when the norm after it cannot beat the incumbent; params counts
    those bound_prunes. Below seven vertices there is no copy, and the
    single leaf is the complete graph. A budget (seconds, nonnegative)
    turns the report incomplete instead of raising.
    """
    start = time.perf_counter()
    if n < 3 or n > 8:
        raise ValueError("supported vertex counts are 3..8")
    if budget is not None and not budget >= 0:  # NaN too: no clock passes it
        raise ValueError(f"budget must be a nonnegative number of seconds, got {budget}")

    triples = list(combinations(range(n), 3))
    copies, cover = _fano_cover(n)
    # per triple t, the other triples sharing a pair with t
    shares = [_mask(triples, lambda s: len({*s, *t}) == 4) for t in triples]
    full_cost = 6 * (n - 2) - 3  # deleting a triple from the complete graph

    best = -1
    best_deleted: int | None = None
    nodes = bound_prunes = 0
    deadline = None if budget is None else start + budget
    complete = True

    def descend(uncovered: int, deleted: int, banned: int, norm: int) -> None:
        nonlocal best, best_deleted, nodes, bound_prunes, complete
        nodes += 1
        if deadline is not None and nodes % 1024 == 0 and time.perf_counter() > deadline:
            complete = False
            return
        if not uncovered:
            if norm > best:
                best = norm
                best_deleted = deleted
            return
        # the first copy no deletion hits: the mask's lowest set bit
        for t in copies[(uncovered & -uncovered).bit_length() - 1]:
            bit = 1 << t
            if banned & bit:
                continue
            # a pair of codegree d loses 2d - 1; t lies in an uncovered copy, so
            # it is not deleted, and its pairs' triples meet only in t, so each
            # deleted triple sharing a pair with t took 1 off one codegree of t
            cost = full_cost - 2 * (deleted & shares[t]).bit_count()
            if norm - cost > best:
                descend(uncovered & ~cover[t], deleted | bit, banned, norm - cost)
                if not complete:
                    return
            else:
                bound_prunes += 1
            banned |= bit

    descend((1 << len(copies)) - 1, 0, 0, comb(n, 2) * (n - 2) ** 2)
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


def bipartite_l2_scan(n: int) -> SearchReport:
    """Scan every bipartition (vertex 0 pinned to the first part) and every
    subset of its crossing triples; the maximum squared norm must match the
    closed formula, attained only by balanced complete bipartite graphs.
    The params hold the closed value, the number of labeled maximizers,
    whether they are all isomorphic to the balanced host, and the blocks
    and states the scan really evaluated.

    The maximizers are all isomorphic to the host exactly when every hit
    has the host's edge count. A crossing set of the split (a, n - a) has
    at most C(n, 3) - C(a, 3) - C(n - a, 3) triples, and only a balanced a
    reaches the host's count. So a hit of that size is the full crossing
    set of a balanced split, the host up to relabelling, and a hit of any
    other size is not isomorphic to the host.

    Two bipartitions whose first parts have the same size a are relabellings
    of each other, so the scan evaluates one block per a, with parts range(a)
    and range(a, n), and maps its hits through part1 + part2 onto every
    bipartition of that size. nodes still counts the states of every
    bipartition."""
    start = time.perf_counter()
    # below 3 vertices there is no crossing triple; above 6 the 2^|cross|
    # subsets take the time: 2^30 states for a = 3 at n = 7, 4096 times n = 6
    if not 3 <= n <= 6:
        raise ValueError(f"vertex count {n} outside the scan range 3..6")
    pairs = all_pairs(n)
    best = -1
    block_hits: dict[int, list[list[tuple[int, int, int]]]] = {}
    block_states: dict[int, int] = {}
    for a in range(1, n):
        cross = bipartite3(a, n - a).triples()
        block_states[a] = 1 << len(cross)
        pmasks = [np.uint32(_mask(cross, lambda t: u in t and v in t)) for u, v in pairs]
        # blocks ascend, so hits do, and a best that rises drops them all
        for lo in range(0, block_states[a], _BLOCK):
            masks = np.arange(lo, min(lo + _BLOCK, block_states[a]), dtype=np.uint32)
            # a codegree is at most n - 2 = 4: squares fit uint8, norms uint16
            norms = np.zeros(len(masks), dtype=np.uint16)
            for pmask in pmasks:
                norms += np.bitwise_count(masks & pmask) ** 2
            top = int(norms.max())
            if top < best:
                continue
            if top > best:
                best = top
                block_hits = {}
            block_hits.setdefault(a, []).extend(_members(cross, mask) for mask in masks[norms == top])
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
    host_size = bipartite3((n + 1) // 2, n // 2).edge_count
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
            "unique_up_to_iso": all(
                len(hit) == host_size for hits in block_hits.values() for hit in hits
            ),
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
