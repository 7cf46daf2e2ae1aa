import dataclasses
import itertools
import random
import time
import tracemalloc
from itertools import combinations, permutations
from math import comb

import numpy as np
import pytest

from fano_l2 import search
from fano_l2.formats import parse_3graph, parse_graph, parse_mgraph, write_3graph, write_mgraph
from fano_l2.graphs import SimpleGraph, all_pairs, bipartitions
from fano_l2.hypergraphs import Uniform3Graph, balanced_bipartite3, bipartite3, bn_l2_closed
from fano_l2.multigraphs import (
    MMultigraph,
    bipartite_construction_5,
    contains_k4,
    hall_fits,
    turan_layers_5,
)
from fano_l2.patterns import contains_fano, is_bipartite3
from fano_l2.search import (
    aes_scan,
    bipartite_l2_scan,
    bipartite_norm_formula,
    bipartite_s2_formula,
    k4_census,
    max_k4free_multigraph,
    max_l2_fano_free,
    max_s2_graph,
    s2_quasi_agreement,
)

from helpers import aes_scan_oracle, bipartition, canonical_3graph, random_sub_multigraph


def test_census_m4_frozen_values():
    rep = k4_census(4)
    assert rep.states == 16**6
    assert rep.k4_free == 13110579
    assert rep.max_size == 20
    assert rep.max_count == 48
    assert rep.size_histogram[20] == 48
    assert sum(rep.size_histogram) == rep.k4_free
    witness = parse_mgraph(rep.witness)
    assert witness.size == 20 and contains_k4(witness) is None


def census_fields(rep):
    # the counts and the witness: the timings vary, and triples is the
    # census's own work, not something a state-by-state scan reports
    fields = dataclasses.asdict(rep)
    for name in ("elapsed", "table_build_s", "triples"):
        del fields[name]
    return fields


def test_free_triples_match_the_hall_test_on_every_triple():
    # every (i1, i2, i3), 32,768 at m=5, grouped by popcounts, against the
    # table that puts i1 on its lowest bits and weights it by C(m, p1)
    for m in range(1, 6):
        expected = np.zeros((m + 1,) * 3, dtype=np.int64)
        for i1, i2, i3 in itertools.product(range(1 << m), repeat=3):
            if not hall_fits(i1, i2, i3):
                expected[i1.bit_count(), i2.bit_count(), i3.bit_count()] += 1
        assert np.array_equal(search._free_triples(m), expected)
        assert k4_census(m).triples == (m + 1) * 4**m


def test_matching_sizes_count_every_pair():
    # all 4^m pairs (a, b) of one matching, grouped by pop(a & b), |a| + |b|
    # and whether a or b is full, against the closed-form tables, which count
    # the pairs of one intersection of each popcount
    for m in range(1, 6):
        pairs = np.zeros((m + 1, 2 * m + 1), dtype=np.int64)
        full = np.zeros_like(pairs)
        for a, b in itertools.product(range(1 << m), repeat=2):
            p, s = (a & b).bit_count(), a.bit_count() + b.bit_count()
            pairs[p, s] += 1
            full[p, s] += m in (a.bit_count(), b.bit_count())
        per_intersection = np.array([comb(m, p) for p in range(m + 1)])[:, None]
        closed_pairs, closed_full = search._matching_sizes(m)
        assert np.array_equal(closed_pairs * per_intersection, pairs)
        assert np.array_equal(closed_full * per_intersection, full)
        assert int(pairs.sum()) == 4**m


# ----- the per-state oracle ---------------------------------------------------
#
# A second census kept apart from the factorised one it checks: it tabulates
# every one of the 2^(4m) inner states of a block (a2, b2, a3, b3) and counts
# the pattern-free ones state by state, for each outer block (a1, b1).


def oracle_tables(m):
    size = 1 << m
    pop = np.array([x.bit_count() for x in range(size)], dtype=np.uint8)
    inner = np.arange(size**4, dtype=np.uint32)
    mask = size - 1
    a2 = (inner >> (3 * m)) & mask
    b2 = (inner >> (2 * m)) & mask
    a3 = (inner >> m) & mask
    b3 = inner & mask
    i2 = a2 & b2
    i3 = a3 & b3
    u23 = i2 | i3
    pop_i2 = pop[i2]
    pop_i3 = pop[i3]
    return {
        "pop": pop,
        "s2": pop[a2] + pop[b2],
        "s3": pop[a3] + pop[b3],
        "pop_inner": pop[a2] + pop[b2] + pop[a3] + pop[b3],
        "i2": i2,
        "i3": i3,
        "pop_i2": pop_i2,
        "pop_i3": pop_i3,
        "u23": u23,
        "hall_base": (pop_i2 >= 1) & (pop_i3 >= 1) & (pop[u23] >= 2),
        "full_mu": (
            (pop[a2] == m) | (pop[b2] == m) | (pop[a3] == m) | (pop[b3] == m)
        ),
    }


def oracle_census(m, blocks, thresholds=(8, 7, 23, 22, 17)):
    """The CensusReport fields, timings left out, of a state-by-state scan of
    the given (block, weight) pairs; at m=5 the clauses use the thresholds
    (a, b, saturated, full pair, total), the paper's by default."""
    t = oracle_tables(m)
    pop = t["pop"]
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
            sdr = (
                t["hall_base"]
                & (pop[i1 | t["i2"]] >= 2)
                & (pop[i1 | t["i3"]] >= 2)
                & (pop[i1 | t["u23"]] >= 3)
            )
        else:
            sdr = np.zeros(len(t["i2"]), dtype=bool)
        free = ~sdr
        sizes = t["pop_inner"] + np.uint8(s1)
        free_sizes = np.where(free, sizes, 0)
        hist += weight * np.bincount(sizes[free], minlength=6 * m + 1)
        k4_free += weight * int(free.sum())
        block_best = int(free_sizes.max())
        if block_best > best:
            best = block_best
            idx = int(np.argmax(free_sizes == block_best))
            mask4 = size_bits - 1
            best_state = (
                a1,
                b1,
                (idx >> (3 * m)) & mask4,
                (idx >> (2 * m)) & mask4,
                (idx >> m) & mask4,
                idx & mask4,
            )
        if m == 5:
            a, b, saturated, full_pair, total = thresholds
            v_i = v_iii = v_v = 0
            s2, s3 = t["s2"], t["s3"]
            has_i2 = t["pop_i2"] > 0
            has_i3 = t["pop_i3"] > 0
            if s1 >= a:
                v_i += int((free & (s2 >= b) & has_i3).sum())
                v_i += int((free & (s3 >= b) & has_i2).sum())
            if s1 >= b:
                v_i += int((free & (s2 >= a) & has_i3).sum())
                v_i += int((free & (s3 >= a) & has_i2).sum())
            if pop_i1 > 0:
                v_i += int((free & (s2 >= a) & (s3 >= b)).sum())
                v_i += int((free & (s3 >= a) & (s2 >= b)).sum())
                v_v += int((free & (s2 + s3 >= total)).sum())
            v_v += int((free & (s1 + s2 >= total) & has_i3).sum())
            v_v += int((free & (s1 + s3 >= total) & has_i2).sum())
            if pop_i1 > 0:
                not_saturated = (t["pop_i2"] > 0) & (t["pop_i3"] > 0)
                v_iii += int((free & (sizes >= saturated) & not_saturated).sum())
            full_mu = t["full_mu"] | (pop[a1] == m) | (pop[b1] == m)
            v_iv = int((free & (sizes >= full_pair) & ~full_mu).sum())
            viol_i += weight * v_i
            viol_iii += weight * v_iii
            viol_iv += weight * v_iv
            viol_v += weight * v_v
    witness = write_mgraph(
        MMultigraph.from_masks(
            4, m, {pair: mask for pair, mask in zip(search._CENSUS_PAIRS, best_state) if mask}
        )
    )
    return {
        "m": m,
        "states": (1 << m) ** 6,
        "k4_free": k4_free,
        "max_size": best,
        "max_count": int(hist[best]),
        "clause_i_violations": viol_i,
        "clause_iii_violations": viol_iii,
        "clause_iv_violations": viol_iv,
        "clause_v_violations": viol_v,
        "size_histogram": tuple(int(x) for x in hist),
        "witness": witness,
    }


def key_blocks(m):
    """One (block, weight) pair per key (pop(a1 & b1), |a1| + |b1|, a1 or b1
    full) of the first matching: the key's smallest block a1 << m | b1,
    weighted by its block count, in ascending block order. Relabelling the
    layers maps the blocks of one key onto each other and keeps every count,
    and the first block to reach the maximum is the smallest of its key."""
    keys: dict = {}
    for block in range(4**m):
        a1, b1 = divmod(block, 1 << m)
        sizes = (a1.bit_count(), b1.bit_count())
        keys.setdefault(((a1 & b1).bit_count(), sum(sizes), m in sizes), []).append(block)
    return sorted((min(blocks), len(blocks)) for blocks in keys.values())


def test_class_rows_match_the_per_state_oracle():
    # every block at m=1..4, where the key blocks give the same oracle
    # fields; the 25 key blocks at m=5, the only layer count with clause
    # counts, where a scan of every block would take about half a minute
    for m in (1, 2, 3, 4):
        blocks = key_blocks(m)
        assert len(blocks) == (3, 7, 12, 18)[m - 1]
        assert sum(weight for _, weight in blocks) == 4**m
        every = oracle_census(m, [(block, 1) for block in range(4**m)])
        assert census_fields(k4_census(m)) == every == oracle_census(m, blocks)
    blocks = key_blocks(5)
    assert len(blocks) == 25
    assert census_fields(k4_census(5)) == oracle_census(5, blocks)


def test_clause_formulas_match_the_oracle_at_lowered_thresholds(monkeypatch):
    # at the paper's thresholds every clause count is 0, which a wrong
    # multiplier or mask would keep; lowered ones make all four counts large
    thresholds = (6, 5, 18, 18, 12)
    monkeypatch.setattr(search, "_CLAUSE_THRESHOLDS", thresholds)
    k4_census.cache_clear()
    try:
        fields = census_fields(k4_census(5))
    finally:
        k4_census.cache_clear()
    assert fields == oracle_census(5, key_blocks(5), thresholds)
    counts = [fields[f"clause_{c}_violations"] for c in ("i", "iii", "iv", "v")]
    assert counts == [166945632, 7948960, 19138930, 96940542]


def test_cold_census_memory_stays_small():
    # the census tabulates (m + 1) * 4^m intersection triples where per-state
    # tables of 2^20 entries once took a tracemalloc peak of about 41 MB at m=5
    k4_census.cache_clear()
    tracemalloc.start()
    try:
        rep = k4_census(5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.max_size == 25
    assert peak < 8 * 2**20


def test_census_m5_witness_is_pinned():
    rep = k4_census(5)
    assert rep.witness == write_mgraph(
        MMultigraph.from_masks(4, 5, dict(zip(search._CENSUS_PAIRS, (0, 31, 31, 31, 31, 31))))
    )
    assert rep.witness == (
        "mgraph 4 5\n"
        "0 2 1,2,3,4,5\n"
        "0 3 1,2,3,4,5\n"
        "1 2 1,2,3,4,5\n"
        "1 3 1,2,3,4,5\n"
        "2 3 1,2,3,4,5\n"
    )


@pytest.mark.parametrize(
    "args, message",
    [
        ((5, 5), "exhaustive engine requires n=4"),
        ((4, 5, "magic"), "unknown engine 'magic'"),
        ((3, 5, "bnb"), "branch and bound supports n in {4, 5}"),
    ],
)
def test_k4free_search_rejects_unsupported_arguments(args, message):
    with pytest.raises(ValueError) as caught:
        max_k4free_multigraph(*args)
    assert str(caught.value) == message


def test_census_layer_range_guard():
    # the census and the 4-vertex branch and bound are frozen and checked
    # only for 1..5 layers; other counts are refused before any table of 2^m
    # entries is built (at m = 40 that would take terabytes)
    for m in (0, 6, 40):
        for run in (k4_census, lambda m: max_k4free_multigraph(4, m, engine="bnb")):
            start = time.perf_counter()
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="1..5"):
                    run(m)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2**20
            assert time.perf_counter() - start < 1.0


def test_bnb_agrees_with_census_at_four_vertices():
    for m in range(1, 6):
        census_best = k4_census(m).max_size
        rep = max_k4free_multigraph(4, m, engine="bnb")
        assert rep.complete
        assert rep.optimum == census_best
        assert sum(rep.params.values()) == rep.nodes
        w = parse_mgraph(rep.witness)
        assert w.size == rep.optimum and contains_k4(w) is None


def test_five_vertex_bnb_does_not_run_the_census(monkeypatch):
    # the 4-subset cap comes from the 4-vertex branch and bound, so the
    # 5-vertex search neither waits for nor leans on the census it checks
    def no_census(m):
        raise AssertionError("census called")

    monkeypatch.setattr(search, "k4_census", no_census)
    rep = max_k4free_multigraph(5, 4, engine="bnb")
    assert (rep.optimum, rep.nodes, rep.complete) == (32, 4317, True)
    # every candidate trial ends in exactly one of the three outcomes
    assert rep.params == {
        "pattern_prunes": 1773,
        "bound_prunes": 1267,
        "descents": 1277,
    }
    for m in (0, 6):
        with pytest.raises(ValueError, match="1..5"):
            max_k4free_multigraph(5, m, engine="bnb")


# the witnesses of the search before its bounds stopped the candidate loop;
# pruning may cut subtrees but must never change which leaf wins
BNB_WITNESSES = {
    (4, 1): "mgraph 4 1\n0 1 1\n0 2 1\n0 3 1\n1 2 1\n1 3 1\n2 3 1\n",
    (4, 2): "mgraph 4 2\n0 1 1,2\n0 2 1,2\n0 3 1,2\n1 2 1,2\n1 3 1,2\n2 3 1,2\n",
    (4, 3): "mgraph 4 3\n0 1 1,2,3\n0 2 1,2,3\n0 3 1,2,3\n1 3 1,2,3\n2 3 1,2,3\n",
    (4, 4): "mgraph 4 4\n0 1 1,2,3,4\n0 2 1,2,3,4\n0 3 1,2,3,4\n1 3 1,2,3,4\n2 3 1,2,3,4\n",
    (4, 5): (
        "mgraph 4 5\n0 1 1,2,3,4,5\n0 2 1,2,3,4,5\n0 3 1,2,3,4,5\n1 3 1,2,3,4,5\n"
        "2 3 1,2,3,4,5\n"
    ),
    (5, 1): (
        "mgraph 5 1\n0 1 1\n0 2 1\n0 3 1\n0 4 1\n1 2 1\n1 3 1\n1 4 1\n2 3 1\n"
        "2 4 1\n3 4 1\n"
    ),
    (5, 2): (
        "mgraph 5 2\n0 1 1,2\n0 2 1,2\n0 3 1,2\n0 4 1,2\n1 2 1,2\n1 3 1,2\n"
        "1 4 1,2\n2 3 1,2\n2 4 1,2\n3 4 1,2\n"
    ),
    (5, 3): (
        "mgraph 5 3\n0 1 1,2,3\n0 2 1,2,3\n0 3 1,2\n0 4 1,2\n1 2 3\n1 3 1,2,3\n"
        "1 4 1,2,3\n2 3 1,2,3\n2 4 1,2,3\n3 4 1,2\n"
    ),
    (5, 4): (
        "mgraph 5 4\n0 1 1,2,3,4\n0 2 1,2,3,4\n0 3 1,2,3,4\n0 4 1,2,3,4\n"
        "1 3 1,2,3,4\n1 4 1,2,3,4\n2 3 1,2,3,4\n2 4 1,2,3,4\n"
    ),
}


def test_bnb_witnesses_are_pinned():
    for (n, m), text in BNB_WITNESSES.items():
        rep = max_k4free_multigraph(n, m, engine="bnb")
        assert rep.witness == text
        assert sum(rep.params.values()) == rep.nodes
    # at (5,5) no leaf beats the identical-layer seed, so it stays the
    # witness; the counters also pin the class splits each descent passes down
    rep = max_k4free_multigraph(5, 5, engine="bnb")
    assert (rep.optimum, rep.nodes, rep.complete) == (40, 33490, True)
    assert rep.params == {
        "pattern_prunes": 16377,
        "bound_prunes": 8547,
        "descents": 8566,
    }
    assert rep.witness == write_mgraph(turan_layers_5(5))


def test_seedless_five_layer_bnb_keeps_the_first_optimal_leaf(monkeypatch):
    # the (5,5) seed already has the optimum 40, so it would hide a layer
    # rule that prunes too much; without it the search must still prove 40
    # and report the first optimal leaf of the unpruned search
    monkeypatch.setattr(search, "turan_layers_5", lambda n: MMultigraph(n, 5))
    rep = max_k4free_multigraph(5, 5, engine="bnb")
    assert (rep.optimum, rep.complete) == (40, True)
    full_pairs = ("0 1", "0 2", "0 3", "0 4", "1 3", "1 4", "2 3", "2 4")
    assert rep.witness == "mgraph 5 5\n" + "".join(f"{uv} 1,2,3,4,5\n" for uv in full_pairs)


def _partitions(items: list[int]):
    """Every partition of items into classes, each class a list."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        yield [[first], *part]
        for i in range(len(part)):
            yield [*part[:i], [first, *part[i]], *part[i + 1 :]]


def test_class_prefix_masks_keep_the_smallest_mask_of_each_orbit():
    for m in range(1, 6):
        descending = sorted(range(1 << m), key=lambda x: (-x.bit_count(), x))
        for partition in _partitions(list(range(m))):
            classes = tuple(sum(1 << i for i in c) for c in partition)
            # the layer permutations that map every class onto itself
            fixing = [
                p
                for p in permutations(range(m))
                if all(sorted(p[i] for i in c) == sorted(c) for c in partition)
            ]
            smallest = {
                x
                for x in range(1 << m)
                if x == min(sum(1 << p[i] for i in range(m) if x >> i & 1) for p in fixing)
            }
            for k in range(m + 1):
                expected = [x for x in descending if x.bit_count() <= k and x in smallest]
                assert search._class_prefix_masks(m, classes, k) == expected


def test_exhaustive_engine_refuses_a_budget():
    # the census always counts every state, so no budget can cut it short
    for budget in (0.0, 60.0):
        with pytest.raises(ValueError) as caught:
            max_k4free_multigraph(4, 3, budget=budget)
        assert str(caught.value) == "the exhaustive engine takes no budget"
    assert max_k4free_multigraph(4, 3, budget=None).complete


def test_bnb_deadline_before_the_first_leaf_reports_the_empty_state():
    rep = max_k4free_multigraph(4, 3, engine="bnb", budget=0)
    assert (rep.optimum, rep.complete, rep.witness) == (0, False, "mgraph 4 3\n")


@pytest.mark.parametrize("budget", [float("nan"), -1.0, -1e-9])
def test_branch_and_bound_engines_refuse_a_nan_or_negative_budget(budget):
    # a NaN deadline never passes, so it would run unbounded and report
    # complete; both engines refuse it, and the negatives
    runs = (
        lambda: max_k4free_multigraph(4, 3, engine="bnb", budget=budget),
        lambda: max_k4free_multigraph(5, 5, engine="bnb", budget=budget),
        lambda: max_l2_fano_free(8, budget=budget),
    )
    for run in runs:
        with pytest.raises(ValueError, match="budget must be a nonnegative number of seconds"):
            run()


def test_small_multigraph_turan_values():
    assert max_k4free_multigraph(4, 2, engine="bnb").optimum == 12
    assert max_k4free_multigraph(4, 3, engine="bnb").optimum == 15
    assert max_k4free_multigraph(4, 4, engine="bnb").optimum == 20
    exhaustive = max_k4free_multigraph(4, 3, engine="exhaustive")
    assert exhaustive.optimum == 15


def brute_max_s2(n, m):
    pairs = list(combinations(range(n), 2))
    best = -1
    for mask in range(1 << len(pairs)):
        if bin(mask).count("1") != m:
            continue
        g = SimpleGraph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
        best = max(best, g.star_count())
    return best


def test_s2_search_matches_brute_force_n5():
    for m in range(comb(5, 2) + 1):
        rep = max_s2_graph(5, m)
        assert rep.optimum == brute_max_s2(5, m)
        w = parse_graph(rep.witness)
        assert w.edge_count == m and w.star_count() == rep.optimum


def test_s2_quasi_agreement_rows():
    rows = s2_quasi_agreement(6)
    assert len(rows) == comb(6, 2) + 1
    for m, best, star, clique in rows:
        assert best == max(star, clique)


def test_s2_capacity_guard():
    with pytest.raises(ValueError):
        max_s2_graph(8, 3)
    with pytest.raises(ValueError):
        max_s2_graph(5, 11)
    with pytest.raises(ValueError, match="nonnegative"):
        max_s2_graph(-1, 0)


def oracle_star_table(n):
    # the per-edge-count selection loop the one-pass reduction replaced
    pairs = all_pairs(n)
    masks = np.arange(1 << len(pairs), dtype=np.uint32)
    stars = np.zeros(len(masks), dtype=np.uint16)
    for w in range(n):
        incidence = sum(1 << i for i, p in enumerate(pairs) if w in p)
        d = np.bitwise_count(masks & np.uint32(incidence)).astype(np.int64)
        stars += (d * (d - 1) // 2).astype(np.uint16)
    edge_counts = np.bitwise_count(masks)
    table = {}
    for m in range(len(pairs) + 1):
        sel = edge_counts == m
        vals = stars[sel]
        best = int(vals.max())
        table[m] = (best, int(masks[sel][int(np.argmax(vals == best))]))
    return table


def test_star_table_matches_the_per_edge_count_loop():
    search._graph_star_table.cache_clear()
    for n in range(8):
        data = search._graph_star_table(n)
        assert data["table"] == oracle_star_table(n)
        assert data["states"] == 2 ** comb(n, 2)


def test_packed_cross_term_is_the_degree_dot_product():
    # the top byte of PL[low] * PH[high] is sum_v dl_v * dh_v, with the
    # degrees counted here bit by bit: every (low, high) pair at n = 5, a
    # seeded sample of pairs at n = 7
    rng = random.Random(7)
    for n, sample in ((5, None), (7, 5000)):
        pairs = all_pairs(n)
        low_bits = len(pairs) // 2
        pl, _, _ = search._star_half(n, pairs, 0, low_bits, reverse=False)
        ph, _, _ = search._star_half(n, pairs, low_bits, len(pairs) - low_bits, reverse=True)
        if sample is None:
            lows = np.repeat(np.arange(len(pl)), len(ph))
            highs = np.tile(np.arange(len(ph)), len(pl))
        else:
            lows = np.array([rng.randrange(len(pl)) for _ in range(sample)])
            highs = np.array([rng.randrange(len(ph)) for _ in range(sample)])
        cross = pl[lows] * ph[highs] >> np.uint64(56)

        def degrees(mask):
            return [sum(mask >> i & 1 for i, p in enumerate(pairs) if v in p) for v in range(n)]

        expect = [
            sum(a * b for a, b in zip(degrees(int(low)), degrees(int(high) << low_bits)))
            for low, high in zip(lows, highs)
        ]
        assert cross.tolist() == expect
        assert max(expect) > 0


def test_aes_scan_small_values():
    a5 = aes_scan(5)
    assert (a5.nodes, a5.params["triangle_free"], a5.optimum) == (1024, 388, 0)
    assert a5.params["boundary_nonbipartite"] == 12  # the labeled pentagons
    a6 = aes_scan(6)
    assert (a6.nodes, a6.params["triangle_free"], a6.optimum) == (32768, 5789, 0)
    assert a6.params["above_threshold"] == 10  # the labeled 3,3 bipartite doublings
    with pytest.raises(ValueError):
        aes_scan(8)
    with pytest.raises(ValueError, match="nonnegative"):
        aes_scan(-1)


def test_aes_scan_matches_the_full_mask_oracle():
    for n in range(8):
        rep = aes_scan(n)
        optimum, nodes, params = aes_scan_oracle(n)
        assert (rep.optimum, rep.nodes) == (optimum, nodes)
        assert {k: rep.params[k] for k in params} == params


def test_graph_scans_hold_no_entry_per_graph():
    # the full-mask scans peaked at about 22 MB traced at n=7, and with
    # whole state blocks the four scans peaked at 2.30, 3.01, 1.19 and 1.48 MB
    search._graph_star_table.cache_clear()
    k4_census.cache_clear()
    for scan, bound_mb in (
        (lambda: aes_scan(7), 0.5),
        (lambda: bipartite_l2_scan(6), 0.5),
        (lambda: search._graph_star_table(7), 1),
        (lambda: k4_census(5), 1),
    ):
        tracemalloc.start()
        try:
            scan()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound_mb * 2**20


def test_scans_in_tiny_blocks_match_the_real_block_size(monkeypatch):
    # 2^8 states a block: bests that rise in a later block, hits split
    # across blocks, and maxima tied across row slices of the star table
    def reports():
        rows = [dataclasses.replace(aes_scan(n), elapsed=0.0) for n in range(8)]
        rows += [dataclasses.replace(bipartite_l2_scan(n), elapsed=0.0) for n in range(3, 7)]
        for n in (5, 6, 7):
            search._graph_star_table.cache_clear()
            rows.append(search._graph_star_table(n))
        return rows

    expect = reports()
    monkeypatch.setattr(search, "_BLOCK", 1 << 8)
    got = reports()
    search._graph_star_table.cache_clear()
    assert got == expect


def test_aes_and_bipartite_sizes_that_verify_runs_are_pinned():
    a7 = aes_scan(7)
    assert (a7.nodes, a7.optimum) == (2_097_152, 0)
    assert a7.params == {
        "triangle_free": 133_501,
        "above_threshold": 35,
        "boundary_nonbipartite": 9_600,
        "states_scanned": 383_634,
    }
    b6 = bipartite_l2_scan(6)
    assert (b6.optimum, b6.nodes) == (198, 3_610_624)
    assert b6.params == {
        "closed_value": 198,
        "maximizer_count": 10,
        "unique_up_to_iso": True,
        "blocks_scanned": 5,
        "states_scanned": 395_264,
    }
    # the first maximizer in edge order: parts {0, 4, 5} and {1, 2, 3}
    cross = [t for t in combinations(range(6), 3) if t not in ((0, 4, 5), (1, 2, 3))]
    assert b6.witness == write_3graph(Uniform3Graph(6, cross))


def graph_edges(pairs, mask):
    return [p for i, p in enumerate(pairs) if mask >> i & 1]


def test_two_colourable_matches_the_bfs_oracle():
    for n in range(6):
        pairs = all_pairs(n)
        masks = np.arange(1 << len(pairs), dtype=np.uint32)
        expect = [
            bipartition(SimpleGraph(n, graph_edges(pairs, m))) is not None
            for m in range(len(masks))
        ]
        assert search._two_colourable(n, pairs, masks).tolist() == expect
    pairs = all_pairs(7)
    sample = random.Random(11).sample(range(1 << len(pairs)), 2000)
    expect = [bipartition(SimpleGraph(7, graph_edges(pairs, m))) is not None for m in sample]
    got = search._two_colourable(7, pairs, np.array(sample, dtype=np.uint32)).tolist()
    assert got == expect
    assert 0 < sum(expect) < len(expect)


def test_fano_free_optima_small():
    for n, expect in ((3, 1), (4, 4), (5, 90), (6, 240)):
        rep = max_l2_fano_free(n)
        if n >= 5:
            assert rep.optimum == expect
        w = parse_3graph(rep.witness)
        assert contains_fano(w) is None
        assert w.lp_norm(2) == rep.optimum


def test_fano_free_search_at_seven_is_pinned():
    rep = max_l2_fano_free(7)
    assert (rep.optimum, rep.nodes, rep.complete) == (410, 1078, True)
    assert rep.params == {"bound_prunes": 4282}
    # K7 minus the five triples through the pair {0, 1}
    kept = [t for t in combinations(range(7), 3) if not {0, 1} <= set(t)]
    assert rep.witness == write_3graph(Uniform3Graph(7, kept))
    masks = [sum(1 << t for t in members) for members in search._fano_cover(7)[0]]
    assert len(set(masks)) == len(masks) == 30
    triples = list(combinations(range(7), 3))
    for mask in masks:
        assert mask.bit_count() == 7
        assert contains_fano(Uniform3Graph(7, graph_edges(triples, mask))) is not None


def test_fano_free_search_at_eight_is_pinned():
    # the first size at which the balanced bipartite host wins
    rep = max_l2_fano_free(8)
    assert (rep.optimum, rep.nodes, rep.complete) == (768, 127_365, True)
    assert rep.optimum == bn_l2_closed(8)
    assert rep.params == {"bound_prunes": 382_713}
    assert rep.witness == write_3graph(bipartite3(4, 4))
    assert is_bipartite3(parse_3graph(rep.witness)) == ((0, 1, 2, 3), (4, 5, 6, 7))


@pytest.mark.parametrize("n", [7, 8])
def test_fano_cover_agrees_with_the_copy_masks(n):
    # the search's uncovered-copy mask reads copy i's triples from copies[i]
    # and clears, for a deleted triple t, the copies in cover[t]; the copies
    # are the 7!/168 = 30 labelled planes of each 7-set, in strictly
    # ascending edge-mask order
    copies, cover = search._fano_cover(n)
    masks = [sum(1 << t for t in members) for members in copies]
    assert masks == sorted(set(masks))
    assert len(masks) == 30 * comb(n, 7)
    assert all(members == sorted(members) for members in copies)
    triples = list(combinations(range(n), 3))
    for members in copies:
        assert contains_fano(Uniform3Graph(n, [triples[t] for t in members])) is not None
    assert len(cover) == comb(n, 3)
    for t, copy_mask in enumerate(cover):
        assert copy_mask == sum(1 << i for i, f in enumerate(masks) if f >> t & 1)


def test_fano_free_search_range_guard():
    for n in (2, 9):
        with pytest.raises(ValueError, match=r"supported vertex counts are 3\.\.8"):
            max_l2_fano_free(n)


def test_fano_free_deadline_keeps_the_first_hitting_sets():
    # the deadline is read every 1,024 nodes, long after the first leaf
    rep = max_l2_fano_free(7, budget=0)
    assert (rep.optimum, rep.nodes, rep.complete) == (410, 1024, False)
    host = parse_3graph(rep.witness)
    assert contains_fano(host) is None
    assert host.lp_norm(2) == rep.optimum


def test_fano_free_small_hosts_are_complete():
    # below 7 vertices there is no copy of the plane to hit, so the search's
    # one node is the complete host: 3^2 per shadow pair at n=5, 4^2 at n=6,
    # which from n=5 on beats the balanced bipartite host
    from fano_l2.hypergraphs import complete3

    for n in range(3, 7):
        assert search._fano_cover(n) == ([], [0] * comb(n, 3))
        rep = max_l2_fano_free(n)
        assert (rep.engine, rep.nodes, rep.complete) == ("bnb", 1, True)
        assert rep.witness == write_3graph(complete3(n))
        assert rep.optimum == complete3(n).lp_norm(2)
        assert rep.optimum > bn_l2_closed(n) or n < 5


def test_canonical_form_identifies_relabelings():
    h = bipartite3(3, 2)
    relabeled = parse_3graph("3graph 5\n" + "".join(
        f"{a} {b} {c}\n" for a, b, c in sorted(
            tuple(sorted((4 - x, 4 - y, 4 - z))) for x, y, z in h.triples())))
    assert canonical_3graph(h) == canonical_3graph(relabeled)


def test_bipartite_scan_values():
    for n, norm, count in ((3, 3, 1), (4, 24, 1), (5, 75, 10)):
        rep = bipartite_l2_scan(n)
        assert rep.optimum == norm
        assert rep.params["closed_value"] == bn_l2_closed(n)
        assert rep.params["maximizer_count"] == count
        assert rep.params["unique_up_to_iso"]
        w = parse_3graph(rep.witness)
        assert w.lp_norm(2) == norm


def oracle_bipartite_scan(n):
    # every bipartition scanned as its own block, every maximizer canonised
    pairs = all_pairs(n)
    best, maximizers, states = -1, [], 0
    for part1, part2 in bipartitions(n):
        cross = [
            t
            for t in combinations(range(n), 3)
            if any(v in part1 for v in t) and any(v in part2 for v in t)
        ]
        if not cross:
            continue
        masks = np.arange(1 << len(cross), dtype=np.uint32)
        states += len(masks)
        norms = np.zeros(len(masks), dtype=np.int64)
        for u, v in pairs:
            pmask = sum(1 << i for i, t in enumerate(cross) if u in t and v in t)
            d = np.bitwise_count(masks & np.uint32(pmask)).astype(np.int64)
            norms += d * d
        block_best = int(norms.max())
        if block_best < best:
            continue
        hit = [
            tuple(t for i, t in enumerate(cross) if mask >> i & 1)
            for mask in masks[norms == block_best]
        ]
        if block_best > best:
            best, maximizers = block_best, hit
        else:
            maximizers.extend(hit)
    maximizers = sorted(set(maximizers))
    canon = {canonical_3graph(Uniform3Graph(n, h)) for h in maximizers}
    balanced = canonical_3graph(bipartite3((n + 1) // 2, n // 2))
    witness = write_3graph(Uniform3Graph(n, maximizers[0]))
    return best, witness, states, len(maximizers), canon == {balanced}


def test_bipartite_scan_matches_the_every_bipartition_oracle():
    for n in range(3, 7):
        rep = bipartite_l2_scan(n)
        got = (rep.optimum, rep.witness, rep.nodes, rep.params["maximizer_count"],
               rep.params["unique_up_to_iso"])
        assert got == oracle_bipartite_scan(n)
        assert rep.params["blocks_scanned"] == n - 1
        assert rep.params["states_scanned"] == sum(
            2 ** (comb(n, 3) - comb(a, 3) - comb(n - a, 3)) for a in range(1, n)
        )


def test_bipartite_scan_revalidates_its_witness(monkeypatch):
    # a relabelling that drops a triple maps every hit to a graph below the
    # optimum, so the witness must be refused, not written
    relabel = search._relabel
    monkeypatch.setattr(search, "_relabel", lambda triples, perm: relabel(triples, perm)[1:])
    with pytest.raises(AssertionError, match="bipartite witness failed revalidation"):
        bipartite_l2_scan(5)


def test_only_balanced_splits_reach_the_host_edge_count():
    # the lemma unique_up_to_iso rests on: the crossing triples of the split
    # (a, n - a) number the balanced host's edges at a balanced a and fewer
    # at any other
    for n in range(3, 61):
        size = balanced_bipartite3(n).edge_count
        for a in range(1, n):
            crossing = comb(n, 3) - comb(a, 3) - comb(n - a, 3)
            if a in (n // 2, (n + 1) // 2):
                assert crossing == size
            else:
                assert crossing < size


def test_bipartite_scan_is_pinned_without_canonical_forms():
    # uniqueness is decided by the hits' edge counts, so the package holds no
    # canonical form; the oracle scan above still canonises every maximizer
    expect = {
        3: (3, 6, {"closed_value": 3, "maximizer_count": 1, "unique_up_to_iso": True,
                   "blocks_scanned": 2, "states_scanned": 4}),
        4: (24, 80, {"closed_value": 24, "maximizer_count": 1, "unique_up_to_iso": True,
                     "blocks_scanned": 3, "states_scanned": 32}),
        5: (75, 5440, {"closed_value": 75, "maximizer_count": 10, "unique_up_to_iso": True,
                       "blocks_scanned": 4, "states_scanned": 1152}),
        6: (198, 3_610_624, {"closed_value": 198, "maximizer_count": 10, "unique_up_to_iso": True,
                             "blocks_scanned": 5, "states_scanned": 395_264}),
    }
    for n, (optimum, nodes, params) in expect.items():
        rep = bipartite_l2_scan(n)
        assert (rep.optimum, rep.nodes, rep.params) == (optimum, nodes, params)
    assert not hasattr(search, "canonical_3graph")


def test_bipartite_scan_range_guard():
    # below 3 vertices no triple crosses a bipartition; above 6 the scan
    # outgrows memory
    for n in (0, 1, 2, 7):
        with pytest.raises(ValueError, match="3..6"):
            bipartite_l2_scan(n)


def test_bipartite_formulas_match_constructions():
    for a in range(1, 6):
        for b in range(1, 6):
            h = bipartite3(a, b)
            assert h.lp_norm(2) == bipartite_norm_formula(a, b)
            assert h.count_stars() == bipartite_s2_formula(a, b)


def test_random_sub_multigraph_is_contained(rng):
    mg = bipartite_construction_5(8)
    for _ in range(20):
        sub = random_sub_multigraph(mg, rng, keep_prob=0.5)
        assert sub.n == mg.n and sub.m == mg.m
        for u in range(8):
            for v in range(u + 1, 8):
                assert sub.mask(u, v) & ~mg.mask(u, v) == 0
