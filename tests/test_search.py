import dataclasses
import random
from itertools import combinations
from math import comb

import pytest

from fano_l2 import search
from fano_l2.formats import parse_3graph, parse_graph, parse_mgraph, write_mgraph
from fano_l2.graphs import SimpleGraph
from fano_l2.hypergraphs import bipartite3, bn_l2_closed
from fano_l2.multigraphs import bipartite_construction_5, contains_k4, turan_layers_5
from fano_l2.patterns import contains_fano
from fano_l2.search import (
    aes_scan,
    bipartite_l2_scan,
    bipartite_norm_formula,
    bipartite_s2_formula,
    canonical_3graph,
    complete_bipartite_argmax,
    k4_census,
    max_k4free_multigraph,
    max_l2_fano_free,
    max_s2_graph,
    random_sub_multigraph,
    s2_quasi_agreement,
)


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


def full_census(m):
    # the oracle: every outer block scanned once, at weight 1
    return search._census_report(m, [(block, 1) for block in range(4**m)])


def census_fields(rep):
    fields = dataclasses.asdict(rep)
    del fields["elapsed"], fields["blocks"]
    return fields


def test_orbit_census_matches_full_scan():
    for m in (1, 2, 3, 4):
        fast, full = k4_census(m), full_census(m)
        assert (fast.blocks, full.blocks) == (comb(m + 3, 3), 4**m)
        assert census_fields(fast) == census_fields(full)


def test_block_orbits_are_the_layer_relabelling_classes():
    # group every block by (|a1 & b1|, |a1 - b1|, |b1 - a1|): one entry per
    # class, at its smallest block, weighted by the class size
    for m in range(1, 6):
        classes: dict = {}
        for block in range(4**m):
            a1, b1 = divmod(block, 1 << m)
            key = ((a1 & b1).bit_count(), (a1 & ~b1).bit_count(), (b1 & ~a1).bit_count())
            classes.setdefault(key, []).append(block)
        orbits = search._block_orbits(m)
        assert sum(weight for _, weight in orbits) == 4**m
        assert orbits == sorted((min(c), len(c)) for c in classes.values())


def test_census_m5_witness_is_pinned():
    rep = k4_census(5)
    assert rep.blocks == 56
    assert rep.witness == write_mgraph(
        search._state_to_multigraph(5, (0, 31, 31, 31, 31, 31))
    )
    assert rep.witness == (
        "mgraph 4 5\n"
        "0 2 1,2,3,4,5\n"
        "0 3 1,2,3,4,5\n"
        "1 2 1,2,3,4,5\n"
        "1 3 1,2,3,4,5\n"
        "2 3 1,2,3,4,5\n"
    )


def test_census_layer_range_guard():
    # m=6 would allocate tables of 2^24 entries each; the guard fires first
    for m in (0, 6):
        with pytest.raises(ValueError, match="1..5"):
            k4_census(m)


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
    assert (rep.optimum, rep.nodes, rep.complete) == (32, 58114, True)
    # every candidate trial ends in exactly one of the four outcomes
    assert rep.params == {
        "capacity_prunes": 1577,
        "pattern_prunes": 28254,
        "bound_prunes": 13345,
        "descents": 14938,
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
    # at (5,5) no leaf beats the identical-layer seed, so it stays the witness
    rep = max_k4free_multigraph(5, 5, engine="bnb")
    assert (rep.optimum, rep.complete) == (40, True)
    assert rep.witness == write_mgraph(turan_layers_5(5))


def test_bnb_deadline_before_the_first_leaf_reports_the_empty_state():
    rep = max_k4free_multigraph(4, 3, engine="bnb", budget=0)
    assert (rep.optimum, rep.complete, rep.witness) == (0, False, "mgraph 4 3\n")


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
        best = max(best, g.star_count(2))
    return best


def test_s2_search_matches_brute_force_n5():
    for m in range(comb(5, 2) + 1):
        rep = max_s2_graph(5, m)
        assert rep.optimum == brute_max_s2(5, m)
        w = parse_graph(rep.witness)
        assert w.edge_count == m and w.star_count(2) == rep.optimum


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


def test_aes_scan_small_values():
    a5 = aes_scan(5)
    assert (a5.nodes, a5.params["triangle_free"], a5.optimum) == (1024, 388, 0)
    assert a5.params["boundary_nonbipartite"] == 12  # the labeled pentagons
    a6 = aes_scan(6)
    assert (a6.nodes, a6.params["triangle_free"], a6.optimum) == (32768, 5789, 0)
    assert a6.params["above_threshold"] == 10  # the labeled 3,3 bipartite doublings
    with pytest.raises(ValueError):
        aes_scan(8)


def test_fano_free_optima_small():
    for n, expect in ((3, 1), (4, 4), (5, 90), (6, 240)):
        rep = max_l2_fano_free(n)
        if n >= 5:
            assert rep.optimum == expect
        w = parse_3graph(rep.witness)
        assert contains_fano(w) is None
        assert w.lp_norm(2) == rep.optimum


def test_fano_free_small_hosts_are_complete():
    # below 7 vertices nothing can carry the 7-point plane, so the complete
    # host wins: 3^2 per shadow pair at n=5, 4^2 at n=6
    from fano_l2.hypergraphs import complete3

    for n in (5, 6):
        rep = max_l2_fano_free(n)
        assert rep.optimum == complete3(n).lp_norm(2)
        assert rep.optimum > bn_l2_closed(n)


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
            assert h.count_stars(2) == bipartite_s2_formula(a, b)


def test_balanced_split_wins():
    for n in (5, 8, 13, 20):
        rep = complete_bipartite_argmax(n)
        assert rep.balanced_wins_norm and rep.balanced_wins_s2
        assert set(rep.norm_argmax) == {n // 2, (n + 1) // 2}
        assert set(rep.s2_argmax) == {n // 2, (n + 1) // 2}


def test_random_sub_multigraph_is_contained(rng):
    mg = bipartite_construction_5(8)
    for _ in range(20):
        sub = random_sub_multigraph(mg, rng, keep_prob=0.5)
        assert sub.n == mg.n and sub.m == mg.m
        for u in range(8):
            for v in range(u + 1, 8):
                assert sub.mask(u, v) & ~mg.mask(u, v) == 0
