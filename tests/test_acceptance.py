"""One test per acceptance criterion, each emitting a PASS/FAIL/SKIP line.

Budgets are wall-clock ceilings, not targets; every exact claim is asserted
with zero tolerance and every decimal claim with the stated 5e-6.
"""

import random
from fractions import Fraction
from math import comb

import pytest

from fano_l2.bounds import (
    ak_s2_bound,
    core_size_bound,
    extremal_density_stats,
    rational_identity_checks,
)
from fano_l2.formats import parse_3graph
from fano_l2.hypergraphs import (
    balanced_bipartite3,
    bn_l2_closed,
    bn_min_l2_degree,
    complete3,
    random_3graph,
)
from fano_l2.multigraphs import (
    bipartite_construction_5,
    extract_dense_core,
    is_k4_free,
    turan_layers_5,
)
from fano_l2.patterns import (
    contains_fano,
    link_matching_check,
    link_triple_violation,
)
from fano_l2.search import (
    aes_scan,
    bipartite_l2_scan,
    k4_census,
    max_k4free_multigraph,
    max_l2_fano_free,
    random_sub_multigraph,
    s2_quasi_agreement,
)
from fano_l2.verify import DECIMAL_TOLERANCE, _decimal_checks


def test_criterion_01_census_five_layers(acceptance_line):
    rep = k4_census(5)
    ok = (
        rep.states == 32**6
        and rep.k4_free == 683278578
        and rep.max_size == 25
        and rep.max_count == 96
        and rep.clause_i_violations == 0
        and rep.clause_iii_violations == 0
        and rep.clause_iv_violations == 0
        and rep.clause_v_violations == 0
    )
    acceptance_line(
        1,
        ok,
        f"5-layer 4-vertex census: max size {rep.max_size} with {rep.max_count} "
        f"maximizers, all structural clauses clean ({rep.elapsed:.0f}s)",
    )
    assert ok


def test_criterion_02_census_four_layers(acceptance_line):
    rep = k4_census(4)
    ok = rep.states == 16**6 and rep.max_size == 20 and rep.max_count == 48
    acceptance_line(
        2,
        ok,
        f"4-layer 4-vertex exhaustive maximum {rep.max_size} ({rep.elapsed:.1f}s)",
    )
    assert ok


def test_criterion_03_five_vertex_stretch(acceptance_line):
    rep = max_k4free_multigraph(5, 5, engine="bnb", budget=600)
    if not rep.complete:
        acceptance_line(
            3,
            None,
            f"5-vertex 5-layer branch and bound hit the 600s budget "
            f"after {rep.nodes} nodes (best so far {rep.optimum})",
        )
        pytest.skip("branch and bound budget exhausted before completion")
    ok = rep.optimum == 40
    acceptance_line(
        3,
        ok,
        f"5-vertex 5-layer maximum {rep.optimum} proven optimal in "
        f"{rep.nodes} nodes ({rep.elapsed:.0f}s)",
    )
    assert ok


def test_criterion_04_construction_sizes(acceptance_line):
    ok = True
    for n in range(2, 11):
        bc = bipartite_construction_5(n)
        ok = ok and bc.size == 2 * comb(n, 2) + 3 * (n * n // 4) and is_k4_free(bc)
    for n in range(3, 11):
        tl = turan_layers_5(n)
        ok = ok and tl.size == 5 * (n * n // 3) and is_k4_free(tl)
    tie = bipartite_construction_5(12).size == turan_layers_5(12).size == 240
    lead = (bipartite_construction_5(13).size, turan_layers_5(13).size) == (282, 280)
    ok = ok and tie and lead
    acceptance_line(
        4,
        ok,
        "both 5-layer constructions pattern-free with stated sizes; "
        "tie 240 at n=12, bipartite leads 282:280 at n=13",
    )
    assert ok


def test_criterion_05_closed_norm_formula(acceptance_line):
    ok = all(
        balanced_bipartite3(n).lp_norm(2) == bn_l2_closed(n) for n in range(3, 41)
    )
    ok = ok and bn_l2_closed(4) == 24 and bn_l2_closed(5) == 75
    acceptance_line(
        5, ok, "closed squared-norm formula exact for 3 <= n <= 40; 24 and 75 at 4, 5"
    )
    assert ok


def test_criterion_06_bipartite_extremality(acceptance_line):
    ok = True
    counts = []
    for n in (4, 5, 6):
        rep = bipartite_l2_scan(n)
        counts.append(rep.params["maximizer_count"])
        ok = ok and rep.optimum == bn_l2_closed(n) and rep.params["unique_up_to_iso"]
    acceptance_line(
        6,
        ok,
        f"bipartite maxima at n=4,5,6 all equal the closed value with a unique "
        f"isomorphism class ({counts} labeled maximizers)",
    )
    assert ok


def test_criterion_07_identity_suite(acceptance_line):
    rng = random.Random(20260819)
    checked = 0
    ok = True
    for i in range(500):
        n = 4 + i % 9
        H = random_3graph(n, (0.15, 0.3, 0.5, 0.7)[i % 4], rng)
        norm2 = H.lp_norm(2)
        ok = ok and norm2 == 2 * H.count_stars(2) + 3 * H.edge_count
        total = 0
        for v in range(n):
            expanded = H.l2_degree_expanded(v)
            definitional = norm2 - H.remove_vertex(v).lp_norm(2)
            ok = ok and expanded == definitional
            ok = ok and 2 * H.star_degree(v) + 3 * H.degree(v) == expanded
            total += expanded
        ok = ok and total == 4 * norm2 - 3 * H.edge_count
        sub = type(H)(n, [t for t in H.triples() if rng.random() < 0.7])
        ok = ok and norm2 - sub.lp_norm(2) <= 6 * n * (H.edge_count - sub.edge_count)
        per_edge: dict = {}
        per_vertex = [0] * n
        per_pair: dict = {}
        for (u, v), a, b in H.two_edge_stars():
            e1, e2 = tuple(sorted((u, v, a))), tuple(sorted((u, v, b)))
            for e in (e1, e2):
                per_edge[e] = per_edge.get(e, 0) + 1
            for w in set(e1) | set(e2):
                per_vertex[w] += 1
            for q in {
                tuple(sorted(p)) for e in (e1, e2)
                for p in ((e[0], e[1]), (e[0], e[2]), (e[1], e[2]))
            }:
                per_pair[q] = per_pair.get(q, 0) + 1
        ok = ok and max(per_edge.values(), default=0) <= 3 * (n - 3)
        ok = ok and max(per_vertex, default=0) <= 24 * comb(n - 1, 3)
        ok = ok and max(per_pair.values(), default=0) <= 24 * comb(n - 2, 2)
        checked += 1
        if not ok:
            break
    acceptance_line(
        7,
        ok,
        f"norm, degree-route, degree-sum, deletion and participation "
        f"identities exact on {checked} seeded 3-graphs",
    )
    assert ok


def test_criterion_08_pinned_decimals(acceptance_line):
    rows = _decimal_checks()
    worst = max(abs(measured - expected) for _, measured, expected in rows)
    ok = len(rows) == 11 and worst <= DECIMAL_TOLERANCE
    acceptance_line(
        8,
        ok,
        f"all 11 pinned decimals reproduced, worst deviation {worst:.2e} <= 5e-6",
    )
    assert ok


def test_criterion_09_exact_rational_checks(acceptance_line):
    rep = rational_identity_checks(scan_limit=10**6)
    ok = (
        rep.identity_exact
        and rep.exceeds_61_34
        and rep.combined_value == Fraction(5154779, 2872915)
        and rep.g_step_holds_from_30
        and rep.g_step_largest_failing == 29
    )
    acceptance_line(
        9,
        ok,
        "combined degree density equals 5154779/2872915 > 61/34; size step "
        "beats 44m/13 for every m in 30..10^6",
    )
    assert ok


def test_criterion_10_density_envelopes(acceptance_line):
    norm_ok = True
    degree_ok = True
    for n in (100, 1000, 10000):
        stats = extremal_density_stats(n)
        norm_ok = norm_ok and abs(stats.norm_ratio - 5 / 16) <= 1.2 / n
        degree_ok = degree_ok and abs(stats.min_degree_ratio - 5 / 4) <= 3 / n
    ok = norm_ok and degree_ok
    acceptance_line(
        10,
        ok,
        "norm ratio within 1.2/n of 5/16"
        + (
            "; min-degree ratio within 3/n of 5/4"
            if degree_ok
            else "; min-degree ratio misses the stated 3/n envelope "
            "(true gap is (39n-38)/(8n^2) ~ 4.875/n)"
        ),
    )
    if norm_ok and not degree_ok:
        pytest.xfail(
            "the min-degree deviation from 5/4 is exactly (39n-38)/(8n^2), "
            "about 4.875/n, so no n can satisfy the stated 3/n envelope"
        )
    assert ok


def test_min_degree_true_envelope():
    # companion to the failing clause above: the attainable envelope
    for n in (100, 1000, 10000):
        assert abs(bn_min_l2_degree(n) / n**3 - 5 / 4) <= 5 / n


def test_criterion_11_two_edge_star_oracle(acceptance_line):
    rows = s2_quasi_agreement(7)
    exact_ok = all(best == max(star, clique) for _, best, star, clique in rows)
    bound_ok = all(
        ak_s2_bound(m / 49).value >= best / 343 - 2 / 7 for m, best, _, _ in rows
    )
    ok = exact_ok and len(rows) == 22 and bound_ok
    acceptance_line(
        11,
        ok,
        "exhaustive 7-vertex star maxima equal the better of the two "
        "extremal families for all 22 edge counts; analytic bound clears "
        "every density by the 2/n margin",
    )
    assert ok


def test_criterion_12_triangle_free_bipartiteness(acceptance_line):
    ok = True
    scanned = 0
    for n in range(3, 8):
        rep = aes_scan(n)
        scanned += rep.nodes
        ok = ok and rep.optimum == 0
    acceptance_line(
        12,
        ok,
        f"no triangle-free graph with minimum degree above 2n/5 is "
        f"non-bipartite across {scanned} states, n <= 7",
    )
    assert ok


def test_criterion_13_peeling_contract(acceptance_line):
    rng = random.Random(20260819)
    beta = Fraction(3)
    degree_ok = True
    size_ok = True
    bounded = 0
    for i in range(100):
        n = 10 + i % 7
        keep = (0.9, 0.97, 1.0)[i % 3]  # mix light and near-full samples
        sub = random_sub_multigraph(bipartite_construction_5(n), rng, keep_prob=keep)
        core = extract_dense_core(sub, beta)
        if core:
            inside = sub.induced(core)
            degree_ok = degree_ok and Fraction(inside.min_degree()) >= beta * len(core)
        if sub.size >= beta * comb(n + 1, 2):
            bounded += 1
            size_ok = size_ok and len(core) >= core_size_bound(sub.size, n, beta)
    spot = extract_dense_core(bipartite_construction_5(12), Fraction(10, 3))
    size_ok = size_ok and len(spot) >= core_size_bound(
        bipartite_construction_5(12).size, 12, Fraction(10, 3)
    )
    ok = degree_ok and size_ok
    acceptance_line(
        13,
        ok,
        f"dense-core degree guarantee exact on 100 seeded sub-multigraphs; "
        f"size bound verified on the {bounded} heavy cases plus a 10/3 spot check",
    )
    assert ok


def test_criterion_14_fano_basics(acceptance_line):
    free_ok = all(contains_fano(balanced_bipartite3(n)) is None for n in range(3, 13))
    found_ok = contains_fano(complete3(7)) is not None
    optima_ok = (
        max_l2_fano_free(5).optimum == 90 and max_l2_fano_free(6).optimum == 240
    )
    ok = free_ok and found_ok and optima_ok
    acceptance_line(
        14,
        ok,
        "balanced bipartite hosts plane-free through n=12, complete 7-vertex "
        "host carries it, plane-free optima 90 and 240 at n=5,6",
    )
    assert ok


def test_criterion_15_link_validators(acceptance_line):
    ok = True
    for n in range(3, 11):
        h = balanced_bipartite3(n)
        ok = ok and all(link_matching_check(h, v) for v in range(n))
        ok = ok and link_triple_violation(h) is None
    witnesses = [parse_3graph(max_l2_fano_free(n).witness) for n in (5, 6, 7)]
    witnesses += [parse_3graph(bipartite_l2_scan(n).witness) for n in (4, 5, 6)]
    for w in witnesses:
        ok = ok and contains_fano(w) is None
        ok = ok and all(link_matching_check(w, v) for v in range(w.n))
        ok = ok and link_triple_violation(w) is None
    acceptance_line(
        15,
        ok,
        f"link matching and stacked-link validators clean on balanced "
        f"bipartite hosts through n=10 and on {len(witnesses)} search witnesses",
    )
    assert ok
