import inspect
import random
import time
import tracemalloc
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, strategies as st

from fano_l2 import verify
from fano_l2.graphs import SimpleGraph
from fano_l2.hypergraphs import (
    Uniform3Graph,
    balanced_bipartite3,
    bipartite3,
    bn_l2_closed,
    bn_min_l2_degree,
    complete3,
    random_3graph,
)

from helpers import has_edge, link, star_participation_oracle, two_edge_stars, uniform3_fields_oracle


@st.composite
def small_3graphs(draw, n_min=3, n_max=9):
    n = draw(st.integers(n_min, n_max))
    pool = list(combinations(range(n), 3))
    triples = draw(st.lists(st.sampled_from(pool), max_size=len(pool), unique=True))
    return Uniform3Graph(n, triples)


def test_basic_queries():
    h = Uniform3Graph(5, [(0, 1, 2), (0, 1, 3), (2, 3, 4)])
    assert h.edge_count == 3
    assert has_edge(h, 3, 1, 0)
    assert not has_edge(h, 0, 1, 4)
    assert h.codegree(0, 1) == 2
    assert h.degree(0) == 2
    assert h.degrees() == (2, 2, 2, 2, 1)
    shadow = {(u, v) for u, v in combinations(range(5), 2) if h.codegree(u, v)}
    assert shadow == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)}
    assert link(h, 0).edges() == ((1, 2), (1, 3))


def test_degree_and_star_counts_take_no_exponent_or_size():
    # the 2-norm degree and the two-edge star count are the only ones the
    # paper uses, so neither method takes p or a star size
    assert list(inspect.signature(Uniform3Graph.l2_degree_expanded).parameters) == ["self", "v"]
    assert list(inspect.signature(Uniform3Graph.count_stars).parameters) == ["self"]
    assert list(inspect.signature(SimpleGraph.star_count).parameters) == ["self"]


def test_rejects_degenerate_triples():
    with pytest.raises(ValueError):
        Uniform3Graph(4, [(0, 0, 1)])
    with pytest.raises(ValueError):
        Uniform3Graph(3, [(0, 1, 3)])


@given(small_3graphs())
def test_l1_norm_is_three_times_edges(h):
    assert h.lp_norm(1) == 3 * h.edge_count


@given(small_3graphs())
def test_l2_norm_via_star_count(h):
    # codegree-squared sum equals twice the two-edge stars plus the edge contribution
    assert h.lp_norm(2) == 2 * h.count_stars() + 3 * h.edge_count


@given(small_3graphs())
def test_three_l2_degree_routes_agree(h):
    norm2 = h.lp_norm(2)
    for v in range(h.n):
        expanded = h.l2_degree_expanded(v)
        assert norm2 - h.remove_vertex(v).lp_norm(2) == expanded
        assert 2 * h.star_degree(v) + 3 * h.degree(v) == expanded


@given(small_3graphs())
def test_star_participation_counts_every_star(h):
    counted = verify._star_participation(h)
    nonzero = tuple({key: c for key, c in counts.items() if c} for counts in counted)
    assert nonzero == star_participation_oracle(h)
    per_edge, per_vertex, _ = counted
    assert set(per_edge) == set(h.triples()) and set(per_vertex) == set(range(h.n))


@given(small_3graphs())
def test_l2_degree_sum_identity(h):
    total = sum(h.l2_degree_expanded(v) for v in range(h.n))
    assert total == 4 * h.lp_norm(2) - h.lp_norm(1)


@given(small_3graphs())
def test_two_edge_stars_enumeration_consistent(h):
    stars = list(two_edge_stars(h))
    assert len(stars) == h.count_stars()
    for (u, v), t1, t2 in stars:
        assert t1 < t2
        assert has_edge(h, u, v, t1) and has_edge(h, u, v, t2)


def test_complete3_norms():
    k = complete3(7)
    assert k.edge_count == comb(7, 3)
    assert all(k.codegree(u, v) == 5 for u, v in combinations(range(7), 2))
    assert k.lp_norm(2) == comb(7, 2) * 25


def test_bipartite3_structure():
    b = bipartite3(3, 3)
    # every triple meets both sides
    for a, b2, c in b.triples():
        sides = {x < 3 for x in (a, b2, c)}
        assert sides == {True, False}
    assert b.edge_count == comb(6, 3) - 2 * comb(3, 3)


@pytest.mark.parametrize("n", range(3, 41))
def test_balanced_bipartite_closed_norm(n):
    h = balanced_bipartite3(n)
    assert h.lp_norm(2) == bn_l2_closed(n)
    assert min(h.l2_degree_expanded(v) for v in range(n)) == bn_min_l2_degree(n)


def test_bipartite3_lists_the_crossing_triples_in_order():
    for a in range(13):
        for b in range(13):
            expected = [t for t in combinations(range(a + b), 3) if t[0] < a <= t[2]]
            h = bipartite3(a, b)
            assert h.n == a + b and list(h.triples()) == expected
            if a == 0 or b == 0:
                assert h.edge_count == 0


def test_small_closed_norm_values():
    assert bn_l2_closed(4) == 24
    assert bn_l2_closed(5) == 75


@pytest.mark.parametrize(
    "build", [bn_l2_closed, bn_min_l2_degree, complete3, balanced_bipartite3]
)
def test_negative_vertex_counts_are_rejected(build):
    for n in (-1, -3):
        with pytest.raises(ValueError, match=rf"^vertex count must be nonnegative, got {n}$"):
            build(n)


def test_negative_part_sizes_are_rejected():
    with pytest.raises(ValueError, match=r"^part sizes must be nonnegative$"):
        bipartite3(-1, 2)


def test_zero_and_one_vertex_values():
    assert (bn_l2_closed(0), bn_l2_closed(1)) == (0, 0)
    assert (bn_min_l2_degree(0), bn_min_l2_degree(1)) == (0, 0)
    for n in (0, 1):
        assert (complete3(n).n, complete3(n).edge_count) == (n, 0)
        assert (balanced_bipartite3(n).n, balanced_bipartite3(n).edge_count) == (n, 0)


def test_remove_vertex_relabels():
    h = Uniform3Graph(5, [(0, 1, 2), (1, 2, 4), (2, 3, 4)])
    g = h.remove_vertex(1)
    assert g.n == 4
    assert g.triples() == ((1, 2, 3),)


def test_remove_vertex_matches_the_per_triple_shift():
    for h in verify._identity_pool(0):
        for v in range(h.n):
            kept = [tuple(x if x < v else x - 1 for x in t) for t in h.triples() if v not in t]
            assert h.remove_vertex(v) == Uniform3Graph(h.n - 1, kept)


def test_remove_vertex_rejects_a_vertex_outside_the_range():
    h = Uniform3Graph(4, [(0, 1, 2)])
    for v in (-1, 4, 9):
        with pytest.raises(ValueError, match=rf"^vertex {v} outside range$"):
            h.remove_vertex(v)


def test_random_3graph_edge_prob_extremes(rng):
    assert random_3graph(6, 0.0, rng).edge_count == 0
    assert random_3graph(6, 1.0, rng).edge_count == comb(6, 3)
    h = random_3graph(8, 0.5, random.Random(7))
    assert 0 < h.edge_count < comb(8, 3)


def _seeded_edge_list(seed):
    """An edge list in one of the shapes callers pass (sorted tuples, shuffled
    tuples, lists), malformed by one bad entry for some seeds, and whether
    to pass it as a one-shot iterator."""
    rng = random.Random(seed)
    n = rng.randrange(0, 12)
    triples = [list(t) for t in combinations(range(n), 3) if rng.random() < 0.4]
    rng.shuffle(triples)
    for t in triples:
        if rng.random() < 0.5:
            rng.shuffle(t)
    bad = seed % 6
    if bad == 1:
        triples.insert(rng.randrange(len(triples) + 1), [0, 1])  # wrong length
    elif bad == 2:
        triples.insert(rng.randrange(len(triples) + 1), [2, 0, 2])  # repeated vertex
    elif bad == 3:
        triples.append(rng.choice(([0, 1, n], [-1, 0, 1])))  # out of range
    elif bad == 4 and triples:
        triples.append(triples[rng.randrange(len(triples))][::-1])  # duplicate
    shape = rng.randrange(3)
    if shape == 0:
        triples = sorted(map(tuple, map(sorted, triples)))
    elif shape == 1:
        triples = list(map(tuple, triples))
    return n, triples, rng.random() < 0.25


@pytest.mark.parametrize("seed", range(120))
def test_constructor_matches_the_per_triple_oracle(seed):
    n, triples, one_shot = _seeded_edge_list(seed)
    given = iter(triples) if one_shot else triples
    try:
        expected = uniform3_fields_oracle(n, triples)
    except ValueError as exc:
        with pytest.raises(ValueError) as caught:
            Uniform3Graph(n, given)
        assert str(caught.value) == str(exc)
        return
    h = Uniform3Graph(n, given)
    assert h._triples == expected["_triples"]
    _assert_codegree_table(h, expected)
    assert h._links == expected["_links"]
    assert h._degree == expected["_degree"]


def _assert_codegree_table(h, expected):
    # the table lists the covered pairs in ascending order, as tuples of
    # Python ints mapped to Python ints, so norms stay exact at any p
    table = list(h._codegree.items())
    assert table == sorted(expected["_codegree"].items())
    assert all(type(pair) is tuple and type(d) is int for pair, d in table)
    assert all(type(u) is int and type(v) is int for (u, v), _ in table)


def test_codegree_table_matches_the_oracle_on_the_verify_hosts():
    hosts = [H for seed in range(3) for H in verify._identity_pool(seed)]
    hosts += [balanced_bipartite3(n) for n in range(3, 41)]
    for h in hosts:
        _assert_codegree_table(h, uniform3_fields_oracle(h.n, h.triples()))


def test_codegree_table_of_a_wide_sparse_host_is_not_sized_by_n_squared():
    # counting in an n*n table would take 33 MB at n = 2,048 and 34 GB at
    # 65,536 (the widest host the parser accepts); the smaller host comes
    # first, so a count sized by n*n fails there
    triples = [(0, 1, 2), (0, 1, 2047), (5, 1000, 2047), (1, 2, 2047)]
    for n in (2048, 65_536):
        h = Uniform3Graph(n, triples + [(0, 2, n - 1), (3, n - 2, n - 1)])
        tracemalloc.start()
        try:
            h._codegree
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2e6
        _assert_codegree_table(h, uniform3_fields_oracle(n, h.triples()))


def test_high_norm_exponents_stay_exact():
    # 28^25 is about 1.6e36, far past int64
    h = complete3(30)
    expected = uniform3_fields_oracle(30, h.triples())["_codegree"]
    assert h.lp_norm(25) == sum(d**25 for d in expected.values()) == comb(30, 2) * 28**25


def test_codegree_and_incidence_tables_are_built_on_first_read():
    rng = random.Random(24)
    triples = [t for t in combinations(range(9), 3) if rng.random() < 0.4]
    expected = uniform3_fields_oracle(9, triples)
    h = Uniform3Graph(9, triples)
    assert "_codegree" not in vars(h) and "_links" not in vars(h)
    assert h.degrees() == expected["_degree"]
    assert h.lp_norm(2) == sum(d * d for d in expected["_codegree"].values())
    assert "_codegree" in vars(h) and "_links" not in vars(h)
    h.star_degree(0)
    assert "_links" in vars(h)
    _assert_codegree_table(h, expected)
    assert h._links == expected["_links"]


def test_constructor_traced_peak_stays_within_the_per_triple_build():
    # the per-triple build, which made a second copy of every input
    # triple, peaked at 2.18 MB under Python 3.11
    balanced_bipartite3(40)
    tracemalloc.start()
    try:
        balanced_bipartite3(40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.23e6


def test_l2_degree_routes_read_only_the_vertex_triples():
    # 5,000 triples on 20,000 vertices: a scan of every covered pair for each
    # vertex took about 3 ms a vertex, a minute for the whole host
    rng = random.Random(20)
    n = 20_000
    triples = set()
    while len(triples) < 5_000:
        triples.add(tuple(sorted(rng.sample(range(n), 3))))
    h = Uniform3Graph(n, triples)
    start = time.perf_counter()
    expanded = [h.l2_degree_expanded(v) for v in range(n)]
    stars = [h.star_degree(v) for v in range(n)]
    assert time.perf_counter() - start < 2.0
    assert sum(expanded) == 4 * h.lp_norm(2) - h.lp_norm(1)
    assert all(2 * s + 3 * h.degree(v) == e for v, (s, e) in enumerate(zip(stars, expanded)))
