from itertools import combinations
from math import comb

import pytest
from hypothesis import given, strategies as st

from fano_l2.graphs import (
    SimpleGraph,
    all_pairs,
    bipartitions,
    clique_plus_isolated,
    complete_minus_clique,
    complete_split_plus_isolated,
    quasi_complete,
    quasi_star,
)

from helpers import bipartition


@st.composite
def small_graphs(draw, n_min=1, n_max=8):
    n = draw(st.integers(n_min, n_max))
    pairs = all_pairs(n)
    edges = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs), unique=True)) if pairs else []
    return SimpleGraph(n, edges)


def test_basic_structure():
    g = SimpleGraph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.edge_count == 3
    assert g.degrees() == (1, 2, 2, 1)
    assert SimpleGraph(4, [(1, 0), (3, 2), (2, 1)]).edges() == g.edges() == ((0, 1), (1, 2), (2, 3))


def test_bipartition_order():
    # vertex 0 pinned; the other part ascends as a bitmask over 1..n-1
    assert list(bipartitions(3)) == [
        ((0, 1, 2), ()),
        ((0, 2), (1,)),
        ((0, 1), (2,)),
        ((0,), (1, 2)),
    ]
    assert list(bipartitions(0)) == [((), ())]
    assert len(list(bipartitions(6))) == 32


@given(small_graphs())
def test_star_count_matches_degree_binomials(g):
    assert g.star_count() == sum(comb(d, 2) for d in g.degrees())


@given(small_graphs())
def test_complement_involution(g):
    assert g.complement().complement() == g
    assert g.edge_count + g.complement().edge_count == comb(g.n, 2)


def test_triangle_and_bipartition():
    tri = SimpleGraph(4, [(0, 1), (0, 2), (1, 2)])
    assert bipartition(tri) is None
    even_cycle = SimpleGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    parts = bipartition(even_cycle)
    assert parts is not None and set(parts[0]) == {0, 2}
    odd_cycle = SimpleGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert bipartition(odd_cycle) is None


def test_construction_edge_counts():
    assert clique_plus_isolated(7, 3).edge_count == 3
    assert complete_minus_clique(7, 3).edge_count == comb(7, 2) - comb(3, 2)
    assert complete_split_plus_isolated(10, 2, 3).edge_count == 9
    # the independent part really is independent
    s = complete_minus_clique(6, 4)
    assert not any(v < 4 for _, v in s.edges())


@given(st.integers(2, 8), st.integers(0, 28))
def test_quasi_families_are_complements(n, m):
    if m > comb(n, 2):
        m = comb(n, 2)
    qs = quasi_star(n, m)
    qc = quasi_complete(n, comb(n, 2) - m)
    assert qs.edge_count == m
    assert qs == qc.complement()


def test_quasi_star_exact_two_edge_stars():
    # brute check on n=5: dominating vertices added one edge at a time
    for m in range(comb(5, 2) + 1):
        g = quasi_star(5, m)
        assert g.edge_count == m
        assert g.star_count() == sum(comb(d, 2) for d in g.degrees())


@pytest.mark.parametrize(
    "n, edges, message",
    [
        (-1, [], "vertex count must be nonnegative, got -1"),
        (3, [(0, 3)], "edge (0,3) outside vertex range 0..2"),
        (3, [(1, 1)], "loop at vertex 1"),
        (3, [(0, 1), (1, 0)], "duplicate edge (0, 1)"),
    ],
)
def test_invalid_simple_graphs_are_rejected(n, edges, message):
    with pytest.raises(ValueError) as caught:
        SimpleGraph(n, edges)
    assert str(caught.value) == message


def test_bad_parameters_rejected():
    with pytest.raises(ValueError):
        clique_plus_isolated(3, 4)
    with pytest.raises(ValueError):
        complete_split_plus_isolated(4, 3, 2)
    with pytest.raises(ValueError):
        quasi_complete(4, 7)
