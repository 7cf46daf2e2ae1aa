"""The benchmark's brute-force oracles against the program on small hosts.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import random
from itertools import combinations

from fano_l2 import Uniform3Graph, contains_fano, is_bipartite3, parse_3graph

from checks import has_three_matching, is_plane, parse_mgraph
from hosts import PLANE_LINES, has_plane, is_bipartite, make_hosts


def _random_host(rng, n):
    density = rng.uniform(0.3, 0.95)
    return {t for t in combinations(range(n), 3) if rng.random() < density}


def test_plane_oracle_matches_contains_fano_on_random_hosts():
    rng = random.Random(20251017)
    answers = set()
    for _ in range(60):
        n = rng.randint(7, 9)
        edges = _random_host(rng, n)
        found = contains_fano(Uniform3Graph(n, edges)) is not None
        assert has_plane(n, edges) == found
        answers.add(found)
    assert answers == {True, False}


def test_bipartite_oracle_matches_is_bipartite3():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(4, 9)
        edges = {t for t in combinations(range(n), 3) if rng.random() < 0.25}
        assert is_bipartite(n, edges) == (is_bipartite3(Uniform3Graph(n, edges)) is not None)


def test_generated_hosts_are_labelled_correctly():
    hosts = make_hosts(5, free=24, planted=12)
    assert hosts == make_hosts(5, free=24, planted=12)
    assert sorted(h["n"] for h in hosts) == sorted([*range(7, 13)] * 6)
    for h in hosts:
        host = parse_3graph(h["text"])
        assert h["plane"] == (h["cls"] == "planted")
        assert (contains_fano(host) is not None) == h["plane"]
        if not h["plane"]:
            assert (is_bipartite3(host) is not None) == h["bipartite"]
    free = [h for h in hosts if h["cls"] == "free"]
    assert sum(h["bipartite"] for h in free) == len(free) // 2


def test_plane_lines_and_three_matching_oracle():
    assert is_plane(PLANE_LINES)
    assert not is_plane(PLANE_LINES[:6] + ((0, 1, 2),))
    # the 4-vertex optimum 25 for five layers is pattern-free; adding any
    # colour to its split matching creates the pattern
    n, m, masks = parse_mgraph("mgraph 4 5\n0 1 1\n0 2 1,2,3,4,5\n0 3 1,2,3,4,5\n"
                               "1 2 1,2,3,4,5\n1 3 1,2,3,4,5\n2 3 2,3,4,5\n")
    assert sum(mask.bit_count() for mask in masks.values()) == 25
    assert not has_three_matching(n, masks)
    masks[(0, 1)] |= 0b10
    assert has_three_matching(n, masks)
