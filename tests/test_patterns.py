import random
import time
import tracemalloc
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from fano_l2.hypergraphs import (
    Uniform3Graph,
    balanced_bipartite3,
    bipartite3,
    complete3,
    random_3graph,
)
from fano_l2.formats import parse_3graph, write_3graph
from fano_l2.multigraphs import K4Witness, contains_k4
from fano_l2.patterns import (
    BIPARTITENESS_CAP,
    FANO_EDGES,
    _complete_plane,
    _first_plane,
    _plane_rows,
    _plane_search,
    contains_fano,
    contains_k53,
    edge_link_multigraph,
    is_bipartite3,
    link_triple_violation,
)

from helpers import (
    contains_pattern,
    fano_plane,
    has_edge,
    link,
    link_matching_violation,
    verify_k4_witness,
)


def brute_force_fano(host):
    """Reference search: try all vertex injections of the 7-point plane."""
    lines = fano_plane().triples()
    if host.n < 7:
        return False
    for image in permutations(range(host.n), 7):
        if all(has_edge(host, image[a], image[b], image[c]) for a, b, c in lines):
            return True
    return False


def test_fano_plane_is_a_linear_space():
    f = fano_plane()
    assert f.n == 7 and f.edge_count == 7
    assert f.degrees() == (3,) * 7
    for u, v in combinations(range(7), 2):
        assert f.codegree(u, v) == 1


def test_fano_detection_endpoints():
    assert contains_fano(fano_plane()) is not None
    assert contains_fano(complete3(7)) is not None
    assert contains_fano(complete3(6)) is None
    for n in range(3, 13):
        assert contains_fano(bipartite3((n + 1) // 2, n // 2)) is None


def random_host(seed):
    """A host on 7..10 vertices at a density from sparse (plane-free) to
    dense (plane found early)."""
    rng = random.Random(seed)
    return random_3graph(rng.randint(7, 10), rng.choice((0.2, 0.35, 0.5, 0.65, 0.8)), rng)


@given(st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_fano_witness_matches_generic_embedder(seed):
    host = random_host(seed)
    assert contains_fano(host) == contains_pattern(host, fano_plane())


def link_edge_scan(host):
    """Reference for `link_triple_violation`: the three-matching detector on
    the stacked links of every edge in turn."""
    return next(
        (
            (edge, w)
            for edge in host.triples()
            if (w := contains_k4(edge_link_multigraph(host, edge))) is not None
        ),
        None,
    )


@given(st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_link_triple_violation_matches_edge_scan(seed):
    host = random_host(seed)
    found = link_triple_violation(host)
    assert found == link_edge_scan(host)
    image = contains_fano(host)
    # the cache holds the embedding itself, a tuple or None
    assert _plane_search(host) is image
    assert (found is None) == (image is None)
    assert found is None or image[:3] == found[0]


def plane_below_a_free_prefix(seed):
    """A plane on the top 7 labels of 9..12 vertices, under random crossing
    triples of a bipartition that each have a vertex below those 7. The
    crossing triples come first in `triples()` order and hold no plane by
    themselves, so the plane scan often drops dozens of them before its
    first hit; with the plane's lines they sometimes close an earlier
    plane."""
    rng = random.Random(seed)
    n = rng.randint(9, 12)
    first = set(rng.sample(range(n), rng.randint(3, n - 3)))
    keep = rng.uniform(0.2, 0.6)
    prefix = [
        t
        for t in combinations(range(n), 3)
        if t[0] < n - 7 and 0 < len(first & set(t)) < 3 and rng.random() < keep
    ]
    plane = {tuple(sorted(n - 7 + x for x in line)) for line in FANO_EDGES}
    return Uniform3Graph(n, sorted(set(prefix) | plane))


@given(st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_pruned_plane_scan_matches_the_oracles(seed):
    host = plane_below_a_free_prefix(seed)
    image = contains_fano(host)
    assert image == contains_pattern(host, fano_plane())
    found = link_edge_scan(host)
    assert link_triple_violation(host) == found
    assert found is None or image[:3] == found[0]


def test_plane_scan_drops_the_edges_it_passes():
    # bipartite3(4, 4) on 0..7 and a plane on 8..14: every bipartite edge
    # comes before the plane's first line and lies on no plane, so the scan
    # drops them all and the table keeps the plane's 21 pairs alone
    lines = [tuple(sorted(8 + x for x in line)) for line in FANO_EDGES]
    host = Uniform3Graph(15, list(bipartite3(4, 4).triples()) + lines)
    rows = _plane_rows(host)
    image = _first_plane(host, rows)
    assert image[:3] == (8, 9, 10)
    kept = {(u, v): ws for u, row in rows.items() for v, ws in row.items()}
    assert kept == {(u, v): {w} for line in lines for u, v, w in permutations(line)}
    assert all(ws is rows[v][u] for (u, v), ws in kept.items())
    assert image == contains_fano(host) == contains_pattern(host, fano_plane())


def plane_table_entries(host):
    """{(u, v): thirds} over the edges whose three vertices have degree at
    least 3, both orders of each pair."""
    degree = host.degrees()
    entries = {}
    for t in host.triples():
        if min(degree[x] for x in t) >= 3:
            for u, v, w in permutations(t):
                entries.setdefault((u, v), set()).add(w)
    return entries


def test_plane_table_holds_one_shared_set_per_pair_of_an_entered_edge():
    rng = random.Random(39)
    hosts = [random_3graph(n, p, rng) for n in range(7, 15) for p in (0.1, 0.3, 0.6)]
    hosts.append(Uniform3Graph(41, [(0, 2 * i + 1, 2 * i + 2) for i in range(20)]))
    for host in hosts:
        rows = _plane_rows(host)
        assert rows.keys() == {v for v, d in enumerate(host.degrees()) if d >= 3}
        entries = {(u, v): ws for u, row in rows.items() for v, ws in row.items()}
        assert entries == plane_table_entries(host)
        # the scan's deletions reach both rows of a pair through this sharing
        assert all(ws is rows[v][u] for (u, v), ws in entries.items())


def test_every_fano_line_shares_four_row_keys_and_completes():
    rows = _plane_rows(fano_plane())
    for a, b, c in FANO_EDGES:
        assert rows[a].keys() & rows[b].keys() & rows[c].keys() == set(range(7)) - {a, b, c}
        assert _complete_plane(rows[a], rows[b], rows[c]) is not None


class _Unwalked(dict):
    """A table row whose walk fails the test."""

    def __getitem__(self, key):
        raise AssertionError("the search walked a row the reject should have spared")


def test_an_edge_whose_rows_share_three_keys_is_rejected_before_any_walk():
    # the plane with line (2, 5, 6) moved to (2, 6, 7); 7 sits on a K4^3 with
    # 8, 9 and 10, and (5, 8, 9) keeps 5 at degree 3, so every edge is in
    # the table and the rows of 0, 1 and 2 share only 3, 4 and 6
    lines = [line for line in FANO_EDGES if sorted(line) != [2, 5, 6]]
    host = Uniform3Graph(11, [*lines, (2, 6, 7), (5, 8, 9), *combinations(range(7, 11), 3)])
    rows = _plane_rows(host)
    assert rows[0].keys() & rows[1].keys() & rows[2].keys() == {3, 4, 6}
    assert _complete_plane(rows[0], rows[1], _Unwalked(rows[2])) is None


def test_the_check_path_builds_no_codegree_or_incidence_table():
    rng = random.Random(24)
    for host in (balanced_bipartite3(10), complete3(8), random_3graph(11, 0.3, rng)):
        parsed = parse_3graph(write_3graph(host))
        _plane_search.cache_clear()
        contains_fano(parsed)
        is_bipartite3(parsed)
        assert not {"_codegree", "_links"} & vars(parsed).keys()


def test_plane_search_follows_the_host_it_is_given():
    hosts = [complete3(8), bipartite3(3, 4), violating_spoke_host()]
    images = [contains_pattern(h, fano_plane()) for h in hosts]
    scans = [link_edge_scan(h) for h in hosts]
    assert images[1] is None and None not in (images[0], images[2])
    for i, a in enumerate(hosts):
        for j, b in enumerate(hosts):
            if i != j:
                assert contains_fano(a) == images[i]
                assert link_triple_violation(b) == scans[j]
                assert link_triple_violation(a) == scans[i]
                assert contains_fano(b) == images[j]


def test_equal_hosts_share_one_plane_search():
    edges = violating_spoke_host().triples()
    host, twin = Uniform3Graph(7, edges), Uniform3Graph(7, list(reversed(edges)))
    assert host == twin and host is not twin
    _plane_search.cache_clear()
    image = contains_fano(host)
    assert link_triple_violation(twin) == link_edge_scan(host)
    assert contains_fano(twin) == image == (0, 1, 2, 3, 5, 6, 4)
    assert _plane_search.cache_info()[:2] == (2, 1)  # hits, misses


def test_plane_witnesses_are_pinned():
    assert contains_fano(complete3(8)) == (0, 1, 2, 3, 4, 5, 6)
    assert contains_fano(violating_spoke_host()) == (0, 1, 2, 3, 5, 6, 4)
    assert link_triple_violation(fano_plane()) == (
        (0, 1, 2),
        K4Witness((3, 4, 5, 6), (3, 2, 1)),
    )


def test_plane_search_on_a_large_sparse_host_stays_small():
    # a plane on the last 7 of 65,536 vertices, below it a tight cycle on
    # 2048 vertices (every vertex of degree 3, no plane): a table sized by
    # vertex labels would take about 37 MB, a dense n-by-n one gigabytes
    n, k = 65536, 2048
    base = n - 7 - k
    cycle = [tuple(sorted(base + (i + d) % k for d in range(3))) for i in range(k)]
    plane = [tuple(n - 7 + x for x in line) for line in fano_plane().triples()]
    host, free = Uniform3Graph(n, cycle + plane), Uniform3Graph(n, cycle)
    tracemalloc.start()
    try:
        image = contains_fano(host)
        violation = link_triple_violation(free)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert image == tuple(range(n - 7, n))
    assert violation is None
    assert peak < 4 << 20


def test_link_scan_on_a_large_host_holding_one_plane_is_fast():
    # the stacked links of a plane line on 65,536 vertices colour pairs of the
    # plane's other four vertices only, so the pattern scan never walks C(n, 4)
    n = 65536
    host = Uniform3Graph(n, [tuple(n - 7 + x for x in line) for line in fano_plane().triples()])
    start = time.perf_counter()
    edge, witness = link_triple_violation(host)
    assert time.perf_counter() - start < 1.0
    assert edge == (n - 7, n - 6, n - 5)
    assert witness.vertices == tuple(range(n - 4, n))


def test_fano_witness_is_an_embedding():
    host = complete3(8)
    image = contains_fano(host)
    assert image is not None and len(set(image)) == 7
    for a, b, c in fano_plane().triples():
        assert has_edge(host, image[a], image[b], image[c])


@given(st.integers(0, 10**9))
@settings(max_examples=15, deadline=None)
def test_fano_detection_matches_brute_force(seed):
    rng = random.Random(seed)
    host = random_3graph(7, 0.82, rng)
    assert (contains_fano(host) is not None) == brute_force_fano(host)


@given(st.integers(0, 10**9))
@settings(max_examples=20, deadline=None)
def test_fano_detection_is_relabeling_invariant(seed):
    rng = random.Random(seed)
    host = random_3graph(7, 0.8, rng)
    relabel = list(range(7))
    rng.shuffle(relabel)
    moved = Uniform3Graph(7, [tuple(relabel[x] for x in t) for t in host.triples()])
    assert (contains_fano(host) is None) == (contains_fano(moved) is None)


@given(st.integers(0, 10**9))
@settings(max_examples=20, deadline=None)
def test_fano_detection_monotone_under_edge_addition(seed):
    rng = random.Random(seed)
    host = random_3graph(7, 0.8, rng)
    if contains_fano(host) is None:
        return
    extra = [t for t in combinations(range(7), 3) if not has_edge(host, *t)]
    grown = Uniform3Graph(7, host.triples() + tuple(extra[: len(extra) // 2]))
    assert contains_fano(grown) is not None


def test_k53_detection():
    assert contains_k53(complete3(5)) == (0, 1, 2, 3, 4)
    assert contains_k53(complete3(4)) is None
    assert contains_k53(bipartite3(4, 4)) is None
    assert contains_k53(complete3(6)) == (0, 1, 2, 3, 4)


def test_k53_walk_sorts_rows_that_fill_out_of_key_order():
    # the one-pass fill meets (0, 1, 5) before (0, 2, 3), so row 0 holds key 5
    # ahead of 2, 3, 4 and 6: a walk in row order reaches the clique on
    # {0, 5, 7, 8, 9} first, the lexicographically first one is on
    # {0, 2, 3, 4, 6}; (1, 2, 7) and (1, 3, 8) keep vertex 1 at degree 3
    host = Uniform3Graph(
        10,
        [
            (0, 1, 5),
            (1, 2, 7),
            (1, 3, 8),
            *combinations((0, 2, 3, 4, 6), 3),
            *combinations((0, 5, 7, 8, 9), 3),
        ],
    )
    assert contains_k53(host) == contains_pattern(host, complete3(5)) == (0, 2, 3, 4, 6)


@given(st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_k53_witness_matches_generic_embedder(seed):
    rng = random.Random(seed)
    host = random_3graph(rng.randint(5, 10), rng.choice((0.5, 0.8, 0.95)), rng)
    assert contains_k53(host) == contains_pattern(host, complete3(5))


def test_k53_search_on_a_large_sparse_host_stays_small():
    # a clique on the last 5 of 65,536 vertices, below it a tight cycle on
    # 2048 vertices (every vertex of degree 3, so in the table, and no clique)
    n, k = 65536, 2048
    base = n - 5 - k
    cycle = [tuple(sorted(base + (i + d) % k for d in range(3))) for i in range(k)]
    host = Uniform3Graph(n, cycle + list(combinations(range(n - 5, n), 3)))
    tracemalloc.start()
    try:
        image = contains_k53(host)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert image == tuple(range(n - 5, n))
    assert peak < 4 << 20


def test_k53_search_on_a_bipartite_host_is_fast():
    # the generic embedder grows about as n^5 here: 3.3 s already at n = 18
    host = balanced_bipartite3(40)
    start = time.perf_counter()
    assert contains_k53(host) is None
    assert time.perf_counter() - start < 1.0
    tracemalloc.start()
    try:
        contains_k53(host)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_plane_table_leaves_out_vertices_of_low_degree():
    # a sunflower of 30,000 triples: vertex 0 on every one, every other
    # vertex of degree 1; without the degree filter the table holds every
    # edge, and each kernel took over a second and about 54 MB
    host = Uniform3Graph(60_001, [(0, 2 * i + 1, 2 * i + 2) for i in range(30_000)])
    for kernel in (contains_fano, contains_k53):
        _plane_search.cache_clear()
        tracemalloc.start()
        try:
            start = time.perf_counter()
            assert kernel(host) is None
            seconds = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seconds < 0.5
        assert peak < 1 << 20


def test_bipartite_recognition():
    for a, b in ((1, 2), (2, 2), (3, 3), (4, 3)):
        parts = is_bipartite3(bipartite3(a, b))
        assert parts is not None
        p1, p2 = parts
        for t in bipartite3(a, b).triples():
            assert not set(t) <= set(p1) and not set(t) <= set(p2)
    assert is_bipartite3(complete3(4)) is not None
    assert is_bipartite3(complete3(5)) is None
    with pytest.raises(ValueError):
        is_bipartite3(Uniform3Graph(BIPARTITENESS_CAP + 1, []))


def test_bipartite_recognition_at_the_cap():
    assert BIPARTITENESS_CAP == 30
    host = bipartite3(15, 15)
    parts = is_bipartite3(host)
    assert parts == (tuple(range(15)), tuple(range(15, 30)))
    for t in host.triples():
        assert not set(t) <= set(parts[0]) and not set(t) <= set(parts[1])
    with pytest.raises(ValueError):
        is_bipartite3(bipartite3(16, 15))


def first_bipartition(host):
    """Reference: the first proper 2-colouring in lexicographic order of the
    colour vector, vertex 0 in the first part, as (first part, second part)."""
    n = host.n
    for rest in product((0, 1), repeat=max(n - 1, 0)):
        side = (0, *rest)[:n]
        if all(len({side[v] for v in t}) == 2 for t in host.triples()):
            return (
                tuple(v for v in range(n) if side[v] == 0),
                tuple(v for v in range(n) if side[v] == 1),
            )
    return None


def test_bipartite_recognition_matches_the_first_colouring():
    rng = random.Random(17)
    hosts = [complete3(5)] + [
        random_3graph(n, p, rng)
        for n in range(1, 15)
        for p in (0.05, 0.15, 0.3, 0.5)
        for _ in range(4)
    ]
    found = 0
    for host in hosts:
        expect = first_bipartition(host)
        assert is_bipartite3(host) == expect
        found += expect is not None
    assert 0 < found < len(hosts)


def test_bipartite_recognition_colours_each_component_alone():
    # a K5^3 on the top five vertices above 25 isolated ones: the isolated
    # vertices' 2^25 colourings are never walked
    k = BIPARTITENESS_CAP - 5
    host = Uniform3Graph(k + 5, list(combinations(range(k, k + 5), 3)))
    start = time.perf_counter()
    assert is_bipartite3(host) is None
    assert time.perf_counter() - start < 0.1
    assert is_bipartite3(Uniform3Graph(0, [])) == ((), ())
    rng = random.Random(29)
    found = []
    for n in range(6, 15):
        # two random components on shuffled labels, plus two isolated vertices
        labels = rng.sample(range(n), n)
        for p in (0.3, 0.6, 0.9):
            edges = [
                tuple(sorted(t)) for part in (labels[: n // 2], labels[n // 2 : -2])
                for t in combinations(part, 3) if rng.random() < p
            ]
            host = Uniform3Graph(n, edges)
            expect = first_bipartition(host)
            assert is_bipartite3(host) == expect
            found.append(expect is not None)
    assert any(found) and not all(found)


def grown_plane_free_host(n, rng):
    """The last bipartite and the first non-bipartite plane-free host met
    while growing one, as the benchmark's free hosts grow: random crossing
    triples of a bipartition, then triples inside a part in random order,
    each kept only if no plane appears."""
    first = set(rng.sample(range(n), rng.randint(3, n - 3)))
    keep = rng.uniform(0.15, 0.45)
    while True:
        edges = [
            t for t in combinations(range(n), 3)
            if 0 < len(first & set(t)) < 3 and rng.random() < keep
        ]
        inside = [t for t in combinations(range(n), 3) if len(first & set(t)) in (0, 3)]
        rng.shuffle(inside)
        before = Uniform3Graph(n, edges)
        for t in inside:
            grown = Uniform3Graph(n, edges + [t])
            if contains_fano(grown) is not None:
                continue
            if first_bipartition(grown) is None:
                return before, grown
            edges.append(t)
            before = grown
        keep = min(1.0, keep + 0.05)  # sparse hosts stay bipartite


def test_bipartite_recognition_on_grown_plane_free_hosts():
    rng = random.Random(23)
    for n in (7, 8, 9, 10, 11, 12) * 2:
        before, grown = grown_plane_free_host(n, rng)
        assert is_bipartite3(before) == first_bipartition(before) is not None
        assert is_bipartite3(grown) is None


def violating_spoke_host():
    # three spokes through vertex 0 and all eight triples crossing the three
    # spoke ends: every branch of the matching extends to the 7-point plane
    spokes = [(0, 1, 2), (0, 3, 4), (0, 5, 6)]
    crossing = [(a, b, c) for a, b, c in product((1, 2), (3, 4), (5, 6))]
    return Uniform3Graph(7, spokes + crossing)


def test_link_matching_violation_fires_on_spoke_host():
    host = violating_spoke_host()
    found = link_matching_violation(host, 0)
    assert found == ((1, 2), (3, 4), (5, 6))
    assert contains_fano(host) is not None


def test_link_matching_clean_on_bipartite():
    for n in (6, 8, 10):
        h = bipartite3((n + 1) // 2, n // 2)
        assert all(link_matching_violation(h, v) is None for v in range(n))


def test_edge_link_multigraph_layers():
    h = complete3(5)
    mg = edge_link_multigraph(h, (0, 1, 2))
    assert mg.n == 5 and mg.m == 3
    assert "_links" not in vars(h)
    # layer i is the link of the i-th edge vertex
    for i, v in enumerate((0, 1, 2)):
        assert tuple(pair for pair, mask in mg.pairs() if mask >> i & 1) == link(h, v).edges()
    with pytest.raises(ValueError):
        edge_link_multigraph(h, (0, 1, 1))


def test_link_triple_violation_endpoints():
    hit = link_triple_violation(complete3(7))
    assert hit is not None
    edge, w = hit
    assert verify_k4_witness(edge_link_multigraph(complete3(7), edge), w)
    for n in (6, 8, 10):
        assert link_triple_violation(bipartite3((n + 1) // 2, n // 2)) is None


def test_link_triple_violation_on_spoke_host():
    host = violating_spoke_host()
    hit = link_triple_violation(host)
    assert hit is not None
    assert "_links" not in vars(host)
