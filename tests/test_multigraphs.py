import random
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from fano_l2.bounds import g_pairs_plus_bipartite
from fano_l2.multigraphs import (
    MATCHINGS,
    PARTITION_SEARCH_CAP,
    K4Witness,
    MMultigraph,
    bipartite_construction_5,
    contains_k4,
    find_nice_partition,
    is_certificate_valid,
    saturated_family_4,
    turan_layers_5,
)

from helpers import contains_k4_oracle, extract_dense_core, min_degree_inside, verify_k4_witness


def random_multigraph(n, m, rng, keep=0.6):
    masks = {}
    for u in range(n):
        for v in range(u + 1, n):
            mask = rng.getrandbits(m) if rng.random() < keep else 0
            if mask:
                masks[(u, v)] = mask
    return MMultigraph.from_masks(n, m, masks)


def test_constructor_validation():
    for bad in ({(0, 3): 1}, {(1, 1): 1}, {(-1, 2): 1}):
        with pytest.raises(ValueError, match="invalid pair"):
            MMultigraph.from_masks(3, 5, bad)
    with pytest.raises(ValueError, match="listed twice"):
        MMultigraph.from_masks(3, 5, {(0, 1): 0b1, (1, 0): 0b10})
    with pytest.raises(ValueError, match="beyond 5"):
        MMultigraph.from_masks(3, 5, {(0, 1): 0b100000})
    with pytest.raises(ValueError):
        MMultigraph(-1, 5)
    with pytest.raises(ValueError):
        MMultigraph(3, 0)


def test_access_and_layers():
    mg = MMultigraph.from_masks(4, 5, {(0, 1): 0b101, (3, 2): 0b10000, (1, 2): 0b10})
    assert mg.mask(1, 0) == 0b101
    assert mg.colors(0, 1) == (1, 3)
    assert mg.colors(2, 3) == (5,)
    assert mg.colors(0, 3) == ()
    assert mg.multiplicity(0, 1) == 2
    assert mg.size == 4
    assert mg.degrees() == (2, 3, 2, 1)
    assert mg.min_degree() == 1
    assert list(mg.pairs()) == [((0, 1), 0b101), ((1, 2), 0b10), ((2, 3), 0b10000)]


def test_turan_layers_k4_free_and_size():
    for n in range(3, 11):
        tl = turan_layers_5(n)
        assert tl.size == 5 * (n * n // 3)
        assert contains_k4(tl) is None


def test_bipartite_construction_size_and_k4():
    for n in range(2, 11):
        bc = bipartite_construction_5(n)
        assert bc.size == 2 * comb(n, 2) + 3 * (n * n // 4)
        assert contains_k4(bc) is None


def test_saturated_family_size_and_freeness():
    family = saturated_family_4()
    assert len(family) == 96
    assert len(set(family)) == 96
    for member in family:
        assert member.size == 25
        assert contains_k4(member) is None


def test_adding_any_pair_to_saturated_member_creates_k4():
    # saturation: each member is maximal among K4-free 4-vertex multigraphs
    for member in saturated_family_4()[:8]:
        for u in range(4):
            for v in range(u + 1, 4):
                free = (~member.mask(u, v)) & 0b11111
                if not free:
                    continue
                layer = free.bit_length()
                masks = {p: w for p, w in member.pairs()}
                masks[(u, v)] = member.mask(u, v) | (1 << (layer - 1))
                grown = MMultigraph.from_masks(4, 5, masks)
                w = contains_k4(grown)
                assert w is not None
                assert verify_k4_witness(grown, w)


def test_k4_witness_on_full_quad():
    full = MMultigraph.from_masks(4, 5, {(u, v): 0b11111 for u in range(4) for v in range(u + 1, 4)})
    w = contains_k4(full)
    assert w is not None
    assert verify_k4_witness(full, w)
    assert set(w.vertices) == {0, 1, 2, 3}


@given(st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_k4_detection_monotone_under_deletion(seed):
    rng = random.Random(seed)
    mg = random_multigraph(5, 5, rng, keep=0.8)
    sub_masks = {}
    for pair, mask in mg.pairs():
        kept = mask & rng.getrandbits(5)
        if kept:
            sub_masks[pair] = kept
    sub = MMultigraph.from_masks(5, 5, sub_masks)
    if contains_k4(sub) is not None:
        assert contains_k4(mg) is not None


@given(st.integers(0, 10**9))
@settings(max_examples=30, deadline=None)
def test_witnesses_revalidate(seed):
    rng = random.Random(seed)
    mg = random_multigraph(6, 5, rng, keep=0.7)
    w = contains_k4(mg)
    if w is not None:
        assert verify_k4_witness(mg, w)
        assert len(set(w.vertices)) == 4


@given(st.integers(0, 10**9))
@settings(max_examples=150, deadline=None)
def test_k4_witness_matches_the_plain_scan(seed):
    # some vertices stay uncoloured and some layers unused, the parts of the
    # host that the detector skips
    rng = random.Random(seed)
    n, m = rng.randrange(4, 9), rng.randrange(3, 7)
    live = [v for v in range(n) if rng.random() < 0.8]
    layers = rng.getrandbits(m) | rng.getrandbits(m)
    keep = rng.choice((0.3, 0.6, 0.9))
    masks = {}
    for u, v in combinations(live, 2):
        mask = (rng.getrandbits(m) | rng.getrandbits(m)) & layers
        if mask and rng.random() < keep:
            masks[(u, v)] = mask
    mg = MMultigraph.from_masks(n, m, masks)
    assert contains_k4(mg) == contains_k4_oracle(mg)


@given(st.integers(0, 10**9))
@settings(max_examples=150, deadline=None)
def test_k4_witness_matches_the_plain_scan_on_dense_hosts_in_high_layers(seed):
    # nearly every pair coloured, with the colours confined to the top layers
    # and sometimes a pattern planted in the top three, so most quads are
    # support 4-cliques and the smallest triple sits among high layers
    rng = random.Random(seed)
    n, m = rng.randrange(4, 9), rng.randrange(3, 10)
    window = ((1 << m) - 1) & ~((1 << rng.randrange(0, m - 2)) - 1)
    keep = rng.choice((0.9, 1.0))
    masks = {}
    for u, v in combinations(range(n), 2):
        mask = (rng.getrandbits(m) | rng.getrandbits(m)) & window
        if mask and rng.random() < keep:
            masks[(u, v)] = mask
    if rng.random() < 0.5:
        quad = sorted(rng.sample(range(n), 4))
        for t, matching in enumerate(MATCHINGS):
            for i, j in matching:
                pair = (quad[i], quad[j])
                masks[pair] = masks.get(pair, 0) | 1 << (m - 3 + t)
    mg = MMultigraph.from_masks(n, m, masks)
    assert contains_k4(mg) == contains_k4_oracle(mg)


def test_k4_scan_skips_uncoloured_vertices_and_unused_layers():
    # a pattern on the top four of 65,536 vertices in layers 65534..65536:
    # neither the vertex count nor the layer count is walked
    top = 1 << 16
    quad = tuple(range(top - 4, top))
    masks = {}
    for t, ((i1, j1), (i2, j2)) in enumerate(MATCHINGS):
        for a, b in ((i1, j1), (i2, j2)):
            masks[(quad[a], quad[b])] = 1 << (top - 3 + t)
    start = time.perf_counter()
    assert contains_k4(MMultigraph(4, top)) is None
    assert contains_k4(MMultigraph(top, top)) is None
    assert contains_k4(MMultigraph.from_masks(top, top, masks)) == K4Witness(
        quad, (top - 2, top - 1, top)
    )
    assert time.perf_counter() - start < 1.0


def test_partitions_on_constructions():
    bc = bipartite_construction_5(6)
    nice = find_nice_partition(bc)
    assert nice is not None
    assert is_certificate_valid(bc, nice)
    # the first certificate under the fixed enumeration order
    assert (nice.part1, nice.part2, nice.layer_roles) == ((0, 1, 2), (3, 4, 5), (1, 2, 3, 4, 5))
    # all five layers live on every crossing pair of the 3-partite stack, so no
    # bipartition can silence three of them on one side
    tl = turan_layers_5(6)
    assert find_nice_partition(tl) is None


def test_partition_search_cap():
    with pytest.raises(ValueError, match="search cap"):
        find_nice_partition(MMultigraph(PARTITION_SEARCH_CAP + 1, 5))


def test_certificate_tampering_detected():
    bc = bipartite_construction_5(6)
    cert = find_nice_partition(bc)
    swapped = type(cert)(cert.part2, cert.part1, cert.layer_roles)
    assert not is_certificate_valid(bc, swapped)
    bad_roles = type(cert)(cert.part1, cert.part2, (5, 4, 3, 2, 1))
    assert not is_certificate_valid(bc, bad_roles)


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_size_bound_holds_for_nicely_partitioned_subgraphs(seed):
    rng = random.Random(seed)
    n = rng.randrange(4, 8)
    bc = bipartite_construction_5(n)
    sub_masks = {}
    for pair, mask in bc.pairs():
        kept = mask & rng.getrandbits(5)
        if kept:
            sub_masks[pair] = kept
    sub = MMultigraph.from_masks(n, 5, sub_masks)
    assert sub.size <= g_pairs_plus_bipartite(n)


def test_peeling_keeps_construction_when_degree_clears_threshold():
    beta = Fraction(10, 3)
    assert extract_dense_core(bipartite_construction_5(12), beta) == tuple(range(12))
    assert extract_dense_core(bipartite_construction_5(13), beta) == tuple(range(1, 13))
    # one notch tighter and the cascade clears everything
    assert extract_dense_core(bipartite_construction_5(12), Fraction(58, 17)) == ()
    assert extract_dense_core(bipartite_construction_5(10), beta) == ()


def test_peeling_rejects_out_of_range_beta():
    with pytest.raises(ValueError):
        extract_dense_core(bipartite_construction_5(4), 4)


@given(st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_core_satisfies_its_own_degree_contract(seed):
    rng = random.Random(seed)
    mg = random_multigraph(rng.randrange(4, 9), 5, rng)
    beta = Fraction(rng.randrange(0, 8), rng.randrange(2, 5))
    if beta > Fraction(7, 2):
        beta = Fraction(7, 2)
    core = extract_dense_core(mg, beta)
    if core:
        assert Fraction(min_degree_inside(mg, core)) >= beta * len(core)


def test_k4_scan_is_bounded_by_support_4_cliques_on_a_wide_sparse_host():
    # 73,732 coloured pairs on 65,536 vertices: a hub joined to every vertex
    # in layer 1 and a path through vertices 1..8,192 in layer 2 close over
    # 8,000 triangles but only the five 4-cliques around the pattern quad,
    # planted in the top three of 65,536 layers; the coloured vertices hold
    # about 7.7e17 4-sets
    top = 1 << 16
    quad = tuple(range(top - 4, top))
    masks = {(0, v): 1 for v in range(1, top)}
    masks.update({(v, v + 1): 2 for v in range(1, 1 << 13)})
    for t, matching in enumerate(MATCHINGS):
        for i, j in matching:
            masks[(quad[i], quad[j])] = 1 << (top - 3 + t)
    mg = MMultigraph.from_masks(top, top, masks)
    expected = K4Witness(quad, (top - 2, top - 1, top))
    start = time.perf_counter()
    assert contains_k4(mg) == expected
    assert time.perf_counter() - start < 1.0
    tracemalloc.start()
    try:
        assert contains_k4(mg) == expected
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6e6
