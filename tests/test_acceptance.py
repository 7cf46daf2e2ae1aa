"""One test per acceptance criterion, each emitting a PASS/FAIL line. Most run
checks of the `verify` registry, so each frozen value is written once; criteria
10, 13 and 15 have no registry counterpart: criterion 10 computes its density
ratios inline, and 13 and 15 run the peeling and link-matching helpers of
`tests/helpers.py`."""

import ast
import random
import re
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from fano_l2 import verify
from fano_l2.formats import parse_3graph
from fano_l2.hypergraphs import balanced_bipartite3, bn_l2_closed, bn_min_l2_degree
from fano_l2.multigraphs import bipartite_construction_5
from fano_l2.patterns import contains_fano, link_triple_violation
from fano_l2.search import bipartite_l2_scan, max_l2_fano_free, s2_quasi_agreement

from helpers import (
    core_size_bound,
    extract_dense_core,
    link_matching_violation,
    min_degree_inside,
    random_sub_multigraph,
)

CHECKS = {c.check_id: c for c in verify._CHECKS}


def run_criterion(acceptance_line, criterion, ids, text, seeds=(0,), also=True):
    """Run the registry checks `ids` at each seed, print the criterion line and
    assert that they pass and the criterion's own claim `also` holds. `text` is
    formatted with the last seed's measured values, keyed by id minus suite."""
    start = time.perf_counter()
    measured, failing = {}, []
    for seed in seeds:
        for check_id in ids:
            result = verify.run_check(CHECKS[check_id], seed)
            measured[check_id.split(".", 1)[1]] = result.measured
            if result.status != "pass":
                failing.append(f"seed {seed}: {result}")
    ok = also and not failing
    elapsed = time.perf_counter() - start
    acceptance_line(criterion, ok, f"{text.format_map(measured)} ({elapsed:.1f}s)")
    assert ok, failing


def test_criterion_01_census_five_layers(acceptance_line):
    ids = ["lemma51.census_max", "lemma51.census_max_count", "lemma51.census_clauses",
           "lemma51.census_k4_free"]
    text = (
        "5-layer 4-vertex census: {census_k4_free[k4_free]} of "
        "{census_k4_free[states]} states pattern-free, max size {census_max} "
        "with {census_max_count} maximizers, all structural clauses clean"
    )
    run_criterion(acceptance_line, 1, ids, text)


def test_criterion_02_census_four_layers(acceptance_line):
    text = "4-layer 4-vertex exhaustive maximum {census_m4}"
    run_criterion(acceptance_line, 2, ["lemma51.census_m4"], text)


def test_criterion_03_five_vertex_stretch(acceptance_line):
    text = "5-vertex 5-layer maximum {bnb_stretch} proven optimal by branch and bound"
    run_criterion(acceptance_line, 3, ["oracles.bnb_stretch"], text)


def test_criterion_04_construction_sizes(acceptance_line):
    ids = ["constructions.mg_sizes", "constructions.mg_k4free",
           "constructions.mg_crossover"]
    text = (
        "both 5-layer constructions pattern-free with stated sizes; tie "
        "{mg_crossover[turan_12]} at n=12, bipartite leads "
        "{mg_crossover[bipartite_13]}:{mg_crossover[turan_13]} at n=13"
    )
    run_criterion(acceptance_line, 4, ids, text)


def test_criterion_05_closed_norm_formula(acceptance_line):
    text = "closed squared-norm formula exact for 3 <= n <= 40; 24 and 75 at 4, 5"
    pins = bn_l2_closed(4) == 24 and bn_l2_closed(5) == 75
    run_criterion(acceptance_line, 5, ["constructions.bn_norm_closed"], text, also=pins)


def test_criterion_06_bipartite_extremality(acceptance_line):
    text = "bipartite maxima at n=3..6 equal the closed value, unique up to isomorphism"
    run_criterion(acceptance_line, 6, ["oracles.bipartite_scan"], text)


def test_criterion_07_identity_suite(acceptance_line):
    seeds = range(20260819, 20260828)
    graphs = len(seeds) * sum(1 for _ in verify._identity_pool(0))
    ids = [check_id for check_id in CHECKS if check_id.startswith("identities.")]
    text = (
        f"norm, degree-route, degree-sum, deletion and participation identities "
        f"exact on {graphs} seeded 3-graphs"
    )
    run_criterion(acceptance_line, 7, ids, text, seeds=seeds)


def test_criterion_08_pinned_decimals(acceptance_line):
    ids = [check_id for check_id, c in CHECKS.items() if isinstance(c.expected, float)]
    text = "all 11 pinned decimals reproduced within 5e-6"
    run_criterion(acceptance_line, 8, ids, text, also=len(ids) == 11)


def test_criterion_09_exact_rational_checks(acceptance_line):
    text = (
        "combined degree density equals {rational_identity[combined]} > 61/34; "
        "size step beats 44m/13 for every m in {rational_identity[threshold]}..10^6"
    )
    run_criterion(acceptance_line, 9, ["roots.rational_identity"], text)


def test_criterion_10_density_envelopes(acceptance_line):
    norm_ok = degree_ok = True
    for n in (100, 1000, 10000):
        norm_ok = norm_ok and abs(bn_l2_closed(n) / n**4 - 5 / 16) <= 1.2 / n
        degree_ok = degree_ok and abs(bn_min_l2_degree(n) / n**3 - 5 / 4) <= 3 / n
    ok = norm_ok and degree_ok
    degree_text = "min-degree ratio within 3/n of 5/4" if degree_ok else (
        "min-degree ratio misses the stated 3/n envelope (true gap is "
        "(39n-38)/(8n^2) ~ 4.875/n at even n, (45n^2-62n+27)/(8n^3) ~ 5.625/n at odd n)"
    )
    acceptance_line(10, ok, f"norm ratio within 1.2/n of 5/16; {degree_text}")
    if norm_ok and not degree_ok:
        pytest.xfail(
            "the min-degree deviation from 5/4 is exactly (39n-38)/(8n^2), "
            "about 4.875/n, at even n and (45n^2-62n+27)/(8n^3), about 5.625/n, "
            "at odd n, so no n >= 3 can satisfy the stated 3/n envelope"
        )
    assert ok


def test_min_degree_true_envelope():
    # companion to the failing clause above: the exact gap from 5/4, about
    # 4.875/n at even n and 5.625/n at odd n
    for n in range(3, 10_002):
        gap = Fraction(5, 4) - Fraction(bn_min_l2_degree(n), n**3)
        if n % 2:
            assert gap == Fraction(45 * n * n - 62 * n + 27, 8 * n**3)
        else:
            assert gap == Fraction(39 * n - 38, 8 * n * n)


def test_criterion_11_two_edge_star_oracle(acceptance_line):
    text = (
        "exhaustive star maxima for n <= 7 equal the better extremal family, all "
        "22 edge counts at n=7; analytic bound clears each density by the 2/n margin"
    )
    ids = ["oracles.s2_quasi", "oracles.ak_asymptotic"]
    run_criterion(acceptance_line, 11, ids, text, also=len(s2_quasi_agreement(7)) == 22)


def test_criterion_12_triangle_free_bipartiteness(acceptance_line):
    text = "no triangle-free graph of minimum degree > 2n/5 is non-bipartite, n <= 7"
    run_criterion(acceptance_line, 12, ["oracles.aes"], text)


def test_criterion_13_peeling_contract(acceptance_line):
    rng = random.Random(20260819)
    beta = Fraction(3)
    degree_ok = size_ok = True
    bounded = 0
    for i in range(100):
        n = 10 + i % 7
        keep = (0.9, 0.97, 1.0)[i % 3]  # mix light and near-full samples
        sub = random_sub_multigraph(bipartite_construction_5(n), rng, keep_prob=keep)
        core = extract_dense_core(sub, beta)
        if core:
            degree_ok = degree_ok and Fraction(min_degree_inside(sub, core)) >= beta * len(core)
        if sub.size >= beta * comb(n + 1, 2):
            bounded += 1
            size_ok = size_ok and len(core) >= core_size_bound(sub.size, n, beta)
    host = bipartite_construction_5(12)
    spot = extract_dense_core(host, Fraction(10, 3))
    size_ok = size_ok and len(spot) >= core_size_bound(host.size, 12, Fraction(10, 3))
    ok = degree_ok and size_ok
    acceptance_line(
        13, ok,
        f"dense-core degree guarantee exact on 100 seeded sub-multigraphs; "
        f"size bound verified on the {bounded} heavy cases plus a 10/3 spot check",
    )
    assert ok


def test_criterion_14_fano_basics(acceptance_line):
    text = (
        "balanced bipartite hosts plane-free for 3 <= n <= 12; plane-free optima "
        "{fano_free_max[5]}, {fano_free_max[6]}, {fano_free_max[7]} at n=5,6,7"
    )
    ids = ["constructions.bn_fano_free", "oracles.fano_free_max"]
    run_criterion(acceptance_line, 14, ids, text)


def test_criterion_15_link_validators(acceptance_line):
    witnesses = [parse_3graph(max_l2_fano_free(n).witness) for n in (5, 6, 7)]
    witnesses += [parse_3graph(bipartite_l2_scan(n).witness) for n in (4, 5, 6)]
    ok = True
    for h in [balanced_bipartite3(n) for n in range(3, 11)] + witnesses:
        ok = ok and contains_fano(h) is None
        ok = ok and all(link_matching_violation(h, v) is None for v in range(h.n))
        ok = ok and link_triple_violation(h) is None
    acceptance_line(
        15, ok,
        f"link matching and stacked-link validators clean on balanced "
        f"bipartite hosts through n=10 and on {len(witnesses)} search witnesses",
    )
    assert ok


# names deleted from the package because nothing outside the tests used them;
# this list is the only place under src/, scripts/ and tests/ that names them
DELETED_NAMES = (
    "StirlingTable",
    "norm_star_conversion",
    "triple_type",
    "has_heavy_triple",
    "is_subgraph_of_saturated",
    "complete_bipartite",
    "is_independent_set",
    "ak_norm_bound",
    "is_k4_free",
    "link_matching_check",
    "nice_partition_size_bound",
    "codegree_items",
    "find_good_partition",
    "star_part_rate",
    "clique_rate",
    "split_rate",
    "alpha1",
    "alpha2",
    "link_sum_check",
    "min_degree_ceiling",
    "extremal_density_stats",
    "DensityStats",
    "complete_bipartite_argmax",
    "SplitScanReport",
    "Pattern3",
    "_k53_pattern",
    "_edge_set",
    "_incidence_masks",
    "_mask_to_graph",
    "_state_to_multigraph",
    "triples_containing",
    "_eq_linear_branch",
    "_fano_copy_masks",
)


def test_deleted_names_stay_deleted():
    root = Path(__file__).resolve().parent.parent
    pattern = re.compile(r"\b(?:%s)\b" % "|".join(DELETED_NAMES))
    this = Path(__file__).resolve()
    hits = [
        f"{path.relative_to(root)}:{number}"
        for folder in ("src", "scripts", "tests")
        for path in sorted((root / folder).rglob("*.py"))
        if path != this
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line)
    ]
    assert hits == []
    assert not (root / "src" / "fano_l2" / "stirling.py").exists()


# public names that only the tests reach, each with the reason it stays
TEST_ONLY_NAMES = {
    "find_nice_partition": "the multigraph stability scan of ROADMAP item 7",
}


def _referenced_names(tree):
    # identifiers the code uses, and strings naming one (perfbench's layer
    # table names the functions it wraps); docstrings and comments do not count
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                found.add(node.value)
    return found


def test_every_public_name_is_reached_outside_the_tests():
    root = Path(__file__).resolve().parent.parent
    bodies = {
        path: ast.parse(path.read_text(encoding="utf-8")).body
        for folder in ("src", "scripts", "perfbench")
        for path in sorted((root / folder).rglob("*.py"))
        if not path.name.startswith("test_")
    }
    # the names each top-level statement references, by file
    uses = {path: [_referenced_names(stmt) for stmt in body] for path, body in bodies.items()}
    unreached = set()
    for path in sorted((root / "src" / "fano_l2").glob("*.py")):
        for i, node in enumerate(bodies[path]):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            # a definition does not reach itself, so recursion does not count
            if not any(
                node.name in names
                for other, statements in uses.items()
                for j, names in enumerate(statements)
                if other != path or j != i
            ):
                unreached.add(node.name)
    assert unreached == set(TEST_ONLY_NAMES)


def test_every_public_method_is_reached_outside_the_tests():
    # Each public method or property of a class in src/fano_l2 must be used as
    # an attribute (`x.name`) under src/, outside its own body, or under
    # scripts/ or perfbench/, or be named as "Class.method" in a string there
    # (perfbench's layer table names the methods it wraps that way). The scan
    # cannot tell which class `x` holds, so it goes by name: a use of
    # `Uniform3Graph.degrees` also counts for `SimpleGraph.degrees`.
    root = Path(__file__).resolve().parent.parent
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for folder in ("src", "scripts", "perfbench")
        for path in sorted((root / folder).rglob("*.py"))
        if not path.name.startswith("test_")
    }
    attributes, strings = {}, set()
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attributes.setdefault(node.attr, []).append((path, node.lineno))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                strings.add(node.value)
    unreached = []
    for path in sorted((root / "src" / "fano_l2").glob("*.py")):
        for cls in trees[path].body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in cls.body:
                if not isinstance(method, ast.FunctionDef) or method.name.startswith("_"):
                    continue
                reached = any(
                    other != path or not method.lineno <= line <= method.end_lineno
                    for other, line in attributes.get(method.name, ())
                )
                if not reached and f"{cls.name}.{method.name}" not in strings:
                    unreached.append(f"{cls.name}.{method.name}")
    assert unreached == []
