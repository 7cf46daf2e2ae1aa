"""Named verification suites with machine-readable reports.

Each suite bundles related checks: seeded identity checks on random
3-graphs, the pinned decimal roots, construction cross-checks, the
exhaustive 4-vertex census, and the independent search oracles. Each row
of the registry holds its check's expected value, and `run_check` judges
every row by the same rule: a float is a pinned decimal, met within
DECIMAL_TOLERANCE, and any other value must be met exactly. A suite is an
id prefix and runs every row it selects; each check records the seconds it
took, so a slow run is explained by its own report.
"""

from __future__ import annotations

import functools
import json
import random
import time
from dataclasses import asdict, dataclass
from math import comb
from typing import Callable

from .bounds import (
    alpha1_limit,
    alpha2_limit,
    ak_s2_bound,
    core_rate,
    f_inverse,
    g_pairs_plus_bipartite,
    rational_identity_checks,
    solve_root_equation,
)
from .hypergraphs import (
    balanced_bipartite3,
    bn_l2_closed,
    bn_min_l2_degree,
    random_3graph,
)
from .multigraphs import (
    bipartite_construction_5,
    contains_k4,
    turan_layers_5,
)
from .patterns import contains_fano
from .search import (
    aes_scan,
    bipartite_l2_scan,
    bipartite_norm_formula,
    bipartite_s2_formula,
    k4_census,
    max_k4free_multigraph,
    max_l2_fano_free,
    s2_quasi_agreement,
)

DECIMAL_TOLERANCE = 5e-6


@dataclass(frozen=True, slots=True)
class Check:
    """A registry row: `fn(seed)` returns what it measured, and the row holds
    the value `run_check` judges it against."""

    check_id: str
    fn: Callable[[int], object]
    expected: object = 0


@dataclass(frozen=True, slots=True)
class CheckResult:
    check_id: str
    status: str  # pass | fail
    measured: object
    expected: object
    tolerance: float
    elapsed: float  # seconds the check took


@dataclass(frozen=True, slots=True)
class VerifyReport:
    suite: str
    checks: tuple[CheckResult, ...]
    passed: int
    failed: int
    overall: str  # pass | fail
    seed: int
    elapsed: float


def report_to_json(report) -> str:
    """Stable JSON rendering of a verify or search report; only its elapsed
    fields vary between runs of the same configuration."""
    return json.dumps(asdict(report), indent=2, sort_keys=True)


# ----- individual checks ---------------------------------------------------------
#
# A check returns what it measured; its registry row holds the expected value.
# Aggregate checks count failing instances and expect zero.


@functools.cache
def _identity_pool(seed: int) -> tuple:
    """The 60 seeded random 3-graphs every identity check runs on, built once
    a seed and shared by the six `identities.*` rows."""
    rng = random.Random(seed)
    sizes = (4, 5, 6, 7, 8, 9, 10, 11, 12)
    probs = (0.15, 0.3, 0.5, 0.7)
    return tuple(
        random_3graph(sizes[i % len(sizes)], probs[i % len(probs)], rng) for i in range(60)
    )


def _check_l1_norm(seed: int):
    return sum(1 for H in _identity_pool(seed) if H.lp_norm(1) != 3 * H.edge_count)


def _check_norm_star(seed: int):
    return sum(
        1
        for H in _identity_pool(seed)
        if H.lp_norm(2) != 2 * H.count_stars() + 3 * H.edge_count
    )


def _check_degree_routes(seed: int):
    bad = 0
    for H in _identity_pool(seed):
        norm2 = H.lp_norm(2)
        for v in range(H.n):
            direct = norm2 - H.remove_vertex(v).lp_norm(2)
            expanded = H.l2_degree_expanded(v)
            star = 2 * H.star_degree(v) + 3 * H.degree(v)
            if not direct == expanded == star:
                bad += 1
    return bad


def _check_degree_sum(seed: int):
    return sum(
        1
        for H in _identity_pool(seed)
        if sum(H.l2_degree_expanded(v) for v in range(H.n))
        != 4 * H.lp_norm(2) - 3 * H.edge_count
    )


def _check_deletion_lipschitz(seed: int):
    rng = random.Random(seed + 1)
    bad = 0
    for H in _identity_pool(seed):
        triples = [t for t in H.triples() if rng.random() < 0.7]
        sub = type(H)(H.n, triples)
        drop = H.edge_count - sub.edge_count
        if H.lp_norm(2) - sub.lp_norm(2) > 6 * H.n * drop:
            bad += 1
    return bad


def _star_participation(H) -> tuple[dict, dict, dict]:
    """How many two-edge stars each edge, vertex and shadow pair of H lies
    in, as three maps; an edge or pair in no star maps to 0.

    Two distinct edges share at most one pair, so each star has exactly one
    shared pair p, and p holds C(c(p), 2) stars, where c(p) is the codegree.
    Counting the stars by their shared pair gives each count exactly:
      - an edge e pairs with each of the c(p) - 1 other edges through each of
        its three pairs p, so it lies in sum over p in e of (c(p) - 1) stars;
      - a vertex w lies in a star as a vertex of its shared pair or as a
        tip, which is what `star_degree(w)` counts;
      - a pair p lies in a star when one of the star's two edges contains
        it, so summing the stars of the edges through p counts each star
        once, except the C(c(p), 2) stars whose shared pair is p, which
        hold p in both edges and are counted twice.
    """
    per_edge: dict = {}
    per_pair: dict = {}
    for e in H.triples():
        a, b, c = e
        pairs = ((a, b), (a, c), (b, c))
        stars = sum(H.codegree(u, v) for u, v in pairs) - 3
        per_edge[e] = stars
        for p in pairs:
            per_pair[p] = per_pair.get(p, 0) + stars
    per_pair = {p: stars - comb(H.codegree(*p), 2) for p, stars in per_pair.items()}
    per_vertex = {w: H.star_degree(w) for w in range(H.n)}
    return per_edge, per_vertex, per_pair


def _check_participation(seed: int):
    bad = 0
    for H in _identity_pool(seed):
        n = H.n
        per_edge, per_vertex, per_pair = _star_participation(H)
        if max(per_edge.values(), default=0) > 3 * (n - 3):
            bad += 1
        if max(per_vertex.values(), default=0) > 24 * comb(n - 1, 3):
            bad += 1
        if max(per_pair.values(), default=0) > 24 * comb(n - 2, 2):
            bad += 1
        # each star meets four vertices: its shared pair and its two tips
        if sum(per_vertex.values()) != 4 * H.count_stars():
            bad += 1
    return bad


def _check_rational_identity(seed: int):
    # these three values are the whole claim: a combined value equal to
    # 5154779/2872915 is the identity, and that fraction exceeds 61/34
    # (5154779*34 > 61*2872915); a largest failure at 29 means the step beats
    # 44m/13 for every m from the threshold 30 up to the scan limit
    rep = rational_identity_checks()
    return {
        "combined": str(rep.combined_value),
        "threshold": rep.g_step_largest_failing + 1,
        "largest_failing": rep.g_step_largest_failing,
    }


def _check_bn_norm(seed: int):
    return sum(
        1 for n in range(3, 41) if balanced_bipartite3(n).lp_norm(2) != bn_l2_closed(n)
    )


def _check_bn_min_degree(seed: int):
    bad = 0
    for n in range(4, 15):
        H = balanced_bipartite3(n)
        direct = min(H.l2_degree_expanded(v) for v in range(n))
        if direct != bn_min_l2_degree(n):
            bad += 1
    return bad


def _check_mg_sizes(seed: int):
    bad = 0
    for n in range(2, 17):
        if bipartite_construction_5(n).size != g_pairs_plus_bipartite(n):
            bad += 1
    for n in range(3, 17):
        if turan_layers_5(n).size != 5 * (n * n // 3):
            bad += 1
    return bad


def _check_mg_k4free(seed: int):
    bad = 0
    for n in range(4, 11):
        if contains_k4(bipartite_construction_5(n)) is not None:
            bad += 1
        if contains_k4(turan_layers_5(n)) is not None:
            bad += 1
    return bad


def _check_mg_crossover(seed: int):
    return {
        "bipartite_12": bipartite_construction_5(12).size,
        "turan_12": turan_layers_5(12).size,
        "bipartite_13": bipartite_construction_5(13).size,
        "turan_13": turan_layers_5(13).size,
    }


def _check_bn_fano_free(seed: int):
    return sum(
        1 for n in range(3, 13) if contains_fano(balanced_bipartite3(n)) is not None
    )


def _check_balanced_argmax(seed: int):
    # counts the n whose squared norm or two-edge-star count, over complete
    # bipartite 3-graphs with parts (a, n-a), peaks off the balanced split
    bad = 0
    for n in range(4, 41):
        balanced = {n // 2, (n + 1) // 2}
        for formula in (bipartite_norm_formula, bipartite_s2_formula):
            values = {a: formula(a, n - a) for a in range(1, n)}
            best = max(values.values())
            if {a for a, v in values.items() if v == best} != balanced:
                bad += 1
                break
    return bad


def _check_census_clauses(seed: int):
    c = k4_census(5)
    return [
        c.clause_i_violations,
        c.clause_iii_violations,
        c.clause_iv_violations,
        c.clause_v_violations,
    ]


def _check_census_k4_free(seed: int):
    c = k4_census(5)
    return {"states": c.states, "k4_free": c.k4_free}


def _check_s2_oracle(seed: int):
    bad = 0
    for n in range(3, 8):
        for m, best, star, clique in s2_quasi_agreement(n):
            if best != max(star, clique):
                bad += 1
    return bad


def _check_ak_asymptotic(seed: int):
    n = 7
    bad = 0
    for m, best, _, _ in s2_quasi_agreement(n):
        x = m / n**2
        if x <= 0.5 and ak_s2_bound(x).value < best / n**3 - 2 / n - 1e-12:
            bad += 1
    return bad


def _check_bipartite_scan(seed: int):
    bad = 0
    for n in range(3, 7):
        rep = bipartite_l2_scan(n)
        if rep.optimum != rep.params["closed_value"] or not rep.params["unique_up_to_iso"]:
            bad += 1
    return bad


def _check_bnb_agreement(seed: int):
    bad = 0
    for m in (2, 3, 4):
        ex = max_k4free_multigraph(4, m, engine="exhaustive").optimum
        bb = max_k4free_multigraph(4, m, engine="bnb").optimum
        if ex != bb:
            bad += 1
    return bad


@functools.cache
def _bnb_five_five():
    # `oracles.bnb_stretch` and `oracles.bnb_six` share one (5,5) branch and
    # bound a process, as the census rows share `k4_census(5)`; the second
    # reader's elapsed seconds read near 0. The module-level name is looked
    # up on the call, so a wrapper bound to it sees the run.
    return max_k4free_multigraph(5, 5, engine="bnb")


def _check_bnb_six(seed: int):
    # each pair of K6 lies in 4 of its six 5-subsets, and each 5-subset holds
    # at most the (5,5) optimum, so no search is needed at six vertices
    five = _bnb_five_five().optimum
    host = turan_layers_5(6)
    return {
        "bound": comb(6, 5) * five // comb(4, 3),
        "construction": host.size if contains_k4(host) is None else None,
    }


# A suite is an id prefix, and `all` runs every row in this order.
_CHECKS: tuple[Check, ...] = (
    Check("roots.f_inverse_5_4", lambda seed: f_inverse(1.25), 0.342067),
    Check("roots.linear_branch", lambda seed: solve_root_equation("linear_branch"), 0.346707),
    Check("roots.claim32", lambda seed: solve_root_equation("claim32"), 0.344635),
    Check("roots.claim33", lambda seed: solve_root_equation("claim33"), 0.346577),
    Check("roots.claim34", lambda seed: solve_root_equation("claim34"), 0.346665),
    Check("roots.alpha1_at_61_177", lambda seed: alpha1_limit(61 / 177), 0.225024),
    Check("roots.alpha1_at_235_687", lambda seed: alpha1_limit(235 / 687), 0.171997),
    Check("roots.alpha2_at_61_177", lambda seed: alpha2_limit(61 / 177), 0.337536),
    Check("roots.alpha2_at_61_176", lambda seed: alpha2_limit(61 / 176), 0.387402),
    Check("roots.scaled_core_rate", lambda seed: 5 / 13 * core_rate(253 / 730), 0.322526),
    Check("roots.half_core_rate", lambda seed: core_rate(253 / 730) / 2, 0.419284),
    Check("roots.rational_identity", _check_rational_identity,
          {"combined": "5154779/2872915", "threshold": 30, "largest_failing": 29}),
    Check("identities.l1_norm", _check_l1_norm),
    Check("identities.norm_star", _check_norm_star),
    Check("identities.degree_routes", _check_degree_routes),
    Check("identities.degree_sum", _check_degree_sum),
    Check("identities.deletion_lipschitz", _check_deletion_lipschitz),
    Check("identities.participation", _check_participation),
    Check("constructions.bn_norm_closed", _check_bn_norm),
    Check("constructions.bn_min_degree", _check_bn_min_degree),
    Check("constructions.mg_sizes", _check_mg_sizes),
    Check("constructions.mg_k4free", _check_mg_k4free),
    Check("constructions.mg_crossover", _check_mg_crossover,
          {"bipartite_12": 240, "turan_12": 240, "bipartite_13": 282, "turan_13": 280}),
    Check("constructions.bn_fano_free", _check_bn_fano_free),
    Check("constructions.balanced_argmax", _check_balanced_argmax),
    Check("lemma51.census_max", lambda seed: k4_census(5).max_size, 25),
    Check("lemma51.census_max_count", lambda seed: k4_census(5).max_count, 96),
    Check("lemma51.census_clauses", _check_census_clauses, [0, 0, 0, 0]),
    Check("lemma51.census_k4_free", _check_census_k4_free,
          {"states": 32**6, "k4_free": 683278578}),
    Check("lemma51.census_m4", lambda seed: k4_census(4).max_size, 20),
    Check("oracles.s2_quasi", _check_s2_oracle),
    Check("oracles.ak_asymptotic", _check_ak_asymptotic),
    Check("oracles.aes", lambda seed: sum(aes_scan(n).optimum for n in range(3, 8))),
    Check("oracles.fano_free_max",
          lambda seed: {n: max_l2_fano_free(n).optimum for n in (5, 6, 7)},
          {5: 90, 6: 240, 7: 410}),
    Check("oracles.bipartite_scan", _check_bipartite_scan),
    Check("oracles.bnb_agreement", _check_bnb_agreement),
    Check("oracles.bnb_stretch",
          lambda seed: _bnb_five_five().optimum, 40),
    Check("oracles.bnb_six", _check_bnb_six, {"bound": 60, "construction": 60}),
)

SUITE_NAMES = (*dict.fromkeys(c.check_id.split(".")[0] for c in _CHECKS), "all")


def run_check(check: Check, seed: int) -> CheckResult:
    """Run one registry row and judge what it measured: within
    DECIMAL_TOLERANCE of a float expected value, the pinned decimal, and equal
    to any other expected value."""
    start = time.perf_counter()
    measured = check.fn(seed)
    elapsed = time.perf_counter() - start
    tolerance = DECIMAL_TOLERANCE if isinstance(check.expected, float) else 0
    if tolerance:
        ok = abs(measured - check.expected) <= tolerance
    else:
        ok = measured == check.expected
    return CheckResult(
        check_id=check.check_id,
        status="pass" if ok else "fail",
        measured=measured,
        expected=check.expected,
        tolerance=tolerance,
        elapsed=elapsed,
    )


def run_suite(suite: str, seed: int = 0) -> VerifyReport:
    """Run every row of one named suite (or `all`) and aggregate a report."""
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITE_NAMES}")
    start = time.perf_counter()
    checks = tuple(
        run_check(c, seed)
        for c in _CHECKS
        if suite == "all" or c.check_id.startswith(suite + ".")
    )
    failed = sum(1 for c in checks if c.status == "fail")
    return VerifyReport(
        suite=suite,
        checks=checks,
        passed=len(checks) - failed,
        failed=failed,
        overall="fail" if failed else "pass",
        seed=seed,
        elapsed=time.perf_counter() - start,
    )
