"""Named verification suites with machine-readable reports.

Each suite bundles related checks: seeded identity checks on random
3-graphs, the pinned decimal roots, construction cross-checks, the
exhaustive 4-vertex census, and the independent search oracles. Budgeted
runs skip expensive checks deterministically, using static cost estimates
rather than measured time, so a report for a fixed configuration is stable;
each check also records the seconds it took, so a stale estimate shows.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from math import comb

from .bounds import (
    alpha1_limit,
    alpha2_limit,
    core_rate,
    f_inverse,
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

DECIMAL_TOLERANCE = 5e-6

@dataclass(frozen=True, slots=True)
class CheckResult:
    check_id: str
    status: str  # pass | fail | skipped
    measured: object
    expected: object
    tolerance: float | int | None
    note: str = ""
    elapsed: float = 0.0  # seconds the check took; 0.0 when skipped


@dataclass(frozen=True, slots=True)
class VerifyReport:
    suite: str
    checks: tuple[CheckResult, ...]
    passed: int
    failed: int
    skipped: int
    overall: str  # pass | fail
    seed: int
    budget: float | None
    elapsed: float


def report_to_json(report: VerifyReport) -> str:
    """Stable JSON rendering; only the elapsed fields (the report's and each
    check's) vary between runs of the same configuration."""
    payload = asdict(report)
    payload["checks"] = [asdict(c) for c in report.checks]
    return json.dumps(payload, indent=2, sort_keys=True)


# ----- individual checks ---------------------------------------------------------
#
# A check returns (measured, expected, tolerance, ok). Aggregate checks count
# failing instances and expect zero.


def _identity_pool(seed: int, count: int = 60):
    rng = random.Random(seed)
    sizes = (4, 5, 6, 7, 8, 9, 10, 11, 12)
    probs = (0.15, 0.3, 0.5, 0.7)
    for i in range(count):
        yield random_3graph(sizes[i % len(sizes)], probs[i % len(probs)], rng)


def _check_l1_norm(seed: int):
    bad = sum(1 for H in _identity_pool(seed) if H.lp_norm(1) != 3 * H.edge_count)
    return bad, 0, 0, bad == 0


def _check_norm_star(seed: int):
    bad = sum(
        1
        for H in _identity_pool(seed)
        if H.lp_norm(2) != 2 * H.count_stars(2) + 3 * H.edge_count
    )
    return bad, 0, 0, bad == 0


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
    return bad, 0, 0, bad == 0


def _check_degree_sum(seed: int):
    bad = sum(
        1
        for H in _identity_pool(seed)
        if sum(H.lp_norm_degree(v, 2) for v in range(H.n))
        != 4 * H.lp_norm(2) - 3 * H.edge_count
    )
    return bad, 0, 0, bad == 0


def _check_deletion_lipschitz(seed: int):
    rng = random.Random(seed + 1)
    bad = 0
    for H in _identity_pool(seed):
        triples = [t for t in H.triples() if rng.random() < 0.7]
        sub = type(H)(H.n, triples)
        drop = H.edge_count - sub.edge_count
        if H.lp_norm(2) - sub.lp_norm(2) > 6 * H.n * drop:
            bad += 1
    return bad, 0, 0, bad == 0


def _check_participation(seed: int):
    bad = 0
    for H in _identity_pool(seed):
        n = H.n
        per_edge: dict = {}
        per_vertex = [0] * n
        per_pair: dict = {}
        for pair, a, b in H.two_edge_stars():
            u, v = pair
            e1 = tuple(sorted((u, v, a)))
            e2 = tuple(sorted((u, v, b)))
            for e in (e1, e2):
                per_edge[e] = per_edge.get(e, 0) + 1
            for w in set(e1) | set(e2):
                per_vertex[w] += 1
            for p in {tuple(sorted(q)) for e in (e1, e2) for q in ((e[0], e[1]), (e[0], e[2]), (e[1], e[2]))}:
                per_pair[p] = per_pair.get(p, 0) + 1
        if per_edge and max(per_edge.values()) > 3 * (n - 3):
            bad += 1
        if max(per_vertex, default=0) > 24 * comb(n - 1, 3):
            bad += 1
        if per_pair and max(per_pair.values()) > 24 * comb(n - 2, 2):
            bad += 1
    return bad, 0, 0, bad == 0


# (check id, recomputation, pinned value)
_DECIMALS = (
    ("roots.f_inverse_5_4", lambda: f_inverse(1.25), 0.342067),
    ("roots.linear_branch", lambda: solve_root_equation("linear_branch"), 0.346707),
    ("roots.claim32", lambda: solve_root_equation("claim32"), 0.344635),
    ("roots.claim33", lambda: solve_root_equation("claim33"), 0.346577),
    ("roots.claim34", lambda: solve_root_equation("claim34"), 0.346665),
    ("roots.alpha1_at_61_177", lambda: alpha1_limit(61 / 177), 0.225024),
    ("roots.alpha1_at_235_687", lambda: alpha1_limit(235 / 687), 0.171997),
    ("roots.alpha2_at_61_177", lambda: alpha2_limit(61 / 177), 0.337536),
    ("roots.alpha2_at_61_176", lambda: alpha2_limit(61 / 176), 0.387402),
    ("roots.scaled_core_rate", lambda: 5 / 13 * core_rate(253 / 730), 0.322526),
    ("roots.half_core_rate", lambda: core_rate(253 / 730) / 2, 0.419284),
)


def _decimal_checks() -> list[tuple[str, float, float]]:
    return [(check_id, value(), expected) for check_id, value, expected in _DECIMALS]


def _decimal_check(value, expected: float):
    def check(seed: int):
        measured = value()
        ok = abs(measured - expected) <= DECIMAL_TOLERANCE
        return measured, expected, DECIMAL_TOLERANCE, ok

    return check


def _check_rational_identity(seed: int):
    rep = rational_identity_checks()
    measured = {
        "combined": str(rep.combined_value),
        "threshold": rep.g_step_threshold,
        "largest_failing": rep.g_step_largest_failing,
    }
    expected = {"combined": "5154779/2872915", "threshold": 30, "largest_failing": 29}
    ok = (
        rep.identity_exact
        and rep.exceeds_61_34
        and rep.g_step_holds_from_30
        and rep.combined_value == Fraction(5154779, 2872915)
        and measured == expected
    )
    return measured, expected, 0, ok


def _check_bn_norm(seed: int):
    bad = sum(
        1 for n in range(3, 41) if balanced_bipartite3(n).lp_norm(2) != bn_l2_closed(n)
    )
    return bad, 0, 0, bad == 0


def _check_bn_min_degree(seed: int):
    bad = 0
    for n in range(4, 15):
        H = balanced_bipartite3(n)
        direct = min(H.lp_norm_degree(v, 2) for v in range(n))
        if direct != bn_min_l2_degree(n):
            bad += 1
    return bad, 0, 0, bad == 0


def _check_mg_sizes(seed: int):
    bad = 0
    for n in range(2, 17):
        if bipartite_construction_5(n).size != 2 * comb(n, 2) + 3 * (n * n // 4):
            bad += 1
    for n in range(3, 17):
        if turan_layers_5(n).size != 5 * (n * n // 3):
            bad += 1
    return bad, 0, 0, bad == 0


def _check_mg_k4free(seed: int):
    bad = 0
    for n in range(4, 11):
        if contains_k4(bipartite_construction_5(n)) is not None:
            bad += 1
        if contains_k4(turan_layers_5(n)) is not None:
            bad += 1
    return bad, 0, 0, bad == 0


def _check_mg_crossover(seed: int):
    sizes = {
        "bipartite_12": bipartite_construction_5(12).size,
        "turan_12": turan_layers_5(12).size,
        "bipartite_13": bipartite_construction_5(13).size,
        "turan_13": turan_layers_5(13).size,
    }
    expected = {"bipartite_12": 240, "turan_12": 240, "bipartite_13": 282, "turan_13": 280}
    return sizes, expected, 0, sizes == expected


def _check_bn_fano_free(seed: int):
    bad = sum(
        1 for n in range(3, 13) if contains_fano(balanced_bipartite3(n)) is not None
    )
    return bad, 0, 0, bad == 0


def _check_balanced_argmax(seed: int):
    from .search import complete_bipartite_argmax

    bad = 0
    for n in range(4, 41):
        rep = complete_bipartite_argmax(n)
        if not (rep.balanced_wins_norm and rep.balanced_wins_s2):
            bad += 1
    return bad, 0, 0, bad == 0


def _census():
    from .search import k4_census

    return k4_census(5)


def _check_census_max(seed: int):
    c = _census()
    return c.max_size, 25, 0, c.max_size == 25


def _check_census_count(seed: int):
    c = _census()
    return c.max_count, 96, 0, c.max_count == 96


def _check_census_clauses(seed: int):
    c = _census()
    measured = [
        c.clause_i_violations,
        c.clause_iii_violations,
        c.clause_iv_violations,
        c.clause_v_violations,
    ]
    return measured, [0, 0, 0, 0], 0, measured == [0, 0, 0, 0]


def _check_census_k4_free(seed: int):
    c = _census()
    measured = {"states": c.states, "k4_free": c.k4_free}
    expected = {"states": 32**6, "k4_free": 683278578}
    return measured, expected, 0, measured == expected


def _check_census_m4(seed: int):
    from .search import k4_census

    c = k4_census(4)
    return c.max_size, 20, 0, c.max_size == 20


def _check_s2_oracle(seed: int):
    from .search import s2_quasi_agreement

    bad = 0
    for n in range(3, 8):
        for m, best, star, clique in s2_quasi_agreement(n):
            if best != max(star, clique):
                bad += 1
    return bad, 0, 0, bad == 0


def _check_ak_asymptotic(seed: int):
    from .bounds import ak_s2_bound
    from .search import s2_quasi_agreement

    n = 7
    bad = 0
    for m, best, _, _ in s2_quasi_agreement(n):
        x = m / n**2
        if x <= 0.5 and ak_s2_bound(x).value < best / n**3 - 2 / n - 1e-12:
            bad += 1
    return bad, 0, 0, bad == 0


def _check_aes(seed: int):
    from .search import aes_scan

    bad = sum(aes_scan(n).optimum for n in range(3, 8))
    return bad, 0, 0, bad == 0


def _check_fano_free_max(seed: int):
    from .search import max_l2_fano_free

    measured = {n: max_l2_fano_free(n).optimum for n in (5, 6, 7)}
    expected = {5: 90, 6: 240, 7: 410}
    return measured, expected, 0, measured == expected


def _check_bipartite_scan(seed: int):
    from .search import bipartite_l2_scan

    bad = 0
    for n in range(3, 7):
        rep = bipartite_l2_scan(n)
        if rep.optimum != rep.params["closed_value"] or not rep.params["unique_up_to_iso"]:
            bad += 1
    return bad, 0, 0, bad == 0


def _check_bnb_agreement(seed: int):
    from .search import max_k4free_multigraph

    bad = 0
    for m in (2, 3, 4):
        ex = max_k4free_multigraph(4, m, engine="exhaustive").optimum
        bb = max_k4free_multigraph(4, m, engine="bnb").optimum
        if ex != bb:
            bad += 1
    return bad, 0, 0, bad == 0


def _check_bnb_stretch(seed: int):
    from .search import max_k4free_multigraph

    rep = max_k4free_multigraph(5, 5, engine="bnb", budget=600.0)
    ok = rep.complete and rep.optimum == 40
    return rep.optimum, 40, 0, ok


# (check id, estimated seconds, callable); a suite is an id prefix, and
# `all` runs every check in this order, cheapest suite first. An estimate is
# the check's measured seconds, rounded up with room for a slower machine.
_CHECKS: tuple[tuple[str, float, object], ...] = (
    *(
        (check_id, 0.0, _decimal_check(value, expected))
        for check_id, value, expected in _DECIMALS
    ),
    ("roots.rational_identity", 1.0, _check_rational_identity),
    ("identities.l1_norm", 0.1, _check_l1_norm),
    ("identities.norm_star", 0.1, _check_norm_star),
    ("identities.degree_routes", 0.1, _check_degree_routes),
    ("identities.degree_sum", 0.1, _check_degree_sum),
    ("identities.deletion_lipschitz", 0.1, _check_deletion_lipschitz),
    ("identities.participation", 0.1, _check_participation),
    ("constructions.bn_norm_closed", 0.3, _check_bn_norm),
    ("constructions.bn_min_degree", 0.1, _check_bn_min_degree),
    ("constructions.mg_sizes", 0.1, _check_mg_sizes),
    ("constructions.mg_k4free", 0.1, _check_mg_k4free),
    ("constructions.mg_crossover", 0.1, _check_mg_crossover),
    ("constructions.bn_fano_free", 0.1, _check_bn_fano_free),
    ("constructions.balanced_argmax", 0.1, _check_balanced_argmax),
    ("lemma51.census_max", 2.0, _check_census_max),
    ("lemma51.census_max_count", 0.1, _check_census_count),
    ("lemma51.census_clauses", 0.1, _check_census_clauses),
    ("lemma51.census_k4_free", 0.1, _check_census_k4_free),
    ("lemma51.census_m4", 0.1, _check_census_m4),
    ("oracles.s2_quasi", 0.3, _check_s2_oracle),
    ("oracles.ak_asymptotic", 0.1, _check_ak_asymptotic),
    ("oracles.aes", 0.5, _check_aes),
    ("oracles.fano_free_max", 0.1, _check_fano_free_max),
    ("oracles.bipartite_scan", 0.5, _check_bipartite_scan),
    ("oracles.bnb_agreement", 0.1, _check_bnb_agreement),
    ("oracles.bnb_stretch", 15.0, _check_bnb_stretch),
)

SUITE_NAMES = (*dict.fromkeys(check_id.split(".")[0] for check_id, _, _ in _CHECKS), "all")


def run_suite(suite: str, budget: float | None = None, seed: int = 0) -> VerifyReport:
    """Run one named suite (or `all`) and aggregate a report.

    When a budget is given, checks are skipped (deterministically, by static
    cost estimate) once the estimated total would exceed it.
    """
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITE_NAMES}")
    start = time.perf_counter()
    checks: list[CheckResult] = []
    spent = 0.0
    for check_id, estimate, fn in _CHECKS:
        if suite != "all" and not check_id.startswith(suite + "."):
            continue
        if budget is not None and spent + estimate > budget:
            checks.append(
                CheckResult(
                    check_id=check_id,
                    status="skipped",
                    measured=None,
                    expected=None,
                    tolerance=None,
                    note=f"capacity: estimated {estimate:.0f}s exceeds remaining budget",
                )
            )
            continue
        spent += estimate
        check_start = time.perf_counter()
        measured, expected, tolerance, ok = fn(seed)
        checks.append(
            CheckResult(
                check_id=check_id,
                status="pass" if ok else "fail",
                measured=measured,
                expected=expected,
                tolerance=tolerance,
                elapsed=time.perf_counter() - check_start,
            )
        )
    passed = sum(1 for c in checks if c.status == "pass")
    failed = sum(1 for c in checks if c.status == "fail")
    skipped = sum(1 for c in checks if c.status == "skipped")
    return VerifyReport(
        suite=suite,
        checks=tuple(checks),
        passed=passed,
        failed=failed,
        skipped=skipped,
        overall="fail" if failed else "pass",
        seed=seed,
        budget=budget,
        elapsed=time.perf_counter() - start,
    )
