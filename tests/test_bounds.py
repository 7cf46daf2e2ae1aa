from fractions import Fraction
from math import comb, isclose, sqrt

import pytest
from hypothesis import given, settings, strategies as st

from fano_l2 import bounds
from fano_l2.bounds import (
    ROOT_EQUATION_TOKENS,
    RationalReport,
    ak_s2_bound,
    alpha1_limit,
    alpha2_limit,
    core_rate,
    f_bound,
    f_inverse,
    g_pairs_plus_bipartite,
    prop23_bound,
    rational_identity_checks,
    solve_root_equation,
)
from fano_l2.graphs import clique_plus_isolated, complete_minus_clique, complete_split_plus_isolated

from helpers import core_size_bound


densities = st.floats(0.0, 0.5, allow_nan=False)


@given(densities)
def test_bound_point_invariants(x):
    for point in (ak_s2_bound(x), prop23_bound(x, 0.3), f_bound(x)):
        assert point.value == max(point.branches)
        assert point.branches[point.active_branch] >= point.value - 1e-12
        # first branch meeting the max wins
        for i in range(point.active_branch):
            assert point.branches[i] < point.value - 1e-12


def test_ak_endpoints_and_crossover():
    assert ak_s2_bound(0.0).value == 0.0
    half = ak_s2_bound(0.5)
    assert isclose(half.value, 0.5, rel_tol=1e-12)
    assert half.active_branch == 0  # exact tie goes to the star branch
    cross = ak_s2_bound(0.25)
    assert isclose(cross.branches[0], cross.branches[1], rel_tol=1e-12)
    assert ak_s2_bound(0.1).active_branch == 0
    assert ak_s2_bound(0.4).active_branch == 1


@given(densities)
def test_prop23_alpha_zero_is_the_clique_branch(x):
    p = prop23_bound(x, 0.0)
    assert isclose(p.branches[0], ak_s2_bound(x).branches[1], rel_tol=1e-12, abs_tol=1e-15)


def test_domain_validation():
    for bad in (-0.01, 0.51):
        with pytest.raises(ValueError):
            ak_s2_bound(bad)
        with pytest.raises(ValueError):
            f_bound(bad)
    with pytest.raises(ValueError):
        prop23_bound(0.3, 1.5)
    with pytest.raises(ValueError):
        f_inverse(2.5)
    with pytest.raises(ValueError):
        core_rate(0.3)
    with pytest.raises(ValueError):
        solve_root_equation("claim35")


def test_f_endpoints_and_roundtrip():
    assert f_bound(0.0).value == 0.0
    assert f_bound(0.5).value == 2.0
    for y in (0.05, 0.2, 0.342, 0.49):
        assert isclose(f_inverse(f_bound(y).value), y, abs_tol=1e-14)


# f at a few points as the per-point scalar formula gave it: y, f(y), the
# active branch and both branches
F_VALUES = [
    (0.0, 0.0, 0, (0.0, 0.0)),
    (0.1, 0.3155417527999329, 0, (0.3155417527999329, 0.28944271909999164)),
    (0.25, 0.8535533905932737, 0, (0.8535533905932737, 0.8535533905932737)),
    (0.3, 1.0647580015448899, 1, (1.05298221281347, 1.0647580015448899)),
    (0.342067, 1.2499976045551242, 1, (1.2299248743229496, 1.2499976045551242)),
    (0.5, 2.0, 0, (2.0, 2.0)),
]


def test_f_values_are_pinned():
    for y, value, active, branches in F_VALUES:
        assert f_bound(y) == bounds.BoundPoint(value, active, branches)


def test_f_inverse_refuses_a_formula_the_grid_finds_decreasing(monkeypatch):
    formula = bounds._f_formula

    def dipped(y):
        # both branches drop by 1e-3 at the grid point y = 0.3, more than
        # f rises over one grid step (about 1.5e-4)
        star, clique = formula(y)
        dip = 1e-3 * (y == 0.3)
        return star - dip, clique - dip

    monkeypatch.setattr(bounds, "_f_formula", dipped)
    bounds._check_f_grid.cache_clear()
    try:
        with pytest.raises(AssertionError, match="f is not nondecreasing"):
            f_inverse(1.0)
    finally:
        bounds._check_f_grid.cache_clear()


def test_root_residuals_and_pinned_values():
    pinned = {
        "linear_branch": 0.346707,
        "claim32": 0.344635,
        "claim33": 0.346577,
        "claim34": 0.346665,
    }
    for which in ROOT_EQUATION_TOKENS:
        root = solve_root_equation(which)
        assert abs(root - pinned[which]) <= 5e-6
    assert abs(f_inverse(1.25) - 0.342067) <= 5e-6


def test_roots_are_pinned_bit_for_bit():
    # the floats the equations gave under a fixed 200-step bisection; the
    # bisection to float precision reaches the same ones
    assert {which: solve_root_equation(which) for which in ROOT_EQUATION_TOKENS} == {
        "claim32": 0.34463485978207675,
        "claim33": 0.346577372130076,
        "claim34": 0.3466654094448093,
        "linear_branch": 0.34670715955053477,
    }


def test_alpha_scaling():
    assert isclose(alpha2_limit(0.36), 1.5 * alpha1_limit(0.36), rel_tol=1e-12)
    assert core_rate(22 / 65) == 0.0


def test_core_size_bound_shape():
    assert core_size_bound(10, 10, 3) == 0.0  # radicand clamps at 0
    with pytest.raises(ValueError):
        core_size_bound(100, 5, Fraction(7, 2))
    n = 20
    taut = Fraction(3) * n * (n + 1) / 2
    assert core_size_bound(taut, n, 3) == 0.0
    grown = core_size_bound(int(taut) + 40, n, 3)
    assert 0 < grown < n
    assert core_size_bound(int(taut) + 80, n, 3) > grown


def test_rational_identity_report(monkeypatch):
    monkeypatch.setattr(bounds, "_SCAN_LIMIT", 2000)
    rep = rational_identity_checks()
    assert rep.combined_value == Fraction(5154779, 2872915)
    assert rep.combined_value > Fraction(61, 34)
    assert rep.g_step_largest_failing == 29


def _reference_step_scan(scan_limit):
    # the plain-int scan, one m at a time
    largest_failing = 0
    for m in range(2, scan_limit + 1):
        g = 2 * comb(m, 2) + 3 * (m * m // 4)
        g_prev = 2 * comb(m - 1, 2) + 3 * ((m - 1) * (m - 1) // 4)
        step = 2 * (m - 1) + 3 * (m // 2)
        assert g - g_prev == step
        if 13 * step <= 44 * m:
            largest_failing = m
    return largest_failing


def test_rational_identity_chunks_match_the_plain_scan(monkeypatch):
    # 70,000 crosses several chunk boundaries of the vectorized scan
    for limit in (2000, 70_000):
        largest_failing = _reference_step_scan(limit)
        monkeypatch.setattr(bounds, "_SCAN_LIMIT", limit)
        assert rational_identity_checks() == RationalReport(
            combined_value=Fraction(5154779, 2872915),
            g_step_largest_failing=largest_failing,
        )


@pytest.mark.parametrize("bad", [2 + (1 << 14), 3 + (1 << 14), 2 + (2 << 14), 70_000])
def test_step_scan_names_the_first_m_where_g_is_wrong(monkeypatch, bad):
    # g off by one at a single m breaks the steps at m and m+1; the first m
    # of a chunk is caught only if its chunk also evaluates g at m - 1
    g = bounds.g_pairs_plus_bipartite
    monkeypatch.setattr(bounds, "g_pairs_plus_bipartite", lambda m: g(m) + (m == bad))
    with pytest.raises(AssertionError, match=f"step identity fails at m={bad}$"):
        rational_identity_checks()


def test_g_matches_construction_sizes():
    from fano_l2.multigraphs import bipartite_construction_5

    for m in range(2, 20):
        assert g_pairs_plus_bipartite(m) == bipartite_construction_5(m).size


def test_min_degree_deviation_rate():
    # on even n the min-degree ratio sits below 5/4 by exactly (39n - 38)/(8n^2)
    from fano_l2.hypergraphs import bn_min_l2_degree

    for n in (1000, 4000, 16000):
        deviation = Fraction(5, 4) - Fraction(bn_min_l2_degree(n), n**3)
        assert deviation == Fraction(39 * n - 38, 8 * n**2)


@settings(deadline=None)
@given(st.sampled_from([0.05, 0.15, 0.3, 0.42, 0.48]))
def test_branch_values_are_attained_by_constructions(x):
    n = 600
    # an independent part of sqrt(1-2x)*n vertices gives the quasi-star edge density x
    k = round(sqrt(1 - 2 * x) * n)
    g = complete_minus_clique(n, k)
    star_density = g.edge_count / n**2
    assert abs(g.star_count() / n**3 - ak_s2_bound(star_density).branches[0]) <= 3 / n

    # and a clique of sqrt(2x)*n vertices gives the quasi-clique edge density x
    k = round(sqrt(2 * x) * n)
    g = clique_plus_isolated(n, k)
    clique_density = g.edge_count / n**2
    assert abs(g.star_count() / n**3 - ak_s2_bound(clique_density).branches[1]) <= 3 / n


def test_split_construction_attains_split_branch():
    n = 600
    alpha = 0.3
    for x in (0.34, 0.345, 0.35):
        # ((alpha + ell/n)^2 - alpha^2) / 2 = x: the joined clique gives density x
        ell = round((sqrt(alpha**2 + 2 * x) - alpha) * n)
        k = round(alpha * n)
        g = complete_split_plus_isolated(n, k, ell)
        density = g.edge_count / n**2
        point = prop23_bound(density, k / n)
        assert abs(g.star_count() / n**3 - point.branches[0]) <= 3 / n
