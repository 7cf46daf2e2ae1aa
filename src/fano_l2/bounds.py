"""Analytic bound curves and exact rational checks.

Two-branch maxima bounding two-edge-star counts and squared norms by edge
density, the increasing map f with its bisection inverse, the quartet of
density root equations, the large-n independence rates, and big-integer
identity verifications.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

@dataclass(frozen=True, slots=True)
class BoundPoint:
    """One evaluation of a two-branch maximum.

    value is max(branches); active_branch is the first index attaining it.
    """

    value: float
    active_branch: int
    branches: tuple[float, ...]


def _pick(branches: tuple[float, ...]) -> BoundPoint:
    value = max(branches)
    # ties (up to float noise) go to the earliest branch
    active = next(i for i, b in enumerate(branches) if b >= value - 1e-12)
    return BoundPoint(value, active, branches)


def ak_s2_bound(x: float) -> BoundPoint:
    """Asymptotic maximum of two-edge-star count over n-vertex graphs with
    x*n^2 edges, normalized by n^3: the larger of the quasi-star and the
    quasi-clique branch. Crossover at x = 1/4."""
    if not 0 <= x <= 0.5:
        raise ValueError(f"edge density {x} outside [0, 1/2]")
    star = ((1 - 2 * x) ** 1.5 + 4 * x - 1) / 2
    clique = sqrt(2) * x**1.5
    return _pick((star, clique))


def prop23_bound(x: float, alpha: float) -> BoundPoint:
    """Two-edge-star ceiling for graphs with x*n^2 edges and an independent
    set of alpha*n vertices, normalized by n^3. Its hypothesis window
    is x in [17/50, 7/20]; the curve is evaluated on all of [0, 1/2]."""
    if not 0 <= x <= 0.5:
        raise ValueError(f"edge density {x} outside [0, 1/2]")
    if not 0 <= alpha <= 1:
        raise ValueError(f"independence rate {alpha} outside [0, 1]")
    split = (alpha**3 + (2 * x - alpha**2) * sqrt(2 * x + alpha**2)) / 2
    return _pick((split, ak_s2_bound(x).branches[0]))


# ----- the increasing map f and its inverse -----------------------------------


def _f_formula(y):
    """The two branches of f, for a float or elementwise for an array."""
    return (1 - 2 * y) ** 1.5 + 6 * y - 1, (2 * y) ** 1.5 + 2 * y


def f_bound(y: float) -> BoundPoint:
    """f(y) = max{(1-2y)^(3/2) + 6y - 1, (2y)^(3/2) + 2y} on [0, 1/2], with
    its branches, the star first and the clique second."""
    if not 0 <= y <= 0.5:
        raise ValueError(f"argument {y} outside [0, 1/2]")
    return _pick(_f_formula(y))


@functools.cache
def _check_f_grid() -> None:
    # f_inverse bisects, so it needs f nondecreasing; checked once a process
    import numpy as np

    values = np.maximum(*_f_formula(np.arange(10001) / 20000))
    if np.any(values[1:] < values[:-1] - 1e-12):
        raise AssertionError("f is not nondecreasing on the check grid")


def _bisect(fn, target: float, lo: float, hi: float) -> float:
    """Where a nondecreasing fn reaches target on [lo, hi]: halves the
    bracket until no float lies strictly between its ends."""
    while lo < (mid := (lo + hi) / 2) < hi:
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid
    return mid


def f_inverse(t: float) -> float:
    """Bisection inverse of f on [0, 1/2], to float precision; domain
    [0, f(1/2)] = [0, 2]."""
    if not 0 <= t <= 2:
        raise ValueError(f"target {t} outside [0, 2]")
    _check_f_grid()
    # a plain float, not a BoundPoint: the bisection evaluates f once a
    # halving, 53 times for t = 5/4
    return _bisect(lambda y: max(_f_formula(y)), t, 0.0, 0.5)


# ----- density root equations --------------------------------------------------


def _eq_claim32(r: float) -> float:
    return (
        64 / 2197 * (260 * r / 3 - 88 / 3) ** 1.5
        - 22 * (143 * r - 64) / 6591 * sqrt(2 * (2587 * r - 704) / 3)
        + 2 * r
    )


def _eq_claim33(r: float) -> float:
    return (
        192 * sqrt(3) * (65 * r - 22) ** 1.5 / 2197
        + 2 * (528 - 1391 * r) * sqrt(3458 * r - 1056) / 2197
        + 2 * r
    )


def _eq_claim34(r: float) -> float:
    return 8 / 125 + (2 * r - 4 / 25) * sqrt(2 * r + 4 / 25) + 2 * r


# Brackets start from [0.3, 0.4]; the first two equations involve roots that
# only become real at rho = 22/65, so their bracket is clipped there.
_ROOT_EQUATIONS = {
    "claim32": (_eq_claim32, 22 / 65, 0.4),
    "claim33": (_eq_claim33, 22 / 65, 0.4),
    "claim34": (_eq_claim34, 0.3, 0.4),
    "linear_branch": (lambda r: _f_formula(r)[0], 0.3, 0.4),  # f's star branch
}
ROOT_EQUATION_TOKENS = tuple(_ROOT_EQUATIONS)


# every density equation is solved against the degree level 5/4
_ROOT_TARGET = 1.25


def solve_root_equation(which: str) -> float:
    """Bisection root of the named density equation against 5/4.

    Asserts on a 1001-point bracket grid that the equation crosses the
    target exactly once (claim33 has a shallow dip right after its bracket
    clip, so plain monotonicity is too strong), then bisects to float
    precision and asserts |equation(rho) - 5/4| <= 1e-10.
    """
    if which not in _ROOT_EQUATIONS:
        raise ValueError(f"unknown equation {which!r}, expected one of {ROOT_EQUATION_TOKENS}")
    eq, lo, hi = _ROOT_EQUATIONS[which]
    above = [eq(lo + (hi - lo) * i / 1000) > _ROOT_TARGET for i in range(1001)]
    crossings = sum(a != b for a, b in zip(above, above[1:]))
    if crossings != 1:
        raise ValueError(f"{which} crosses the target {crossings} times on [{lo}, {hi}]")
    if above[0] or not above[-1]:
        raise ValueError(f"no upward sign change for {which} on [{lo}, {hi}]")
    root = _bisect(eq, _ROOT_TARGET, lo, hi)
    if abs(eq(root) - _ROOT_TARGET) > 1e-10:
        raise AssertionError(f"{which} bisection did not converge: residual {eq(root) - _ROOT_TARGET}")
    return root


# ----- large-n independence rates ----------------------------------------------


def core_rate(c: float) -> float:
    """sqrt(260c/3 - 88/3) for a minimum degree of c*n^2, n large."""
    radicand = 260 * c / 3 - 88 / 3
    if radicand < 0:
        raise ValueError(f"degree rate {c} below 22/65, radicand negative")
    return sqrt(radicand)


def alpha1_limit(c: float) -> float:
    """Large-n limit of (4/(13n)) * sqrt(260*dmin/3 - 88*n(n+1)/3) with
    dmin = c*n^2."""
    return 4 / 13 * core_rate(c)


def alpha2_limit(c: float) -> float:
    """Large-n limit of (6/(13n)) * sqrt(260*dmin/3 - 88*n(n+1)/3) with
    dmin = c*n^2."""
    return 6 / 13 * core_rate(c)


# ----- exact rational identities --------------------------------------------------


@dataclass(frozen=True, slots=True)
class RationalReport:
    """Outcome of the exact big-integer verifications."""

    combined_value: Fraction
    g_step_largest_failing: int


def g_pairs_plus_bipartite(m):
    """g(m) = 2*C(m,2) + 3*floor(m^2/4), for an int or elementwise for an
    integer array."""
    return m * (m - 1) + 3 * (m * m // 4)


_SCAN_CHUNK = 1 << 14
_SCAN_LIMIT = 10**6


def rational_identity_checks() -> RationalReport:
    """Compute with exact arithmetic the combined degree-density value
    2*(253/730) + 3*(321/926) + (3/17)*(253/730) (the paper's
    5154779/2872915, above 61/34), assert the step identity
    g(m) - g(m-1) = 2(m-1) + 3*floor(m/2) for m up to 10^6, and find the
    largest m there at which the step does not beat 44m/13 (29: it holds
    from 30 on). The scan runs on int64 chunks of at most 2^14 values, in
    which m*m stays far from overflow."""
    combined = (
        2 * Fraction(253, 730)
        + 3 * Fraction(321, 926)
        + Fraction(3, 17) * Fraction(253, 730)
    )

    # imported here: numpy first in the package's import order raised the
    # peak RSS of `import fano_l2` from 30.0 to 31.0 MB (Python 3.11.7,
    # NumPy 2.4.6, x86_64 Linux)
    import numpy as np

    largest_failing = 0
    for lo in range(2, _SCAN_LIMIT + 1, _SCAN_CHUNK):
        # g once over lo-1..hi: its differences are the steps at m = lo..hi
        span = np.arange(lo - 1, min(lo + _SCAN_CHUNK, _SCAN_LIMIT + 1), dtype=np.int64)
        m = span[1:]
        step = 2 * (m - 1) + 3 * (m // 2)
        wrong = np.flatnonzero(np.diff(g_pairs_plus_bipartite(span)) != step)
        if wrong.size:
            raise AssertionError(f"step identity fails at m={int(m[wrong[0]])}")
        failing = np.flatnonzero(13 * step <= 44 * m)
        if failing.size:
            largest_failing = int(m[failing[-1]])
    return RationalReport(combined_value=combined, g_step_largest_failing=largest_failing)
