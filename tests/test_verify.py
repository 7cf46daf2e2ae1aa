import argparse
import dataclasses
import json

import pytest

from fano_l2 import verify
from fano_l2.cli import build_parser
from fano_l2.hypergraphs import Uniform3Graph
from fano_l2.verify import report_to_json, run_suite
from helpers import star_participation_oracle

REGISTRY_IDS = (
    "roots.f_inverse_5_4",
    "roots.linear_branch",
    "roots.claim32",
    "roots.claim33",
    "roots.claim34",
    "roots.alpha1_at_61_177",
    "roots.alpha1_at_235_687",
    "roots.alpha2_at_61_177",
    "roots.alpha2_at_61_176",
    "roots.scaled_core_rate",
    "roots.half_core_rate",
    "roots.rational_identity",
    "identities.l1_norm",
    "identities.norm_star",
    "identities.degree_routes",
    "identities.degree_sum",
    "identities.deletion_lipschitz",
    "identities.participation",
    "constructions.bn_norm_closed",
    "constructions.bn_min_degree",
    "constructions.mg_sizes",
    "constructions.mg_k4free",
    "constructions.mg_crossover",
    "constructions.bn_fano_free",
    "constructions.balanced_argmax",
    "lemma51.census_max",
    "lemma51.census_max_count",
    "lemma51.census_clauses",
    "lemma51.census_k4_free",
    "lemma51.census_m4",
    "oracles.s2_quasi",
    "oracles.ak_asymptotic",
    "oracles.aes",
    "oracles.fano_free_max",
    "oracles.bipartite_scan",
    "oracles.bnb_agreement",
    "oracles.bnb_stretch",
    "oracles.bnb_six",
)


def strip_elapsed(payload):
    data = json.loads(payload)
    data.pop("elapsed")
    for check in data["checks"]:
        check.pop("elapsed")
    return data


def test_roots_suite_passes():
    rep = run_suite("roots")
    assert rep.overall == "pass"
    assert rep.failed == 0
    assert rep.passed == len(rep.checks) == 12


@pytest.mark.parametrize("seed", [0, 5])
def test_identities_suite_passes_and_is_seeded(seed):
    rep = run_suite("identities", seed=seed)
    assert rep.overall == "pass"
    assert rep.seed == seed
    assert rep.passed == len(rep.checks) == 6


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("everything")


def test_reports_are_deterministic_up_to_elapsed():
    a = report_to_json(run_suite("roots", seed=3))
    b = report_to_json(run_suite("roots", seed=3))
    assert strip_elapsed(a) == strip_elapsed(b)


def test_checks_record_measured_seconds():
    rep = run_suite("roots")
    assert all(c.elapsed > 0 for c in rep.checks)


def test_lemma51_suite_passes():
    # the census readers take the census that census_max cached
    rep = run_suite("lemma51")
    assert rep.overall == "pass"
    assert rep.passed == len(rep.checks) == 5


@pytest.mark.parametrize("seed", range(20260819, 20260828))
def test_star_participation_matches_the_per_star_count(seed):
    for h in verify._identity_pool(seed):
        counted = verify._star_participation(h)
        nonzero = tuple({key: c for key, c in counts.items() if c} for counts in counted)
        assert nonzero == star_participation_oracle(h)


def test_degree_routes_checks_the_deletion_route(monkeypatch):
    # the direct route is the drop in the norm when a vertex is deleted, so a
    # broken deletion must fail the check
    def emptied(self, v):
        return Uniform3Graph(self.n - 1, [])

    monkeypatch.setattr(Uniform3Graph, "remove_vertex", emptied)
    assert verify._check_degree_routes(0) > 0


def _off_by_one(method):
    def broken(self, v):
        return method(self, v) + 1

    return broken


def test_degree_rows_check_the_local_expansion(monkeypatch):
    expanded = _off_by_one(Uniform3Graph.l2_degree_expanded)
    monkeypatch.setattr(Uniform3Graph, "l2_degree_expanded", expanded)
    assert verify._check_degree_sum(0) > 0
    assert verify._check_bn_min_degree(0) > 0


def test_participation_checks_the_star_degree(monkeypatch):
    monkeypatch.setattr(Uniform3Graph, "star_degree", _off_by_one(Uniform3Graph.star_degree))
    assert verify._check_participation(0) > 0


def test_bn_fano_free_checks_the_plane_embedder(monkeypatch):
    monkeypatch.setattr(verify, "contains_fano", lambda host: tuple(range(7)))
    assert verify._check_bn_fano_free(0) > 0


def test_constructions_suite_passes():
    rep = run_suite("constructions")
    assert rep.overall == "pass"
    assert rep.passed == len(rep.checks) == 7


def test_oracles_suite_passes():
    # no other test runs the branch-and-bound agreement and six-vertex rows
    rep = run_suite("oracles")
    assert [c.check_id for c in rep.checks] == [
        "oracles.s2_quasi", "oracles.ak_asymptotic", "oracles.aes",
        "oracles.fano_free_max", "oracles.bipartite_scan", "oracles.bnb_agreement",
        "oracles.bnb_stretch", "oracles.bnb_six",
    ]
    assert rep.overall == "pass"
    assert rep.passed == len(rep.checks)


def test_registry_order_and_suite_slices(monkeypatch):
    # each row measures its own expected value, so no engine runs
    trivial = tuple(
        dataclasses.replace(c, fn=lambda seed, value=c.expected: value)
        for c in verify._CHECKS
    )
    monkeypatch.setattr(verify, "_CHECKS", trivial)
    rep = run_suite("all")
    assert tuple(c.check_id for c in rep.checks) == REGISTRY_IDS
    assert rep.passed == len(REGISTRY_IDS) and rep.overall == "pass"
    suites = ("roots", "identities", "constructions", "lemma51", "oracles")
    assert verify.SUITE_NAMES == (*suites, "all")
    for suite in suites:
        rep = run_suite(suite)
        assert tuple(c.check_id for c in rep.checks) == tuple(
            i for i in REGISTRY_IDS if i.startswith(suite + ".")
        )
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    suite_arg = next(a for a in sub.choices["verify"]._actions if a.dest == "suite")
    assert tuple(suite_arg.choices) == verify.SUITE_NAMES


def test_failing_check_flips_overall(monkeypatch):
    entries = (
        verify.Check("identities.synthetic-break", lambda seed: 1, 2),
        # a float expected value passes within DECIMAL_TOLERANCE and fails
        # outside it
        verify.Check("identities.synthetic-near", lambda seed: 0.5, 0.500004),
        verify.Check("identities.synthetic-drift", lambda seed: 0.5, 0.50001),
    )
    monkeypatch.setattr(verify, "_CHECKS", entries)
    rep = run_suite("identities")
    assert rep.overall == "fail"
    assert [c.status for c in rep.checks] == ["fail", "pass", "fail"]
    assert rep.checks[0].check_id == "identities.synthetic-break"
    assert rep.checks[0].measured == 1 and rep.checks[0].expected == 2
    decimal = verify.DECIMAL_TOLERANCE
    assert [c.tolerance for c in rep.checks] == [0, decimal, decimal]


def test_json_shape():
    rep = run_suite("roots")
    data = json.loads(report_to_json(rep))
    assert data["suite"] == "roots"
    assert set(data) == {"suite", "checks", "passed", "failed", "overall", "seed", "elapsed"}
    for check in data["checks"]:
        assert set(check) == {
            "check_id", "status", "measured", "expected", "tolerance", "elapsed"
        }
