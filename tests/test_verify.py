import argparse
import json

import pytest

from fano_l2 import verify
from fano_l2.cli import build_parser
from fano_l2.hypergraphs import Uniform3Graph
from fano_l2.verify import report_to_json, run_suite

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
    assert rep.failed == 0 and rep.skipped == 0
    assert rep.passed == len(rep.checks) == 12


def test_identities_suite_passes_and_is_seeded():
    rep = run_suite("identities", seed=5)
    assert rep.overall == "pass"
    assert rep.seed == 5
    assert rep.passed == 6


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("everything")


def test_reports_are_deterministic_up_to_elapsed():
    a = report_to_json(run_suite("roots", seed=3))
    b = report_to_json(run_suite("roots", seed=3))
    assert strip_elapsed(a) == strip_elapsed(b)


def test_budget_skips_are_deterministic_and_noted():
    # 0.75 s fits the first four oracle rows (0.7 s of estimates) but not the
    # 0.1 s bipartite scan, so it and every row after it are skipped
    rep = run_suite("oracles", budget=0.75)
    skipped = [c for c in rep.checks if c.status == "skipped"]
    assert skipped
    assert all(c.note.startswith("capacity") for c in skipped)
    assert rep.overall == "pass"  # skips do not fail the suite
    again = run_suite("oracles", budget=0.75)
    assert [c.check_id for c in again.checks if c.status == "skipped"] == [
        c.check_id for c in skipped
    ]
    # the first skipped row names its own estimate, 0.3 s for the AES scan;
    # every row after it is skipped because the budget is spent
    estimates = {c.check_id: c.estimate for c in verify._CHECKS}
    skipped = [c for c in run_suite("oracles", budget=0.5).checks if c.status == "skipped"]
    assert skipped[0].check_id == "oracles.aes"
    assert f"estimated {estimates['oracles.aes']:g}s " in skipped[0].note
    assert all(c.note == "capacity: budget spent" for c in skipped[1:])


def test_budget_that_skips_the_census_skips_its_readers():
    # the census readers are estimated at 0.1 s because they read the census
    # that census_max caches; run after a skipped census_max they would pay
    # for the whole census. A budget below census_max's own estimate skips
    # it, and so every reader after it
    estimate = next(c.estimate for c in verify._CHECKS if c.check_id == "lemma51.census_max")
    rep = run_suite("lemma51", budget=estimate / 2)
    assert rep.skipped == len(rep.checks) == 5
    assert rep.checks[0].note.startswith(f"capacity: estimated {estimate:g}s ")
    assert all(c.elapsed == 0.0 for c in rep.checks)


def test_zero_budget_skips_everything():
    rep = run_suite("lemma51", budget=0)
    assert rep.passed == 0 and rep.failed == 0
    assert rep.skipped == len(rep.checks)


def test_checks_record_measured_seconds():
    rep = run_suite("roots")
    assert all(c.elapsed > 0 for c in rep.checks)
    skipped = run_suite("lemma51", budget=0)
    assert all(c.elapsed == 0.0 for c in skipped.checks)


def test_census_estimate_fits_a_small_budget():
    # the class-row census takes a few hundredths of a second and the five
    # lemma51 rows are estimated at 0.5 s together, so a 1 s budget runs them
    rep = run_suite("lemma51", budget=1)
    assert rep.skipped == 0 and rep.passed == 5


def test_identity_estimates_fit_a_small_budget():
    # each identity check takes well under 0.1 s, so one second runs all six
    rep = run_suite("identities", budget=1)
    assert rep.skipped == 0 and rep.passed == 6


def test_degree_routes_checks_the_deletion_route(monkeypatch):
    # the direct route is the drop in the norm when a vertex is deleted, so a
    # broken deletion must fail the check
    def emptied(self, v):
        return Uniform3Graph(self.n - 1, [])

    monkeypatch.setattr(Uniform3Graph, "remove_vertex", emptied)
    assert verify._check_degree_routes(0) > 0


def test_construction_estimates_fit_a_small_budget():
    # the plane embedder clears the bipartite hosts in a fraction of a second
    rep = run_suite("constructions", budget=6)
    assert rep.skipped == 0 and rep.passed == len(rep.checks)


def test_registry_order_and_suite_slices():
    # a zero budget runs only the free decimals, so listing every id is fast
    ids = tuple(c.check_id for c in run_suite("all", budget=0).checks)
    assert ids == REGISTRY_IDS
    suites = ("roots", "identities", "constructions", "lemma51", "oracles")
    assert verify.SUITE_NAMES == (*suites, "all")
    for suite in suites:
        rep = run_suite(suite, budget=0)
        assert tuple(c.check_id for c in rep.checks) == tuple(
            i for i in REGISTRY_IDS if i.startswith(suite + ".")
        )
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    suite_arg = next(a for a in sub.choices["verify"]._actions if a.dest == "suite")
    assert tuple(suite_arg.choices) == verify.SUITE_NAMES


def test_failing_check_flips_overall(monkeypatch):
    entries = (
        verify.Check("identities.synthetic-break", 0.0, lambda seed: 1, 2),
        # a row with a tolerance passes inside it and fails outside it
        verify.Check("identities.synthetic-near", 0.0, lambda seed: 0.5, 0.52, 0.05),
        verify.Check("identities.synthetic-drift", 0.0, lambda seed: 0.5, 0.6, 0.05),
    )
    monkeypatch.setattr(verify, "_CHECKS", entries)
    rep = run_suite("identities")
    assert rep.overall == "fail"
    assert [c.status for c in rep.checks] == ["fail", "pass", "fail"]
    assert rep.checks[0].check_id == "identities.synthetic-break"
    assert rep.checks[0].measured == 1 and rep.checks[0].expected == 2


def test_json_shape():
    rep = run_suite("roots")
    data = json.loads(report_to_json(rep))
    assert data["suite"] == "roots"
    assert {"check_id", "status", "measured", "expected", "tolerance", "note"} <= set(
        data["checks"][0]
    )
