"""Smoke tests: the benchmark script runs from a checkout with `src` on the path."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from fano_l2.verify import _CHECKS

ROOT = Path(__file__).resolve().parent.parent


def run_bench(topic, out):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench.py"), topic, str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_bench_rejects_an_unknown_topic_before_running(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    # `--against` reads REV after the `verify` topic and its OUT, nowhere else
    for args in (["fanoo"], ["census", "--against", "HEAD"], ["verify", "--against"],
                 ["verify", "a", "b"]):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "bench.py"), *args],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr == (
            "usage: bench.py [census|fano|bnb|scans|k4|check|verify] [OUT], "
            "or bench.py verify [OUT] --against REV\n"
        )
        assert list(tmp_path.iterdir()) == []


def test_bench_scans_records_seconds_and_traced_peak(tmp_path):
    out = tmp_path / "scans.json"
    proc = run_bench("scans", out)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(out.read_text(encoding="utf-8"))
    assert set(data["machine"]) == {"nproc", "cpu_count", "processor"}
    scans = [(row["scan"], row["n"]) for row in data["rows"]]
    assert scans == [("aes_scan", 5), ("aes_scan", 6), ("aes_scan", 7), ("_cold_star_table", 7)] + [
        ("bipartite_l2_scan", n) for n in (4, 5, 6)
    ] + [("max_l2_fano_free", 7)]
    assert all(row["seconds"] > 0 and row["traced_peak_mb"] > 0 for row in data["rows"])
    fano = data["rows"][-1]
    assert (fano["optimum"], fano["nodes"], fano["params"]) == (410, 1078, {"bound_prunes": 4282})


def test_bench_census_records_seconds_and_traced_peak(tmp_path):
    out = tmp_path / "census.json"
    proc = run_bench("census", out)
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(out.read_text(encoding="utf-8"))["rows"]
    assert [row["m"] for row in rows] == [1, 2, 3, 4, 5]
    assert all(
        row["seconds"] > 0 and len(row["runs_s"]) == 3 and row["traced_peak_mb"] > 0
        for row in rows
    )
    assert [row["triples"] for row in rows] == [(m + 1) * 4**m for m in range(1, 6)]


def test_bench_k4_times_the_detector_and_the_constructor(tmp_path):
    out = tmp_path / "k4.json"
    proc = run_bench("k4", out)
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(out.read_text(encoding="utf-8"))["rows"]
    assert [(row["call"], row.get("host"), row["n"]) for row in rows] == [
        ("contains_k4", host, n)
        for host in ("bipartite_construction_5", "turan_layers_5")
        for n in range(4, 13)
    ] + [("balanced_bipartite3", None, n) for n in range(10, 41)]
    assert all(row["seconds"] > 0 for row in rows)


def test_bench_fano_times_both_kernels_on_the_same_hosts(tmp_path):
    out = tmp_path / "fano.json"
    proc = run_bench("fano", out)
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(out.read_text(encoding="utf-8"))["rows"]
    assert [(row["host"], row["n"], row["plane"]) for row in rows] == [
        (host, n, host == "complete3")
        for host in ("balanced_bipartite3", "complete3")
        for n in range(7, 15)
    ]
    assert all(
        row[f"{call}_s"] > 0 and len(row["runs_s"][call]) == 3
        for row in rows
        for call in ("contains_fano", "contains_k53", "link_triple_violation")
    )


def test_bench_check_times_each_call_on_each_host_class(tmp_path):
    out = tmp_path / "check.json"
    proc = run_bench("check", out)
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(out.read_text(encoding="utf-8"))["rows"]
    assert [row["class"] for row in rows] == ["random", "bipartite", "random+plane", "bipartite+plane"]
    calls = ("parse_3graph", "contains_fano", "is_bipartite3", "link_triple_violation")
    for row in rows:
        assert row["hosts"] == 60 and row["edges"] > 0
        assert all(row[f"{call}_s"] > 0 and len(row["runs_s"][call]) == 3 for call in calls)
    assert [row["plane"] for row in rows[2:]] == [60, 60]
    assert (rows[1]["plane"], rows[1]["bipartite"]) == (0, 60)


def test_bench_verify_times_every_check_in_fresh_runs(tmp_path):
    out = tmp_path / "verify.json"
    proc = run_bench("verify", out)
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(out.read_text(encoding="utf-8"))["rows"]
    *checks, total = rows
    assert [row["check"] for row in checks] == [c.check_id for c in _CHECKS]
    assert all(row["status"] == "pass" and len(row["runs_s"]) == 3 for row in checks)
    assert (total["suite"], total["passed"], total["failed"]) == ("all", len(_CHECKS), 0)
    assert total["seconds"] > 0
    assert len(total["runs_peak_rss_mb"]) == 3
    assert total["peak_rss_mb"] == sorted(total["runs_peak_rss_mb"])[1] > 0


@pytest.mark.skipif(shutil.which("git") is None, reason="exports the commit with git archive")
def test_bench_verify_against_alternates_a_commit_and_the_checkout(tmp_path, monkeypatch):
    # a throwaway repository of the package: the test needs no `.git` of
    # its own checkout; the checkout then runs one `roots` row fewer than
    # its commit, so each side's rows show which source it imported
    tree = tmp_path / "tree"
    shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "scripts", tree / "scripts", ignore=shutil.ignore_patterns("__pycache__"))
    git = ["git", "-C", str(tree), "-c", "user.name=bench", "-c", "user.email=bench@localhost",
           "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "tree"]):
        subprocess.run(git + args, check=True, capture_output=True)
    head = subprocess.run(git + ["rev-parse", "--short", "HEAD"], check=True,
                          capture_output=True, text=True).stdout.strip()
    verify_py = tree / "src" / "fano_l2" / "verify.py"
    verify_py.write_text(verify_py.read_text(encoding="utf-8") + "_CHECKS = _CHECKS[1:]\n",
                         encoding="utf-8")

    spec = importlib.util.spec_from_file_location("tree_bench", tree / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    child = bench.VERIFY_CHILD.replace("run_suite('all'", "run_suite('roots'")
    assert child != bench.VERIFY_CHILD
    monkeypatch.setattr(bench, "VERIFY_CHILD", child)
    out = tmp_path / "verify.json"
    monkeypatch.setattr(sys, "argv", ["bench.py", "verify", str(out), "--against", "HEAD"])
    assert bench.main() == 0

    data = json.loads(out.read_text(encoding="utf-8"))
    before, after = data["before"], data["after"]
    assert (before["commit"], after["commit"]) == (head, f"{head}-dirty")
    assert before["machine"] == after["machine"] and set(before["machine"]) == {
        "nproc", "cpu_count", "processor"
    }
    def roots(checks):
        return [c.check_id for c in checks if c.check_id.startswith("roots.")]

    assert [row["check"] for row in before["rows"][:-1]] == roots(_CHECKS)
    assert [row["check"] for row in after["rows"][:-1]] == roots(_CHECKS[1:])
    assert roots(_CHECKS[1:]) != roots(_CHECKS)
    assert [run["side"] for run in data["runs"]] == ["before", "after"] * bench.VERIFY_RUNS
    for side, rows in (("before", before["rows"]), ("after", after["rows"])):
        runs = [run for run in data["runs"] if run["side"] == side]
        assert rows[-1]["runs_s"] == sorted(run["seconds"] for run in runs)
        assert rows[-1]["runs_peak_rss_mb"] == sorted(run["peak_rss_mb"] for run in runs)
    # the export beside the checkout is gone
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tree", "verify.json"]
