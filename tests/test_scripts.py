"""The benchmark script: each topic's rows, run in-process, and its runner of
fresh interpreters, run from a checkout with `src` on the path."""

import copy
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


def load_bench(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


@pytest.fixture(scope="module")
def bench():
    return load_bench(ROOT / "scripts" / "bench.py", "bench")


def test_bench_rejects_an_unknown_topic_before_running(bench, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # `--against REV` is read only as the last two arguments
    for args in (["fanoo"], ["census", "--against"], ["verify", "a", "b"],
                 ["census", "a", "--against", "HEAD", "b"], ["--against", "HEAD", "census"]):
        monkeypatch.setattr(sys, "argv", ["bench.py", *args])
        assert bench.main() == 2
        assert capsys.readouterr().err == (
            "usage: bench.py [census|fano|bnb|scans|k4|check|verify] [OUT] [--against REV]\n"
        )
        assert list(tmp_path.iterdir()) == []


def test_bench_scans_records_seconds_and_traced_peak(bench):
    rows = bench.TOPICS["scans"]()
    scans = [(row["scan"], row["n"]) for row in rows]
    assert scans == [("aes_scan", 5), ("aes_scan", 6), ("aes_scan", 7), ("_cold_star_table", 7)] + [
        ("bipartite_l2_scan", n) for n in (4, 5, 6)
    ] + [("max_l2_fano_free", 7)]
    assert all(row["seconds"] > 0 and row["traced_peak_mb"] > 0 for row in rows)
    fano = rows[-1]
    assert (fano["optimum"], fano["nodes"], fano["params"]) == (410, 1078, {"bound_prunes": 4282})


def test_bench_census_records_seconds_and_traced_peak(bench):
    rows = bench.TOPICS["census"]()
    assert [row["m"] for row in rows] == [1, 2, 3, 4, 5]
    assert all(row["seconds"] > 0 and row["traced_peak_mb"] > 0 for row in rows)
    assert [row["triples"] for row in rows] == [(m + 1) * 4**m for m in range(1, 6)]


def test_bench_k4_times_the_detector_and_the_constructor(bench):
    rows = bench.TOPICS["k4"]()
    assert [(row["call"], row.get("host"), row["n"]) for row in rows] == [
        ("contains_k4", host, n)
        for host in ("bipartite_construction_5", "turan_layers_5")
        for n in range(4, 13)
    ] + [("balanced_bipartite3", None, n) for n in range(10, 41)]
    assert all(row["seconds"] > 0 for row in rows)


def test_bench_fano_times_both_kernels_on_the_same_hosts(bench):
    rows = bench.TOPICS["fano"]()
    assert [(row["host"], row["n"], row["plane"]) for row in rows] == [
        (host, n, host == "complete3")
        for host in ("balanced_bipartite3", "complete3")
        for n in range(7, 15)
    ]
    assert all(
        row[f"{call}_s"] > 0
        for row in rows
        for call in ("contains_fano", "contains_k53", "link_triple_violation")
    )


def test_bench_check_times_each_call_on_each_host_class(bench):
    rows = bench.TOPICS["check"]()
    assert [row["class"] for row in rows] == ["random", "bipartite", "random+plane", "bipartite+plane"]
    calls = ("parse_3graph", "contains_fano", "is_bipartite3", "link_triple_violation")
    for row in rows:
        assert row["hosts"] == 60 and row["edges"] > 0
        assert all(row[f"{call}_s"] > 0 for call in calls)
    assert [row["plane"] for row in rows[2:]] == [60, 60]
    assert (rows[1]["plane"], rows[1]["bipartite"]) == (0, 60)


def test_bench_summary_takes_medians_and_requires_the_runs_to_agree(bench):
    def run(seconds, build_s, rate, peak_mb, rss_mb):
        return [
            {"m": 5, "seconds": seconds, "table_build_s": build_s, "traced_peak_mb": peak_mb},
            {"search": "bnb", "seconds": seconds, "optimum": 768, "nodes_per_s": rate,
             "measured": [0.5, "3/7"]},
        ], rss_mb

    runs = [run(3.0, 0.3, 10.0, 0.07, 31.5), run(1.0, 0.2, 30.0, 0.07, 32.0),
            run(2.0, 0.1, 20.0, 0.06, 31.0)]
    assert bench._summary(runs) == {
        "rows": [
            {"m": 5, "seconds": 2.0, "table_build_s": 0.2, "traced_peak_mb": 0.07,
             "runs": {"seconds": [1.0, 2.0, 3.0], "table_build_s": [0.1, 0.2, 0.3],
                      "traced_peak_mb": [0.06, 0.07, 0.07]}},
            {"search": "bnb", "seconds": 2.0, "optimum": 768, "nodes_per_s": 20.0,
             "measured": [0.5, "3/7"],
             "runs": {"seconds": [1.0, 2.0, 3.0], "nodes_per_s": [10.0, 20.0, 30.0]}},
        ],
        "peak_rss_mb": 31.5,
        "runs_peak_rss_mb": [31.0, 31.5, 32.0],
    }
    for key, value in (("optimum", 767), ("measured", [0.5, "2/7"])):
        bad = copy.deepcopy(runs)
        bad[1][0][1][key] = value
        with pytest.raises(AssertionError, match=key):
            bench._summary(bad)
    bad = copy.deepcopy(runs)
    del bad[2][0][0]["traced_peak_mb"]
    with pytest.raises(AssertionError, match="fields"):
        bench._summary(bad)


def test_bench_verify_times_every_check_in_fresh_runs(tmp_path):
    out = tmp_path / "verify.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench.py"), "verify", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(out.read_text(encoding="utf-8"))
    assert set(data["machine"]) == {"nproc", "cpu_count", "processor"}
    *checks, total = data["rows"]
    assert [row["check"] for row in checks] == [c.check_id for c in _CHECKS]
    assert all(row["status"] == "pass" and len(row["runs"]["seconds"]) == 3 for row in checks)
    assert (total["suite"], total["passed"], total["failed"]) == ("all", len(_CHECKS), 0)
    assert total["seconds"] == sorted(total["runs"]["seconds"])[1] > 0
    assert len(data["runs_peak_rss_mb"]) == 3
    assert data["peak_rss_mb"] == sorted(data["runs_peak_rss_mb"])[1] > 0


def committed_tree(tmp_path, src):
    """A throwaway repository holding `src` and the checkout's scripts, and
    its short HEAD: the tests need no `.git` of their own checkout."""
    tree = tmp_path / "tree"
    shutil.copytree(src, tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "scripts", tree / "scripts", ignore=shutil.ignore_patterns("__pycache__"))
    git = ["git", "-C", str(tree), "-c", "user.name=bench", "-c", "user.email=bench@localhost",
           "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "tree"]):
        subprocess.run(git + args, check=True, capture_output=True)
    head = subprocess.run(git + ["rev-parse", "--short", "HEAD"], check=True,
                          capture_output=True, text=True).stdout.strip()
    return tree, head


@pytest.mark.skipif(shutil.which("git") is None, reason="exports the commit with git archive")
def test_bench_against_alternates_a_commit_and_the_checkout(tmp_path, monkeypatch):
    # the checkout's census then reports -m triples, so each side's rows
    # show which source it imported
    tree, head = committed_tree(tmp_path, ROOT / "src")
    search_py = tree / "src" / "fano_l2" / "search.py"
    text = search_py.read_text(encoding="utf-8")
    planted = text.replace("triples=(m + 1) << 2 * m,", "triples=-m,")
    assert planted != text
    search_py.write_text(planted, encoding="utf-8")

    bench = load_bench(tree / "scripts" / "bench.py", "tree_bench")
    out = tmp_path / "census.json"
    monkeypatch.setattr(sys, "argv", ["bench.py", "census", str(out), "--against", "HEAD"])
    assert bench.main() == 0

    data = json.loads(out.read_text(encoding="utf-8"))
    before, after = data["before"], data["after"]
    assert (before["commit"], after["commit"]) == (head, f"{head}-dirty")
    assert before["machine"] == after["machine"] and set(before["machine"]) == {
        "nproc", "cpu_count", "processor"
    }
    assert [row["triples"] for row in before["rows"]] == [(m + 1) * 4**m for m in range(1, 6)]
    assert [row["triples"] for row in after["rows"]] == [-m for m in range(1, 6)]
    assert [run["side"] for run in data["runs"]] == ["before", "after"] * bench.RUNS
    for name, side in (("before", before), ("after", after)):
        runs = [run for run in data["runs"] if run["side"] == name]
        assert all(run["wall_s"] > 0 for run in runs)
        assert side["runs_peak_rss_mb"] == sorted(run["peak_rss_mb"] for run in runs)
        assert all(len(row["runs"]["seconds"]) == bench.RUNS for row in side["rows"])
    # the export beside the checkout is gone
    assert sorted(p.name for p in tmp_path.iterdir()) == ["census.json", "tree"]


@pytest.mark.skipif(shutil.which("git") is None, reason="exports the commit with git archive")
def test_bench_reports_a_failing_child_and_removes_the_export(tmp_path, monkeypatch, capsys):
    # the commit's `src` holds no package, so its child cannot import one
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "README").write_text("no package\n", encoding="utf-8")
    tree, _ = committed_tree(tmp_path, empty)
    shutil.rmtree(empty)

    bench = load_bench(tree / "scripts" / "bench.py", "tree_bench")
    monkeypatch.setattr(sys, "argv", ["bench.py", "census", str(tmp_path / "x.json"), "--against", "HEAD"])
    with pytest.raises(SystemExit, match="^error: the before run of census exited 1$"):
        bench.main()
    assert "ModuleNotFoundError: No module named 'fano_l2'" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["tree"]
