"""Smoke tests: each script runs from a checkout with `src` on the path."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(*argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_decimal_table_prints_every_pinned_constant():
    proc = run_script("decimal_table.py")
    assert proc.returncode == 0, proc.stderr
    rows = [line for line in proc.stdout.splitlines() if line.startswith("roots.")]
    assert len(rows) == 11


def test_census_run_scans_one_block_per_orbit():
    proc = run_script("census_run.py", "--m", "3")
    assert proc.returncode == 0, proc.stderr
    assert "blocks scanned:      20 of 64" in proc.stdout
    assert "inner rows:          576 per block (24 classes per matching)" in proc.stdout


def test_extremal_experiments_find_no_violations():
    proc = run_script("extremal_experiments.py")
    assert proc.returncode == 0, proc.stderr
    scans = [line for line in proc.stdout.splitlines() if " violations among " in line]
    assert len(scans) == 5  # the triangle-free scan at n = 3..7
    assert all(": 0 violations among " in line for line in scans)
    assert "  disagreements: 0" in proc.stdout
    assert "  n=7: 410 (complete" in proc.stdout
    assert "DIRTY" not in proc.stdout and "NOT UNIQUE" not in proc.stdout


def test_bench_scans_records_seconds_and_traced_peak(tmp_path):
    out = tmp_path / "scans.json"
    proc = run_script("bench.py", "scans", str(out))
    assert proc.returncode == 0, proc.stderr
    data = json.loads(out.read_text(encoding="utf-8"))
    assert set(data["machine"]) == {"nproc", "cpu_count", "processor"}
    scans = [(row["scan"], row["n"]) for row in data["rows"]]
    assert scans == [("aes_scan", 5), ("aes_scan", 6), ("aes_scan", 7), ("_cold_star_table", 7)] + [
        ("bipartite_l2_scan", n) for n in (4, 5, 6)
    ]
    assert all(row["seconds"] > 0 and row["traced_peak_mb"] > 0 for row in data["rows"])


def test_bench_k4_times_the_detector_and_the_constructor(tmp_path):
    out = tmp_path / "k4.json"
    proc = run_script("bench.py", "k4", str(out))
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(out.read_text(encoding="utf-8"))["rows"]
    assert [(row["call"], row.get("host"), row["n"]) for row in rows] == [
        ("contains_k4", host, n)
        for host in ("bipartite_construction_5", "turan_layers_5")
        for n in range(4, 13)
    ] + [("balanced_bipartite3", None, n) for n in range(10, 41)]
    assert all(row["seconds"] > 0 for row in rows)
