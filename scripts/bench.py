#!/usr/bin/env python3
"""Time one engine and write BENCH_<topic>.json.

census: for each layer count m = 1..5 it times a cold `k4_census(m)`, as
`verify` first meets it (the free-triple and matching tables, the joint
counts by matching size, and the witness walk and check), the median of
three runs, all three kept in `runs_s`. Each row records the intersection
triples the Hall test ran on (`triples`, (m + 1) * 4^m) and the median
`table_build_s` of the three runs, and a fourth, untimed cold census under
`tracemalloc` gives its `traced_peak_mb`. At m=5 the cold census takes
under a millisecond. The per-state oracle in the tests is its cross-check.

fano: for n = 7..14 it times `contains_fano`, `link_triple_violation` and
`contains_k53`, the kernels on the table of common third vertices, on
`balanced_bipartite3(n)` (no plane and no K5^3, so every branch is
searched) and on `complete3(n)` (both found at the first branch). Each
call is the median of three runs, all three kept in `runs_s`. The two plane
tests share one cached scan per host, so that cache is cleared before every
run of either, and each times a cold scan. Each row asserts that the two
plane tests agree, and that `contains_k53` returns None on the bipartite
host and (0, 1, 2, 3, 4) on the complete one.

bnb: times the branch and bound `max_k4free_multigraph(n, m, "bnb")` at
(4,5), (5,4) and (5,5), and the plane-free search `max_l2_fano_free(8)`,
three runs each, and records the median seconds with the optimum, the
candidate trials or nodes (`nodes`), the report's counters (its `params`:
trials by outcome, or `bound_prunes`) and `nodes_per_s`. Each row asserts
that its three runs agree. The 5-vertex runs include their 4-vertex
quad-cap search, as a caller sees them. The plane-free row is here and not
under scans, whose `tracemalloc` run would take about 25 times as long.

scans: times the exhaustive scans that `verify` runs: `aes_scan(n)` for
n = 5..7, a cold `_graph_star_table(7)` (row `_cold_star_table`: its cache
cleared first, as `s2_quasi_agreement` first meets it),
`bipartite_l2_scan(n)` for n = 4..6 and the plane-free search
`max_l2_fano_free(7)`, three runs each, and records the median seconds with
the optimum, `nodes` and `params`. For the star table the optimum is the
list of maxima by edge count, `nodes` the graphs scanned and `params` the
first attaining masks. A fourth run under `tracemalloc` gives each row's `traced_peak_mb`; it is not
timed, since tracing slows the Python around the NumPy calls.

k4: times `contains_k4` on the pattern-free `bipartite_construction_5(n)`
and `turan_layers_5(n)` for n = 4..12, where the detector meets every
support 4-clique, and the construction of `balanced_bipartite3(n)` for
n = 10..40, three runs each, and records the median seconds. It reads only
public names, so it also times versions from before the 4-clique scan.

check: times the `fano-l2 check` path on seeded hosts on 7..12 vertices,
built here from the package's own constructions and written as `3graph`
text, 60 hosts per class: `random_3graph` hosts, relabelled random
sub-hosts of `balanced_bipartite3` (bipartite, so plane-free), and each of
the two with a Fano plane planted on seven random vertices. For each host
it calls `parse_3graph`, `contains_fano`, `is_bipartite3` and
`link_triple_violation` in that order, as the path does, so the link test
reads the scan `contains_fano` cached. Each row holds a class's seconds per
call summed over its hosts, the median of three runs, and asserts that
the two plane tests agree, that every planted host holds a plane and that
every bipartite sub-host is bipartite.

verify: runs `run_suite("all", seed=0)` in three fresh interpreters, since
the census, the identity pool and the (5,5) branch and bound are cached per
process and a second run in one process would time them warm. It records
each check's status and median `elapsed` seconds, one row per registry
row in suite order, and a last row with the suite's median total seconds,
its pass and fail counts and the median of the interpreters' own peak RSS
(`peak_rss_mb`, from `ru_maxrss`). It asserts that the three runs measured
the same values.

The machine (nproc, cpu count) and the Python and NumPy versions are
recorded with the timings.

    python scripts/bench.py [census|fano|bnb|scans|k4|check|verify] [OUT]    default OUT: BENCH_<topic>.json

Any other first argument prints that usage line to stderr and exits 2.
"""

from __future__ import annotations

import json
import os
import platform
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from fano_l2 import patterns, search
from fano_l2.formats import parse_3graph, write_3graph
from fano_l2.hypergraphs import Uniform3Graph, balanced_bipartite3, complete3, random_3graph
from fano_l2.multigraphs import bipartite_construction_5, contains_k4, turan_layers_5
from fano_l2.patterns import (
    FANO_EDGES,
    contains_fano,
    contains_k53,
    is_bipartite3,
    link_triple_violation,
)


def _cold_census(m: int):
    search.k4_census.cache_clear()
    return search.k4_census(m)


def _traced_peak_mb(fn, *args) -> float:
    """The tracemalloc peak of one untimed run of fn(*args), in MB."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _median_run(fn, *args) -> tuple[list, float, list[float]]:
    """Three runs of fn(*args): every run's result, the median seconds and
    the sorted seconds."""
    runs = [_timed(fn, *args) for _ in range(3)]
    seconds = sorted(s for _, s in runs)
    return [result for result, _ in runs], seconds[1], seconds


def _census_rows() -> list[dict]:
    rows = []
    for m in range(1, 6):
        reps, seconds, runs_s = _median_run(_cold_census, m)
        table_build_s = sorted(rep.table_build_s for rep in reps)[1]
        peak = _traced_peak_mb(_cold_census, m)
        rows.append(
            {
                "m": m,
                "seconds": seconds,
                "runs_s": runs_s,
                "traced_peak_mb": peak,
                "triples": reps[0].triples,
                "table_build_s": table_build_s,
            }
        )
        print(
            f"m={m}: cold census {seconds * 1e3:.2f} ms, {reps[0].triples} triples "
            f"(tables {table_build_s * 1e3:.2f} ms), {peak:.3f} MB traced"
        )
    return rows


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def _cold_plane(fn, host):
    patterns._plane_search.cache_clear()
    return fn(host)


def _fano_rows() -> list[dict]:
    rows = []
    for build, clique in ((balanced_bipartite3, None), (complete3, (0, 1, 2, 3, 4))):
        host_name = build.__name__
        for n in range(7, 15):
            host = build(n)
            (witness, *_), fano_s, fano_runs = _median_run(_cold_plane, contains_fano, host)
            (violation, *_), link_s, link_runs = _median_run(_cold_plane, link_triple_violation, host)
            (k53, *_), k53_s, k53_runs = _median_run(contains_k53, host)
            if (violation is None) != (witness is None):
                raise AssertionError(f"link test and plane embedder disagree on {host_name}({n})")
            if k53 != clique:
                raise AssertionError(f"contains_k53 gave {k53} on {host_name}({n})")
            rows.append(
                {
                    "host": host_name,
                    "n": n,
                    "edges": host.edge_count,
                    "plane": witness is not None,
                    "contains_fano_s": fano_s,
                    "contains_k53_s": k53_s,
                    "link_triple_violation_s": link_s,
                    "runs_s": {
                        "contains_fano": fano_runs,
                        "contains_k53": k53_runs,
                        "link_triple_violation": link_runs,
                    },
                }
            )
            print(
                f"{host_name}({n}): contains_fano {fano_s:.4f}s, contains_k53 {k53_s:.4f}s, "
                f"link_triple_violation {link_s:.4f}s"
            )
    return rows


def _bnb_rows() -> list[dict]:
    calls = [(search.max_k4free_multigraph, (n, m, "bnb")) for n, m in ((4, 5), (5, 4), (5, 5))]
    calls.append((search.max_l2_fano_free, (8,)))
    rows = []
    for fn, args in calls:
        reps, seconds, runs_s = _median_run(fn, *args)
        if len({(rep.optimum, rep.witness, rep.nodes) for rep in reps}) != 1:
            raise AssertionError(f"{fn.__name__}{args} runs disagree")
        rep = reps[0]
        rows.append(
            {
                "search": fn.__name__,
                "n": rep.n,
                "m": rep.m,
                "seconds": seconds,
                "runs_s": runs_s,
                "optimum": rep.optimum,
                "nodes": rep.nodes,
                "nodes_per_s": rep.nodes / seconds,
                "params": rep.params,
            }
        )
        print(f"{fn.__name__}{args}: optimum {rep.optimum}, {rep.nodes} nodes, "
              f"{seconds:.3f}s {rep.params}")
    return rows


def _cold_star_table(n: int) -> dict:
    search._graph_star_table.cache_clear()
    data = search._graph_star_table(n)
    table = [data["table"][m] for m in sorted(data["table"])]
    return {
        "optimum": [best for best, _ in table],
        "nodes": data["states"],
        "params": {"first_masks": [mask for _, mask in table]},
    }


def _scan_rows() -> list[dict]:
    calls = [(search.aes_scan, n) for n in (5, 6, 7)] + [(_cold_star_table, 7)]
    calls += [(search.bipartite_l2_scan, n) for n in (4, 5, 6)] + [(search.max_l2_fano_free, 7)]
    rows = []
    for fn, n in calls:
        (result, *_), seconds, runs_s = _median_run(fn, n)
        peak = _traced_peak_mb(fn, n)
        if isinstance(result, search.SearchReport):
            result = {"optimum": result.optimum, "nodes": result.nodes, "params": result.params}
        rows.append(
            {
                "scan": fn.__name__,
                "n": n,
                "seconds": seconds,
                "runs_s": runs_s,
                "traced_peak_mb": peak,
                **result,
            }
        )
        print(f"{fn.__name__}({n}): {result['nodes']} nodes, {seconds:.3f}s, {peak:.2f} MB traced")
    return rows


def _k4_rows() -> list[dict]:
    rows = []
    for build in (bipartite_construction_5, turan_layers_5):
        for n in range(4, 13):
            host = build(n)
            (witness, *_), seconds, runs_s = _median_run(contains_k4, host)
            if witness is not None:
                raise AssertionError(f"pattern found in {build.__name__}({n})")
            rows.append({"call": "contains_k4", "host": build.__name__, "n": n,
                         "seconds": seconds, "runs_s": runs_s})
            print(f"contains_k4({build.__name__}({n})): {seconds * 1e3:.3f} ms")
    for n in range(10, 41):
        (host, *_), seconds, runs_s = _median_run(balanced_bipartite3, n)
        rows.append({"call": "balanced_bipartite3", "n": n, "edges": host.edge_count,
                     "seconds": seconds, "runs_s": runs_s})
        print(f"balanced_bipartite3({n}): {host.edge_count} edges, {seconds * 1e3:.3f} ms")
    return rows


CHECK_HOSTS = 60
CHECK_CALLS = ("parse_3graph", "contains_fano", "is_bipartite3", "link_triple_violation")


def _check_hosts(rng: random.Random) -> dict[str, list[str]]:
    """CHECK_HOSTS hosts per class as `3graph` text, vertex counts cycling
    through 7..12."""
    hosts: dict[str, list[str]] = {"random": [], "bipartite": [], "random+plane": [], "bipartite+plane": []}
    for i in range(CHECK_HOSTS):
        n = 7 + i % 6
        dense = random_3graph(n, rng.uniform(0.1, 0.5), rng).triples()
        perm = rng.sample(range(n), n)
        keep = rng.uniform(0.15, 0.6)
        sub = [
            tuple(sorted(perm[x] for x in t))
            for t in balanced_bipartite3(n).triples()
            if rng.random() < keep
        ]
        image = rng.sample(range(n), 7)
        plane = {tuple(sorted(image[x] for x in line)) for line in FANO_EDGES}
        for name, edges in (("random", dense), ("bipartite", sub)):
            hosts[name].append(write_3graph(Uniform3Graph(n, edges)))
            hosts[name + "+plane"].append(write_3graph(Uniform3Graph(n, plane.union(edges))))
    return hosts


def _check_run(texts: list[str]) -> tuple[dict[str, float], list[tuple[bool, bool]]]:
    """Seconds per call summed over the hosts, and each host's (plane,
    bipartite) answers."""
    patterns._plane_search.cache_clear()
    spent = dict.fromkeys(CHECK_CALLS, 0.0)
    answers = []
    for text in texts:
        host, parse_s = _timed(parse_3graph, text)
        image, fano_s = _timed(contains_fano, host)
        parts, bipartite_s = _timed(is_bipartite3, host)
        violation, link_s = _timed(link_triple_violation, host)
        if (image is None) != (violation is None):
            raise AssertionError(f"link test and plane embedder disagree on {text!r}")
        for call, seconds in zip(CHECK_CALLS, (parse_s, fano_s, bipartite_s, link_s)):
            spent[call] += seconds
        answers.append((image is not None, parts is not None))
    return spent, answers


def _check_rows() -> list[dict]:
    rows = []
    for name, texts in _check_hosts(random.Random(24)).items():
        runs = [_check_run(texts) for _ in range(3)]
        answers = runs[0][1]
        planes = sum(plane for plane, _ in answers)
        bipartite = sum(parts for _, parts in answers)
        if name.endswith("+plane") and planes != len(texts):
            raise AssertionError(f"a planted {name} host holds no plane")
        if name == "bipartite" and bipartite != len(texts):
            raise AssertionError("a bipartite sub-host is not bipartite")
        runs_s = {call: sorted(spent[call] for spent, _ in runs) for call in CHECK_CALLS}
        rows.append(
            {
                "class": name,
                "hosts": len(texts),
                "edges": sum(len(text.splitlines()) - 1 for text in texts),
                "plane": planes,
                "bipartite": bipartite,
                **{f"{call}_s": seconds[1] for call, seconds in runs_s.items()},
                "runs_s": runs_s,
            }
        )
        print(f"{name}: " + ", ".join(f"{call} {seconds[1] * 1e3:.2f} ms" for call, seconds in runs_s.items()))
    return rows


VERIFY_RUNS = 3
# the report's JSON, then the child's own peak RSS in KB on a line of its own
VERIFY_CHILD = (
    "import resource; from fano_l2.verify import report_to_json, run_suite; "
    "print(report_to_json(run_suite('all', seed=0))); "
    "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
)


def _verify_rows() -> list[dict]:
    # the census, the identity pool and the (5,5) branch and bound are cached
    # per process, so each run gets a fresh interpreter to time them cold
    reports, peaks_mb = [], []
    for _ in range(VERIFY_RUNS):
        proc = subprocess.run(
            [sys.executable, "-c", VERIFY_CHILD], capture_output=True, text=True, check=True
        )
        report, peak_kb = proc.stdout.rstrip("\n").rsplit("\n", 1)
        reports.append(json.loads(report))
        peaks_mb.append(int(peak_kb) / 1024)
    measured = {json.dumps([(c["check_id"], c["measured"]) for c in r["checks"]]) for r in reports}
    if len(measured) != 1:
        raise AssertionError("verify runs measured different values")
    rows = []
    for i, check in enumerate(reports[0]["checks"]):
        runs_s = sorted(r["checks"][i]["elapsed"] for r in reports)
        rows.append(
            {"check": check["check_id"], "status": check["status"],
             "seconds": runs_s[1], "runs_s": runs_s}
        )
        print(f"{check['check_id']}: {check['status']} {runs_s[1] * 1e3:.1f} ms")
    runs_s = sorted(r["elapsed"] for r in reports)
    peaks_mb.sort()
    rows.append(
        {"suite": "all", "seed": 0, "passed": reports[0]["passed"],
         "failed": reports[0]["failed"], "seconds": runs_s[1], "runs_s": runs_s,
         "peak_rss_mb": peaks_mb[1], "runs_peak_rss_mb": peaks_mb}
    )
    print(
        f"all: {reports[0]['passed']} passed, {reports[0]['failed']} failed, "
        f"{runs_s[1]:.3f}s, {peaks_mb[1]:.2f} MB peak RSS"
    )
    return rows


TOPICS = {
    "census": _census_rows,
    "fano": _fano_rows,
    "bnb": _bnb_rows,
    "scans": _scan_rows,
    "k4": _k4_rows,
    "check": _check_rows,
    "verify": _verify_rows,
}


def main() -> int:
    args = sys.argv[1:]
    if args and args[0] not in TOPICS:
        print(f"usage: bench.py [{'|'.join(TOPICS)}] [OUT]", file=sys.stderr)
        return 2
    topic = args.pop(0) if args else "census"
    out = Path(args[0] if args else f"BENCH_{topic}.json")
    rows = TOPICS[topic]()
    payload = {
        "topic": topic,
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "processor": platform.processor() or platform.machine(),
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "rows": rows,
    }
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
