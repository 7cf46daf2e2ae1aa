#!/usr/bin/env python3
"""Time one engine and write BENCH_<topic>.json.

Every topic runs the same way. The script starts three fresh interpreters
(children); each runs the topic's rows once, timing every call cold, as a
process first meets it (the census, the plane scan, the identity pool and
the (5,5) branch and bound are cached per process). Each row keeps the
median of every measured field (`seconds`, or a name ending in `_s` or
`_mb`) and all three values sorted under `runs`; every other field must
agree across the runs, or the script stops. The children's median peak
RSS (`peak_rss_mb`, from `ru_maxrss`) and all three (`runs_peak_rss_mb`)
sit beside the rows, with the machine (nproc, cpu count) and the Python
and NumPy versions. With `--against REV` it exports REV's `src` with `git
archive` into a new directory beside the checkout whose path has the same
length as the checkout's (peak RSS moves with the path's length), runs
the children alternately on REV (`before`) and on the checkout (`after`),
REV first, and writes both sides, each with its `commit`, and `runs`,
every child's side, wall seconds and peak RSS in the order run. A failing
child's stderr is printed, then one `error:` line, and the script exits 1;
the export is removed either way.

census: a cold `k4_census(m)` for m = 1..5, as `verify` first meets it
(the free-triple and matching tables, the joint counts by matching size,
and the witness walk and check), with the intersection triples the Hall
test ran on (`triples`, (m + 1) * 4^m), its `table_build_s` and a second,
untimed cold census's `tracemalloc` peak (`traced_peak_mb`). The
per-state oracle in the tests is its cross-check.

fano: `contains_fano`, `link_triple_violation` and `contains_k53`, the
kernels on the table of common third vertices, on `balanced_bipartite3(n)`
(no plane and no K5^3, so every branch is searched) and on `complete3(n)`
(both found at the first branch) for n = 7..14. The plane scan's cache is
cleared before either plane test, so each times a cold scan. Each row
asserts that the two plane tests agree, and that `contains_k53` returns
None on the bipartite host and (0, 1, 2, 3, 4) on the complete one.

bnb: the branch and bound `max_k4free_multigraph(n, m, "bnb")` at (4,5),
(5,4) and (5,5), the 5-vertex runs with their 4-vertex quad-cap search as
a caller sees them, and the plane-free search `max_l2_fano_free(8)` (here,
not under scans, whose `tracemalloc` run would take about 25 times as
long), with the optimum, the candidate trials or nodes (`nodes`), the
report's counters (`params`: trials by outcome, or `bound_prunes`) and
`nodes_per_s`.

scans: the exhaustive scans `verify` runs: `aes_scan(n)` for n = 5..7, a
cold `_graph_star_table(7)` (row `_cold_star_table`, as
`s2_quasi_agreement` first meets it: the optimum is the list of maxima by
edge count, `nodes` the graphs scanned, `params` the first attaining
masks), `bipartite_l2_scan(n)` for n = 4..6 and `max_l2_fano_free(7)`,
with the optimum, `nodes`, `params` and a second, untimed run's
`tracemalloc` peak (`traced_peak_mb`; tracing slows the Python around the
NumPy calls).

k4: `contains_k4` on the pattern-free `bipartite_construction_5(n)` and
`turan_layers_5(n)` for n = 4..12, where the detector meets every support
4-clique, and the construction of `balanced_bipartite3(n)` for n = 10..40.
It reads only public names, so it also times versions from before the
4-clique scan.

check: the `fano-l2 check` path on seeded hosts on 7..12 vertices, built
from the package's own constructions and written as `3graph` text, 60 per
class: `random_3graph` hosts, relabelled random sub-hosts of
`balanced_bipartite3` (bipartite, so plane-free), and each of the two with
a Fano plane planted on seven random vertices. Each host goes through
`parse_3graph`, `contains_fano`, `is_bipartite3` and
`link_triple_violation` in that order, as on the path, so the link test
reads the scan `contains_fano` cached. A row holds a class's seconds per
call summed over its hosts, and asserts that the two plane tests agree,
that every planted host holds a plane and that every bipartite sub-host is
bipartite.

verify: `run_suite("all", seed=0)`: each check's status, `measured` value
and seconds, one row per registry row in suite order, and a last row with
the suite's total seconds and its pass and fail counts.

    python scripts/bench.py [census|fano|bnb|scans|k4|check|verify] [OUT] [--against REV]

OUT defaults to BENCH_<topic>.json. Any other arguments print the usage
line to stderr and exit 2.
"""

from __future__ import annotations

import json
import os
import platform
import random
import shutil
import statistics
import string
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager
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
from fano_l2.verify import run_suite

ROOT = Path(__file__).resolve().parent.parent


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


def _census_rows() -> list[dict]:
    rows = []
    for m in range(1, 6):
        rep, seconds = _timed(_cold_census, m)
        rows.append({"m": m, "seconds": seconds, "traced_peak_mb": _traced_peak_mb(_cold_census, m),
                     "triples": rep.triples, "table_build_s": rep.table_build_s})
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
            witness, fano_s = _timed(_cold_plane, contains_fano, host)
            violation, link_s = _timed(_cold_plane, link_triple_violation, host)
            k53, k53_s = _timed(contains_k53, host)
            if (violation is None) != (witness is None):
                raise AssertionError(f"link test and plane embedder disagree on {host_name}({n})")
            if k53 != clique:
                raise AssertionError(f"contains_k53 gave {k53} on {host_name}({n})")
            rows.append({"host": host_name, "n": n, "edges": host.edge_count,
                         "plane": witness is not None, "contains_fano_s": fano_s,
                         "contains_k53_s": k53_s, "link_triple_violation_s": link_s})
    return rows


def _bnb_rows() -> list[dict]:
    calls = [(search.max_k4free_multigraph, (n, m, "bnb")) for n, m in ((4, 5), (5, 4), (5, 5))]
    calls.append((search.max_l2_fano_free, (8,)))
    rows = []
    for fn, args in calls:
        rep, seconds = _timed(fn, *args)
        rows.append({"search": fn.__name__, "n": rep.n, "m": rep.m, "seconds": seconds,
                     "optimum": rep.optimum, "nodes": rep.nodes, "nodes_per_s": rep.nodes / seconds,
                     "params": rep.params})
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
        result, seconds = _timed(fn, n)
        if isinstance(result, search.SearchReport):
            result = {"optimum": result.optimum, "nodes": result.nodes, "params": result.params}
        rows.append({"scan": fn.__name__, "n": n, "seconds": seconds,
                     "traced_peak_mb": _traced_peak_mb(fn, n), **result})
    return rows


def _k4_rows() -> list[dict]:
    rows = []
    for build in (bipartite_construction_5, turan_layers_5):
        for n in range(4, 13):
            witness, seconds = _timed(contains_k4, build(n))
            if witness is not None:
                raise AssertionError(f"pattern found in {build.__name__}({n})")
            rows.append({"call": "contains_k4", "host": build.__name__, "n": n, "seconds": seconds})
    for n in range(10, 41):
        host, seconds = _timed(balanced_bipartite3, n)
        rows.append({"call": "balanced_bipartite3", "n": n, "edges": host.edge_count, "seconds": seconds})
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


def _check_rows() -> list[dict]:
    rows = []
    for name, texts in _check_hosts(random.Random(24)).items():
        patterns._plane_search.cache_clear()
        spent = dict.fromkeys(CHECK_CALLS, 0.0)
        planes = bipartite = 0
        for text in texts:
            host, parse_s = _timed(parse_3graph, text)
            image, fano_s = _timed(contains_fano, host)
            parts, bipartite_s = _timed(is_bipartite3, host)
            violation, link_s = _timed(link_triple_violation, host)
            if (image is None) != (violation is None):
                raise AssertionError(f"link test and plane embedder disagree on {text!r}")
            for call, seconds in zip(CHECK_CALLS, (parse_s, fano_s, bipartite_s, link_s)):
                spent[call] += seconds
            planes += image is not None
            bipartite += parts is not None
        if name.endswith("+plane") and planes != len(texts):
            raise AssertionError(f"a planted {name} host holds no plane")
        if name == "bipartite" and bipartite != len(texts):
            raise AssertionError("a bipartite sub-host is not bipartite")
        edges = sum(len(text.splitlines()) - 1 for text in texts)
        rows.append({"class": name, "hosts": len(texts), "edges": edges, "plane": planes,
                     "bipartite": bipartite, **{f"{call}_s": seconds for call, seconds in spent.items()}})
    return rows


def _verify_rows() -> list[dict]:
    report = run_suite("all", seed=0)
    rows = [{"check": c.check_id, "status": c.status, "measured": c.measured, "seconds": c.elapsed}
            for c in report.checks]
    return rows + [{"suite": "all", "seed": 0, "passed": report.passed, "failed": report.failed,
                    "seconds": report.elapsed}]


TOPICS = {
    "census": _census_rows,
    "fano": _fano_rows,
    "bnb": _bnb_rows,
    "scans": _scan_rows,
    "k4": _k4_rows,
    "check": _check_rows,
    "verify": _verify_rows,
}

RUNS = 3
# runs this file's TOPICS[topic], then prints the rows as JSON and the
# child's own peak RSS in KB, each on a line of its own
CHILD = (
    "import json, resource, runpy, sys; "
    "print(json.dumps(runpy.run_path(sys.argv[1])['TOPICS'][sys.argv[2]]())); "
    "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
)


def _run(topic: str, src: Path | None, side: str) -> tuple[list[dict], float]:
    """One fresh interpreter's rows for `topic` and its peak RSS in MB,
    importing the package from `src` if given, else from the inherited
    PYTHONPATH. A failing child's stderr is printed, and the script exits
    with one `error:` line."""
    env = None if src is None else {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, __file__, topic], capture_output=True, text=True, env=env
    )
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: the {side} run of {topic} exited {proc.returncode}")
    rows, peak_kb = proc.stdout.rstrip("\n").rsplit("\n", 1)
    return json.loads(rows), int(peak_kb) / 1024


def _summary(runs: list[tuple[list[dict], float]]) -> dict:
    """One side's rows and peak RSS from its runs: the median of each
    measured field, with every run's value sorted under the row's `runs`;
    every other field as all runs agree on it."""
    rows = []
    for versions in zip(*(table for table, _ in runs), strict=True):
        if any(version.keys() != versions[0].keys() for version in versions):
            raise AssertionError(f"runs disagree on the fields of {versions[0]}")
        row, spread = {}, {}
        for key in versions[0]:
            values = [version[key] for version in versions]
            if key == "seconds" or key.endswith(("_s", "_mb")):
                spread[key] = sorted(values)
                row[key] = statistics.median(values)
            elif values.count(values[0]) != len(values):
                raise AssertionError(f"runs disagree on {key}: {values}")
            else:
                row[key] = values[0]
        rows.append({**row, "runs": spread})
    peaks = sorted(peak for _, peak in runs)
    return {"rows": rows, "peak_rss_mb": statistics.median(peaks), "runs_peak_rss_mb": peaks}


def _alternate(topic: str, srcs: dict[str, Path | None]) -> tuple[dict[str, dict], list[dict]]:
    """Each side's summary, its RUNS children run in turn with the other
    sides', and every run in the order run."""
    sides: dict[str, list] = {side: [] for side in srcs}
    order = []
    for _ in range(RUNS):
        for side, src in srcs.items():
            (rows, peak_mb), wall_s = _timed(_run, topic, src, side)
            sides[side].append((rows, peak_mb))
            order.append({"side": side, "wall_s": wall_s, "peak_rss_mb": peak_mb})
    return {side: _summary(runs) for side, runs in sides.items()}, order


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True
    ).stdout.strip()


@contextmanager
def _exported_src(rev: str):
    """REV's `src`, exported into a new directory beside the checkout whose
    name has the same length as the checkout's, removed on exit."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev, "src"], capture_output=True, check=True
    ).stdout
    pick = random.Random()
    while True:
        name = "".join(pick.choices(string.ascii_lowercase, k=len(ROOT.name)))
        sibling = ROOT.with_name(name)
        try:
            sibling.mkdir()
            break
        except FileExistsError:
            continue
    try:
        subprocess.run(["tar", "-x", "-C", str(sibling)], input=archive, check=True)
        yield sibling / "src"
    finally:
        shutil.rmtree(sibling)


USAGE = f"usage: bench.py [{'|'.join(TOPICS)}] [OUT] [--against REV]"


def main() -> int:
    args = sys.argv[1:]
    rev = None
    if args[-2:-1] == ["--against"]:
        rev = args.pop()
        args.pop()
    if len(args) > 2 or args and args[0] not in TOPICS or any(a.startswith("--") for a in args):
        print(USAGE, file=sys.stderr)
        return 2
    topic = args.pop(0) if args else "census"
    out = Path(args[0] if args else f"BENCH_{topic}.json")
    side = {
        "topic": topic,
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "processor": platform.processor() or platform.machine(),
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    if rev is None:
        summaries, _ = _alternate(topic, {"checkout": None})
        payload = {**side, **summaries["checkout"]}
    else:
        try:
            commit = _git("rev-parse", "--short", "--verify", f"{rev}^{{commit}}")
            tree = _git("describe", "--always", "--dirty")
        except subprocess.CalledProcessError as exc:
            print(f"error: {exc.stderr.strip()}", file=sys.stderr)
            return 2
        with _exported_src(commit) as rev_src:
            summaries, runs = _alternate(topic, {"before": rev_src, "after": ROOT / "src"})
        payload = {
            "topic": topic,
            "before": {**side, **summaries["before"], "commit": commit},
            "after": {**side, **summaries["after"], "commit": tree},
            "runs": runs,
        }
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
