"""Desk-scale benchmark of fano_l2: one workload per call, run from the
repository root.

    python3 perfbench/run.py --workload plane_check --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each job runs in a fresh interpreter (job.py), closed loop, one at a time,
single process. Jobs repeat while another whole job fits in --seconds; at
least one runs. With --trace 1 the same jobs run again with spans recorded
(tracing.py), and the per-layer metrics replace the end-to-end ones.
Every job's outputs are checked against known-correct values (checks.py).
The metric names and units come from BENCHMARK.json; the last line of
stdout is the JSON result. Everything else a run learns (environment,
exact counts, per-host percentiles, failures) goes to the lines before it
and to .perfbench_out/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import TURAN_SEARCHES, check_plane, check_turan, check_verify, verify_attempted
from hosts import make_hosts

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
JOB = Path(__file__).resolve().parent / "job.py"

WORKLOADS = ("verify_all", "turan_search", "plane_check")
SETUP_PROBES = 5
FREE_HOSTS = 200
PLANTED_HOSTS = 200
RUN_LIMIT_S = 175.0


class RunError(RuntimeError):
    pass


def _child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(
        os.environ,
        PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""),
        GIT_CEILING_DIRECTORIES=str(ROOT.parent),
    )


def _spawn(args: list[str], payload: dict | None, deadline: float) -> tuple[float, dict]:
    """Start job.py, wait for it, return (spawn time, its JSON output)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("run time limit reached")
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(JOB), *args],
            input=None if payload is None else json.dumps(payload),
            capture_output=True,
            text=True,
            env=_child_env(),
            timeout=timeout,
            check=False,
        )
    except subprocess.TimeoutExpired:
        raise RunError(f"job.py {args[0]} exceeded the run time limit") from None
    if proc.returncode != 0:
        raise RunError(f"job.py {args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout)
    if not Path(result["module"]).resolve().is_relative_to(SRC.resolve()):
        raise RunError(f"imported fano_l2 from {result['module']}, not from {SRC}")
    return started, result


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, env=_child_env(), timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _percentile(sorted_values: list[float], p: int) -> float:
    """Nearest rank: at least (100 - p)% of the samples lie at or above it."""
    rank = max(1, -(-p * len(sorted_values) // 100))
    return sorted_values[rank - 1]


# ----- per-workload inputs, gates and counts ----------------------------------


def _inputs(workload: str, seed: int) -> tuple[dict, list | None]:
    payload = {"workload": workload, "seed": seed}
    hosts = None
    if workload == "plane_check":
        hosts = make_hosts(seed, FREE_HOSTS, PLANTED_HOSTS)
        payload["hosts"] = [h["text"] for h in hosts]
    return payload, hosts


def _gate(workload: str, result: dict, hosts) -> tuple[int, list[str]]:
    """(items attempted, one message per failed item)."""
    outputs = result["outputs"]
    if workload == "verify_all":
        return verify_attempted(), check_verify(outputs)
    if workload == "turan_search":
        return len(TURAN_SEARCHES), check_turan(outputs)
    return len(hosts), check_plane(hosts, outputs, result["plane_lines"])


def _counts(workload: str, result: dict, hosts) -> dict:
    """Exact counts that must repeat between runs of the same code and inputs."""
    outputs = result["outputs"]
    if workload == "verify_all":
        counts = {"checks.pass": sum(c["status"] == "pass" for c in outputs)}
    elif workload == "turan_search":
        counts = {
            f"max_k4free_multigraph.nodes[n={o['n']},m={o['m']},{o['engine']}]": o["nodes"]
            for o in outputs
        }
    else:
        counts = {
            "hosts.free": sum(h["cls"] == "free" for h in hosts),
            "hosts.planted": sum(h["cls"] == "planted" for h in hosts),
            "hosts.embedding_found": sum(o["embedding"] is not None for o in outputs),
            "hosts.bipartite": sum(o["parts"] is not None for o in outputs),
        }
    if result["trace"]:
        counts.update(result["trace"]["counts"])
    return counts


def _flag_counts(key: str, runs: list[dict]) -> list[str]:
    """Compare counts between the jobs of this run and with earlier runs of
    the same program, benchmark code and seed; one message per mismatch."""
    store = OUT / "counts.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    flags = []
    merged = dict(known.get(key, {}))
    for counts in runs:
        for name, value in counts.items():
            if name in merged and merged[name] != value:
                flags.append(f"count {name} changed: {merged[name]} then {value}")
            merged[name] = value
    known[key] = merged
    store.write_text(json.dumps(known, indent=1, sort_keys=True))
    return flags


# ----- one workload -------------------------------------------------------------


def _run_jobs(payload, hosts, seconds, traced, deadline, label) -> list[dict]:
    jobs = []
    first = time.monotonic()
    while True:
        run_id = f"{label}-{'traced' if traced else 'plain'}{len(jobs)}"
        spans_path = OUT / "spans" / f"{run_id}.json"
        body = dict(payload, trace=int(traced), run_id=run_id, spans_path=str(spans_path))
        started, result = _spawn(["run"], body, deadline)
        result["setup_s"] = result["imported"] - started
        result["attempted"], result["failures"] = _gate(payload["workload"], result, hosts)
        result["counts"] = _counts(payload["workload"], result, hosts)
        jobs.append(result)
        spent = time.monotonic() - first
        if spent + spent / len(jobs) > seconds:
            return jobs


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    load_start = os.getloadavg()
    (OUT / "spans").mkdir(parents=True, exist_ok=True)
    payload, hosts = _inputs(workload, seed)
    _spawn(["setup"], None, deadline)  # build: writes the bytecode caches
    setup = []
    for _ in range(SETUP_PROBES):
        started, probe = _spawn(["setup"], None, deadline)
        setup.append(probe["imported"] - started)
    label = f"{workload}-seed{seed}"
    plain = _run_jobs(payload, hosts, seconds, False, deadline, label)
    traced = _run_jobs(payload, hosts, seconds, True, deadline, label) if trace else []
    jobs = plain + traced
    setup += [j["setup_s"] for j in jobs]

    def median(key, rows):
        return statistics.median(r[key] for r in rows)

    if trace:
        measured = {
            name: statistics.median(j["trace"]["metrics"][name] for j in traced)
            for name in traced[0]["trace"]["metrics"]
        }
        measured["trace.overhead_s"] = median("wall_s", traced) - median("wall_s", plain)
        estimate = statistics.median(j["trace"]["overhead_estimate_s"] for j in traced)
        listed = spec["per_layer"]
    else:
        measured = {
            "setup_s": statistics.median(setup),
            "wall_s": median("wall_s", plain),
            "cpu_s": median("cpu_s", plain),
            "peak_rss_mb": median("peak_rss_mb", plain),
        }
        estimate = None
        listed = spec["end_to_end"]

    attempted = sum(j["attempted"] for j in jobs)
    failures = [f for j in jobs for f in j["failures"]]
    classes = {}
    if workload == "plane_check":
        for cls in ("free", "planted"):
            ms = sorted(
                o["ms"] for j in plain for h, o in zip(hosts, j["outputs"]) if h["cls"] == cls
            )
            p90 = _percentile(ms, 90)
            classes[cls] = {
                "samples": len(ms),
                "p50_ms": _percentile(ms, 50),
                "p90_ms": p90,
                "beyond_p90": sum(x > p90 for x in ms),
            }
    digest = _digest(SRC / "fano_l2")
    code = f"{digest[:16]}-{_digest(JOB.parent)[:16]}"
    flags = _flag_counts(f"{code}/{workload}/seed{seed}", [j["counts"] for j in jobs])
    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": jobs[0]["numpy"],
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "source_sha256": digest,
        "seed": seed,
        "seconds": seconds,
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
    }
    report = {
        "workload": workload,
        "trace": int(trace),
        "env": env,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in listed},
        "setup_samples_s": setup,
        "jobs": [
            {k: j[k] for k in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s", "attempted")}
            | {"traced": j["trace"] is not None, "failed": len(j["failures"])}
            for j in jobs
        ],
        "trace_overhead_estimate_s": estimate,
        "fail_frac": len(failures) / attempted,
        "classes": classes,
        "counts": {k: v for j in jobs for k, v in j["counts"].items()},
        "count_flags": flags,
        "failures": failures[:50],
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
    }
    out = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(report, indent=1, default=str))
    _print_report(report, out)
    return report


def _print_report(report: dict, out: Path) -> None:
    env = report["env"]
    print(
        f"{report['workload']}  seed {env['seed']}  jobs {len(report['jobs'])}"
        f"  nproc {env['nproc']}  python {env['python']}  numpy {env['numpy']}"
        f"  commit {(env['git_commit'] or 'unknown')[:12]}"
        f"  load {env['loadavg_start'][0]:.2f} -> {env['loadavg_end'][0]:.2f}"
    )
    for name, m in report["metrics"].items():
        print(f"  {name:45s} {m['value']:.6g} {m['unit']}")
    if report["trace_overhead_estimate_s"] is not None:
        print(f"  {'(spans x cost of one wrapped call)':45s} {report['trace_overhead_estimate_s']:.6g} s")
    print(f"  {'fail_frac':45s} {report['fail_frac']:.6g} ({report['failed']}/{report['attempted']})")
    for cls, c in report["classes"].items():
        print(
            f"  {cls}_p50_ms {c['p50_ms']:.4g} ms  {cls}_p90_ms {c['p90_ms']:.4g} ms"
            f"  ({c['samples']} hosts, {c['beyond_p90']} beyond p90)"
        )
    print("  counts: " + ", ".join(f"{k}={v}" for k, v in sorted(report["counts"].items())))
    for line in report["count_flags"] + report["failures"][:10]:
        print(f"  ! {line}")
    print(f"  details: {out.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fano_l2" / "__init__.py").is_file():
        print(f"no fano_l2 sources under {SRC}: run from the repository root", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        reports = [
            run_workload(w, args.seed, args.seconds, bool(args.trace), spec) for w in names
        ]
    except RunError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}.{k}": v for r in reports for k, v in r["metrics"].items()
        }
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in reports),
                "attempted": sum(r["attempted"] for r in reports),
                "failed": sum(r["failed"] for r in reports),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
