"""One job of one workload, in a fresh interpreter.

    python3 perfbench/job.py setup   print when `import fano_l2` finished
    python3 perfbench/job.py run     read a payload on stdin, run the job,
                                     print one JSON result

run.py starts this with `src` on PYTHONPATH. A fresh process per job keeps
the program's in-process caches (census, inner tables, star tables, the
cached plane pattern) cold, as they are for every `fano-l2` command.
"""

import time

import fano_l2

# set-up ends here: interpreter start through `import fano_l2`
IMPORTED = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from checks import TURAN_SEARCHES  # noqa: E402
from tracing import Tracer  # noqa: E402


def verify_all(payload):
    report = fano_l2.run_suite("all", seed=payload["seed"])
    return [
        {"id": c.check_id, "status": c.status, "measured": c.measured}
        for c in report.checks
    ]


def turan_search(payload):
    out = []
    for n, m, engine in TURAN_SEARCHES:
        r = fano_l2.max_k4free_multigraph(n, m, engine=engine)
        out.append(
            {
                "n": r.n,
                "m": r.m,
                "engine": r.engine,
                "optimum": r.optimum,
                "complete": r.complete,
                "nodes": r.nodes,
                "witness": r.witness,
            }
        )
    return out


def plane_check(payload):
    clock = time.perf_counter
    out = []
    for text in payload["hosts"]:
        start = clock()
        host = fano_l2.parse_3graph(text)
        image = fano_l2.contains_fano(host)
        parts = violation = None
        if image is None:
            parts = fano_l2.is_bipartite3(host)
            violation = fano_l2.link_triple_violation(host)
        ms = (clock() - start) * 1e3
        out.append(
            {
                "ms": ms,
                "embedding": image,
                "parts": parts,
                "link_violation": None if violation is None else repr(violation),
            }
        )
    return out


JOBS = {"verify_all": verify_all, "turan_search": turan_search, "plane_check": plane_check}


def _cpu() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> None:
    if sys.argv[1:] == ["setup"]:
        print(json.dumps({"imported": IMPORTED, "module": fano_l2.__file__}))
        return
    payload = json.load(sys.stdin)
    tracer = None
    if payload["trace"]:
        tracer = Tracer(payload["run_id"])
        tracer.install(fano_l2)
    job = JOBS[payload["workload"]]
    cpu0, wall0 = _cpu(), time.perf_counter()
    outputs = job(payload)
    wall, cpu = time.perf_counter() - wall0, _cpu() - cpu0
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result = {
        "imported": IMPORTED,
        "module": fano_l2.__file__,
        "numpy": sys.modules["numpy"].__version__,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_kb / 1024,
        "outputs": outputs,
        "plane_lines": fano_l2.FANO_EDGES,
        "trace": None,
    }
    if tracer is not None:
        tracer.write(payload["spans_path"])
        result["trace"] = tracer.summary()
    json.dump(result, sys.stdout, default=str)


if __name__ == "__main__":
    main()
