#!/usr/bin/env python3
"""Time the 4-vertex census and write BENCH_census.json.

For each layer count m = 1..5 it times the cold build of the inner tables,
then the block scan of the orbit census (one outer block per
layer-relabelling orbit, as `k4_census` runs it) and of the full scan
(every outer block at weight 1, the oracle the tests compare it with). The
full scan at m=5 takes about half a minute. The machine (nproc, cpu count)
and the Python and NumPy versions are recorded with the timings.

    python scripts/bench.py [OUT]    default OUT: BENCH_census.json
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from fano_l2 import search


def _scan_row(m: int, blocks) -> tuple[dict, dict]:
    start = time.perf_counter()
    rep = search._census_report(m, blocks)
    scan_s = time.perf_counter() - start
    fields = dataclasses.asdict(rep)
    del fields["elapsed"], fields["blocks"]
    row = {
        "scan_s": scan_s,
        "blocks": rep.blocks,
        "states": rep.states,
        "states_counted_per_s": rep.states / scan_s,
    }
    return row, fields


def main() -> int:
    out = Path(sys.argv[1] if len(sys.argv) > 1 else "BENCH_census.json")
    rows = []
    for m in range(1, 6):
        search._INNER_CACHE.pop(m, None)
        start = time.perf_counter()
        search._INNER_CACHE[m] = search._inner_tables(m)
        table_s = time.perf_counter() - start
        orbit, orbit_fields = _scan_row(m, search._block_orbits(m))
        full, full_fields = _scan_row(m, [(block, 1) for block in range(4**m)])
        if orbit_fields != full_fields:
            raise AssertionError(f"orbit census and full scan disagree at m={m}")
        rows.append({"m": m, "table_build_s": table_s, "orbit": orbit, "full": full})
        print(
            f"m={m}: tables {table_s:.3f}s, orbit {orbit['scan_s']:.3f}s "
            f"({orbit['blocks']} blocks), full {full['scan_s']:.3f}s "
            f"({full['blocks']} blocks)"
        )
    payload = {
        "topic": "census",
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
