#!/usr/bin/env python3
"""Run the 4-vertex multigraph census and print its findings.

The census counts every assignment of layer sets to the six vertex pairs,
the pattern-free ones among them, and the maximum size with a witness. It
scans one outer block per layer-relabelling orbit, weighted by the orbit
size, instead of every block (56 of 1024 at m=5), and within a block one row
per pair of matching classes, weighted by the states it stands for (19,044
rows for 2^20 states at m=5).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
from pathlib import Path

from fano_l2.search import k4_census


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m", type=int, default=5, help="layer count 1..5 (default 5)")
    parser.add_argument("--json-out", help="also dump the full report as JSON")
    args = parser.parse_args()

    try:
        rep = k4_census(args.m)
    except ValueError as exc:
        parser.error(str(exc))
    print(f"states counted:      {rep.states}")
    print(f"blocks scanned:      {rep.blocks} of {4 ** args.m}")
    print(f"inner rows:          {rep.inner_rows} per block ({rep.classes} classes per matching)")
    print(f"pattern-free:        {rep.k4_free}")
    print(f"maximum size:        {rep.max_size}")
    print(f"maximizers:          {rep.max_count}")
    if args.m == 5:
        print(
            "clause violations:   "
            f"i={rep.clause_i_violations} iii={rep.clause_iii_violations} "
            f"iv={rep.clause_iv_violations} v={rep.clause_v_violations}"
        )
    tail = {s: c for s, c in enumerate(rep.size_histogram) if c and s >= rep.max_size - 4}
    print(f"histogram tail:      {tail}")
    print(
        f"elapsed:             {rep.elapsed:.3f}s "
        f"(tables {rep.table_build_s:.3f}s, scan {rep.scan_s:.3f}s)"
    )
    print("witness:")
    print(rep.witness, end="")

    if args.json_out:
        payload = dataclasses.asdict(rep)
        Path(args.json_out).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote {args.json_out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
