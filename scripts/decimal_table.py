#!/usr/bin/env python3
"""Print the pinned decimal constants next to their recomputed values."""

from __future__ import annotations

from fano_l2.verify import DECIMAL_TOLERANCE, run_suite


def main() -> int:
    rows = [c for c in run_suite("roots").checks if c.tolerance]
    width = max(len(c.check_id) for c in rows)
    print(f"{'constant':{width}s}  {'measured':>12s}  {'pinned':>9s}  {'dev':>8s}")
    for c in rows:
        dev = abs(c.measured - c.expected)
        print(f"{c.check_id:{width}s}  {c.measured:12.8f}  {c.expected:9.6f}  {dev:8.1e}")
    worst = max(abs(c.measured - c.expected) for c in rows)
    ok = all(c.status == "pass" for c in rows)
    print(f"worst deviation {worst:.2e} against tolerance {DECIMAL_TOLERANCE:.0e}: "
          f"{'ok' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
