#!/usr/bin/env python3
"""Desk-scale extremal experiments: bipartite maxima, plane-free optima,
two-edge-star agreement, and the triangle-free bipartiteness scan."""

from __future__ import annotations

import argparse

from fano_l2.formats import parse_3graph
from fano_l2.hypergraphs import bn_l2_closed
from fano_l2.patterns import contains_fano, link_triple_violation
from fano_l2.search import (
    aes_scan,
    bipartite_l2_scan,
    max_l2_fano_free,
    s2_quasi_agreement,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fano-n", type=int, default=7,
        help="largest host for the plane-free optimum (default 7)",
    )
    args = parser.parse_args()

    print("bipartite squared-norm maxima")
    for n in (3, 4, 5, 6):
        rep = bipartite_l2_scan(n)
        tag = "unique" if rep.params["unique_up_to_iso"] else "NOT UNIQUE"
        print(
            f"  n={n}: max {rep.optimum} (closed {rep.params['closed_value']}), "
            f"{rep.params['maximizer_count']} labeled maximizers, {tag}"
        )

    print("plane-free squared-norm optima")
    for n in range(5, args.fano_n + 1):
        rep = max_l2_fano_free(n)
        witness = parse_3graph(rep.witness)
        clean = contains_fano(witness) is None and link_triple_violation(witness) is None
        status = "complete" if rep.complete else "incomplete"
        print(
            f"  n={n}: {rep.optimum} ({status}, {rep.nodes} nodes, "
            f"witness validators {'clean' if clean else 'DIRTY'})"
        )
        if n == 7:
            print(f"       balanced bipartite value at n=7 is {bn_l2_closed(7)}")

    print("two-edge-star maxima vs the two extremal families (n=7)")
    disagreements = [
        (m, best, star, clique)
        for m, best, star, clique in s2_quasi_agreement(7)
        if best != max(star, clique)
    ]
    print(f"  disagreements: {len(disagreements)}")

    print("triangle-free minimum-degree bipartiteness scan")
    for n in range(3, 8):
        rep = aes_scan(n)
        print(
            f"  n={n}: {rep.optimum} violations among {rep.params['triangle_free']} "
            f"triangle-free graphs ({rep.params['above_threshold']} above threshold)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
