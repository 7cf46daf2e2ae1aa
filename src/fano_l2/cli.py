"""Command-line entry point.

Subcommands: norm (p-norm of a stored graph), check (pattern detectors),
gen (write a construction to a file), bounds (CSV tables of the analytic
bounds), search (the brute-force oracles), verify (named check suites).
Exit codes: 0 success or pattern absent, 1 pattern found or failed check,
2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from math import comb
from pathlib import Path

from . import search
from .bounds import ak_s2_bound, f_bound, prop23_bound
from .formats import (
    FormatError,
    parse_any,
    write_3graph,
    write_graph,
    write_mgraph,
)
from .graphs import SimpleGraph, clique_plus_isolated, complete_minus_clique, complete_split_plus_isolated
from .hypergraphs import Uniform3Graph, balanced_bipartite3, bn_l2_closed, complete3
from .multigraphs import MMultigraph, bipartite_construction_5, contains_k4, turan_layers_5
from .patterns import contains_fano, contains_k53, is_bipartite3
from .verify import SUITE_NAMES, report_to_json, run_suite


def _load(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    return parse_any(text)


# the largest p whose norm prints within Python's 4300-digit limit on any
# file a parser accepts: at most C(N, 2) pairs of codegree N - 2, or N
# vertices of degree N - 1, with N = formats.MAX_HEADER_COUNT
_MAX_P = 890


def _cmd_norm(args) -> int:
    p = args.p
    # checked before reading: the exact norm grows with p, and 10^5 took
    # 0.7 s on a 10-vertex host before failing to print
    if p > _MAX_P:
        raise ValueError(f"--p {p} above the cap of {_MAX_P}")
    obj = _load(args.file)
    if isinstance(obj, Uniform3Graph):
        print(f"norm_{p}: {obj.lp_norm(p)}")
        if p == 2:
            degrees = [obj.l2_degree_expanded(v) for v in range(obj.n)]
            print(f"two_edge_stars: {obj.count_stars()}")
            print(
                f"l2_degree min/max/total: {min(degrees, default=0)} "
                f"{max(degrees, default=0)} {sum(degrees)}"
            )
    elif isinstance(obj, SimpleGraph):
        print(f"degree_power_sum_{p}: {obj.norm_p(p)}")
        if p == 2:
            print(f"two_edge_stars: {obj.star_count()}")
    else:
        print("norm is defined for 3graph and graph files", file=sys.stderr)
        return 2
    return 0


def _cmd_check(args) -> int:
    obj = _load(args.file)
    pattern = args.pattern
    if pattern in ("fano", "k53"):
        if not isinstance(obj, Uniform3Graph):
            print(f"pattern {pattern} needs a 3graph file", file=sys.stderr)
            return 2
        witness = contains_fano(obj) if pattern == "fano" else contains_k53(obj)
        if witness is None:
            print(f"{pattern}: absent")
            return 0
        print(f"{pattern}: found at vertices {' '.join(map(str, witness))}")
        return 1
    if pattern == "bipartite3":
        if not isinstance(obj, Uniform3Graph):
            print("pattern bipartite3 needs a 3graph file", file=sys.stderr)
            return 2
        parts = is_bipartite3(obj)
        if parts is not None:
            print(f"bipartite3: holds with parts {list(parts[0])} | {list(parts[1])}")
            return 0
        print("bipartite3: fails")
        return 1
    if pattern == "k4multi":
        if not isinstance(obj, MMultigraph):
            print("pattern k4multi needs an mgraph file", file=sys.stderr)
            return 2
        witness = contains_k4(obj)
        if witness is None:
            print("k4multi: absent")
            return 0
        print(
            f"k4multi: found on vertices {witness.vertices} "
            f"with matching layers {witness.layers}"
        )
        return 1
    raise AssertionError(pattern)


# the most rows a bounds table, or edges or coloured pairs a construction, may
# have; at the cap gen peaks near 350 MB RSS (mg-bipartite at n = 1448, x86_64
# Linux, Python 3.11.7)
MAX_ROWS = 1 << 20

# construction -> (builder, parameter count, r): the first parameter is the
# vertex count n, and the object has at most C(n, r) edges or coloured pairs.
# snk's k counts the independent part of the complement-of-clique graph.
_CONSTRUCTIONS = {
    "bn": (balanced_bipartite3, 1, 3),
    "kn3": (complete3, 1, 3),
    "cnk": (clique_plus_isolated, 2, 2),
    "snk": (complete_minus_clique, 2, 2),
    "shat": (complete_split_plus_isolated, 3, 2),
    "mg-bipartite": (bipartite_construction_5, 1, 2),
    "mg-turan": (turan_layers_5, 1, 2),
}


def _cmd_gen(args) -> int:
    name = args.construction
    params = args.params
    build, count, r = _CONSTRUCTIONS[name]
    if len(params) != count:
        print(f"construction {name} takes {count} parameter(s)", file=sys.stderr)
        return 2
    # checked before building: kn3 with n = 1000 would hold 166M triples
    edges = comb(max(params[0], 0), r)
    if edges > MAX_ROWS:
        raise ValueError(
            f"{name} with n = {params[0]} gives up to C(n, {r}) = {edges} edges, "
            f"above the cap of {MAX_ROWS}"
        )
    try:
        obj = build(*params)
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 2
    if isinstance(obj, Uniform3Graph):
        text = write_3graph(obj)
        stats = (
            f"edges={obj.edge_count} min_degree={min(obj.degrees(), default=0)} "
            f"norm_2={obj.lp_norm(2)}"
        )
        if name == "bn":
            stats += f" closed_norm_2={bn_l2_closed(obj.n)}"
    elif isinstance(obj, SimpleGraph):
        text = write_graph(obj)
        stats = f"edges={obj.edge_count} min_degree={min(obj.degrees(), default=0)}"
    else:
        text = write_mgraph(obj)
        stats = f"size={obj.size} min_degree={obj.min_degree()}"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}: {stats}")
    else:
        sys.stdout.write(text)
        print(stats, file=sys.stderr)
    return 0


# table -> (header, branch names, grid dimension, evaluator returning a BoundPoint)
_TABLES = {
    "ak": ("x,value,active_branch", ("star", "clique"), 1, ak_s2_bound),
    "prop23": ("x,alpha,value,active_branch", ("split", "star"), 2, prop23_bound),
    "f": ("x,value,active_branch", ("star", "clique"), 1, f_bound),
}


def _grid(step: float):
    # 0, step, 2*step, ... up to 1/2 by x += step (i*step rounds differently and
    # would change the tables' bytes), the last point clipped to 1/2
    x = 0.0
    while x <= 0.5 + 1e-12:
        yield min(x, 0.5)
        x += step


def _cmd_bounds(args) -> int:
    step = args.grid
    if not step > 0:
        print("grid step must be positive", file=sys.stderr)
        return 2
    header, names, dim, evaluate = _TABLES[args.table]
    count = ((0.5 + 1e-12) / step + 1) ** dim
    if count > MAX_ROWS:
        raise ValueError(
            f"grid step {step:g} gives about {count:.3g} rows, above the cap of "
            f"{MAX_ROWS}; use a coarser --grid"
        )
    rows = []
    for point in itertools.product(_grid(step), repeat=dim):
        pt = evaluate(*point)
        coords = ",".join(f"{c:.10g}" for c in point)
        rows.append(f"{coords},{pt.value:.12g},{names[pt.active_branch]}")
    text = header + "\n" + "\n".join(rows) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}: {len(rows)} rows")
    else:
        sys.stdout.write(text)
    return 0


# objective -> (flags it needs, engine call); every engine returns a SearchReport
_SEARCHES = {
    "k4multi": (
        ("n", "m"),
        lambda a: search.max_k4free_multigraph(a.n, a.m, engine=a.engine, budget=a.budget),
    ),
    "ak-s2": (("n", "m"), lambda a: search.max_s2_graph(a.n, a.m)),
    "aes": (("n",), lambda a: search.aes_scan(a.n)),
    "fano-l2": (("n",), lambda a: search.max_l2_fano_free(a.n, budget=a.budget)),
    "bipartite-l2": (("n",), lambda a: search.bipartite_l2_scan(a.n)),
}


def _cmd_search(args) -> int:
    objective = args.objective
    flags, run = _SEARCHES[objective]
    if any(getattr(args, flag) is None for flag in flags):
        needs = " and ".join(f"--{flag}" for flag in flags)
        print(f"{objective} needs {needs}", file=sys.stderr)
        return 2
    report = run(args)
    text = report_to_json(report)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(
        f"{objective}: optimum={report.optimum} nodes={report.nodes} "
        f"complete={report.complete} elapsed={report.elapsed:.1f}s"
    )
    if not args.out:
        print(text)
    return 0


def _cmd_verify(args) -> int:
    report = run_suite(args.suite, seed=args.seed)
    # the seconds go in a column before the values, so a slow check stands out
    width = max(len(check.check_id) for check in report.checks)
    for check in report.checks:
        expected = repr(check.expected)
        if check.tolerance:
            expected += f"±{check.tolerance:g}"
        print(
            f"{check.status.upper()} {check.check_id:{width}s} {check.elapsed:6.3f}s "
            f"measured={check.measured!r} expected={expected}"
        )
    print(
        f"suite {report.suite}: {report.passed} passed, {report.failed} failed "
        f"in {report.elapsed:.1f}s -> {report.overall}"
    )
    if args.out:
        Path(args.out).write_text(report_to_json(report) + "\n", encoding="utf-8")
    return 0 if report.overall == "pass" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fano-l2",
        description="Exact calculus, detectors, bounds, and brute-force "
        "oracles for the squared-norm extremal theory of 3-graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("norm", help="p-norm of a stored 3graph or graph")
    p_norm.add_argument("file")
    p_norm.add_argument("--p", type=int, default=2)
    p_norm.set_defaults(fn=_cmd_norm)

    p_check = sub.add_parser("check", help="run a pattern detector on a file")
    p_check.add_argument("file")
    p_check.add_argument(
        "--pattern", required=True, choices=("fano", "k53", "k4multi", "bipartite3")
    )
    p_check.set_defaults(fn=_cmd_check)

    p_gen = sub.add_parser("gen", help="write a named construction to a file")
    p_gen.add_argument("--construction", required=True, choices=tuple(_CONSTRUCTIONS))
    p_gen.add_argument("--params", type=int, nargs="+", required=True)
    p_gen.add_argument("--out")
    p_gen.set_defaults(fn=_cmd_gen)

    p_bounds = sub.add_parser("bounds", help="emit a CSV table of a bound")
    p_bounds.add_argument("--table", required=True, choices=tuple(_TABLES))
    p_bounds.add_argument("--grid", type=float, default=0.01)
    p_bounds.add_argument("--out")
    p_bounds.set_defaults(fn=_cmd_bounds)

    p_search = sub.add_parser("search", help="run a brute-force oracle")
    p_search.add_argument(
        "--objective",
        required=True,
        choices=tuple(_SEARCHES),
    )
    p_search.add_argument("--n", type=int)
    p_search.add_argument("--m", type=int)
    p_search.add_argument("--engine", choices=("exhaustive", "bnb"), default="exhaustive")
    p_search.add_argument("--budget", type=float)
    p_search.add_argument("--out")
    p_search.set_defaults(fn=_cmd_search)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out")
    p_verify.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
