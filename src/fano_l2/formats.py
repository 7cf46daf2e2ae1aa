"""Plain-text serialization for graphs, 3-graphs, and layered multigraphs.

Three line-oriented formats, each opened by a header naming the kind and
dimensions. Parsers validate per-line ordering, ranges, and duplicates, and
report 1-based line numbers on failure; writers emit canonical sorted order
with a trailing newline.

    3graph <n>      then one `u v w` line per edge, 0 <= u < v < w < n
    graph <n>       then one `u v` line per edge, u < v
    mgraph <n> <m>  then one `u v c1,c2,...` line per colored pair, layers
                    strictly increasing in 1..m
"""

from __future__ import annotations

from itertools import chain
from typing import NoReturn

from .graphs import SimpleGraph
from .hypergraphs import Uniform3Graph, _is_canonical
from .multigraphs import MMultigraph


# the in-memory graphs allocate per vertex, and a multigraph builds an
# m-bit layer mask, before any edge is read, so a header alone could ask for
# gigabytes; larger vertex and layer counts are refused
MAX_HEADER_COUNT = 1 << 16


class FormatError(ValueError):
    """Malformed serialized graph text."""


def _nonblank_lines(text: str) -> list[tuple[int, list[str]]]:
    """Each nonblank line's 1-based number and whitespace-split tokens."""
    return [(i, t) for i, t in enumerate(map(str.split, text.splitlines()), start=1) if t]


def _header(text: str, kind: str, lows: tuple[int, ...]) -> tuple[list[int], list]:
    """The header's counts, each at least its entry of lows, and the body lines."""
    lines = _nonblank_lines(text)
    if not lines:
        raise FormatError("empty input")
    lineno, tokens = lines[0]
    if tokens[0] != kind or len(tokens) != 1 + len(lows):
        raise FormatError(f"line {lineno}: expected header '{kind}' with {len(lows)} argument(s)")
    try:
        args = [int(t) for t in tokens[1:]]
    except ValueError:
        raise FormatError(f"line {lineno}: non-integer header argument") from None
    if max(args) > MAX_HEADER_COUNT:
        raise FormatError(
            f"line {lineno}: header count {max(args)} exceeds the cap {MAX_HEADER_COUNT}"
        )
    for count, low in zip(args, lows):
        if count < low:
            raise FormatError(f"line {lineno}: header count {count} is below {low}")
    return args, lines[1:]


def _ints(lineno: int, tokens: list[str], count: int) -> list[int]:
    if len(tokens) != count:
        raise FormatError(f"line {lineno}: expected {count} fields, got {len(tokens)}")
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise FormatError(f"line {lineno}: non-integer field") from None


def _raise_first_invalid_edge(n: int, body) -> NoReturn:
    """Raise the error of the first invalid edge line of a 3graph body."""
    seen: set[tuple[int, int, int]] = set()
    for lineno, tokens in body:
        u, v, w = _ints(lineno, tokens, 3)
        if not 0 <= u < v < w < n:
            raise FormatError(f"line {lineno}: vertices must satisfy 0 <= u < v < w < {n}")
        if (u, v, w) in seen:
            raise FormatError(f"line {lineno}: duplicate edge {u} {v} {w}")
        seen.add((u, v, w))
    raise AssertionError("bulk checks rejected a valid 3graph body")


def parse_3graph(text: str) -> Uniform3Graph:
    """The 3-graph in text. The edge lines are read in bulk into int triples
    and sorted; if they pass the constructor's canonical-edge test, the host
    is built on them with no second check. Otherwise the lines are read one
    by one to name the first bad line."""
    (n,), body = _header(text, "3graph", (0,))
    rows = [tokens for _lineno, tokens in body]
    if set(map(len, rows)) <= {3}:
        try:
            flat = list(map(int, chain.from_iterable(rows)))
        except ValueError:
            pass
        else:
            canon = sorted(zip(flat[0::3], flat[1::3], flat[2::3]))
            if _is_canonical(n, canon):
                return Uniform3Graph._canonical(n, canon)
    _raise_first_invalid_edge(n, body)


def write_3graph(H: Uniform3Graph) -> str:
    lines = [f"3graph {H.n}"]
    lines.extend(f"{u} {v} {w}" for u, v, w in H.triples())
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> SimpleGraph:
    (n,), body = _header(text, "graph", (0,))
    seen: set[tuple[int, int]] = set()
    for lineno, tokens in body:
        u, v = _ints(lineno, tokens, 2)
        if not 0 <= u < v < n:
            raise FormatError(f"line {lineno}: vertices must satisfy 0 <= u < v < {n}")
        if (u, v) in seen:
            raise FormatError(f"line {lineno}: duplicate edge {u} {v}")
        seen.add((u, v))
    return SimpleGraph(n, seen)


def write_graph(G: SimpleGraph) -> str:
    lines = [f"graph {G.n}"]
    lines.extend(f"{u} {v}" for u, v in G.edges())
    return "\n".join(lines) + "\n"


def parse_mgraph(text: str) -> MMultigraph:
    (n, m), body = _header(text, "mgraph", (0, 1))
    masks: dict[tuple[int, int], int] = {}
    for lineno, tokens in body:
        if len(tokens) != 3:
            raise FormatError(f"line {lineno}: expected 'u v c1,c2,...'")
        try:
            u, v = int(tokens[0]), int(tokens[1])
            layers = [int(t) for t in tokens[2].split(",")]
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer field") from None
        if not 0 <= u < v < n:
            raise FormatError(f"line {lineno}: vertices must satisfy 0 <= u < v < {n}")
        if (u, v) in masks:
            raise FormatError(f"line {lineno}: duplicate pair {u} {v}")
        if any(b <= a for a, b in zip(layers, layers[1:])):
            raise FormatError(f"line {lineno}: layers must strictly increase")
        if layers[0] < 1 or layers[-1] > m:
            raise FormatError(f"line {lineno}: layers must lie in 1..{m}")
        masks[(u, v)] = sum(1 << (c - 1) for c in layers)
    return MMultigraph.from_masks(n, m, masks)


def write_mgraph(mg: MMultigraph) -> str:
    lines = [f"mgraph {mg.n} {mg.m}"]
    for (u, v), _mask in mg.pairs():
        lines.append(f"{u} {v} " + ",".join(map(str, mg.colors(u, v))))
    return "\n".join(lines) + "\n"


def parse_any(text: str) -> Uniform3Graph | SimpleGraph | MMultigraph:
    """Dispatch on the header token, the first token of the text."""
    head = text.split(maxsplit=1)
    if not head:
        raise FormatError("empty input")
    kind = head[0]
    parsers = {"3graph": parse_3graph, "graph": parse_graph, "mgraph": parse_mgraph}
    if kind not in parsers:
        raise FormatError(f"unknown format {kind!r}")
    return parsers[kind](text)
