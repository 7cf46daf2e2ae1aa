import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from fano_l2.formats import (
    MAX_HEADER_COUNT,
    FormatError,
    parse_3graph,
    parse_any,
    parse_graph,
    parse_mgraph,
    write_3graph,
    write_graph,
    write_mgraph,
)
from fano_l2.graphs import SimpleGraph
from fano_l2.hypergraphs import Uniform3Graph, random_3graph
from fano_l2.multigraphs import MMultigraph, bipartite_construction_5

from helpers import parse_3graph_oracle


@given(st.integers(0, 10**9))
@settings(max_examples=30, deadline=None)
def test_3graph_round_trip(seed):
    rng = random.Random(seed)
    h = random_3graph(rng.randrange(3, 9), 0.4, rng)
    assert parse_3graph(write_3graph(h)) == h


@given(st.integers(0, 10**9))
@settings(max_examples=30, deadline=None)
def test_graph_round_trip(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 9)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    g = SimpleGraph(n, edges)
    assert parse_graph(write_graph(g)) == g


def test_mgraph_round_trip():
    mg = bipartite_construction_5(7)
    assert parse_mgraph(write_mgraph(mg)) == mg
    sparse = MMultigraph.from_masks(4, 3, {(0, 2): 0b101, (1, 3): 0b10})
    assert parse_mgraph(write_mgraph(sparse)) == sparse


def test_parse_any_dispatch():
    assert isinstance(parse_any("3graph 4\n0 1 2\n"), Uniform3Graph)
    assert isinstance(parse_any("graph 3\n0 1\n"), SimpleGraph)
    assert isinstance(parse_any("mgraph 3 5\n0 1 1,5\n"), MMultigraph)
    assert isinstance(parse_any("\n \t\r\n  3graph 4\r\n0 1 2\r\n"), Uniform3Graph)
    with pytest.raises(FormatError, match="^unknown format 'matrix'$"):
        parse_any("\n  matrix 3\n")
    for blank in ("", "\n", " \t\r\n\n  \n"):
        with pytest.raises(FormatError, match="^empty input$"):
            parse_any(blank)


# (kind of error, the line that carries it); n is 9 in every text
_BAD_LINES = (
    ("field count", "0 1"),
    ("field count", "0 1 2 3"),
    ("non-integer", "0 x 2"),
    ("non-integer", "0 1.0 2"),
    ("long token", "0 1 " + "7" * 4301),
    ("order", "2 1 5"),
    ("order", "3 3 4"),
    ("range", "-1 2 3"),
    ("range", "0 4 9"),
)


def _seeded_3graph_text(seed: int) -> str:
    """A 3graph text on 9 vertices: shuffled edges, blank and whitespace-only
    lines, and LF or CRLF endings; seeds not divisible by 3 put one bad line,
    or a repeat of an earlier edge, at a random line."""
    rng = random.Random(seed)
    n = 9
    edges = [t for t in combinations(range(n), 3) if rng.random() < 0.3]
    rng.shuffle(edges)
    lines = [" ".join(map(str, t)) for t in edges]
    if seed % 3:
        bad = rng.choice([line for _kind, line in _BAD_LINES] + lines[:1])
        lines.insert(rng.randrange(len(lines) + 1), bad)
    for _ in range(rng.randrange(4)):
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(("", "  ", "\t \t")))
    lines = [f"{' ' * rng.randrange(2)}{line}{' ' * rng.randrange(2)}" for line in lines]
    end = rng.choice(("\n", "\r\n"))
    return end.join([f"3graph {n}", *lines]) + end


@pytest.mark.parametrize("seed", range(150))
def test_parse_3graph_matches_the_per_line_oracle(seed):
    text = _seeded_3graph_text(seed)
    try:
        expected = parse_3graph_oracle(text)
    except FormatError as exc:
        with pytest.raises(FormatError) as caught:
            parse_3graph(text)
        assert str(caught.value) == str(exc)
        return
    assert parse_3graph(text) == expected


def test_parse_3graph_names_each_kind_of_bad_line():
    # each bad line after two good ones and a blank, as the oracle reports it
    for _kind, bad in (*_BAD_LINES, ("duplicate", "1 2 3")):
        text = f"3graph 9\r\n0 1 2\r\n\r\n1 2 3\r\n{bad}\r\n4 5 6\r\n"
        with pytest.raises(FormatError, match="^line 5: ") as caught:
            parse_3graph(text)
        with pytest.raises(FormatError) as expected:
            parse_3graph_oracle(text)
        assert str(caught.value) == str(expected.value)
    # two faults: the first is named, whichever check rejects the body
    for lines, first in (
        (("1 2 3", "0 4 9"), "line 5: duplicate edge"),  # repeated edge, then range
        (("0 4 9", "1 2 3"), "line 5: vertices"),  # range, then repeated edge
        (("0 4 9", "2 1 5"), "line 5: vertices"),  # range, then order
    ):
        text = "3graph 9\n0 1 2\n\n1 2 3\n" + "\n".join(lines) + "\n"
        with pytest.raises(FormatError, match=f"^{first}") as caught:
            parse_3graph(text)
        with pytest.raises(FormatError) as expected:
            parse_3graph_oracle(text)
        assert str(caught.value) == str(expected.value)


def test_error_messages_carry_line_numbers():
    with pytest.raises(FormatError, match="line 3"):
        parse_3graph("3graph 5\n0 1 2\n2 1 4\n")
    with pytest.raises(FormatError, match="line 2"):
        parse_graph("graph 3\n0 5\n")
    with pytest.raises(FormatError, match="line 4"):
        parse_mgraph("mgraph 4 5\n\n0 1 1,2\n0 1 3\n")
    with pytest.raises(FormatError, match="line 2"):
        parse_mgraph("mgraph 4 5\n0 1 2,2\n")


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_graph, "graph 3\n0 1\n0 1\n", "line 3: duplicate edge 0 1"),
        (parse_mgraph, "mgraph 3 2\n0 1\n", "line 2: expected 'u v c1,c2,...'"),
        (parse_mgraph, "mgraph 3 2\n0 x 1\n", "line 2: non-integer field"),
        (parse_mgraph, "mgraph 3 2\n0 1 1,y\n", "line 2: non-integer field"),
        (parse_mgraph, "mgraph 3 2\n1 0 1\n", "line 2: vertices must satisfy 0 <= u < v < 3"),
        (parse_mgraph, "mgraph 3 2\n1 1 1\n", "line 2: vertices must satisfy 0 <= u < v < 3"),
        (parse_mgraph, "mgraph 3 2\n0 1 3\n", "line 2: layers must lie in 1..2"),
        (parse_mgraph, "mgraph 3 2\n0 1 0,1\n", "line 2: layers must lie in 1..2"),
        (parse_3graph, "3graph x\n", "line 1: non-integer header argument"),
        (parse_mgraph, "mgraph 3 1.5\n", "line 1: non-integer header argument"),
    ],
)
def test_body_and_header_errors_name_the_fault(parse, text, message):
    with pytest.raises(FormatError) as caught:
        parse(text)
    assert str(caught.value) == message


def test_header_validation():
    with pytest.raises(FormatError):
        parse_3graph("")
    with pytest.raises(FormatError):
        parse_3graph("graph 4\n0 1\n")
    with pytest.raises(FormatError):
        parse_graph("graph 4 2\n")
    with pytest.raises(FormatError):
        parse_mgraph("mgraph 4\n")


def test_header_count_cap():
    # a header alone must not make the parser allocate past the cap, per
    # vertex or for an m-bit layer mask
    cap = MAX_HEADER_COUNT
    for parse, header, field in (
        (parse_3graph, "3graph {}", "n"),
        (parse_graph, "graph {}", "n"),
        (parse_mgraph, "mgraph {} 5", "n"),
        (parse_mgraph, "mgraph 4 {}", "m"),
    ):
        assert getattr(parse(header.format(cap) + "\n"), field) == cap
        with pytest.raises(FormatError, match="exceeds the cap"):
            parse(header.format(cap + 1) + "\n")


@pytest.mark.parametrize(
    "text, below",
    [
        ("3graph -3\n", "-3 is below 0"),
        ("graph -1\n", "-1 is below 0"),
        ("mgraph -2 3\n", "-2 is below 0"),
        ("mgraph 4 0\n", "0 is below 1"),
        ("mgraph 4 0\n0 1 1\n", "0 is below 1"),
    ],
)
def test_header_count_below_its_least_value_is_a_format_error(text, below):
    # a negative vertex count, or no layers, is the header's fault, not an
    # edge line's or the constructor's
    with pytest.raises(FormatError, match=f"^line 1: header count {below}$"):
        parse_any(text)


def test_writers_end_with_newline_and_sorted_body():
    h = Uniform3Graph(5, [(2, 3, 4), (0, 1, 2)])
    text = write_3graph(h)
    assert text.endswith("\n")
    body = text.splitlines()[1:]
    assert body == sorted(body)
