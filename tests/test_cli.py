import ast
import hashlib
import json
import re
import sys
import time
import tracemalloc
from math import comb, log10

import pytest

from fano_l2 import cli
from fano_l2.cli import main
from fano_l2.formats import MAX_HEADER_COUNT, parse_3graph, parse_graph, parse_mgraph, write_3graph
from fano_l2.hypergraphs import balanced_bipartite3, complete3
from fano_l2.multigraphs import contains_k4
from fano_l2.verify import run_suite


@pytest.fixture
def b4_file(tmp_path):
    path = tmp_path / "b4.3graph"
    path.write_text(write_3graph(balanced_bipartite3(4)), encoding="utf-8")
    return str(path)


def test_norm_output(b4_file, capsys):
    assert main(["norm", b4_file, "--p", "2"]) == 0
    out = capsys.readouterr().out
    assert "norm_2: 24" in out
    assert "two_edge_stars: 6" in out


def test_norm_on_a_graph_file(tmp_path, capsys):
    path = tmp_path / "path.graph"
    path.write_text("graph 3\n0 1\n1 2\n", encoding="utf-8")
    assert main(["norm", str(path), "--p", "2"]) == 0
    out = capsys.readouterr().out
    assert "degree_power_sum_2: 6" in out
    assert "two_edge_stars: 1" in out


def test_norm_p1(b4_file, capsys):
    assert main(["norm", b4_file, "--p", "1"]) == 0
    assert "norm_1: 12" in capsys.readouterr().out


def test_norm_p_over_the_cap_exits_2(tmp_path, b4_file, capsys):
    # --p 100000 took 0.7 s on the 10-vertex host, then failed to print the norm
    path = tmp_path / "b10.3graph"
    path.write_text(write_3graph(balanced_bipartite3(10)), encoding="utf-8")
    for p in ("891", "100000", "1000000"):
        start = time.perf_counter()
        assert main(["norm", str(path), "--p", p]) == 2
        assert time.perf_counter() - start < 1.0
        assert "--p" in capsys.readouterr().err
    assert main(["norm", b4_file, "--p", str(cli._MAX_P)]) == 0
    assert f"norm_{cli._MAX_P}: " in capsys.readouterr().out


def test_norm_p_cap_is_the_last_printable_exponent():
    # the largest norm any parsed 3graph can have; a graph's is smaller
    n = MAX_HEADER_COUNT
    limit = sys.get_int_max_str_digits()
    assert len(str(comb(n, 2) * (n - 2) ** cli._MAX_P)) <= limit
    assert log10(comb(n, 2)) + (cli._MAX_P + 1) * log10(n - 2) >= limit
    assert n * (n - 1) ** cli._MAX_P < comb(n, 2) * (n - 2) ** cli._MAX_P


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.3graph"
    bad.write_text("3graph 4\n0 1 9\n", encoding="utf-8")
    assert main(["norm", str(bad)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_oversized_header_exits_2(tmp_path, capsys):
    big = tmp_path / "big.3graph"
    big.write_text(f"3graph {MAX_HEADER_COUNT + 1}\n", encoding="utf-8")
    assert main(["check", str(big), "--pattern", "fano"]) == 2
    assert "exceeds the cap" in capsys.readouterr().err


@pytest.mark.parametrize("header", ["3graph -3", "graph -1", "mgraph -2 3", "mgraph 4 0"])
def test_header_count_below_its_least_value_exits_2(tmp_path, capsys, header):
    bad = tmp_path / "bad.txt"
    bad.write_text(header + "\n", encoding="utf-8")
    assert main(["check", str(bad), "--pattern", "fano"]) == 2
    assert "error: line 1: header count" in capsys.readouterr().err


def test_sparse_host_with_high_labels_is_checked(tmp_path, capsys):
    # 4096 disjoint edges on labels up to the header cap: no vertex can lie
    # on a plane, and the check answers without a table sized by the labels
    n = MAX_HEADER_COUNT
    sparse = tmp_path / "sparse.3graph"
    lines = [f"{v} {v + 1} {v + 2}" for v in range(n - 3 * 4096, n, 3)]
    sparse.write_text("\n".join([f"3graph {n}", *lines]) + "\n", encoding="utf-8")
    assert main(["check", str(sparse), "--pattern", "fano"]) == 0
    assert "fano: absent" in capsys.readouterr().out


def test_missing_file_exits_2(capsys):
    assert main(["norm", "/nonexistent/x.3graph"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--construction", "bn", "--params", "5"],
        ["bounds", "--table", "ak", "--grid", "0.25"],
        ["search", "--objective", "k4multi", "--n", "4", "--m", "3"],
        ["verify", "--suite", "roots"],
    ],
)
def test_unwritable_out_exits_2(tmp_path, capsys, argv):
    # exit 1 means a pattern found or a failed check, so a file that cannot
    # be written is an input error like a file that cannot be read; it is
    # refused before the work, so nothing reaches stdout
    for target in (tmp_path / "missing" / "x", tmp_path):
        assert main(argv + ["--out", str(target)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


def test_check_fano_absent_and_found(tmp_path, b4_file, capsys):
    assert main(["check", b4_file, "--pattern", "fano"]) == 0
    assert "absent" in capsys.readouterr().out
    k7 = tmp_path / "k7.3graph"
    k7.write_text(write_3graph(complete3(7)), encoding="utf-8")
    assert main(["check", str(k7), "--pattern", "fano"]) == 1
    assert "found" in capsys.readouterr().out


def test_check_arity_mismatch(tmp_path, capsys):
    g = tmp_path / "g.graph"
    g.write_text("graph 3\n0 1\n", encoding="utf-8")
    assert main(["check", str(g), "--pattern", "fano"]) == 2


def test_check_k53(tmp_path, capsys):
    k6 = tmp_path / "k6.3graph"
    k6.write_text(write_3graph(complete3(6)), encoding="utf-8")
    assert main(["check", str(k6), "--pattern", "k53"]) == 1
    assert "k53: found at vertices 0 1 2 3 4" in capsys.readouterr().out
    b40 = tmp_path / "b40.3graph"
    assert main(["gen", "--construction", "bn", "--params", "40", "--out", str(b40)]) == 0
    capsys.readouterr()
    assert main(["check", str(b40), "--pattern", "k53"]) == 0
    assert "k53: absent" in capsys.readouterr().out
    g = tmp_path / "g.graph"
    g.write_text("graph 3\n0 1\n", encoding="utf-8")
    assert main(["check", str(g), "--pattern", "k53"]) == 2
    assert "pattern k53 needs a 3graph file" in capsys.readouterr().err


def test_check_bipartite3(b4_file, tmp_path, capsys):
    assert main(["check", b4_file, "--pattern", "bipartite3"]) == 0
    assert "holds" in capsys.readouterr().out
    k5 = tmp_path / "k5.3graph"
    k5.write_text(write_3graph(complete3(5)), encoding="utf-8")
    assert main(["check", str(k5), "--pattern", "bipartite3"]) == 1


def test_check_k4multi(tmp_path, capsys):
    mg = tmp_path / "mg.mgraph"
    assert main(["gen", "--construction", "mg-bipartite", "--params", "8", "--out", str(mg)]) == 0
    assert main(["check", str(mg), "--pattern", "k4multi"]) == 0
    assert "absent" in capsys.readouterr().out


def test_check_k4multi_found(tmp_path, capsys):
    # every pair carries all three layers, so each matching takes its own
    full = tmp_path / "full.mgraph"
    full.write_text(
        "mgraph 4 3\n" + "".join(f"{u} {v} 1,2,3\n" for u, v in
                                  ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
        encoding="utf-8",
    )
    assert main(["check", str(full), "--pattern", "k4multi"]) == 1
    out = capsys.readouterr().out
    assert "k4multi: found on vertices (0, 1, 2, 3) with matching layers (1, 2, 3)" in out


def test_check_pattern_on_the_wrong_file_kind_exits_2(tmp_path, capsys):
    g = tmp_path / "g.graph"
    g.write_text("graph 3\n0 1\n", encoding="utf-8")
    assert main(["check", str(g), "--pattern", "bipartite3"]) == 2
    assert "pattern bipartite3 needs a 3graph file" in capsys.readouterr().err
    h = tmp_path / "h.3graph"
    h.write_text("3graph 3\n0 1 2\n", encoding="utf-8")
    assert main(["check", str(h), "--pattern", "k4multi"]) == 2
    assert "pattern k4multi needs an mgraph file" in capsys.readouterr().err


def test_k4multi_check_on_an_empty_host_with_every_layer_is_fast(tmp_path, capsys):
    # a 15-byte file naming 65,536 layers and no pair: no layer triple is walked
    empty = tmp_path / "empty.mgraph"
    empty.write_text(f"mgraph 4 {MAX_HEADER_COUNT}\n", encoding="utf-8")
    start = time.perf_counter()
    assert main(["check", str(empty), "--pattern", "k4multi"]) == 0
    assert time.perf_counter() - start < 1.0
    assert "k4multi: absent" in capsys.readouterr().out


def test_gen_reports_stats(tmp_path, capsys):
    out = tmp_path / "b13.3graph"
    assert main(["gen", "--construction", "bn", "--params", "13", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "closed_norm_2" in text
    h = parse_3graph(out.read_text(encoding="utf-8"))
    assert h.n == 13


def test_gen_param_count_enforced(capsys):
    assert main(["gen", "--construction", "cnk", "--params", "7"]) == 2


def test_gen_invalid_parameters_exit_2(capsys):
    assert main(["gen", "--construction", "cnk", "--params", "3", "5"]) == 2
    assert capsys.readouterr().err == "invalid parameters: clique size 5 outside 0..3\n"


def test_norm_on_an_mgraph_file_exits_2(tmp_path, capsys):
    path = tmp_path / "one.mgraph"
    path.write_text("mgraph 3 2\n0 1 1\n", encoding="utf-8")
    assert main(["norm", str(path)]) == 2
    assert capsys.readouterr().err == "norm is defined for 3graph and graph files\n"


def test_bounds_grid_step_must_be_positive(capsys):
    for table in ("ak", "prop23", "f"):
        assert main(["bounds", "--table", table, "--grid", "0"]) == 2
        assert capsys.readouterr().err == "grid step must be positive\n"


def test_gen_over_the_cap_exits_2(capsys):
    # kn3 with n = 1000 would hold 166M triples, tens of gigabytes; the
    # C(n, r) bound is checked before anything is built
    over = (("kn3", "1000"), ("cnk", "100000", "2"), ("mg-turan", "1449"), ("cnk", "1449", "2"))
    for name, *params in over:
        start = time.perf_counter()
        tracemalloc.start()
        try:
            code = main(["gen", "--construction", name, "--params", *params])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "above the cap" in capsys.readouterr().err
        assert peak < 2**20
        assert time.perf_counter() - start < 1.0
    # C(1448, 2) is the last pair count under the cap of 2^20
    assert main(["gen", "--construction", "cnk", "--params", "1448", "2"]) == 0


def test_gen_shat_edge_count(tmp_path, capsys):
    out = tmp_path / "s.graph"
    assert main(["gen", "--construction", "shat", "--params", "10", "2", "3", "--out", str(out)]) == 0
    assert "edges=9" in capsys.readouterr().out


def test_gen_mg_bipartite_size(tmp_path, capsys):
    out = tmp_path / "m13.mgraph"
    assert main(["gen", "--construction", "mg-bipartite", "--params", "13", "--out", str(out)]) == 0
    assert parse_mgraph(out.read_text(encoding="utf-8")).size == 282


def test_bounds_csv(capsys):
    assert main(["bounds", "--table", "ak", "--grid", "0.25"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x,value,active_branch"
    assert len(lines) == 4  # x = 0, 0.25, 0.5
    first = lines[1].split(",")
    assert first[0] == "0" and first[2] == "star"
    last = lines[-1].split(",")
    assert last[0] == "0.5" and last[2] == "star"


def test_bounds_f_table(capsys):
    assert main(["bounds", "--table", "f", "--grid", "0.5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x,value,active_branch"
    # both branches equal 2 at y = 1/2, and a tie goes to the first, the star
    assert lines[-1] == "0.5,2,star"


# SHA-256 of the whole CSV. Grid 0.25 lands on the ak crossover at x = 1/4,
# where the tie goes to the star; the finer grids step across it.
@pytest.mark.parametrize(
    "table, grid, digest",
    [
        ("ak", "0.25", "80fd2099ad669439fe7e4f49a335829410a2bc663cf15299dcde093d7140ba63"),
        ("ak", "0.05", "1bcacff5aab3f54a753a867af3599f07ef635b1d82f7fb5647658b43378e16d7"),
        ("ak", "0.013", "9aff8634c42f18839adfac823fb5509dce7306df01435adf65ed33bc3820ac2c"),
        ("prop23", "0.25", "d47a520d4f8a1334738f4ef1101fa9cddc0f9367292242d614ef61030786a482"),
        ("prop23", "0.05", "ccf6b9ea6a42fb07e7d3cd3e3364a3fa32cb7b5984bfe34076d3493a8335c0d9"),
        ("f", "0.05", "955583b6af264ae11e7a2a841413aa5b5cedf85fa302debbf29d2bd7452b43f8"),
        ("f", "0.013", "3d90906292b03de1ee6315d30652123be0c1c1288a7ce00e2fb5b6de28fc336a"),
    ],
)
def test_bounds_tables_are_pinned_byte_for_byte(capsys, table, grid, digest):
    assert main(["bounds", "--table", table, "--grid", grid]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_bounds_out_file(tmp_path, capsys):
    out = tmp_path / "ak.csv"
    assert main(["bounds", "--table", "ak", "--grid", "0.1", "--out", str(out)]) == 0
    assert "wrote" in capsys.readouterr().out
    assert out.read_text(encoding="utf-8").startswith("x,value,active_branch")


def test_bounds_grid_over_the_row_cap_exits_2(capsys):
    # 25 million prop23 rows, or 500 million ak rows, would take gigabytes;
    # the row count is checked before any row is built. At 1e-300 the
    # prop23 count, about 5e299 squared, overflows a float, so the points
    # per axis are checked first
    for table, grid in (("prop23", "1e-4"), ("ak", "1e-9"), ("prop23", "1e-300")):
        start = time.perf_counter()
        tracemalloc.start()
        try:
            code = main(["bounds", "--table", table, "--grid", grid])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "above the cap" in err
        assert peak < 2**20
        assert time.perf_counter() - start < 1.0


def test_search_json_shape(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = main(
        ["search", "--objective", "k4multi", "--n", "4", "--m", "3",
         "--engine", "bnb", "--out", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["optimum"] == 15
    assert data["complete"] is True
    assert set(data["params"]) == {
        "pattern_prunes", "bound_prunes", "descents",
    }
    assert sum(data["params"].values()) == data["nodes"]
    mg = parse_mgraph(data["witness"])
    assert mg.size == 15


def test_search_census_json(tmp_path, capsys):
    # the exhaustive engine is the 4-vertex census: (3 + 1) * 4^3 = 256
    # intersection triples through the Hall test stand for all 8^6 states
    out = tmp_path / "census.json"
    argv = ["search", "--objective", "k4multi", "--n", "4", "--m", "3", "--out", str(out)]
    assert main(argv) == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    assert set(data) == SEARCH_KEYS
    assert (data["optimum"], data["nodes"], data["complete"]) == (15, 8**6, True)
    assert (data["engine"], data["witness_kind"]) == ("exhaustive", "mgraph")
    params = data["params"]
    assert set(params) == {"triples", "table_build_s"}
    assert params["triples"] == 256 and params["table_build_s"] >= 0
    mg = parse_mgraph(data["witness"])
    assert mg.size == 15 and contains_k4(mg) is None


def test_search_budget_zero_reports_incomplete(capsys):
    # the two objectives that read --budget
    for flags in (["k4multi", "--n", "4", "--m", "3", "--engine", "bnb"], ["fano-l2", "--n", "7"]):
        assert main(["search", "--objective", *flags, "--budget", "0"]) == 0
        assert "complete=False" in capsys.readouterr().out


def test_search_nan_or_negative_budget_exits_2(capsys):
    # the two objectives that read --budget; a NaN budget once ran without a
    # deadline and reported complete=True
    for flags in (["k4multi", "--n", "4", "--m", "3", "--engine", "bnb"], ["fano-l2", "--n", "8"]):
        for budget in ("nan", "-1"):
            assert main(["search", "--objective", *flags, "--budget", budget]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: budget must be a nonnegative number of seconds")
            assert captured.err.count("\n") == 1


def test_search_exhaustive_engine_refuses_a_budget(tmp_path, capsys):
    # engine unset or exhaustive: the census takes no budget, so the run
    # exits 2 with one error line, nothing on stdout and no --out file
    out = tmp_path / "rep.json"
    base = ["search", "--objective", "k4multi", "--n", "4", "--m", "3", "--budget", "0"]
    for engine in ([], ["--engine", "exhaustive"]):
        assert main([*base, *engine, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the exhaustive engine takes no budget\n"
        assert not out.exists()


SEARCH_KEYS = {
    "objective", "n", "m", "optimum", "witness", "witness_kind", "nodes",
    "elapsed", "complete", "engine", "params",
}


def test_search_scan_json(tmp_path, capsys):
    aes = tmp_path / "aes.json"
    assert main(["search", "--objective", "aes", "--n", "5", "--out", str(aes)]) == 0
    data = json.loads(aes.read_text(encoding="utf-8"))
    assert set(data) == SEARCH_KEYS
    assert (data["objective"], data["optimum"], data["nodes"]) == ("aes", 0, 1024)
    assert (data["witness"], data["witness_kind"], data["engine"]) == ("", "none", "exhaustive")
    assert data["params"] == {
        "triangle_free": 388,
        "above_threshold": 0,
        "boundary_nonbipartite": 12,
        "states_scanned": 722,
    }
    bip = tmp_path / "bip.json"
    assert main(["search", "--objective", "bipartite-l2", "--n", "4", "--out", str(bip)]) == 0
    data = json.loads(bip.read_text(encoding="utf-8"))
    assert set(data) == SEARCH_KEYS
    assert (data["objective"], data["optimum"], data["nodes"]) == ("bipartite-l2", 24, 80)
    assert (data["witness_kind"], data["engine"]) == ("3graph", "exhaustive")
    assert parse_3graph(data["witness"]).lp_norm(2) == 24
    assert data["params"] == {
        "closed_value": 24, "maximizer_count": 1, "unique_up_to_iso": True,
        "blocks_scanned": 3, "states_scanned": 32,
    }
    star = tmp_path / "star.json"
    argv = ["search", "--objective", "ak-s2", "--n", "5", "--m", "4", "--out", str(star)]
    assert main(argv) == 0
    data = json.loads(star.read_text(encoding="utf-8"))
    assert set(data) == SEARCH_KEYS
    assert (data["objective"], data["optimum"], data["nodes"]) == ("ak-s2", 6, 1024)
    assert (data["m"], data["witness_kind"], data["engine"]) == (4, "graph", "exhaustive")
    assert (data["complete"], data["params"]) == (True, {})
    assert parse_graph(data["witness"]).star_count() == 6
    fano = tmp_path / "fano.json"
    assert main(["search", "--objective", "fano-l2", "--n", "7", "--out", str(fano)]) == 0
    data = json.loads(fano.read_text(encoding="utf-8"))
    assert set(data) == SEARCH_KEYS
    assert (data["objective"], data["optimum"], data["nodes"]) == ("fano-l2", 410, 1078)
    assert (data["m"], data["witness_kind"], data["engine"]) == (None, "3graph", "bnb")
    assert (data["complete"], data["params"]) == (True, {"bound_prunes": 4282})
    assert parse_3graph(data["witness"]).lp_norm(2) == 410


def test_search_requires_dimensions(capsys):
    assert main(["search", "--objective", "k4multi", "--n", "4"]) == 2
    assert "k4multi needs --n and --m" in capsys.readouterr().err
    assert main(["search", "--objective", "aes"]) == 2
    assert "aes needs --n" in capsys.readouterr().err


def test_search_refuses_flags_its_objective_does_not_read(tmp_path, capsys):
    # one stderr line naming every refused flag, nothing on stdout, no --out
    out = tmp_path / "rep.json"
    cases = [
        (["aes", "--n", "5", "--budget", "0.001", "--m", "99", "--engine", "bnb"],
         "aes does not take --m or --engine or --budget"),
        (["fano-l2", "--n", "7", "--engine", "exhaustive", "--m", "3"],
         "fano-l2 does not take --m or --engine"),
        (["fano-l2", "--n", "7", "--engine", "bnb"], "fano-l2 does not take --engine"),
        (["ak-s2", "--n", "5", "--m", "4", "--budget", "1"], "ak-s2 does not take --budget"),
        (["bipartite-l2", "--n", "4", "--m", "1"], "bipartite-l2 does not take --m"),
    ]
    for flags, message in cases:
        assert main(["search", "--objective", *flags, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", message + "\n")
        assert not out.exists()


def test_bipartite_scan_small_host_exits_2(capsys):
    assert main(["search", "--objective", "bipartite-l2", "--n", "2"]) == 2
    assert "3..6" in capsys.readouterr().err


def test_negative_scan_size_exits_2(capsys):
    assert main(["search", "--objective", "aes", "--n", "-1"]) == 2
    assert "nonnegative" in capsys.readouterr().err


def test_census_layer_count_out_of_range_exits_2(capsys):
    # both engines refuse the count before any table of 2^m entries is built
    for engine, m in (("exhaustive", "6"), ("bnb", "40")):
        argv = ["search", "--objective", "k4multi", "--n", "4", "--m", m, "--engine", engine]
        assert main(argv) == 2
        assert "1..5" in capsys.readouterr().err


def test_search_aes(capsys):
    assert main(["search", "--objective", "aes", "--n", "5"]) == 0
    out = capsys.readouterr().out
    assert "optimum=0" in out


VERIFY_LINE = re.compile(r"(PASS|FAIL) (\S+) +(\d+\.\d{3})s measured=(.+) expected=(.+)")


def test_verify_roots_exit_zero(capsys):
    assert main(["verify", "--suite", "roots"]) == 0
    *lines, summary = capsys.readouterr().out.splitlines()
    assert summary.startswith("suite roots: 12 passed, 0 failed in ")
    assert summary.endswith("-> pass")
    # every line carries the check's seconds, what it measured and what its
    # row expects, with the tolerance of a pinned decimal after the value
    rows = [VERIFY_LINE.fullmatch(line) for line in lines]
    checks = run_suite("roots").checks
    assert len(rows) == len(checks) == 12 and all(rows)
    for row, check in zip(rows, checks):
        status, check_id, seconds, measured, expected = row.groups()
        assert (status, check_id) == ("PASS", check.check_id)
        assert float(seconds) >= 0
        assert ast.literal_eval(measured) == check.measured
        value, _, tolerance = expected.partition("±")
        assert ast.literal_eval(value) == check.expected
        assert float(tolerance or 0) == check.tolerance


def test_verify_out_file(tmp_path, capsys):
    out = tmp_path / "verify.json"
    assert main(["verify", "--suite", "identities", "--out", str(out)]) == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["overall"] == "pass"


def test_verify_has_no_budget(capsys):
    # every selected row runs; only `search` takes a budget
    assert main(["verify", "--suite", "roots", "--budget", "1"]) == 2
    assert "--budget" in capsys.readouterr().err


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
