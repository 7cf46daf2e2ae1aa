"""Correctness gates, checked by the benchmark's own code.

Each gate takes the job's raw outputs and returns one failure message per
failed item (a check, a search or a host), so `failed` counts items. None
of this imports fano_l2.
"""

from __future__ import annotations

from itertools import combinations

from hosts import is_bipartition

# ----- verify_all --------------------------------------------------------------
#
# Every check of run_suite("all") with the value it must report. Aggregate
# checks count failing instances, so they must report 0. Decimals are the
# pinned roots, compared within the suite's own tolerance.

DECIMALS = {
    "roots.f_inverse_5_4": 0.342067,
    "roots.linear_branch": 0.346707,
    "roots.claim32": 0.344635,
    "roots.claim33": 0.346577,
    "roots.claim34": 0.346665,
    "roots.alpha1_at_61_177": 0.225024,
    "roots.alpha1_at_235_687": 0.171997,
    "roots.alpha2_at_61_177": 0.337536,
    "roots.alpha2_at_61_176": 0.387402,
    "roots.scaled_core_rate": 0.322526,
    "roots.half_core_rate": 0.419284,
}
DECIMAL_TOLERANCE = 5e-6

VERIFY_EXPECTED = {
    "roots.rational_identity": {
        "combined": "5154779/2872915",
        "threshold": 30,
        "largest_failing": 29,
    },
    "identities.l1_norm": 0,
    "identities.norm_star": 0,
    "identities.degree_routes": 0,
    "identities.degree_sum": 0,
    "identities.deletion_lipschitz": 0,
    "identities.participation": 0,
    "constructions.bn_norm_closed": 0,
    "constructions.bn_min_degree": 0,
    "constructions.mg_sizes": 0,
    "constructions.mg_k4free": 0,
    "constructions.mg_crossover": {
        "bipartite_12": 240,
        "turan_12": 240,
        "bipartite_13": 282,
        "turan_13": 280,
    },
    "constructions.bn_fano_free": 0,
    "constructions.balanced_argmax": 0,
    "lemma51.census_max": 25,
    "lemma51.census_max_count": 96,
    "lemma51.census_clauses": [0, 0, 0, 0],
    "lemma51.census_m4": 20,
    "oracles.s2_quasi": 0,
    "oracles.ak_asymptotic": 0,
    "oracles.aes": 0,
    "oracles.fano_free_max": {"5": 90, "6": 240, "7": 410},
    "oracles.bipartite_scan": 0,
    "oracles.bnb_agreement": 0,
    "oracles.bnb_stretch": 40,
}


def verify_attempted() -> int:
    return len(DECIMALS) + len(VERIFY_EXPECTED)


def check_verify(outputs: list[dict]) -> list[str]:
    """outputs: one {id, status, measured} per check, JSON round-tripped.
    A missing or skipped check counts as failed."""
    got = {c["id"]: c for c in outputs}
    failures = []
    for check_id in [*DECIMALS, *VERIFY_EXPECTED]:
        c = got.get(check_id)
        if c is None:
            failures.append(f"{check_id}: missing")
            continue
        if c["status"] != "pass":
            failures.append(f"{check_id}: status {c['status']}")
            continue
        if check_id in DECIMALS:
            ok = abs(c["measured"] - DECIMALS[check_id]) <= DECIMAL_TOLERANCE
        else:
            ok = c["measured"] == VERIFY_EXPECTED[check_id]
        if not ok:
            failures.append(f"{check_id}: measured {c['measured']!r}")
    return failures


# ----- turan_search --------------------------------------------------------------

# (n, m, engine) -> optimum; n=4 runs both engines so each checks the other
TURAN_SEARCHES = (
    *((4, m, engine) for m in (2, 3, 4) for engine in ("bnb", "exhaustive")),
    (5, 4, "bnb"),
    (5, 5, "bnb"),
)
TURAN_OPTIMA = {(4, 2): 12, (4, 3): 15, (4, 4): 20, (5, 4): 32, (5, 5): 40}


def parse_mgraph(text: str) -> tuple[int, int, dict]:
    """The `mgraph n m` format: one `u v c1,c2,...` line per coloured pair."""
    lines = [line.split() for line in text.splitlines() if line.strip()]
    kind, n, m = lines[0]
    if kind != "mgraph":
        raise ValueError(f"not an mgraph header: {lines[0]}")
    n, m = int(n), int(m)
    masks = {}
    for u, v, layers in lines[1:]:
        u, v = int(u), int(v)
        if not 0 <= u < v < n or (u, v) in masks:
            raise ValueError(f"bad pair {u} {v}")
        colours = [int(c) for c in layers.split(",")]
        if len(set(colours)) != len(colours) or not all(1 <= c <= m for c in colours):
            raise ValueError(f"bad layers {layers}")
        masks[(u, v)] = sum(1 << (c - 1) for c in colours)
    return n, m, masks


def has_three_matching(n: int, masks: dict) -> bool:
    """Brute force: a 4-set whose three perfect matchings lie in three
    distinct layers, each matching wholly inside its layer."""
    for a, b, c, d in combinations(range(n), 4):
        sets = [
            masks.get((a, b), 0) & masks.get((c, d), 0),
            masks.get((a, c), 0) & masks.get((b, d), 0),
            masks.get((a, d), 0) & masks.get((b, c), 0),
        ]
        bits = [[i for i in range(s.bit_length()) if s >> i & 1] for s in sets]
        for x in bits[0]:
            for y in bits[1]:
                for z in bits[2]:
                    if len({x, y, z}) == 3:
                        return True
    return False


def check_turan(outputs: list[dict]) -> list[str]:
    """outputs: one {n, m, engine, optimum, complete, witness} per search."""
    got = {(o["n"], o["m"], o["engine"]): o for o in outputs}
    failures = []
    for n, m, engine in TURAN_SEARCHES:
        label = f"({n},{m}) {engine}"
        o = got.get((n, m, engine))
        if o is None:
            failures.append(f"{label}: missing")
            continue
        want = TURAN_OPTIMA[(n, m)]
        if o["optimum"] != want or not o["complete"]:
            failures.append(f"{label}: optimum {o['optimum']} complete {o['complete']}")
            continue
        try:
            wn, wm, masks = parse_mgraph(o["witness"])
        except ValueError as exc:
            failures.append(f"{label}: witness does not parse: {exc}")
            continue
        size = sum(mask.bit_count() for mask in masks.values())
        if (wn, wm) != (n, m) or size != want or has_three_matching(wn, masks):
            failures.append(f"{label}: witness of size {size} fails")
    return failures


# ----- plane_check ----------------------------------------------------------------


def is_plane(lines) -> bool:
    """Seven lines on the points 0..6 with every pair of points on exactly one."""
    pairs = [p for line in lines for p in combinations(sorted(line), 2)]
    return (
        len(lines) == 7
        and all(len(set(line)) == 3 for line in lines)
        and len(pairs) == 21
        and set(pairs) == set(combinations(range(7), 2))
    )


def check_plane(hosts: list[dict], outputs: list[dict], lines) -> list[str]:
    """hosts: the generated hosts with the oracle's answers; outputs: one
    {embedding, parts, link_violation} per host, in order; lines: the
    program's labelling of the plane, which an embedding maps into the host."""
    if not is_plane(lines) or len(outputs) != len(hosts):
        return [f"unusable output: lines {lines}, {len(outputs)} results"] * len(hosts)
    failures = []
    for i, (h, o) in enumerate(zip(hosts, outputs)):
        edges = {tuple(t) for t in h["edges"]}
        label = f"host {i} ({h['cls']}, n={h['n']})"
        image = o["embedding"]
        if (image is not None) != h["plane"]:
            failures.append(f"{label}: embedding {image}, oracle says plane={h['plane']}")
        elif image is not None:
            if len(set(image)) != 7 or not all(
                tuple(sorted(image[x] for x in line)) in edges for line in lines
            ):
                failures.append(f"{label}: embedding {image} misses a line")
        elif (o["parts"] is not None) != h["bipartite"]:
            failures.append(f"{label}: parts {o['parts']}, oracle says bipartite={h['bipartite']}")
        elif o["parts"] is not None and not is_bipartition(h["n"], edges, o["parts"]):
            failures.append(f"{label}: invalid bipartition {o['parts']}")
        elif o["link_violation"] is not None:
            failures.append(f"{label}: link violation {o['link_violation']} on a plane-free host")
    return failures
