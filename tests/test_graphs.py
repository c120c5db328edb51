"""Graph construction, composition, path enumeration, and serialization."""

import itertools
import math
import pickle
import random

import numpy as np
import pytest

from pstwalk import exactpoly, graphs, pst, verify
from pstwalk.graphs import (
    CANONICAL_MAX_N,
    Graph,
    GraphParseError,
    automorphism_orbits,
    build_complete,
    build_cycle,
    build_double_star,
    build_extended_double_star,
    build_path,
    build_regular,
    build_star,
    canonical_key,
    compose,
    cone,
    connected_graphs,
    iter_ab_paths,
    marked_graphs,
    one_sum,
    parse_graph,
    serialize_graph,
)


def are_isomorphic(g1, g2):
    """Equal order and equal canonical keys."""
    return g1.n == g2.n and canonical_key(g1) == canonical_key(g2)


def paths_by_brute_force(g, a, b):
    """Oracle: every simple a..b path as a vertex tuple, found by checking
    all orderings of all intermediate subsets."""
    found = []
    others = [v for v in range(g.n) if v not in (a, b)]
    for k in range(len(others) + 1):
        for mid in itertools.permutations(others, k):
            seq = (a, *mid, b)
            if all(g.weights[u, v] != 0 for u, v in zip(seq, seq[1:])):
                found.append(seq)
    return sorted(found)


def random_graph(rng, n, p=0.5):
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                w[i, j] = w[j, i] = 1
    return Graph(w)


def test_builders_shapes():
    assert build_path(1).n == 1
    p4 = build_path(4)
    assert [(u, v) for u, v, _ in p4.edges()] == [(0, 1), (1, 2), (2, 3)]
    c5 = build_cycle(5)
    assert len(c5.edges()) == 5
    assert all(c5.degree(v) == 2 for v in range(5))
    k4 = build_complete(4)
    assert len(k4.edges()) == 6
    s3 = build_star(3)
    assert s3.degree(0) == 3
    assert all(s3.degree(v) == 1 for v in range(1, 4))


def test_build_regular_validates():
    g = build_regular(6, 3)
    assert all(g.degree(v) == 3 for v in range(6))
    with pytest.raises(ValueError):
        build_regular(5, 3)  # nk odd
    with pytest.raises(ValueError):
        build_regular(4, 4)  # k >= n
    assert build_regular(4, 0).n == 4


@pytest.mark.parametrize("weight", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_graph_rejects_non_finite_weights(weight):
    w = np.zeros((2, 2))
    w[0, 1] = w[1, 0] = weight
    with pytest.raises(ValueError, match="weights must be finite"):
        Graph(w)
    with pytest.raises(ValueError, match="weights must be finite"):
        Graph.from_edges(3, [(0, 1)], loops=[(2, weight)])
    # the parser names the token's line, on an edge line and on a loop line
    with pytest.raises(GraphParseError, match="^line 2: weights must be finite$"):
        parse_graph(f"2 1\n0 1 {weight}\n")
    with pytest.raises(GraphParseError, match="^line 3: weights must be finite$"):
        parse_graph(f"2 1\n0 1\nloop 0 {weight}\n")


@pytest.mark.parametrize(
    "edges, loops, vertex",
    [([(0, -1)], [], -1), ([(3, 0)], [], 3), ([(0, 1, 2.0)], [(-1, 2.0)], -1), ([], [(3, 1.0)], 3)],
)
def test_from_edges_rejects_vertices_out_of_range(edges, loops, vertex):
    # a negative index must not wrap round to n - 1, nor n raise an IndexError
    with pytest.raises(ValueError, match=f"^vertex {vertex} out of range for n=3$"):
        Graph.from_edges(3, edges, loops)
    with pytest.raises(ValueError, match=f"^vertex {vertex} out of range for n=3$"):
        build_path(3)._check_vertex(vertex)


P4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
K1 = Graph(np.zeros((1, 1)))


@pytest.mark.parametrize(
    "call",
    [
        lambda: exactpoly.walk_gf(P4, True),
        lambda: P4.delete([1.5]),
        lambda: exactpoly.charpoly_deleted(P4, [1.5]),
        lambda: pst.pst_certificate(P4, 0.5, 3),
        lambda: pst.evolve_fidelity(P4, 0.5, 3, 1.0),
        lambda: pst.pst_certificate(P4, True, 2),
        lambda: verify.search_no_pst(2, 0, graph_source=[(P4, True), (K1, 0)]),
        lambda: verify.equitable_quotient(P4, [[0, 3], [1.0, 2]]),
        lambda: P4.relabeled([True, False, 2, 3]),
        lambda: P4.relabeled([1.0, 0.0, 2.0, 3.0]),
    ],
    ids=[
        "walk_gf",
        "delete",
        "charpoly_deleted",
        "pst_certificate",
        "evolve_fidelity",
        "pst_certificate_bool",
        "search_no_pst",
        "equitable_quotient",
        "relabeled_bool",
        "relabeled_float",
    ],
)
def test_vertex_arguments_must_be_integers(call):
    # a bool or a float is not read as a vertex: True would fill a whole
    # start vector, 1.5 would drop to 1 or select nothing
    with pytest.raises(ValueError, match="is not an integer"):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: build_star(True), "k must be an integer, got True"),
        (lambda: build_path(2.0), "n must be an integer, got 2.0"),
        (lambda: build_path(0), "n must be at least 1, got 0"),
        (lambda: build_cycle(2), "n must be at least 3, got 2"),
        (lambda: build_complete(True), "n must be an integer, got True"),
        (lambda: build_regular(6.0, 2), "n must be an integer, got 6.0"),
        (lambda: compose(P4, 0, P4, 0, 2.0), "bridge_path_vertices must be an integer, got 2.0"),
        (lambda: compose(P4, 0, P4, 0, 1), "bridge_path_vertices must be at least 2, got 1"),
        (lambda: Graph.from_edges(2.0), "n must be an integer, got 2.0"),
        (lambda: Graph.from_edges(True), "n must be an integer, got True"),
        (lambda: list(connected_graphs(2.5)), "max_n must be an integer, got 2.5"),
        (lambda: list(connected_graphs(True)), "max_n must be an integer, got True"),
        (lambda: list(marked_graphs(2.5)), "max_n must be an integer, got 2.5"),
        (lambda: list(marked_graphs(True)), "max_n must be an integer, got True"),
        (lambda: verify.search_no_pst(2, 2.5, graph_source=[(P4, 0)]),
         "max_n must be an integer, got 2.5"),
        (lambda: verify.search_no_pst(2, -1, graph_source=[(P4, 0)]),
         "max_n must be at least 0, got -1"),
        (lambda: verify.random_connected_graph(random.Random(0), 2.5),
         "n must be an integer, got 2.5"),
        (lambda: verify.random_connected_graph(random.Random(0), True),
         "n must be an integer, got True"),
    ],
    ids=[
        "star_bool",
        "path_float",
        "path_empty",
        "cycle_short",
        "complete_bool",
        "regular_float",
        "compose_float",
        "compose_short",
        "from_edges_float",
        "from_edges_bool",
        "connected_graphs_float",
        "connected_graphs_bool",
        "marked_graphs_float",
        "marked_graphs_bool",
        "search_stream_float",
        "search_stream_negative",
        "random_graph_float",
        "random_graph_bool",
    ],
)
def test_sizes_must_be_integer_counts(call, message):
    # True would build K2 as a star or enumerate n <= 1, 2.0 fail inside
    # numpy, and a stream search accept 2.5 or -1 as its max_n
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize(
    "edges, loops, text, message",
    [
        ([(0, 1, 1), (0, 1, 2)], [], "2 2\n0 1 1\n1 0 2", r"conflicting weights for edge \(0, 1\)"),
        ([(0, 1)], [(0, 1), (0, 2)], "2 1\n0 1\nloop 0 1\nloop 0 2", "conflicting weights for loop 0"),
        ([(0, 1, 0)], [], "2 1\n0 1 0", "zero-weight edge"),
        ([(1, 1)], [], "2 1\n1 1", "self edge; give it as a loop"),
    ],
    ids=["conflicting_edge", "conflicting_loop", "zero_weight", "self_edge"],
)
def test_from_edges_refuses_what_the_parser_refuses(edges, loops, text, message):
    # a conflicting repeat would keep its last weight, a zero weight drop
    # the edge
    with pytest.raises(ValueError, match=f"^{message}$"):
        Graph.from_edges(2, edges, loops)
    with pytest.raises(GraphParseError, match=f"^line {len(text.splitlines())}: {message}$"):
        parse_graph(text)


def test_equal_repeats_are_accepted():
    once = Graph.from_edges(2, [(0, 1, 2)], loops=[(1, 3)])
    assert Graph.from_edges(2, [(0, 1, 2), (1, 0, 2.0)], loops=[(1, 3), (1, 3.0)]) == once
    assert parse_graph("2 2\n0 1 2\n1 0 2.0\nloop 1 3\nloop 1 3.0\n") == once


def test_numpy_integer_vertices_are_accepted():
    v = np.int64(1)
    assert exactpoly.walk_gf(P4, v) == exactpoly.walk_gf(P4, 1)
    assert exactpoly.charpoly_deleted(P4, [v]) == exactpoly.charpoly_deleted(P4, [1])
    assert P4.delete([v]).n == 3


def test_cone_adds_apex():
    g = cone(build_cycle(3))
    assert g.n == 4
    assert g.degree(0) == 3
    assert are_isomorphic(g, build_complete(4))


def test_double_star_shape():
    g, a, b = build_double_star(2, 3)
    assert g.n == 7
    assert g.weights[a, b] == 1
    assert g.degree(a) == 3 and g.degree(b) == 4
    g2, a2, b2 = build_double_star(1, 1)
    assert are_isomorphic(g2, build_path(4))


def test_extended_double_star_shape():
    g, a, b = build_extended_double_star(1, 1)
    assert g.n == 5
    assert are_isomorphic(g, build_path(5))
    assert g.weights[a, b] == 0  # centers separated by the middle vertex


def test_compose_bridge_two_is_edge():
    k1 = build_path(1)
    z, a, b = compose(k1, 0, k1, 0, 2)
    assert are_isomorphic(z, build_path(2))
    assert z.weights[a, b] == 1


def test_compose_bridge_three_inserts_vertex():
    k1 = build_path(1)
    z, a, b = compose(k1, 0, k1, 0, 3)
    assert z.n == 3
    assert are_isomorphic(z, build_path(3))
    assert z.weights[a, b] == 0


def test_compose_stars_gives_double_star():
    s2 = build_star(2)
    z, a, b = compose(s2, 0, s2, 0, 2)
    expect, ea, eb = build_double_star(2, 2)
    assert are_isomorphic(z, expect)
    assert z.degree(a) == 3


def test_compose_preserves_side_labels():
    rng = random.Random(7)
    y1 = random_graph(rng, 4)
    y2 = random_graph(rng, 3)
    z, a, b = compose(y1, 2, y2, 1, 3)
    assert np.array_equal(z.weights[:4, :4], y1.weights)
    assert np.array_equal(z.weights[4:7, 4:7], y2.weights)
    assert a == 2 and b == 5


def test_one_sum_adds_loops_at_glue():
    y1 = Graph(np.array([[2.0]]))
    y2 = Graph(np.array([[3.0]]))
    z, b = one_sum(y1, 0, y2, 0)
    assert z.n == 1
    assert z.weights[0, 0] == 5.0
    # summed exactly between integers, as with_loop sums: float64 would
    # round 2**53 + 1 to 2**53
    big = Graph([[2**52]])
    assert one_sum(big, 0, big, 0)[0].weights[0, 0] == 2**53
    with pytest.raises(ValueError, match=f"^integer weight {2**53 + 1} is not exact in float64$"):
        one_sum(Graph([[2**53]]), 0, Graph([[1]]), 0)


def test_one_sum_counts():
    y1 = build_path(3)
    y2 = build_cycle(3)
    z, b = one_sum(y1, 1, y2, 0)
    assert z.n == 5
    assert z.degree(b) == 4


def test_one_sum_and_relabel_match_their_entrywise_definitions():
    rng = np.random.default_rng(12)

    def weighted(n):
        w = rng.integers(-2, 3, size=(n, n)) * rng.random((n, n))
        return Graph(w + w.T)

    for _ in range(40):
        y1, y2 = weighted(int(rng.integers(1, 6))), weighted(int(rng.integers(1, 6)))
        b1, b2 = int(rng.integers(y1.n)), int(rng.integers(y2.n))
        z, b = one_sum(y1, b1, y2, b2)
        n1 = y1.n
        pos = [b1 if v == b2 else n1 + v - (v > b2) for v in range(y2.n)]
        w = np.zeros((n1 + y2.n - 1,) * 2)
        w[:n1, :n1] = y1.weights
        for u, v in itertools.product(range(y2.n), repeat=2):
            w[pos[u], pos[v]] += y2.weights[u, v]
        assert b == b1 and np.array_equal(z.weights, w)
        perm = [int(x) for x in rng.permutation(z.n)]
        r = np.zeros_like(w)
        for u, v in itertools.product(range(z.n), repeat=2):
            r[perm[u], perm[v]] = w[u, v]
        assert np.array_equal(z.relabeled(perm).weights, r)


def test_path_enumeration_matches_brute_force():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(2, 6)
        g = random_graph(rng, n, 0.55)
        a, b = rng.sample(range(n), 2)
        got = sorted(iter_ab_paths(g, a, b))
        assert got == paths_by_brute_force(g, a, b)


def test_k4_has_five_paths():
    # one entry per path: the two 4-vertex paths are both listed even
    # though they use the same vertex set
    paths = list(iter_ab_paths(build_complete(4), 0, 1))
    assert len(paths) == 5
    assert sum(1 for p in paths if len(p) == 4) == 2
    assert len({frozenset(p) for p in paths if len(p) == 4}) == 1


def test_path_counts_on_cycle():
    assert len(list(iter_ab_paths(build_cycle(5), 0, 2))) == 2


def test_edgelist_round_trip():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 7)
        w = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    w[i, j] = w[j, i] = rng.choice([-2, -1, 1, 2, 0.5])
        for v in range(n):
            if rng.random() < 0.2:
                w[v, v] = rng.choice([-1, 1.5, 2])
        g = Graph(w)
        back = parse_graph(serialize_graph(g, "edgelist"), "edgelist")
        assert np.allclose(back.weights, g.weights)


def test_edgelist_parse_errors_carry_line_numbers():
    with pytest.raises(GraphParseError) as err:
        parse_graph("not a header", "edgelist")
    assert err.value.line == 1
    with pytest.raises(GraphParseError) as err:
        parse_graph("3 1\n0 7", "edgelist")
    assert err.value.line == 2
    with pytest.raises(GraphParseError) as err:
        parse_graph("3 1\n1 1", "edgelist")
    assert err.value.line == 2
    with pytest.raises(GraphParseError) as err:
        parse_graph("2 1\n0 1 0", "edgelist")
    assert err.value.line == 2
    with pytest.raises(GraphParseError) as err:
        parse_graph("2 2\n0 1 1\n1 0 2", "edgelist")
    assert err.value.line == 3
    # loop lines follow the edge rule: a repeat is accepted, a conflict is not
    with pytest.raises(GraphParseError, match="conflicting weights for loop 0") as err:
        parse_graph("2 1\n0 1\nloop 0 1\nloop 0 2\n", "edgelist")
    assert err.value.line == 4
    assert parse_graph("2 1\n0 1\nloop 0 2\nloop 0 2.0\n").loops() == [(0, 2.0)]


def test_graph6_round_trip():
    rng = random.Random(5)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 12))
        back = parse_graph(serialize_graph(g, "graph6"), "graph6")
        assert np.array_equal(back.weights, g.weights)


def test_graph6_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(1, 12)
        g = random_graph(rng, n)
        ours = serialize_graph(g, "graph6")
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from((u, v) for u, v, _ in g.edges())
        theirs = nx.to_graph6_bytes(h, header=False).decode().strip()
        assert ours == theirs
        back = parse_graph(theirs, "graph6")
        assert np.array_equal(back.weights, g.weights)


def test_graph6_rejects_weighted():
    g = Graph(np.array([[0.0, 2.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        serialize_graph(g, "graph6")


def test_graph6_rejects_malformed():
    with pytest.raises(GraphParseError):
        parse_graph("", "graph6")
    with pytest.raises(GraphParseError):
        parse_graph("C" + chr(40), "graph6")  # truncated edge bits are fine,
        # but a character below the printable range is not
    with pytest.raises(GraphParseError):
        parse_graph("Cr!", "graph6")


def test_graph6_header_stripped():
    g = parse_graph(">>graph6<<Cs", "graph6")
    assert are_isomorphic(g, build_star(3))


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("", None, "empty input"),
        ("a b", 1, "header must be two integers"),
        ("0 0", 1, "header out of range"),
        ("2 -1", 1, "header out of range"),
        ("3 2\n0 1", 1, "expected 2 edge lines"),
        ("2 0\nfoo 0 1", 2, "expected 'loop u w'"),
        ("2 1\n0 1\nloop 0", 3, "expected 'loop u w'"),
        ("2 1\n0 x", 2, "malformed edge line"),
        ("2 0\nloop x 1", 2, "malformed loop line"),
    ],
)
def test_edgelist_refusals_name_their_line(text, line, message):
    with pytest.raises(GraphParseError, match=message) as err:
        parse_graph(text, "edgelist")
    assert err.value.line == line


@pytest.mark.parametrize(
    "text, message",
    [
        ("~~?????", "unsupported graph6 size form"),
        ("?", "zero vertices"),
        ("A", "body has wrong length"),
        ("B~", "padding bits must be zero"),
    ],
)
def test_graph6_refusals(text, message):
    with pytest.raises(GraphParseError, match=message):
        parse_graph(text, "graph6")


def test_unknown_format_is_refused_both_ways():
    with pytest.raises(ValueError, match="unknown format 'dot'"):
        parse_graph("1 0\n", "dot")
    with pytest.raises(ValueError, match="unknown format 'dot'"):
        serialize_graph(build_path(2), "dot")


@pytest.mark.parametrize("n", [63, 64, 100])
def test_graph6_long_header_round_trip(n):
    # from 63 vertices on, the order takes the four-byte header "~xyz"
    g = random_graph(random.Random(n), n)
    text = serialize_graph(g, "graph6")
    assert text[0] == "~" and len(text) == 4 + (n * (n - 1) // 2 + 5) // 6
    assert parse_graph(text, "graph6") == g
    try:
        import networkx as nx
    except ImportError:
        return
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from((u, v) for u, v, _ in g.edges())
    assert text.encode() + b"\n" == nx.to_graph6_bytes(h, header=False)


def test_isomorphism_basic():
    assert are_isomorphic(build_path(4), build_path(4).relabeled([3, 1, 0, 2]))
    assert not are_isomorphic(build_path(4), build_star(3))
    assert not are_isomorphic(build_cycle(6), build_path(6))


def test_canonical_key_separates_roots():
    p3 = build_path(3)
    assert canonical_key(p3, root=0) == canonical_key(p3, root=2)
    assert canonical_key(p3, root=0) != canonical_key(p3, root=1)
    for root in (-1, 3):
        with pytest.raises(ValueError):
            canonical_key(p3, root=root)


def test_automorphism_orbits():
    orbits = automorphism_orbits(build_star(3))
    assert sorted(map(sorted, orbits)) == [[0], [1, 2, 3]]
    orbits = automorphism_orbits(build_path(4))
    assert sorted(map(sorted, orbits)) == [[0, 3], [1, 2]]
    orbits = automorphism_orbits(build_complete(4))
    assert sorted(map(sorted, orbits)) == [[0, 1, 2, 3]]


def isomorphisms_by_brute_force(g1, g2):
    """Oracle: every permutation p with w1[i, j] == w2[p[i], p[j]]."""
    if g1.n != g2.n:
        return []
    return [
        p
        for p in itertools.permutations(range(g1.n))
        if np.array_equal(g2.weights[np.ix_(p, p)], g1.weights)
    ]


def orbits_by_brute_force(g):
    auts = isomorphisms_by_brute_force(g, g)
    return sorted({tuple(sorted({p[v] for p in auts})) for v in range(g.n)})


def test_orbits_and_isomorphism_match_brute_force():
    rng = random.Random(7)
    graphs = list(connected_graphs(5))
    for g in graphs:
        assert automorphism_orbits(g) == [list(o) for o in orbits_by_brute_force(g)]
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert are_isomorphic(g, g.relabeled(perm))
    # one graph per isomorphism class, which the oracle confirms
    for g1, g2 in itertools.combinations(graphs, 2):
        assert not isomorphisms_by_brute_force(g1, g2)
        assert not are_isomorphic(g1, g2)


def test_weighted_looped_isomorphism_matches_brute_force():
    # each partner has the same edge set up to relabelling, so the same
    # degree sequence, with edge weights and loops dealt out again
    rng = random.Random(8)
    outcomes = set()
    for _ in range(60):
        n = rng.randint(3, 6)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        weights = [rng.choice([1, 2, -1, 0.5]) for _ in edges]
        loops = [(v, rng.choice([1, -2])) for v in range(n) if rng.random() < 0.4]
        g1 = Graph.from_edges(n, [(u, v, w) for (u, v), w in zip(edges, weights)], loops)
        rng.shuffle(weights)
        looped = rng.sample(range(n), len(loops))
        g2 = Graph.from_edges(
            n,
            [(u, v, w) for (u, v), w in zip(edges, weights)],
            [(v, w) for v, (_, w) in zip(looped, loops)],
        )
        perm = list(range(n))
        rng.shuffle(perm)
        g2 = g2.relabeled(perm)
        assert sorted(map(g1.degree, range(n))) == sorted(map(g2.degree, range(n)))
        expect = bool(isomorphisms_by_brute_force(g1, g2))
        outcomes.add(expect)
        assert are_isomorphic(g1, g2) == expect
        assert automorphism_orbits(g1) == [list(o) for o in orbits_by_brute_force(g1)]
    assert outcomes == {True, False}
    # P3 with a loop at an end or in the middle: equal degrees, not isomorphic
    end = build_path(3).with_loop(0, 1.0)
    assert not are_isomorphic(end, build_path(3).with_loop(1, 1.0))
    assert are_isomorphic(end, build_path(3).with_loop(2, 1.0))


def test_connected_graph_counts():
    # connected graphs (OEIS A001349) and rooted connected graphs up to
    # isomorphism, n = 1..7
    assert sum(1 for g in connected_graphs(1) if g.n == 1) == 1
    graphs_by_n, rooted_by_n = {}, {}
    last = None
    for g, _ in marked_graphs(7):
        if g is not last:
            graphs_by_n[g.n] = graphs_by_n.get(g.n, 0) + 1
            last = g
        rooted_by_n[g.n] = rooted_by_n.get(g.n, 0) + 1
    assert graphs_by_n == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
    assert rooted_by_n == {1: 1, 2: 1, 3: 3, 4: 11, 5: 58, 6: 407, 7: 4306}
    with pytest.raises(ValueError, match="n <= 7"):
        next(connected_graphs(8))


def canonical_key_by_brute_force(g, root=None):
    """Oracle: the least row-major upper triangle, diagonal included, over
    all n! vertex orders (root first when given)."""
    n = g.n
    head, rest = ((), range(n)) if root is None else ((root,), [v for v in range(n) if v != root])
    w = g.weights.tolist()
    return (
        n,
        min(
            tuple(w[order[i]][order[j]] for i in range(n) for j in range(i, n))
            for order in (head + p for p in itertools.permutations(rest))
        ),
    )


def connected_graphs_by_mask_loop(max_n):
    """Oracle: every edge mask on n vertices in increasing order (bit k the
    k-th pair of ``combinations``), the first connected graph of each class
    kept, classes sorted by (edges, canonical key)."""
    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        found = {}
        for mask in range(1 << len(pairs)):
            edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
            g = Graph.from_edges(n, edges)
            if g.is_connected():
                found.setdefault(canonical_key_by_brute_force(g), (len(edges), g))
        for key, (m, g) in sorted(found.items(), key=lambda item: (item[1][0], item[0])):
            yield g


def atlas_graphs(max_n):
    """Every graph of networkx's atlas (all graphs up to 7 vertices) with 1
    to max_n vertices, as (networkx graph, Graph)."""
    nx = pytest.importorskip("networkx")
    for h in nx.graph_atlas_g():
        n = h.number_of_nodes()
        if 1 <= n <= max_n:
            yield h, Graph(nx.to_numpy_array(h, nodelist=range(n)))


def test_canonical_key_matches_brute_force_on_the_atlas():
    count = 0
    for _, g in atlas_graphs(6):
        assert canonical_key(g) == canonical_key_by_brute_force(g)
        for v in range(g.n):
            assert canonical_key(g, root=v) == canonical_key_by_brute_force(g, root=v)
        count += 1
    assert count == 208
    # weighted, looped and negative entries take the same least key
    rng = random.Random(15)
    for _ in range(40):
        n = rng.randint(1, 6)
        w = np.zeros((n, n))
        for i in range(n):
            for j in range(i, n):
                w[i, j] = w[j, i] = rng.choice([0, 0, 1, 2, -1, 0.5])
        g = Graph(w)
        root = rng.randrange(n)
        assert canonical_key(g) == canonical_key_by_brute_force(g)
        assert canonical_key(g, root=root) == canonical_key_by_brute_force(g, root=root)


def test_orbits_match_networkx_automorphisms():
    from networkx.algorithms.isomorphism import GraphMatcher

    count = 0
    for h, g in atlas_graphs(7):
        orbit = {v: {v} for v in h}
        for aut in GraphMatcher(h, h).isomorphisms_iter():
            for v, u in aut.items():
                orbit[v].add(u)
        expect = sorted(sorted(o) for o in {frozenset(o) for o in orbit.values()})
        assert automorphism_orbits(g) == expect
        count += 1
    assert count == 1252


def edge_mask(w, order):
    """Edge mask of the graph whose vertex i is ``order[i]``, bit k the k-th
    pair of ``combinations``."""
    pairs = itertools.combinations(range(len(order)), 2)
    return sum(1 << k for k, (i, j) in enumerate(pairs) if w[order[i]][order[j]])


def test_marked_graphs_match_the_mask_loop():
    expect = [(g, orbit[0]) for g in connected_graphs_by_mask_loop(5) for orbit in orbits_by_brute_force(g)]
    got = list(marked_graphs(5))
    assert len(got) == len(expect) == 74
    for (g, v), (h, u) in zip(got, expect):
        assert np.array_equal(g.weights, h.weights)
        assert v == u
    # the loop is too slow at n = 6; there, each class must still come in
    # the labelling with the least edge mask, the one the loop meets first
    six = [g for g in connected_graphs(6) if g.n == 6]
    assert len(six) == 112
    for g in six:
        w = g.weights.tolist()
        assert edge_mask(w, range(6)) == min(edge_mask(w, p) for p in itertools.permutations(range(6)))


def connected_graphs_by_every_hood(max_n):
    """Oracle: the levels n = 1..max_n of connected classes as weight lists,
    each level from the one below by adding a vertex with every nonempty
    neighbourhood, one graph kept per canonical key, sorted by (edges,
    key) and relabelled by the column-major search."""
    levels = [[[[0.0]]]]
    for n in range(2, max_n + 1):
        classes = {}
        for w in levels[-1]:
            for hood in range(1, 1 << (n - 1)):
                new = [float(hood >> u & 1) for u in range(n - 1)]
                grown = [row + [x] for row, x in zip(w, new)] + [new + [0.0]]
                classes.setdefault(graphs._least_order(grown, None, rows=True)[0], grown)
        levels.append([])
        for key, w in sorted(classes.items(), key=lambda item: (sum(item[0]), item[0])):
            order = graphs._least_order(w, None, rows=False)[1][::-1]
            levels[-1].append([[w[u][v] for v in order] for u in order])
    return levels


def orbits_by_rooted_keys(g):
    """Oracle: two vertices share an orbit exactly when their rooted
    canonical keys agree."""
    orbits = {}
    for v in range(g.n):
        orbits.setdefault(canonical_key(g, root=v), []).append(v)
    return sorted(orbits.values())


def orbits_by_networkx(g):
    """Oracle: u joins the orbit of v when networkx finds an isomorphism of
    the graph marked at v onto the graph marked at u."""
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    def marked(v):
        h = nx.Graph([(a, b) for a, b, _ in g.edges()])
        h.add_nodes_from(range(g.n))
        nx.set_node_attributes(h, {u: u == v for u in range(g.n)}, "mark")
        return h

    match = dict.__eq__  # the "mark" attributes agree
    orbits, left = [], list(range(g.n))
    while left:
        h = marked(left[0])
        orbit = [u for u in left if GraphMatcher(h, marked(u), node_match=match).is_isomorphic()]
        orbits.append(orbit)
        left = [u for u in left if u not in orbit]
    return orbits


def test_augmentation_matches_keying_every_neighbourhood():
    levels = connected_graphs_by_every_hood(6)
    got = [[] for _ in levels]
    for g in connected_graphs(6):
        got[g.n - 1].append(g.weights.tolist())
    assert got == levels
    assert [len(level) for level in levels] == [1, 1, 2, 6, 21, 112]


def test_orbits_from_generators_match_rooted_keys_and_networkx():
    q4 = hypercube(4)
    k44 = Graph.from_edges(8, [(i, 4 + j) for i in range(4) for j in range(4)])
    families = [build_complete(12), build_cycle(16), build_star(15), petersen(), q4, k44]
    count = 0
    for g in [*connected_graphs(6), *families]:
        orbits = automorphism_orbits(g)
        assert orbits == orbits_by_rooted_keys(g) == orbits_by_networkx(g)
        count += 1
    assert count == 143 + len(families)


def test_marked_graphs_run_no_search_per_extension_or_vertex(monkeypatch):
    # one row-major search per neighbourhood orbit of each class with n <= 5,
    # one column-major labelling per class with 2 <= n <= 6, and no rooted
    # search: the loop that keyed every neighbourhood made 1503 searches
    calls = []
    least_order = graphs._least_order

    def spy(w, root, rows):
        calls.append((root, rows))
        return least_order(w, root, rows)

    monkeypatch.setattr(graphs, "_least_order", spy)
    assert len(list(marked_graphs(6))) == 481
    assert calls.count((None, True)) == 388
    assert calls.count((None, False)) == 142
    assert len(calls) == 388 + 142


def test_enumerations_check_max_n_when_called():
    # no element is asked for: the checks run at the call
    for enumerate_ in (connected_graphs, marked_graphs):
        with pytest.raises(ValueError, match="^max_n must be an integer, got 2.5$"):
            enumerate_(2.5)
        with pytest.raises(ValueError, match="^max_n must be at least 0, got -1$"):
            enumerate_(-1)
        with pytest.raises(ValueError, match="^exhaustive enumeration is limited to n <= 7$"):
            enumerate_(9)
    assert list(marked_graphs(0)) == [] and list(connected_graphs(0)) == []


def test_twins_keep_symmetric_graphs_cheap(monkeypatch):
    # K_n, stars and K_{m,n} tie at every choice; without twin pruning the
    # key would explore n! orders
    calls = []
    split = graphs._split
    monkeypatch.setattr(graphs, "_split", lambda *args: calls.append(1) or split(*args))
    k44 = Graph.from_edges(8, [(i, 4 + j) for i in range(4) for j in range(4)])
    for g in (build_complete(8), build_star(7), k44):
        calls.clear()
        canonical_key(g)
        automorphism_orbits(g)
        assert len(calls) <= 2 * g.n * g.n


def petersen():
    return Graph.from_edges(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        + [(i, 5 + i) for i in range(5)],
    )


def hypercube(d):
    n = 1 << d
    return Graph.from_edges(n, [(u, u | 1 << k) for u in range(n) for k in range(d) if not u >> k & 1])


def test_symmetric_graphs_up_to_the_order_limit():
    assert CANONICAL_MAX_N == 16
    q4 = hypercube(4)
    for g in (build_complete(16), build_cycle(16), petersen(), q4):
        assert automorphism_orbits(g) == [list(range(g.n))]
    assert automorphism_orbits(build_star(15)) == [[0], list(range(1, 16))]
    # Q4 is the 4 x 4 torus C4 x C4, but not the 4-regular circulant C16(1, 2)
    rng = random.Random(4)
    perm = list(range(16))
    rng.shuffle(perm)
    torus = Graph.from_edges(
        16, [(4 * i + j, 4 * i + (j + 1) % 4) for i in range(4) for j in range(4)]
        + [(4 * i + j, 4 * ((i + 1) % 4) + j) for i in range(4) for j in range(4)]
    )
    assert are_isomorphic(q4, torus.relabeled(perm))
    assert not are_isomorphic(q4, build_regular(16, 4))
    big = build_cycle(17)
    for call in (canonical_key, automorphism_orbits, lambda g: are_isomorphic(g, g)):
        with pytest.raises(ValueError, match="n <= 16"):
            call(big)


def test_connected_graphs_are_connected_and_deduped():
    seen = set()
    for g in connected_graphs(4):
        assert g.is_connected()
        key = canonical_key(g)
        assert key not in seen
        seen.add(key)


def test_marked_graph_counts():
    marked = list(marked_graphs(4))
    assert len(marked) == 16
    # one representative per orbit: P3 contributes end and middle only
    p3_marks = [v for g, v in marked if g.n == 3 and len(g.edges()) == 2]
    assert len(p3_marks) == 2


def test_integer_flag_and_int_matrix():
    g = build_path(3)
    assert g.integer_flag
    m = g.int_matrix()
    assert m[0][1] == 1 and isinstance(m[0][1], int)
    h = Graph(np.array([[0.0, 0.5], [0.5, 0.0]]))
    assert not h.integer_flag
    with pytest.raises(ValueError):
        h.int_matrix()


def test_graph_equality_and_hash():
    g1 = build_path(3)
    g2 = build_path(3)
    assert g1 == g2
    assert hash(g1) == hash(g2)
    assert g1 != build_cycle(3)


def test_unpickling_checks_the_payload_as_the_constructor_does():
    # every --jobs worker receives its sides by pickle: they come back
    # equal, read-only, with their integer flag and an empty cache, and
    # pickle to the same bytes again
    sides = list(marked_graphs(5))
    data = pickle.dumps(sides)
    back = pickle.loads(data)
    assert back == sides and pickle.dumps(back) == data
    for (g, _), (h, _) in zip(sides, back):
        assert h.integer_flag and not h.weights.flags.writeable and h._poly_cache == {}
    half = pickle.loads(pickle.dumps(Graph(np.array([[0.0, 0.5], [0.5, 0.0]]))))
    assert not half.integer_flag
    # a payload the constructor refuses is refused on unpickling too
    for payload, problem in (
        (np.array([[0.0, 1.0], [2.0, 0.0]]), "symmetric"),
        (np.array([[np.inf]]), "finite"),
        (np.array([[np.nan, 0.0], [0.0, 0.0]]), "finite"),
    ):
        with pytest.raises(ValueError, match=problem):
            Graph.__new__(Graph).__setstate__(payload)


def test_delete_and_relabel():
    g = build_cycle(4)
    h = g.delete([0])
    assert h.n == 3
    assert [(u, v) for u, v, _ in h.edges()] == [(0, 1), (1, 2)]
    r = g.relabeled([1, 2, 3, 0])
    assert are_isomorphic(r, g)


def components_by_brute_force(g):
    """Oracle: the number of classes of the reachability relation, each
    class the vertices joined to one by a path of iter_ab_paths."""
    left, count = set(range(g.n)), 0
    while left:
        v = left.pop()
        left -= {u for u in left if any(iter_ab_paths(g, v, u))}
        count += 1
    return count


def test_articulation_points():
    g, a, b = build_double_star(2, 2)
    assert set(g.articulation_points()) == {a, b}
    assert set(build_cycle(5).articulation_points()) == set()
    # disconnected and looped graphs too: a cut vertex is one whose deletion
    # leaves more components
    rng = random.Random(11)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 7), p=0.35).with_loop(0, 1.0)
        base = components_by_brute_force(g)
        expect = {v for v in range(g.n) if components_by_brute_force(g.delete([v])) > base}
        assert g.articulation_points() == expect
        assert g.is_connected() == (base == 1)
