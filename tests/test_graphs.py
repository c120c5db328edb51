"""Graph construction, composition, path enumeration, and serialization."""

import itertools
import random

import numpy as np
import pytest

from pstwalk.graphs import (
    Graph,
    GraphParseError,
    are_isomorphic,
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


def test_one_sum_counts():
    y1 = build_path(3)
    y2 = build_cycle(3)
    z, b = one_sum(y1, 1, y2, 0)
    assert z.n == 5
    assert z.degree(b) == 4


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
    # classic counts of connected graphs up to isomorphism
    assert sum(1 for g in connected_graphs(1) if g.n == 1) == 1
    by_n = {}
    for g in connected_graphs(5):
        by_n[g.n] = by_n.get(g.n, 0) + 1
    assert by_n == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21}


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


def test_delete_and_relabel():
    g = build_cycle(4)
    h = g.delete([0])
    assert h.n == 3
    assert [(u, v) for u, v, _ in h.edges()] == [(0, 1), (1, 2)]
    r = g.relabeled([1, 2, 3, 0])
    assert are_isomorphic(r, g)


def test_articulation_points():
    g, a, b = build_double_star(2, 2)
    assert set(g.articulation_points()) == {a, b}
    assert set(build_cycle(5).articulation_points()) == set()
