"""Eigendecomposition, supports, cospectrality, and projector identities."""

import math
import pickle
import random
import tracemalloc

import numpy as np
import pytest

from pstwalk import exactpoly as xp
from pstwalk import spectral, verify
from pstwalk.graphs import (
    Graph,
    build_complete,
    build_cycle,
    build_path,
    build_star,
    compose,
    marked_graphs,
)
from pstwalk.pst import evolve_fidelity, fidelity_ceiling
from pstwalk.spectral import (
    cospectral,
    decompose,
    projector_entry_via_neutrino,
    strongly_cospectral,
    strongly_cospectral_exact,
    support,
    walk_module_matrix,
)


def random_symmetric(rng, n, scale=3.0):
    m = rng.normal(size=(n, n)) * scale
    return 0.5 * (m + m.T)


def random_int_graph(rng, n, p=0.5, weighted=False, loops=False):
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                w[i, j] = w[j, i] = rng.choice([-2, -1, 1, 2]) if weighted else 1
    if loops:
        for v in range(n):
            if rng.random() < 0.2:
                w[v, v] = rng.choice([-1, 1, 2])
    return Graph(w)


def projectors(dec):
    """The n x n projectors E_r = V_r V_r^T, V_r the eigenvector columns of
    eigenspace r: the oracle for the row sums the library reads."""
    return [c @ c.T for c in np.split(dec.vectors, dec.starts[1:], axis=1)]


def reconstruct(dec):
    """sum_r theta_r E_r, which must rebuild A."""
    return sum(th * e for th, e in zip(dec.distinct_eigenvalues, projectors(dec)))


def test_decompose_float_weights_matches_eigvalsh():
    rng = np.random.default_rng(100)
    for _ in range(200):
        n = int(rng.integers(1, 11))
        g = Graph(random_symmetric(rng, n))
        dec = decompose(g)
        expanded = np.repeat(dec.distinct_eigenvalues, dec.multiplicities)
        ref = np.sort(np.linalg.eigvalsh(g.weights))[::-1]
        scale = max(1, np.abs(g.weights).max())
        assert np.allclose(expanded, ref, atol=1e-10 * scale)
        assert np.allclose(reconstruct(dec), g.weights, atol=1e-10 * scale)


def test_decompose_diagonal_loops():
    g = Graph.from_edges(3, loops=[(0, 3.0), (1, -1.0), (2, 2.0)])
    dec = decompose(g)
    assert dec.distinct_eigenvalues == pytest.approx([3.0, 2.0, -1.0], abs=1e-12)
    assert dec.multiplicities == (1, 1, 1)
    for e, v in zip(projectors(dec), (0, 2, 1)):
        assert np.allclose(e, np.diag(np.eye(3)[v]), atol=1e-12)


def test_decompose_invariants():
    rng = np.random.default_rng(101)
    py_rng = random.Random(101)
    for _ in range(100):
        n = py_rng.randint(1, 10)
        g = random_int_graph(py_rng, n, weighted=True, loops=True)
        dec = decompose(g)
        assert sum(dec.multiplicities) == n
        es = projectors(dec)
        ident = sum(es)
        assert np.allclose(ident, np.eye(n), atol=1e-9)
        assert np.allclose(reconstruct(dec), g.weights, atol=1e-8)
        for i, ei in enumerate(es):
            assert np.allclose(ei @ ei, ei, atol=1e-9)
            for ej in es[i + 1 :]:
                assert np.allclose(ei @ ej, 0, atol=1e-9)
        assert list(dec.distinct_eigenvalues) == sorted(
            dec.distinct_eigenvalues, reverse=True
        )


def test_decompose_groups_multiplicities():
    dec = decompose(build_cycle(4))
    assert dec.multiplicities == (1, 2, 1)
    assert dec.distinct_eigenvalues == pytest.approx([2.0, 0.0, -2.0], abs=1e-9)
    dec = decompose(build_complete(5))
    assert dec.multiplicities == (1, 4)


def test_decomposition_is_kept_on_the_graph():
    p3 = build_path(3)
    dec = decompose(p3)
    assert decompose(p3) is dec
    copy = pickle.loads(pickle.dumps(p3))
    fresh = decompose(copy)
    assert fresh is not dec
    assert fresh.distinct_eigenvalues == dec.distinct_eigenvalues


def column_readings(g, a, b, t_values):
    """Pair readings from the columns of each projector E_r = projectors(dec)[r],
    the oracle for the row sums the library reads: ||E_r e_a||, the sign and
    parallelism of E_r e_a and E_r e_b, and the phases sum_r (E_r)_ba e^(i t theta_r)."""
    tol = spectral.SUPPORT_TOL
    dec = decompose(g)
    supp_a, supp_b, sigmas = [], [], []
    cospec = strong = True
    entries = []
    for th, e in zip(dec.distinct_eigenvalues, projectors(dec)):
        va, vb = e[:, a], e[:, b]
        na, nb = float(np.linalg.norm(va)), float(np.linalg.norm(vb))
        ia, ib = na > tol, nb > tol
        if ia:
            supp_a.append(th)
        if ib:
            supp_b.append(th)
        cospec = cospec and abs(na - nb) <= tol
        sigma = None
        if ia != ib:
            strong = False
        elif ia:
            s = 1 if float(va @ vb) >= 0 else -1
            if abs(na - nb) <= tol and float(np.linalg.norm(va - s * vb)) <= tol:
                sigma = s
            else:
                strong = False
        sigmas.append(sigma)
        entries.append(float(e[b, a]))
    thetas = np.array(dec.distinct_eigenvalues)
    fids = [float(abs(np.sum(np.exp(1j * t * thetas) * entries))) for t in t_values]
    return supp_a, supp_b, cospec, strong, sigmas, float(np.sum(np.abs(entries))), fids


def test_row_readings_match_projector_columns():
    rng = random.Random(107)
    nprng = np.random.default_rng(107)
    times = (0.0, 0.7, 2.9, 11.3)
    kinds = set()
    for i in range(100):
        n = rng.randint(2, 10)
        if i % 4 == 1:
            keep = np.triu(nprng.random(size=(n, n)) < 0.5)
            g = Graph(np.where(keep | keep.T, random_symmetric(nprng, n), 0.0))
        else:
            g = random_int_graph(rng, n, p=rng.choice((0.3, 0.6)), weighted=i % 2 == 0, loops=True)
            if i % 4 == 3:
                # the integer graph's symmetries, with non-integer weights
                g = Graph(g.weights * math.sqrt(2))
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                supp_a, supp_b, cospec, strong, sigmas, ceiling, fids = column_readings(
                    g, a, b, times
                )
                assert support(g, a) == supp_a and support(g, b) == supp_b
                if not g.integer_flag:
                    assert cospectral(g, a, b) == cospec
                sc, sig = strongly_cospectral(g, a, b)
                assert sc == strong
                assert [s for _, _, _, s in sig.entries] == sigmas
                assert fidelity_ceiling(g, a, b) == pytest.approx(ceiling, abs=1e-12)
                got = [evolve_fidelity(g, a, b, t) for t in times]
                assert got == pytest.approx(fids, abs=1e-12)
                kinds.add((g.integer_flag, sc))
    # integer and float weights, with and without strong cospectrality
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


def test_decomposition_holds_one_eigenvector_matrix():
    g = build_path(300)
    tracemalloc.start()
    try:
        dec = decompose(g)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dec.vectors.shape == (300, 300) and len(dec.multiplicities) == 300
    # one n x n matrix is 0.7 MB; one projector per eigenvalue would be 216 MB
    assert held < 5 * 2**20


def test_support_examples():
    p3 = build_path(3)
    assert support(p3, 0) == pytest.approx([math.sqrt(2), 0.0, -math.sqrt(2)], abs=1e-9)
    # the zero eigenvector vanishes at the middle vertex
    assert support(p3, 1) == pytest.approx([math.sqrt(2), -math.sqrt(2)], abs=1e-9)


def test_cospectral_examples():
    p3 = build_path(3)
    assert cospectral(p3, 0, 2)
    assert not cospectral(p3, 0, 1)
    assert cospectral(p3, 0, 0)
    p4 = build_path(4)
    assert cospectral(p4, 0, 3)
    assert cospectral(p4, 1, 2)
    assert not cospectral(p4, 0, 1)
    c4 = build_cycle(4)
    assert cospectral(c4, 0, 1) and cospectral(c4, 0, 2)


def test_cospectral_runs_no_charpoly_or_adjugate_entries(monkeypatch):
    calls = []
    of_rows, entries = xp._charpoly_of_rows, xp._adjugate_entries
    monkeypatch.setattr(xp, "_charpoly_of_rows", lambda rows: calls.append(1) or of_rows(rows))
    monkeypatch.setattr(
        xp, "_adjugate_entries", lambda g, phi, a, b: calls.append(2) or entries(g, phi, a, b)
    )
    # a cold integer graph: the walk modules of e_a +- e_b decide, with no
    # Hessenberg charpoly and no adjugate entry
    g = build_path(5)
    assert cospectral(g, 0, 4)
    assert not cospectral(g, 0, 2) and cospectral(g, 1, 3)
    assert calls == []


def test_cospectral_numeric_path():
    # same decisions when weights force the eigenspace route
    g = Graph(build_path(3).weights * 0.5)
    assert cospectral(g, 0, 2)
    assert not cospectral(g, 0, 1)
    p5 = Graph(build_path(5).weights * 0.5)
    assert cospectral(p5, 0, 4) and cospectral(p5, 1, 3)
    assert not cospectral(p5, 0, 2)


def test_cospectral_float_weights_resolve_a_small_asymmetry():
    """P5 with edge weights 1.5 has mirror-image ends; scaling one pendant
    edge by 1 + eps moves the eigenspace norms of the ends apart by up to
    eps / sqrt(3).  The float branch must see that from well below 0.05
    down to near SUPPORT_TOL, and forgive it at rounding level."""
    for eps, expect in ((1e-12, True), (1e-5, False), (1e-4, False), (1e-3, False)):
        w = build_path(5).weights * 1.5
        w[3, 4] = w[4, 3] = 1.5 * (1 + eps)
        g = Graph(w)
        reading = decompose(g).pair(0, 4)
        na, nb = np.sqrt(reading.aa), np.sqrt(reading.bb)
        gap = float(np.max(np.abs(na - nb)))
        assert gap == pytest.approx(eps / math.sqrt(3), rel=1e-3, abs=1e-12)
        assert cospectral(g, 0, 4) is expect
        assert cospectral(g, 1, 3) is expect


def test_cospectral_float_weights_see_every_eigenspace():
    # P3 (a = 0), P3 with weights 1.5, 1 (b = 3, on the 1.5 edge) and K1,9:
    # a has 1 closed 2-walk and b has 2.25, so they are not cospectral,
    # however large the star makes ||A||
    w = np.zeros((16, 16))
    for u, v, wt in [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.5), (4, 5, 1.0)]:
        w[u, v] = w[v, u] = wt
    w[6, 7:] = w[7:, 6] = 1.0
    g = Graph(w)
    assert (g.weights @ g.weights)[[0, 3], [0, 3]].tolist() == [1.0, 2.25]
    assert not cospectral(g, 0, 3)
    assert cospectral(g, 0, 2) and cospectral(g, 7, 15)


def test_strongly_cospectral_examples():
    p3 = build_path(3)
    sc, sig = strongly_cospectral(p3, 0, 2)
    assert sc
    assert [s for _, s in sig.supported()] == [1, -1, 1]
    c4 = build_cycle(4)
    assert not strongly_cospectral(c4, 0, 1)[0]
    assert strongly_cospectral(c4, 0, 2)[0]
    p4 = build_path(4)
    assert strongly_cospectral(p4, 0, 3)[0]
    assert strongly_cospectral(p4, 1, 2)[0]
    assert not strongly_cospectral(build_complete(3), 0, 1)[0]


def test_strongly_cospectral_signature_fields():
    _, sig = strongly_cospectral(build_path(3), 0, 1)
    assert not sig.strongly_cospectral
    data = sig.to_json()
    assert data["a"] == 0 and data["b"] == 1
    assert len(data["eigenvalues"]) == 3
    with pytest.raises(ValueError):
        strongly_cospectral(build_path(3), 1, 1)


def test_exact_decision_matches_numeric():
    rng = random.Random(103)
    for _ in range(80):
        n = rng.randint(2, 7)
        g = random_int_graph(rng, n, weighted=rng.random() < 0.3)
        a, b = rng.sample(range(n), 2)
        numeric, _ = strongly_cospectral(g, a, b)
        assert numeric == strongly_cospectral_exact(g, a, b)


def test_exact_numeric_disagreement_raises(monkeypatch):
    monkeypatch.setattr(spectral, "strongly_cospectral_exact", lambda g, a, b: False)
    with pytest.raises(RuntimeError, match="disagree"):
        strongly_cospectral(build_path(3), 0, 2)
    monkeypatch.setattr(spectral, "strongly_cospectral_exact", lambda g, a, b: True)
    with pytest.raises(RuntimeError, match="disagree"):
        strongly_cospectral(build_path(3), 0, 1)


def test_exact_decision_canonical_cases():
    c4 = build_cycle(4)
    # adjacent pair: phi(G\\ab)/phi(G) keeps a double pole at 0, and 0 is in
    # both sigma classes
    assert not strongly_cospectral_exact(c4, 0, 1)
    # antipodal pair: all poles simple
    assert strongly_cospectral_exact(c4, 0, 2)
    p4 = build_path(4)
    assert strongly_cospectral_exact(p4, 0, 3)
    assert strongly_cospectral_exact(p4, 1, 2)
    with pytest.raises(ValueError):
        strongly_cospectral_exact(Graph(np.array([[0.0, 0.5], [0.5, 0.0]])), 0, 1)
    with pytest.raises(ValueError):
        strongly_cospectral_exact(p4, 1, 1)


def poles_simple_oracle(g, a, b):
    """The earlier exact decision: equal deleted charpolys, and only simple
    poles in phi(G\\ab)/phi(G) after reduction.  Runs on a fresh copy so it
    shares no cached polynomial with the decision under test."""
    g = Graph(g.weights)
    if xp.charpoly_deleted(g, [a]) != xp.charpoly_deleted(g, [b]):
        return False
    num, den = xp.charpoly_deleted(g, [a, b]), xp.charpoly(g)
    common = xp.poly_gcd(num, den)
    d = xp.poly_divexact(den, common) if common.degree > 0 else den
    return d.degree <= 0 or xp.poly_gcd(d, d.derivative()).degree == 0


def test_exact_decision_matches_oracle_on_small_bridges():
    marked = list(marked_graphs(4))
    decided = []
    for bridge in (2, 3):
        for y1, a in marked:
            for y2, b in marked:
                z, ga, gb = compose(y1, a, y2, b, bridge)
                sc = strongly_cospectral_exact(z, ga, gb)
                assert sc == poles_simple_oracle(z, ga, gb)
                decided.append(sc)
    assert 0 < sum(decided) < len(decided)


def test_exact_decision_matches_oracle_on_weighted_looped_graphs():
    rng = random.Random(106)
    outcomes = {"not_cospectral": 0, "cospectral_only": 0, "strongly": 0}
    for i in range(320):
        n = rng.randint(1, 4)
        y = random_int_graph(rng, n, p=0.6, weighted=True, loops=True)
        if i % 2:
            # a relabelled copy across a bridge: a, b are swapped by an
            # automorphism, so always cospectral, not always strongly
            a = rng.randrange(n)
            perm = list(range(n))
            rng.shuffle(perm)
            g, a, b = compose(y, a, y.relabeled(perm), perm[a], rng.choice((2, 3)))
        else:
            g = random_int_graph(rng, n + 3, weighted=True, loops=True)
            a, b = rng.sample(range(g.n), 2)
        sc = strongly_cospectral_exact(g, a, b)
        assert sc == poles_simple_oracle(g, a, b)
        if sc:
            outcomes["strongly"] += 1
        elif cospectral(g, a, b):
            outcomes["cospectral_only"] += 1
        else:
            outcomes["not_cospectral"] += 1
    assert min(outcomes.values()) > 0, outcomes


def test_non_cospectral_pair_costs_no_charpoly(monkeypatch):
    calls, deletions, modules = [], [], []
    real = xp._charpoly_of_rows
    monkeypatch.setattr(xp, "_charpoly_of_rows", lambda rows: calls.append(1) or real(rows))
    real_delete = Graph.delete
    monkeypatch.setattr(Graph, "delete", lambda g, vs: deletions.append(vs) or real_delete(g, vs))
    real_minimal = xp._minimal_polynomial
    monkeypatch.setattr(
        xp, "_minimal_polynomial", lambda walks: modules.append(1) or real_minimal(walks)
    )
    p3 = build_path(3)
    # a pair that is not cospectral reads the walk module of e_a + e_b only
    assert not strongly_cospectral_exact(p3, 0, 1)
    assert len(modules) == 1
    # a cospectral pair reads both modules; a repeat is served from the cache
    assert strongly_cospectral_exact(p3, 0, 2)
    assert strongly_cospectral_exact(p3, 2, 0)
    assert len(modules) == 3
    assert calls == [] and deletions == []


def test_neutrino_matches_projectors(monkeypatch):
    # sf is made once per graph and N once per (a, b), read for every
    # eigenvalue
    calls = []
    squarefree = xp.squarefree_part
    monkeypatch.setattr(xp, "squarefree_part", lambda p: calls.append(p) or squarefree(p))
    rng = random.Random(104)
    for _ in range(40):
        n = rng.randint(2, 7)
        g = random_int_graph(rng, n, p=0.55)
        if not g.is_connected():
            continue
        a, b = rng.sample(range(n), 2)
        dec = decompose(g)
        calls.clear()
        for th, e in zip(dec.distinct_eigenvalues, projectors(dec)):
            assert projector_entry_via_neutrino(g, a, b, th) == pytest.approx(
                float(e[b, a]), abs=1e-7
            )
            assert projector_entry_via_neutrino(g, a, a, th) == pytest.approx(
                float(e[a, a]), abs=1e-7
            )
        assert len(calls) == 1


def test_neutrino_zero_off_support():
    p3 = build_path(3)
    dec = decompose(p3)
    # eigenvalue 0 is not in the middle vertex's support
    assert projector_entry_via_neutrino(p3, 1, 1, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert projector_entry_via_neutrino(p3, 0, 1, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_neutrino_on_a_repeated_root():
    # phi(K1,3) = t**2 (t**2 - 3): eigenvalue 0 has multiplicity 2, and its
    # eigenspace is orthogonal to the centre
    star = build_star(3)
    dec = decompose(star)
    assert dec.multiplicities == (1, 2, 1)
    for th, e in zip(dec.distinct_eigenvalues, projectors(dec)):
        for a, b in ((0, 0), (1, 1), (0, 1), (1, 2), (3, 2)):
            assert projector_entry_via_neutrino(star, a, b, th) == pytest.approx(
                float(e[a, b]), abs=1e-12
            )
    assert projector_entry_via_neutrino(star, 0, 0, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert projector_entry_via_neutrino(star, 1, 1, 0.0) == pytest.approx(2 / 3, abs=1e-12)


def test_neutrino_rejects_non_eigenvalue():
    with pytest.raises(ValueError):
        projector_entry_via_neutrino(build_path(3), 0, 1, 0.3)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_neutrino_rejects_non_finite_theta(theta):
    # every comparison with nan is False, so the root check alone let these
    # through and the entry came back nan
    with pytest.raises(ValueError, match="finite eigenvalue"):
        projector_entry_via_neutrino(build_path(3), 0, 2, theta)


def test_walk_module_star():
    t = walk_module_matrix(build_star(3), 0)
    assert t.shape == (2, 2)
    assert np.allclose(t, [[0, math.sqrt(3)], [math.sqrt(3), 0]], atol=1e-12)


def test_walk_module_path_end():
    t = walk_module_matrix(build_path(4), 0)
    assert t.shape == (4, 4)
    off = np.diag(t, 1)
    assert np.allclose(off, [1, 1, 1], atol=1e-10)
    assert np.allclose(np.diag(t), 0, atol=1e-12)


@pytest.mark.parametrize("k", [25, 30, 40])
def test_walk_module_keeps_an_eigenspace_large_weights_shrink(k):
    # on P3 with weights (2**k, 1), ||E_0 e_0|| is about 2**-k, below
    # SUPPORT_TOL, yet e_0 spans a module of dimension 3
    g = Graph.from_edges(3, [(0, 1, 2**k), (1, 2, 1)])
    assert xp.walk_gf(g, 0).den.degree == 3
    assert walk_module_matrix(g, 0).tolist() == [[0, 2**k, 0], [2**k, 0, 1], [0, 1, 0]]


def test_interlacing_suite_modules_keep_their_dimension(monkeypatch):
    # on the suite's graphs the exact dimension is the support's, so the
    # suite reads the modules it read when the support sized them
    seen = []

    def record(g, v):
        seen.append((g, v))
        return walk_module_matrix(g, v)

    monkeypatch.setattr(verify, "walk_module_matrix", record)
    assert verify.suite_interlacing().passed
    assert len(seen) == 20
    for g, v in seen:
        assert walk_module_matrix(g, v).shape == (len(support(g, v)),) * 2


def test_walk_module_spectrum_interlaces():
    rng = random.Random(105)
    for _ in range(30):
        n = rng.randint(2, 8)
        g = random_int_graph(rng, n, p=0.5, weighted=True)
        v = rng.randrange(n)
        t = walk_module_matrix(g, v)
        tw = np.sort(np.linalg.eigvalsh(t))
        gw = np.sort(np.linalg.eigvalsh(g.weights))
        # Krylov eigenvalues are Ritz values: inside the spectrum's range
        assert tw[0] >= gw[0] - 1e-8
        assert tw[-1] <= gw[-1] + 1e-8
        # the module is invariant, so its spectrum is exactly the support of v
        assert np.allclose(tw, sorted(support(g, v)), atol=1e-8)
