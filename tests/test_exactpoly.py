"""Exact polynomial arithmetic and the characteristic-polynomial identities."""

import itertools
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from pstwalk import exactpoly as xp
from pstwalk.exactpoly import (
    ExactDivisionError,
    IntPoly,
    T,
    bareiss_det,
    bridge_charpoly_p2,
    bridge_classes,
    charpoly,
    charpoly_deleted,
    loop_adjusted_charpoly,
    one_sum_charpoly,
    path_sum_poly,
    pendant_sqrt2_charpoly,
    poly_divexact,
    poly_gcd,
    return_walk_gf,
    sigma_classes,
    squarefree_part,
    walk_equivalent,
    walk_gf,
)
from pstwalk.graphs import (
    Graph,
    GraphParseError,
    build_complete,
    build_cycle,
    build_path,
    build_star,
    compose,
    iter_ab_paths,
    marked_graphs,
    one_sum,
    parse_graph,
)
from pstwalk.pst import pst_certificate
from pstwalk.spectral import projector_entry_via_neutrino
from pstwalk.verify import random_connected_graph, search_no_pst


def charpoly_oracle(g):
    """det(tI - A) by Leibniz expansion over permutations with IntPoly
    entries, completely independent of the multi-modular route."""
    n = g.n
    a = g.int_matrix()
    total = IntPoly(())
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):  # cycle-count parity
            if seen[i]:
                continue
            j = i
            length = 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = IntPoly((sign,))
        for i in range(n):
            if perm[i] == i:
                term = term * (T - IntPoly((a[i][i],)))
            else:
                term = term * IntPoly((-a[i][perm[i]],))
        total = total + term
    return total


def det_oracle(m):
    """Fraction Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in m]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            for k in range(c, n):
                m[r][k] -= f * m[c][k]
    assert det.denominator == 1
    return int(det)


def random_int_graph(rng, n, weighted=False, loops=False, p=0.5):
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                w[i, j] = w[j, i] = rng.choice([-2, -1, 1, 2, 3]) if weighted else 1
    if loops:
        for v in range(n):
            if rng.random() < 0.25:
                w[v, v] = rng.choice([-1, 1, 2])
    return Graph(w)


def test_intpoly_arithmetic():
    p = IntPoly((1, 2))  # 1 + 2t
    q = IntPoly((-1, 0, 1))  # t^2 - 1
    assert (p + q).coeffs == (0, 2, 1)
    assert (p - q).coeffs == (2, 2, -1)
    assert (p * q).coeffs == (-1, -2, 1, 2)
    assert p(3) == 7
    assert q(Fraction(1, 2)) == Fraction(-3, 4)
    assert abs(q(1.5) - 1.25) < 1e-12
    assert q(1j) == -2


def test_intpoly_normalization_and_degree():
    assert IntPoly((0, 0, 0)).is_zero
    assert IntPoly((1, 0, 0)).coeffs == (1,)
    assert IntPoly((0, 0, 5)).degree == 2
    assert IntPoly(()).degree == -1


def test_intpoly_derivative_content():
    p = IntPoly((4, 0, 6))  # 6t^2 + 4
    assert p.derivative().coeffs == (0, 12)
    assert p.content() == 2
    assert p.primitive_part().coeffs == (2, 0, 3)


def test_intpoly_str():
    assert str(IntPoly((0, -2, 0, 1))) == "t^3 - 2*t"
    assert str(IntPoly(())) == "0"
    assert str(IntPoly((5,))) == "5"


def test_poly_gcd_examples():
    a = IntPoly((-1, 0, 1))  # t^2 - 1
    b = IntPoly((-1, 0, 0, 1))  # t^3 - 1
    assert poly_gcd(a, b).coeffs == (-1, 1)
    assert poly_gcd(a, IntPoly(())).coeffs == a.coeffs
    assert poly_gcd(IntPoly(()), IntPoly(())).is_zero
    # content is stripped: gcd(2t, 4) is 2 up to units -> primitive 1
    assert poly_gcd(IntPoly((0, 2)), IntPoly((4,))).coeffs == (1,)


def test_poly_gcd_random_products():
    rng = random.Random(1)
    for _ in range(60):
        def rand_poly():
            deg = rng.randint(0, 3)
            c = [rng.randint(-3, 3) for _ in range(deg)] + [rng.choice([1, 2, -1])]
            return IntPoly(tuple(c))

        common, a, b = rand_poly(), rand_poly(), rand_poly()
        g = poly_gcd(common * a, common * b)
        # the primitive part of the planted factor divides the gcd exactly
        poly_divexact(g, common.primitive_part())


def _pseudo_rem(p, q):
    """Pseudo-remainder: lc(q)**(deg p - deg q + 1) * p mod q, exactly."""
    dq = q.degree
    lq = q.leading
    r = p
    while not r.is_zero and r.degree >= dq:
        k = r.degree - dq
        top = r.leading
        r = lq * r - top * IntPoly((0,) * k + q.coeffs)  # top t**k q
    return r


def poly_gcd_oracle(p, q):
    """Primitive gcd with positive leading coefficient by the primitive
    pseudo-remainder sequence: no integer packing, no heuristic step."""
    a, b = p, q
    if a.is_zero and b.is_zero:
        return IntPoly()
    a = a.primitive_part()
    b = b.primitive_part()
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero:
        r = _pseudo_rem(a, b).primitive_part()
        a, b = b, r
    return a if a.leading > 0 else -a


def planted_gcd_pairs(seed, count, max_degree=40, bits=80):
    """Seeded (p, q) with a planted common factor, contents and signs: the
    factor and both cofactors have coefficients up to 2**bits and random
    degrees summing to at most ``max_degree`` on each side."""
    rng = random.Random(seed)

    def rand_poly(deg, size):
        top = rng.randint(1, size) * rng.choice((1, -1))
        return IntPoly([rng.randint(-size, size) for _ in range(deg)] + [top])

    pairs = []
    for _ in range(count):
        size = 2 ** rng.randint(1, bits)
        dg = rng.randint(0, max_degree // 2)
        common = rand_poly(dg, size)
        f = rand_poly(rng.randint(0, max_degree - dg), size)
        g = rand_poly(rng.randint(0, max_degree - dg), size)
        p = rng.randint(1, 2**20) * rng.choice((1, -1)) * common * f
        q = rng.randint(1, 2**20) * rng.choice((1, -1)) * common * g
        pairs.append((p, q))
    return pairs


def test_poly_gcd_matches_oracle_on_planted_factors():
    for p, q in planted_gcd_pairs(18, 60):
        g = poly_gcd(p, q)
        assert g.coeffs == poly_gcd_oracle(p, q).coeffs
        assert g == poly_gcd(q, p)


def test_poly_gcd_zero_and_constant_inputs():
    a = IntPoly((6, -4, -2))  # -2 (t^2 + 2t - 3)
    cases = [
        (IntPoly(), IntPoly()),
        (a, IntPoly()),
        (IntPoly(), a),
        (IntPoly(), IntPoly((-7,))),
        (IntPoly((-7,)), IntPoly()),
        (IntPoly((4,)), IntPoly((-6,))),
        (IntPoly((-3,)), a),
        (a, IntPoly((1,))),
        (a, -a),
    ]
    for p, q in cases:
        assert poly_gcd(p, q).coeffs == poly_gcd_oracle(p, q).coeffs
    assert poly_gcd(a, IntPoly()).coeffs == (-3, 2, 1)
    assert poly_gcd(IntPoly((4,)), IntPoly((-6,))).coeffs == (1,)


@pytest.mark.parametrize("bridge", [2, 3])
def test_poly_gcd_matches_oracle_on_a_search(bridge, monkeypatch):
    seen = []
    original = xp.poly_gcd

    def recording(p, q):
        seen.append((p, q, original(p, q)))
        return seen[-1][2]

    monkeypatch.setattr(xp, "poly_gcd", recording)
    # the side keys make no gcd, so only the n <= 5 certificates reach 50
    search_no_pst(bridge, 5)
    assert len(seen) > 50
    for p, q, g in seen:
        assert g.coeffs == poly_gcd_oracle(p, q).coeffs


def test_poly_gcd_packs_at_the_larger_norm():
    # at xi = 2**7, from the norm of t - 1 alone, gcd(2t - 383, t - 1) at xi
    # is 127, whose balanced digits read t - 1 and pass the cofactor test
    assert poly_gcd(IntPoly((-383, 2)), IntPoly((-1, 1))).coeffs == (1,)
    # 2t^2 + 13t - 32 and t^3 - 4t: at xi = 16 the digits read t
    p, q = IntPoly((-32, 13, 2)), IntPoly((0, -4, 0, 1))
    assert poly_gcd(p, q).coeffs == poly_gcd_oracle(p, q).coeffs == (1,)


def test_balanced_digits_round_trip():
    for coeffs in [(3, -5, 2), (-7, 0, 0, 1), (8, 8), (-7, 1), (1,), (-1,)]:
        for k in (4, 5, 9):
            assert xp._unpack(xp._pack(coeffs, k), k) == list(coeffs)
    # the digit 2**(k-1) stays positive; -2**(k-1) borrows from the next
    assert xp._unpack(8, 4) == [8]
    assert xp._unpack(-8, 4) == [8, -1]


def _refusing(monkeypatch, refusals):
    """Wrap the cofactor test so that it refuses its first ``refusals``
    calls; returns the list of the wrapped test's own answers."""
    answers = []
    original = xp._exact_cofactor

    def refusing(*args):
        answers.append(original(*args))
        return answers[-1] and len(answers) > refusals

    monkeypatch.setattr(xp, "_exact_cofactor", refusing)
    return answers


def test_poly_gcd_refuses_a_spurious_first_reading(monkeypatch):
    # gcd(1 + 2t + 3t^2 + 3t^3, 5 + 5t - t^3) = 1, but at the first xi the
    # integer gcd's digits read t - 97: its cofactors are not exact
    p, q = IntPoly((1, 2, 3, 3)), IntPoly((5, 5, 0, -1))
    answers = _refusing(monkeypatch, 0)
    assert poly_gcd(p, q).coeffs == poly_gcd_oracle(p, q).coeffs == (1,)
    assert False in answers and answers[-1] is True


def test_poly_gcd_widens_past_a_refused_reading(monkeypatch):
    pairs = planted_gcd_pairs(19, 25, max_degree=16, bits=30)
    pairs.append((IntPoly((-32, 13, 2)), IntPoly((0, -4, 0, 1))))
    answers = _refusing(monkeypatch, 1)
    for p, q in pairs:
        answers.clear()
        assert poly_gcd(p, q).coeffs == poly_gcd_oracle(p, q).coeffs
        assert len(answers) >= 3  # the refused attempt, then both cofactors


def _count_gcds(monkeypatch):
    calls = []
    original = xp.poly_gcd

    def counting(p, q):
        calls.append(1)
        return original(p, q)

    monkeypatch.setattr(xp, "poly_gcd", counting)
    return calls


def test_poly_gcd_calls_of_a_certificate_and_a_bucket_key(monkeypatch):
    calls = _count_gcds(monkeypatch)
    cert = pst_certificate(build_path(5), 0, 4)  # strongly cospectral ends
    assert cert.failure_reason != "not_strongly_cospectral"
    # m+ and m- are minimal polynomials, with no fraction to reduce: the
    # one gcd is gcd(m+, m-) of the decision
    assert len(calls) == 1
    calls.clear()
    # the key's D is a minimal polynomial too, and N / D is reduced as read,
    # and so are the bridge classes of the key
    key = walk_gf(build_star(3), 0)
    bridge_classes(key, 2), bridge_classes(key, 3)
    assert calls == []


def test_poly_divexact():
    prod = IntPoly((-1, 0, 1)) * IntPoly((3, 2))
    assert poly_divexact(prod, IntPoly((3, 2))).coeffs == (-1, 0, 1)
    with pytest.raises(ExactDivisionError):
        poly_divexact(IntPoly((1, 1)), IntPoly((0, 2)))
    with pytest.raises(ZeroDivisionError):
        poly_divexact(IntPoly((1,)), IntPoly(()))


def test_squarefree_part():
    p = IntPoly((-1, 0, 1))
    assert squarefree_part(p * p).coeffs == (-1, 0, 1)
    assert squarefree_part(p).coeffs == (-1, 0, 1)
    cube = IntPoly((0, 1)) * IntPoly((0, 1)) * IntPoly((0, 1))
    assert squarefree_part(cube).coeffs == (0, 1)


def poly_sqrt(p):
    """The integer polynomial with positive leading coefficient whose square
    is p; raises ExactDivisionError when there is none.  The oracle of
    ``sigma_classes_oracle``, which took P_ab as this root."""
    if p.is_zero:
        return p
    m = p.degree // 2
    root = [0] * m + [math.isqrt(max(p.leading, 1))]
    for k in range(m - 1, -1, -1):
        # t**(m+k) of root**2 is 2 root[m] root[k] plus products of known coefficients
        c = p.coeffs[m + k] - sum(root[i] * root[m + k - i] for i in range(k + 1, m))
        root[k] = c // (2 * root[m])
    out = IntPoly(root)
    if out * out != p:
        raise ExactDivisionError("not the square of an integer polynomial")
    return out


def test_poly_sqrt():
    rng = random.Random(3)
    for _ in range(60):
        p = IntPoly(rng.randint(-2**70, 2**70) for _ in range(rng.randint(1, 9)))
        if p.is_zero:
            continue
        root = poly_sqrt(p * p)
        assert root == (p if p.leading > 0 else -p)
    assert poly_sqrt(IntPoly()) == IntPoly()
    for not_square in ((-1, 0, 1), (0, 0, 0, 1), (0, 0, 2), (0, 0, -1), (1, 0, 1)):
        with pytest.raises(ExactDivisionError):
            poly_sqrt(IntPoly(not_square))


def test_sigma_classes():
    # P2: theta = 1 has sigma = +1, theta = -1 has sigma = -1
    assert sigma_classes(build_path(2), 0, 1) == (IntPoly((-1, 1)), IntPoly((1, 1)))
    # P3 ends: sqrt 2 and -sqrt 2 have sigma = +1, 0 has sigma = -1
    p3 = build_path(3)
    assert sigma_classes(p3, 0, 2) == (IntPoly((-2, 0, 1)), T)
    assert sigma_classes(p3, 2, 0) == sigma_classes(p3, 0, 2)
    assert sigma_classes(p3, 0, 1) is None  # not cospectral
    # C4 adjacent pair: cospectral, but E_0 e_0 and E_0 e_1 are orthogonal,
    # so 0 falls in both classes
    assert sigma_classes(build_cycle(4), 0, 1) == (T * (T - 2), T * (T + 2))
    with pytest.raises(ValueError):
        sigma_classes(p3, 1, 1)
    with pytest.raises(ValueError):
        sigma_classes(Graph(np.array([[0.0, 0.5], [0.5, 0.0]])), 0, 1)


def test_bareiss_det_matches_fraction_elimination():
    rng = random.Random(2)
    for _ in range(80):
        n = rng.randint(1, 6)
        m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        assert bareiss_det(m) == det_oracle(m)


def test_charpoly_frozen_families():
    assert charpoly(build_path(1)).coeffs == (0, 1)
    assert charpoly(build_path(2)).coeffs == (-1, 0, 1)
    assert charpoly(build_path(3)).coeffs == (0, -2, 0, 1)
    assert charpoly(build_star(3)).coeffs == (0, 0, -3, 0, 1)
    assert charpoly(build_cycle(4)).coeffs == (0, 0, -4, 0, 1)


def test_charpoly_matches_leibniz_oracle():
    rng = random.Random(4)
    for _ in range(50):
        g = random_int_graph(rng, rng.randint(1, 6), weighted=True, loops=True)
        assert charpoly(g) == charpoly_oracle(g)


def power(p, k):
    out = IntPoly((1,))
    for _ in range(k):
        out = out * p
    return out


def hypercube(d):
    n = 1 << d
    return Graph.from_edges(n, [(v, v ^ (1 << k)) for v in range(n) for k in range(d) if v < v ^ (1 << k)])


def test_charpoly_complete_closed_form():
    for n in range(1, 41):
        expected = (T - (n - 1)) * power(T + 1, n - 1)
        assert charpoly(build_complete(n)) == expected


def test_charpoly_path_chebyshev_recurrence():
    # phi(P_n) = t phi(P_{n-1}) - phi(P_{n-2}), phi(P_0) = 1, phi(P_1) = t
    prev, cur = IntPoly((1,)), T
    for n in range(2, 81):
        prev, cur = cur, T * cur - prev
        assert charpoly(build_path(n)) == cur


def test_charpoly_hypercube_q6():
    expected = IntPoly((1,))
    for k in range(7):
        expected = expected * power(T - (6 - 2 * k), math.comb(6, k))
    assert charpoly(hypercube(6)) == expected


def test_charpoly_weight_beyond_int64():
    g = Graph.from_edges(2, [(0, 1, 2.0**70)])
    assert charpoly(g) == T * T - 2**140


def test_integer_weights_float64_would_round_are_refused():
    # 2**60 + 1 would be kept as 2**60, and the exact layer would decide
    # another graph
    big = 2**60 + 1
    with pytest.raises(ValueError, match=f"integer weight {big} is not exact in float64"):
        Graph.from_edges(2, [(0, 1, big)])
    with pytest.raises(ValueError, match=f"integer weight {big} is not exact in float64"):
        Graph.from_edges(1, loops=[(0, big)])
    for weights in ([[0, big], [big, 0]], np.array([[0, big], [big, 0]])):
        with pytest.raises(ValueError, match=f"integer weight {big} is not exact in float64"):
            Graph(weights)
    # beyond float64's range too, where numpy's conversion overflows; ragged
    # and non-square input keep their own messages
    huge = 10**400
    with pytest.raises(ValueError, match=f"^integer weight {huge} is not exact in float64$"):
        Graph([[0, huge], [huge, 0]])
    with pytest.raises(ValueError, match=f"^integer weight {huge} is not exact in float64$"):
        Graph.from_edges(2, [(0, 1, huge)])
    with pytest.raises(ValueError, match="inhomogeneous shape"):
        Graph([[0, 1], [1]])
    with pytest.raises(ValueError, match="^weight matrix must be square$"):
        Graph([[0, 1, 2]])
    with pytest.raises(GraphParseError, match=f"line 2: integer weight {big} is not"):
        parse_graph(f"2 1\n0 1 {big}\n")
    with pytest.raises(GraphParseError, match=f"line 3: integer weight {big} is not"):
        parse_graph(f"1 0\nloop 0 1\nloop 0 {big}\n")
    # an added loop, and the loop total it makes, are held to the same rule
    with pytest.raises(ValueError, match=f"integer weight {big} is not exact in float64"):
        build_path(3).with_loop(0, big)
    with pytest.raises(ValueError, match=f"integer weight {big} is not exact in float64"):
        build_path(3).with_loop(0, 1).with_loop(0, 2**60)
    assert charpoly(build_path(3).with_loop(0, 2**60)).coeffs == (2**60, -2, -(2**60), 1)
    for exact in (2**53, 2**60):
        for g in (
            Graph.from_edges(2, [(0, 1, exact)]),
            Graph([[0, exact], [exact, 0]]),
            parse_graph(f"2 1\n0 1 {exact}\n"),
        ):
            assert charpoly(g) == T * T - exact**2


def test_charpoly_refuses_orders_that_would_overflow_int64():
    # the check runs before any arithmetic, so shared empty rows suffice
    with pytest.raises(OverflowError):
        xp._charpoly_of_rows([[0]] * (xp._MAX_ORDER + 1))


def test_charpoly_matches_bareiss_oracle():
    # bareiss_det is the exact oracle: charpoly(g)(k) == det(kI - A), k = 0..n,
    # three graphs of every order on both sides of the kernel crossover
    rng = random.Random(16)
    for n in list(range(1, xp._LIST_ORDER + 5)) * 3:
        w = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    w[i, j] = w[j, i] = rng.randint(-50, 50)
            if rng.random() < 0.3:
                w[i, i] = rng.randint(-50, 50)
        g = Graph(w)
        a = g.int_matrix()
        phi = charpoly(g)
        for k in range(n + 1):
            shifted = [[(k if i == j else 0) - a[i][j] for j in range(n)] for i in range(n)]
            assert phi(k) == bareiss_det(shifted)


def kernel_cases(n, rng):
    """Integer matrices of order n for the two charpoly kernels: symmetric
    with negative weights and loops, general, with entries beyond 2**63, and
    (n >= 3) one whose first column has no pivot below the subdiagonal and
    one whose pivot needs a row and column swap."""
    big = [-(2**70) - 1, 2**64 + 3, 3 * 2**63]
    sym = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if rng.random() < 0.5:
                sym[i][j] = sym[j][i] = rng.choice([-3, -1, 1, 2, 5])
    cases = [sym, [[rng.choice([0, 0, 1, -2, 7, *big]) for _ in range(n)] for _ in range(n)]]
    if n >= 3:
        # column 0 is zero below the diagonal: step 1 finds no pivot
        no_pivot = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        for i in range(1, n):
            no_pivot[i][0] = 0
        # h[1][0] = 0 and h[2][0] != 0: step 1 swaps rows and columns 1 and 2
        swap = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        swap[1][0], swap[2][0] = 0, rng.choice(big)
        cases += [no_pivot, swap]
    return cases


def test_charpoly_kernels_agree():
    # the list kernel below the crossover and the numpy kernel above it
    # return the same residues, on every order either side of it
    rng = random.Random(30)
    primes = xp._primes()
    for n in range(1, 21):
        for rows in kernel_cases(n, rng) + kernel_cases(n, rng):
            for p in (primes[0], primes[-1]):
                listed = xp._charpoly_mod_rows(rows, p)
                assert listed == xp._charpoly_mod(np.array(rows, dtype=object), p).tolist()
                assert len(listed) == n + 1 and listed[-1] == 1


def test_charpoly_kernel_choice_is_pinned(monkeypatch):
    # orders up to the crossover never reach the numpy kernel, larger ones
    # always do, and every order gives the same polynomial either way
    used = []
    for name in ("_charpoly_mod_rows", "_charpoly_mod"):
        kernel = getattr(xp, name)
        monkeypatch.setattr(xp, name, lambda a, p, k=kernel, name=name: used.append(name) or k(a, p))
    rng = random.Random(31)
    for n in range(1, xp._LIST_ORDER + 5):
        for rows in kernel_cases(n, rng):
            used.clear()
            phi = xp._charpoly_of_rows(rows)
            expected = "_charpoly_mod_rows" if n <= xp._LIST_ORDER else "_charpoly_mod"
            assert used and set(used) == {expected}
            shifted = [[(3 if i == j else 0) - rows[i][j] for j in range(n)] for i in range(n)]
            assert phi(3) == bareiss_det(shifted)


def test_charpoly_requires_integer_weights():
    g = Graph(np.array([[0.0, 0.5], [0.5, 0.0]]))
    with pytest.raises(ValueError):
        charpoly(g)


def test_charpoly_deleted_conventions():
    g = build_path(3)
    assert charpoly_deleted(g, [1]).coeffs == (0, 0, 1)  # two isolated ends
    assert charpoly_deleted(g, [0]).coeffs == (-1, 0, 1)  # a P2 remains
    assert charpoly_deleted(g, [0, 1, 2]).coeffs == (1,)  # phi of nothing is 1
    # deletion takes a set of vertices; repeats collapse
    assert charpoly_deleted(g, [0, 0]) == charpoly_deleted(g, [0])
    with pytest.raises(ValueError):
        charpoly_deleted(g, [5])


def test_derivative_is_sum_of_deleted():
    # d/dt det(tI - A) = sum over vertices of the deleted charpoly
    rng = random.Random(6)
    for _ in range(30):
        g = random_int_graph(rng, rng.randint(1, 6), weighted=True, loops=True)
        total = IntPoly(())
        for v in range(g.n):
            total = total + charpoly_deleted(g, [v])
        assert total == charpoly(g).derivative()


def test_one_sum_charpoly_identity():
    rng = random.Random(8)
    for _ in range(40):
        y1 = random_int_graph(rng, rng.randint(1, 5), weighted=True, loops=True)
        y2 = random_int_graph(rng, rng.randint(1, 5), weighted=True, loops=True)
        b1 = rng.randrange(y1.n)
        b2 = rng.randrange(y2.n)
        z, _ = one_sum(y1, b1, y2, b2)
        assert charpoly(z) == one_sum_charpoly(
            charpoly(y1),
            charpoly_deleted(y1, [b1]),
            charpoly(y2),
            charpoly_deleted(y2, [b2]),
        )


def bridge_charpoly_p3(phi_y1, phi_y1_del, phi_y2, phi_y2_del):
    """phi of Y1 and Y2 joined by a two-edge path (one middle vertex), the
    oracle of the P3 bridge identity (Schwenk 1974)."""
    return T * phi_y1 * phi_y2 - phi_y2 * phi_y1_del - phi_y1 * phi_y2_del


def test_bridge_charpolys_match_compositions():
    rng = random.Random(10)
    for _ in range(40):
        y1 = random_int_graph(rng, rng.randint(1, 4), weighted=True)
        y2 = random_int_graph(rng, rng.randint(1, 4), weighted=True)
        a = rng.randrange(y1.n)
        b = rng.randrange(y2.n)
        args = (
            charpoly(y1),
            charpoly_deleted(y1, [a]),
            charpoly(y2),
            charpoly_deleted(y2, [b]),
        )
        z2, _, _ = compose(y1, a, y2, b, 2)
        assert charpoly(z2) == bridge_charpoly_p2(*args)
        z3, _, _ = compose(y1, a, y2, b, 3)
        assert charpoly(z3) == bridge_charpoly_p3(*args)


def test_bridge_factorization_under_walk_equivalence():
    # with both sides isomorphic the bridge polynomial splits
    g = build_star(2)
    p, pd = charpoly(g), charpoly_deleted(g, [0])
    z, _, _ = compose(g, 0, g, 0, 2)
    lhs = charpoly(z)
    assert lhs == loop_adjusted_charpoly(p, pd, -1) * loop_adjusted_charpoly(p, pd, 1)
    z3, _, _ = compose(g, 0, g, 0, 3)
    assert charpoly(z3) == p * (pendant_sqrt2_charpoly(p, pd))


def _checked_composite(y1, a, y2, b, bridge):
    """``compose(y1, a, y2, b, bridge)`` and the sigma classes of its ends,
    read from its own walk modules, once they equal the classes the search
    reads from the sides' keys: bridge_classes of the common key, or None
    when the keys (walk_gf) differ."""
    z, ga, gb = compose(y1, a, y2, b, bridge)
    classes = sigma_classes(z, ga, gb)
    key = walk_gf(y1, a)
    assert classes == (bridge_classes(key, bridge) if key == walk_gf(y2, b) else None), bridge
    return (z, ga, gb), classes


def test_bridge_classes_match_every_marked_composite():
    marked = list(marked_graphs(4))
    pairs = list(itertools.product(marked, marked))
    assert len(pairs) * 2 == 512  # checks: two bridges
    cospectral = sum(
        _checked_composite(y1, a, y2, b, bridge)[1] is not None
        for (y1, a), (y2, b) in pairs
        for bridge in (2, 3)
    )
    assert cospectral == 2 * len(marked)  # the self-pairs only


def test_bridge_classes_match_weighted_looped_composites():
    # each pair's first side is also joined to a relabelled copy of itself,
    # so the keys give classes as well as None
    rng, shuffle = random.Random(11), random.Random(12)
    cospectral = 0
    for _ in range(30):
        y1 = random_connected_graph(rng, rng.randint(1, 5), weighted=True, loops=True)
        y2 = random_connected_graph(rng, rng.randint(1, 5), weighted=True, loops=True)
        a, b = rng.randrange(y1.n), rng.randrange(y2.n)
        perm = list(range(y1.n))
        shuffle.shuffle(perm)
        for bridge in (2, 3):
            cospectral += _checked_composite(y1, a, y2, b, bridge)[1] is not None
            assert _checked_composite(y1, a, y1.relabeled(perm), perm[a], bridge)[1] is not None
    assert cospectral < 60


def test_bridge_classes_of_a_side_and_of_its_key(monkeypatch):
    # on the reduced key N / D, here of phi(Y\v) / phi(Y) from charpolys and
    # scaled by a common factor, the classes are D -+ N (P2) and
    # (tD - 2N) / gcd(tN, tD - 2N), D (P3), and the side's own key
    # (walk_gf) gives the same; bridge_classes reads no gcd
    rng = random.Random(13)
    calls = _count_gcds(monkeypatch)
    divided = 0
    for _ in range(30):
        y = random_connected_graph(rng, rng.randint(1, 5), weighted=True, loops=True)
        v = rng.randrange(y.n)
        extra = T * T - rng.randint(-3, 3)
        phi, phi_del = charpoly(y), charpoly_deleted(y, [v])
        key = xp.RationalFunction(extra * phi_del, extra * phi)
        n, d = key.num, key.den
        plus = poly_divexact(T * d - 2 * n, poly_gcd(T * n, T * d - 2 * n))
        divided += plus.degree == d.degree
        calls.clear()
        assert bridge_classes(key, 2) == (d - n, d + n)
        assert bridge_classes(key, 3) == (plus, d)
        assert calls == []
        for bridge in (2, 3):
            assert bridge_classes(walk_gf(y, v), bridge) == bridge_classes(key, bridge)
    assert 0 < divided < 30  # N(0) = 0, where the P3 class is divided by t
    for bridge in (1, 4, 2.0, 3.0, True):
        with pytest.raises(ValueError, match=f"^bridge must have 2 or 3 path vertices, got {bridge}$"):
            bridge_classes(key, bridge)


def test_search_rejects_a_wrong_bridge_identity(monkeypatch):
    # an extra root in m+ is caught by the certificate: the exact support
    # then has one eigenvalue more than the numeric one
    right = xp.bridge_classes

    def wrong(key, bridge):
        plus, minus = right(key, bridge)
        return plus * (T - 100), minus

    monkeypatch.setattr(xp, "bridge_classes", wrong)
    for bridge in (2, 3):
        with pytest.raises(RuntimeError, match="exact support has"):
            search_no_pst(bridge, 3)


def test_path_sum_squared_identity():
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randint(2, 7)
        g = random_int_graph(rng, n, weighted=rng.random() < 0.5, loops=rng.random() < 0.3)
        a, b = rng.sample(range(n), 2)
        ps = path_sum_poly(g, a, b)
        lhs = ps * ps
        rhs = charpoly_deleted(g, [a]) * charpoly_deleted(g, [b]) - charpoly(
            g
        ) * charpoly_deleted(g, [a, b])
        assert lhs == rhs


def test_path_sum_examples():
    # K4 needs all five paths with multiplicity for the identity to close:
    # the direct edge, two 3-vertex paths, and two 4-vertex paths
    k4 = build_complete(4)
    ps = path_sum_poly(k4, 0, 1)
    assert ps.coeffs == (1, 2, 1)  # (t+1)^2
    rhs = charpoly_deleted(k4, [0]) * charpoly_deleted(k4, [1]) - charpoly(
        k4
    ) * charpoly_deleted(k4, [0, 1])
    assert ps * ps == rhs
    # weighted edge: the path contributes its weight product
    g = Graph(np.array([[0.0, 3.0], [3.0, 0.0]]))
    assert path_sum_poly(g, 0, 1).coeffs == (3,)


def path_sum_oracle(g, a, b):
    """The defining sum: w(P) phi(G minus P) over simple a..b paths P."""
    w = g.int_matrix()
    total = IntPoly(())
    for path in iter_ab_paths(g, a, b):
        weight = 1
        for u, v in zip(path, path[1:]):
            weight *= w[u][v]
        total = total + weight * charpoly_deleted(g, path)
    return total


def test_path_sum_matches_path_enumeration():
    # pins sign and weights, which the squared identity cannot tell apart
    rng = random.Random(18)
    for _ in range(80):
        n = rng.randint(2, 8)
        g = random_int_graph(rng, n, weighted=True, loops=rng.random() < 0.5)
        a, b = rng.sample(range(n), 2)
        assert path_sum_poly(g, a, b) == path_sum_oracle(g, a, b)


def test_path_sum_complete_closed_form():
    for n in range(2, 31):
        assert path_sum_poly(build_complete(n), 0, n - 1) == power(T + 1, n - 2)


def test_path_sum_rejects_bad_vertices():
    g = build_path(3)
    for a, b in [(0, 3), (3, 0), (-1, 2), (1, 1)]:
        with pytest.raises(ValueError):
            path_sum_poly(g, a, b)


def rank2_path_sum(g, a, b):
    """P_ab by the rank-2 identity path_sum_poly took before walk counts:
    raising the weight of ab by 1 gives phi(G + ab) = phi(G) - 2 P_ab -
    phi(G\\ab)."""
    rows = g.int_matrix()
    rows[a][b] += 1
    rows[b][a] += 1
    twice = charpoly(g) - xp._charpoly_of_rows(rows) - charpoly_deleted(g, [a, b])
    assert not any(c % 2 for c in twice.coeffs)
    return IntPoly(c // 2 for c in twice.coeffs)


def deleted_det(g, v, k):
    """det(kI - A) on the rows and columns other than v, by Bareiss."""
    a = g.int_matrix()
    keep = [i for i in range(g.n) if i != v]
    return bareiss_det([[(k if i == j else 0) - a[i][j] for j in keep] for i in keep])


def assert_adjugate_matches_oracles(w, a, b):
    """phi(G\\v) and P_ab from walk counts, read once through the pair
    (path_sum_poly first) and once per vertex (charpoly_deleted alone),
    against the charpoly of the induced subgraph, Bareiss determinants,
    path enumeration and the rank-2 identity, each on its own copy."""
    paired, single = Graph(w), Graph(w)
    path = path_sum_poly(paired, a, b)
    assert path == path_sum_oracle(Graph(w), a, b) == rank2_path_sum(Graph(w), a, b)
    for v in (a, b):
        phi_v = charpoly_deleted(single, [v])
        assert charpoly_deleted(paired, [v]) == phi_v == charpoly(Graph(w).delete([v]))
        assert all(phi_v(k) == deleted_det(paired, v, k) for k in range(-2, len(w) + 1))
    return path


def test_adjugate_entries_match_oracles_on_weighted_looped_graphs():
    rng = random.Random(19)
    zero = 0  # pairs in different components among them
    for _ in range(60):
        n = rng.randint(2, 7)
        g = random_int_graph(rng, n, weighted=True, loops=rng.random() < 0.6)
        a, b = rng.sample(range(n), 2)
        zero += assert_adjugate_matches_oracles(g.weights, a, b).is_zero
    assert 0 < zero < 60


def test_adjugate_entries_reduce_weights_beyond_int64():
    # the lift needs several primes, and each reduces the weights as Python
    # integers
    w = beyond_int64_path().weights
    for a, b in ((0, 3), (1, 2), (0, 2), (3, 1)):
        assert_adjugate_matches_oracles(w, a, b)
    # the one 0..1 path is the edge, and it leaves 2-3 with the 2**70 loop
    assert path_sum_poly(Graph(w), 0, 1) == 2**70 * (T * T - 2**70 * T - 1)


def test_adjugate_entries_of_a_disconnected_pair():
    # no a..b path: P_ab = 0, and sigma_classes reads it with no leading
    # coefficient to make positive
    two_k2 = Graph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
    assert assert_adjugate_matches_oracles(two_k2.weights, 0, 2).is_zero
    assert sigma_classes(two_k2, 0, 2) == sigma_classes_oracle(two_k2, 0, 2)
    assert sigma_classes(two_k2, 0, 2) == (T * T - 1, T * T - 1)


def test_adjugate_entries_on_one_and_two_vertices():
    k1 = Graph(np.array([[3.0]]))
    xp._adjugate_entries(k1, charpoly(k1), 0, 0)
    assert k1._poly_cache[("charpoly", frozenset((0,)))] == IntPoly((1,))
    assert charpoly_deleted(k1, [0]) == IntPoly((1,))
    k2 = Graph(np.array([[-2.0, 5.0], [5.0, 1.0]]))
    assert assert_adjugate_matches_oracles(k2.weights, 0, 1) == IntPoly((5,))
    assert charpoly_deleted(k2, [0]) == T - 1
    assert charpoly_deleted(k2, [1]) == T + 2


def test_adjugate_entries_read_one_krylov_per_vertex(monkeypatch):
    # a single-vertex deletion steps the walks of e_v alone, a pair those
    # of e_a and e_b, and phi(G) is the only charpoly a cold pair runs
    built, charpolys = [], []
    init, of_rows = xp._Krylov.__init__, xp._charpoly_of_rows
    monkeypatch.setattr(xp._Krylov, "__init__", lambda w, g, x: built.append(1) or init(w, g, x))
    monkeypatch.setattr(xp, "_charpoly_of_rows", lambda rows: charpolys.append(1) or of_rows(rows))
    w = build_path(6).weights
    g = Graph(w)
    charpoly(g)
    expected = charpoly(Graph(w).delete([2]))
    assert built == []
    assert charpoly_deleted(g, [2]) == expected
    assert len(built) == 1
    built.clear()
    charpolys.clear()
    assert path_sum_poly(Graph(w), 0, 5) == IntPoly((1,))
    assert len(built) == 2 and len(charpolys) == 1


def sigma_classes_oracle(g, a, b):
    """sigma_classes as it was before walk counts, on a fresh copy:
    phi(G\\a), phi(G\\b) and phi(G\\ab) as charpolys of induced subgraphs,
    and P_ab as the square root of phi(G\\a)**2 - phi(G) phi(G\\ab) with a
    positive leading coefficient."""
    g = Graph(g.weights)
    phi_a = charpoly(g.delete([a]))
    if phi_a != charpoly(g.delete([b])):
        return None
    phi = charpoly(g)
    path = poly_sqrt(phi_a * phi_a - phi * charpoly_deleted(g, [a, b]))
    return tuple(xp.RationalFunction(phi_a + s * path, phi).den for s in (1, -1))


def test_sigma_classes_unchanged_on_every_small_bridge_pair():
    # every n <= 5 pair on both bridges: the classes of the built composite,
    # from the walk modules of e_a +- e_b, equal those of the side keys
    # (_checked_composite); the cospectral ones also by the earlier
    # square-root route
    marked = list(marked_graphs(5))
    cospectral = 0
    for bridge in (2, 3):
        for (y1, a), (y2, b) in itertools.product(marked, marked):
            (z, ga, gb), classes = _checked_composite(y1, a, y2, b, bridge)
            if classes is None:
                continue
            cospectral += 1
            assert classes == sigma_classes_oracle(z, ga, gb)
    assert cospectral == 2 * len(marked)  # the self-pairs only


def test_sigma_classes_unchanged_on_negated_bridges():
    # a side joined to a relabelled copy of itself by a P2 bridge of weight
    # +-1: always cospectral, and the -1 bridge gives P_ab a negative
    # leading coefficient, which sigma_classes makes positive
    rng = random.Random(20)
    negative = 0
    for _ in range(60):
        y = random_connected_graph(rng, rng.randint(1, 5), weighted=True, loops=True)
        v = rng.randrange(y.n)
        perm = list(range(y.n))
        rng.shuffle(perm)
        z, a, b = compose(y, v, y.relabeled(perm), perm[v], 2)
        w = z.weights.copy()
        w[a, b] = w[b, a] = rng.choice((1.0, -1.0))
        g = Graph(w)
        negative += path_sum_poly(g, a, b).leading < 0
        classes = sigma_classes(g, a, b)
        assert classes is not None and classes == sigma_classes_oracle(g, a, b)
    assert 0 < negative < 60


def test_sigma_classes_match_the_oracle_on_weighted_looped_graphs():
    # seeded graphs with weights in {-2, -1, 1, 2, 3} and loops, pairs in
    # different components among them (P_ab = 0), and mirror composites
    # across both bridges, which are always cospectral
    rng = random.Random(23)
    cospectral = disconnected = 0
    for i in range(300):
        if i % 2:
            y = random_connected_graph(rng, rng.randint(1, 4), weighted=True, loops=True)
            v = rng.randrange(y.n)
            perm = list(range(y.n))
            rng.shuffle(perm)
            g, a, b = compose(y, v, y.relabeled(perm), perm[v], 2 + i % 4 // 2)
        else:
            n = rng.randint(2, 7)
            g = random_int_graph(rng, n, weighted=True, loops=rng.random() < 0.6)
            a, b = rng.sample(range(n), 2)
        classes = sigma_classes(g, a, b)
        assert classes == sigma_classes_oracle(g, a, b)
        cospectral += classes is not None
        disconnected += classes is not None and path_sum_poly(Graph(g.weights), a, b).is_zero
    assert 150 < cospectral < 300 and disconnected > 0


def test_sigma_classes_orientation_reads_the_first_walk_count():
    # path 0-1-2 with weights 2 and -2, read at (2, 0): the first nonzero
    # walk count is (A**2)_20 = -4, so P_ab leads negatively and m+ is the
    # class of e_a - e_b.  That count lies past the shorter module: e_a + e_b
    # has minimal polynomial t, e_a - e_b has t**2 - 8
    g = Graph.from_edges(3, [(0, 1, 2.0), (1, 2, -2.0)])
    assert path_sum_poly(Graph(g.weights), 2, 0) == IntPoly((-4,))
    assert sigma_classes(g, 2, 0) == (T * T - 8, T)
    assert sigma_classes(g, 2, 0) == sigma_classes_oracle(g, 2, 0)


def test_sigma_classes_survive_an_unlucky_prime():
    # P3 with both weights p0, the first prime charpoly uses: A (e_0 + e_2)
    # = 2 p0 e_1 vanishes modulo p0, while the minimal polynomial is
    # t**2 - 2 p0**2
    p0 = xp._primes()[0]
    g = Graph.from_edges(3, [(0, 1, float(p0)), (1, 2, float(p0))])
    assert sigma_classes(g, 0, 2) == (T * T - 2 * p0 * p0, T)
    assert sigma_classes(g, 0, 2) == sigma_classes_oracle(g, 0, 2)


def test_sigma_classes_with_weights_beyond_int64():
    # an edge of weight 2**70 between mirror halves, and a path whose walk
    # vectors leave int64 at the fourth step, ||A||_inf**4 being past 2**63
    big = 2.0**70
    mirror = Graph.from_edges(
        4, [(0, 1, 3.0), (1, 2, big), (2, 3, 3.0)], loops=[(0, -1.0), (3, -1.0)]
    )
    w = 2.0**20 + 1
    path = Graph.from_edges(5, [(0, 1, w), (1, 2, -5.0), (2, 3, -5.0), (3, 4, w)])
    walks = xp._Krylov(path, np.array([1, 0, 1, 0, 0], dtype=np.int64))
    assert walks[3].dtype == np.int64 and walks[4].dtype == object
    for g, a, b in ((mirror, 0, 3), (mirror, 1, 2), (path, 0, 4), (path, 1, 3), (path, 0, 2)):
        assert sigma_classes(g, a, b) == sigma_classes_oracle(g, a, b)
    assert sigma_classes(mirror, 1, 2) is not None
    p3 = Graph.from_edges(3, [(0, 1, big), (1, 2, big)])
    assert sigma_classes(p3, 0, 2) == (T * T - 2**141, T)


def test_only_charpoly_refuses_orders_that_would_overflow_int64(monkeypatch):
    # the sigma classes read exact walk moments, with no modulus and so no
    # order guard; the guard stays on the modular charpoly
    monkeypatch.setattr(xp, "_MAX_ORDER", 2)
    assert sigma_classes(build_path(3), 0, 2) == (T * T - 2, T)
    with pytest.raises(OverflowError):
        charpoly(build_path(3))


def looped_path(n, weight):
    """P_n with edge and loop weights +-weight, symmetric under the mirror
    v -> n - 1 - v, so its ends are cospectral."""
    edges = [(v, v + 1, float(weight * (-1) ** min(v, n - 2 - v))) for v in range(n - 1)]
    loops = [(v, float(weight * (-1) ** (min(v, n - 1 - v) // 2))) for v in range(n) if v % 3]
    return Graph.from_edges(n, edges, loops=loops)


LONG_MODULES = [
    (build_path(40), 0, 39),
    (build_cycle(30), 0, 15),
    (looped_path(25, 3), 0, 24),
    (looped_path(25, 3), 1, 23),
    (looped_path(25, 3), 0, 23),
    (hypercube(6), 0, 63),
]


@pytest.mark.parametrize("g, a, b", LONG_MODULES)
def test_sigma_classes_of_long_modules_match_the_oracle(g, a, b):
    assert sigma_classes(Graph(g.weights), a, b) == sigma_classes_oracle(g, a, b)


def test_sigma_classes_of_path_ends_have_degree_half_the_order():
    m_plus, m_minus = sigma_classes(build_path(40), 0, 39)
    assert m_plus.degree == m_minus.degree == 20
    assert sigma_classes(looped_path(25, 3), 0, 24) is not None


def test_minimal_polynomial_reads_no_vector_past_its_degree(monkeypatch):
    # Berlekamp-Massey stops at the first k with recurrence length L <= k,
    # which is k = deg m: m(A) x reads A**k x for k <= deg m, and so do
    # the moments
    asked = []
    getitem = xp._Krylov.__getitem__
    monkeypatch.setattr(
        xp._Krylov, "__getitem__", lambda walks, k: asked.append(k) or getitem(walks, k)
    )
    for g, a, b in LONG_MODULES + [(build_complete(12), 0, 5), (build_path(3), 0, 2)]:
        for sign in (1, -1):
            x = np.zeros(g.n, dtype=np.int64)
            x[a], x[b] = 1, sign
            walks = xp._Krylov(g, x)
            asked.clear()
            m = xp._minimal_polynomial(walks)
            assert max(asked) == m.degree
            assert len(walks.vectors) == m.degree + 1


def _record_krylovs(monkeypatch):
    """The list every _Krylov made from now on is appended to."""
    made = []
    init = xp._Krylov.__init__
    monkeypatch.setattr(
        xp._Krylov, "__init__", lambda walks, g, x: made.append(walks) or init(walks, g, x)
    )
    return made


@pytest.mark.parametrize("g, a, b", LONG_MODULES)
def test_sigma_classes_make_deg_m_plus_one_vectors(monkeypatch, g, a, b):
    # the orientation reads the moments Berlekamp-Massey read, so no module
    # is stepped past A**(deg m) x: P40 makes 21 + 21 vectors
    made = _record_krylovs(monkeypatch)
    g = Graph(g.weights)
    classes = sigma_classes(g, a, b)
    made_to = sorted(len(walks.vectors) - 1 for walks in made)
    if classes is None:
        # not cospectral: only e_a + e_b is stepped
        (plus,) = made
        degrees = [xp._minimal_polynomial(xp._Krylov(Graph(g.weights), plus.vectors[0])).degree]
    else:
        degrees = sorted(m.degree for m in classes)
    assert made_to == degrees


def test_krylov_modules_of_a_graph_share_one_adjacency(monkeypatch):
    made = _record_krylovs(monkeypatch)
    g = build_cycle(6)
    sigma_classes(g, 0, 3)
    path_sum_poly(g, 0, 3)
    walk_gf(g, 1)
    assert len(made) == 5
    rows, cols, weights, norm = g._poly_cache[("adjacency", None)]
    assert norm == 2 and weights.dtype == np.int64
    assert all(w._rows is rows and w._cols is cols and w._weights is weights for w in made)


@pytest.mark.parametrize(
    "call",
    [
        charpoly,
        lambda g: charpoly_deleted(g, [0]),
        lambda g: path_sum_poly(g, 0, 1),
        lambda g: sigma_classes(g, 0, 1),
        lambda g: walk_gf(g, 0),
        lambda g: return_walk_gf(g, 0),
        lambda g: projector_entry_via_neutrino(g, 0, 1, 0.5),
        lambda g: pst_certificate(g, 0, 1),
        xp._adjacency,
    ],
    ids=[
        "charpoly",
        "charpoly_deleted",
        "path_sum_poly",
        "sigma_classes",
        "walk_gf",
        "return_walk_gf",
        "projector_entry_via_neutrino",
        "pst_certificate",
        "_adjacency",
    ],
)
def test_exact_layer_refuses_non_integer_weights_before_any_work(call):
    # K2 with weight 1/2: each entrance reaches Graph._check_integer through
    # Graph.int_matrix or exactpoly._adjacency, which would otherwise cast
    # the weight to 0, and nothing is cached
    g = Graph(np.array([[0.0, 0.5], [0.5, 0.0]]))
    message = "graph has non-integer weights; the exact layer needs integer weights"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(g)
    assert g._poly_cache == {}


def test_refused_annihilation_check_raises_and_returns_no_class(monkeypatch):
    monkeypatch.setattr(xp._Krylov, "annihilated_by", lambda walks, m: False)
    for g, a, b in ((build_path(3), 0, 2), (build_cycle(6), 0, 3), (build_path(4), 0, 1)):
        with pytest.raises(ArithmeticError, match="annihilation check"):
            sigma_classes(g, a, b)
        assert ("sigma", frozenset((a, b))) not in g._poly_cache


class _ArrayDtypes:
    """numpy, with the dtype of every ``np.array`` call recorded."""

    def __init__(self):
        self.dtypes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def array(self, *args, dtype=None, **kwargs):
        self.dtypes.append(dtype)
        return np.array(*args, dtype=dtype, **kwargs)


def _annihilates_oracle(walks, m):
    """m(A) x = 0 on Python integers, entry by entry."""
    vectors = [[int(e) for e in walks[k]] for k in range(m.degree + 1)]
    return all(
        sum(c * vec[u] for c, vec in zip(m.coeffs, vectors)) == 0 for u in range(walks.n)
    )


def test_annihilation_check_agrees_on_its_int64_and_python_paths(monkeypatch):
    """The int64 path runs while sum_k |c_k| ||A||_inf**k < 2**63, the
    Python-integer path from there on, and both agree with the oracle,
    also on a corrupted coefficient."""
    rng = random.Random(33)
    cases = [(random_connected_graph(rng, rng.randint(1, 7), weighted=True, loops=True), 1)
             for _ in range(40)]
    # K2 with weight w: m of e_0 is t**2 - w**2, bound 2 w**2
    cases += [(build_path(2), w) for w in (2**31 - 1, 2**31, 2**40)]
    int64_paths = []
    for g, scale in cases:
        walks = xp._unit_walks(Graph(g.weights * scale), 0)
        m = xp._minimal_polynomial(walks)
        wrong = IntPoly((m.coeffs[0] - 1,) + m.coeffs[1:])
        for poly, want in ((m, True), (wrong, False)):
            small = sum(abs(c) * walks.norm**k for k, c in enumerate(poly.coeffs)) < 2**63
            spy = _ArrayDtypes()
            monkeypatch.setattr(xp, "np", spy)
            got = walks.annihilated_by(poly)
            monkeypatch.setattr(xp, "np", np)
            assert got is want and _annihilates_oracle(walks, poly) is want
            assert set(spy.dtypes) == {np.int64 if small else object}
            int64_paths.append(small)
    # the K2 cases: bound 2 w**2 reaches 2**63 at w = 2**31
    assert int64_paths[-6:] == [True, True, False, False, False, False]
    assert any(int64_paths[:-6])


def test_walk_gf_reduction():
    # t^2 / (t^3 - 2t) reduces to t / (t^2 - 2)
    g = build_path(3)
    f = walk_gf(g, 1)
    assert f.num.coeffs == (0, 1)
    assert f.den.coeffs == (-2, 0, 1)


def beyond_int64_path():
    """Path 0-1-2-3 with a 2**70 edge, a negative edge and loops."""
    w = np.zeros((4, 4))
    for u, v, x in ((0, 1, 2.0**70), (1, 2, -3.0), (2, 3, 1.0)):
        w[u, v] = w[v, u] = x
    w[0, 0], w[3, 3] = -1.0, 2.0**70
    return Graph(w)


def test_walk_gf_is_the_reduced_charpoly_ratio():
    # the key from the walk moments of e_v equals phi(Y\v) / phi(Y) reduced
    # by a gcd, on every side with n <= 6, seeded weighted and looped
    # graphs, and weights beyond int64
    rng = random.Random(21)
    sides = list(marked_graphs(6))
    assert len(sides) == 481
    for _ in range(60):
        g = random_int_graph(rng, rng.randint(1, 7), weighted=True, loops=rng.random() < 0.6)
        sides.append((g, rng.randrange(g.n)))
    sides += [(beyond_int64_path(), v) for v in range(4)]
    for y, v in sides:
        oracle = xp.RationalFunction(charpoly_deleted(Graph(y.weights), [v]), charpoly(y))
        assert walk_gf(y, v) == oracle
        assert walk_gf(y, v) is y._poly_cache[("walk_gf", v)]
    with pytest.raises(ValueError, match="non-integer"):
        walk_gf(Graph.from_edges(2, [(0, 1, 0.5)]), 0)


def test_return_walk_gf_additive_over_one_sums():
    rng = random.Random(14)
    for _ in range(40):
        y1 = random_int_graph(rng, rng.randint(1, 5), weighted=True, loops=True)
        y2 = random_int_graph(rng, rng.randint(1, 5), weighted=True, loops=True)
        b1 = rng.randrange(y1.n)
        b2 = rng.randrange(y2.n)
        z, b = one_sum(y1, b1, y2, b2)
        assert return_walk_gf(z, b) == return_walk_gf(y1, b1) + return_walk_gf(y2, b2)


def test_return_walk_gf_single_vertex():
    g = Graph(np.zeros((1, 1)))
    f = return_walk_gf(g, 0)
    # 1 - t/(t*1) = 0 for the empty walk generating function at a bare vertex
    assert f.num.is_zero


def test_walk_equivalent():
    p3 = build_path(3)
    assert walk_equivalent(
        charpoly_deleted(p3, [0]),
        charpoly(p3),
        charpoly_deleted(p3, [2]),
        charpoly(p3),
    )
    assert not walk_equivalent(
        charpoly_deleted(p3, [0]),
        charpoly(p3),
        charpoly_deleted(p3, [1]),
        charpoly(p3),
    )


def test_charpoly_cache_reuse():
    g = build_cycle(5)
    first = charpoly_deleted(g, [2])
    again = charpoly_deleted(g, [2])
    assert first is again  # memoized per graph object
