"""Fidelity evolution, transfer-time derivation, and PST certificates."""

import dataclasses
import json
import math
import random
import tracemalloc

import numpy as np
import pytest

from pstwalk import exactpoly as xp
from pstwalk import pst
from pstwalk.exactpoly import IntPoly
from pstwalk.graphs import (
    Graph,
    build_complete,
    build_cycle,
    build_double_star,
    build_extended_double_star,
    build_path,
    build_star,
    compose,
    marked_graphs,
    parse_graph,
)
from pstwalk.pst import (
    StructureFailure,
    evolve_fidelity,
    fidelity_ceiling,
    fidelity_scan,
    pst_certificate,
    quadratic_integer_structure,
)
from pstwalk.spectral import decompose, strongly_cospectral
from pstwalk.verify import SCAN_THRESHOLD

PHI = (1 + math.sqrt(5)) / 2


def fidelity_oracle(g, a, b, t):
    """|<b|exp(itA)|a>| by scaling and squaring a Taylor series: no
    eigendecomposition, so nothing is shared with the package's spectral code."""
    squarings = math.ceil(math.log2(1 + t * np.linalg.norm(g.weights, 1)))
    m = (1j * t / 2**squarings) * g.weights
    u = term = np.eye(g.n, dtype=complex)
    for k in range(1, 30):
        term = term @ m / k
        u = u + term
    for _ in range(squarings):
        u = u @ u
    return abs(u[b, a])


def test_evolve_fidelity_examples():
    p2 = build_path(2)
    assert evolve_fidelity(p2, 0, 1, math.pi / 2) == pytest.approx(1.0, abs=1e-12)
    assert evolve_fidelity(p2, 0, 1, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert evolve_fidelity(p2, 0, 1, math.pi / 4) == pytest.approx(
        math.sqrt(0.5), abs=1e-12
    )
    p3 = build_path(3)
    assert evolve_fidelity(p3, 0, 2, math.pi / math.sqrt(2)) == pytest.approx(
        1.0, abs=1e-12
    )


def test_evolve_fidelity_matches_matrix_exponential():
    rng = random.Random(200)
    for _ in range(40):
        n = rng.randint(2, 8)
        w = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    w[i, j] = w[j, i] = rng.choice([1, 2, -1])
        g = Graph(w)
        a, b = rng.sample(range(n), 2)
        t = rng.uniform(0, 20)
        assert evolve_fidelity(g, a, b, t) == pytest.approx(
            fidelity_oracle(g, a, b, t), abs=1e-9
        )


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_evolve_fidelity_rejects_a_non_finite_time(t):
    with pytest.raises(ValueError, match="finite time"):
        evolve_fidelity(build_path(2), 0, 1, t)


def test_periodicity_on_integer_spectrum():
    # complete graphs have eigenvalue gap n, so the walk is 2 pi / n periodic
    for n in (3, 4, 5):
        g = build_complete(n)
        period = 2 * math.pi / n
        for t in (0.3, 1.1, 2.9):
            assert evolve_fidelity(g, 0, 1, t) == pytest.approx(
                evolve_fidelity(g, 0, 1, t + period), abs=1e-9
            )


def test_fidelity_scan_finds_p2_peak():
    t, f = fidelity_scan(build_path(2), 0, 1, math.pi, 1000)
    assert f == pytest.approx(1.0, abs=1e-9)
    assert t == pytest.approx(math.pi / 2, abs=1e-6)


def test_fidelity_scan_p4_middle_reality():
    # the middle pair of P4 has no perfect transfer, but its fidelity climbs
    # above 0.9999 within t <= 100: approximate transfer without PST
    t, f = fidelity_scan(build_path(4), 1, 2, 100.0, 100_000)
    assert f == pytest.approx(0.9999786, abs=1e-5)
    assert f < 1 - 1e-6
    assert t == pytest.approx(53.39, abs=0.1)


def test_fidelity_scan_validates_input():
    with pytest.raises(ValueError):
        fidelity_scan(build_path(2), 0, 0, 1.0, 10)
    with pytest.raises(ValueError):
        fidelity_scan(build_path(2), 0, 1, 0.0, 10)
    with pytest.raises(ValueError):
        fidelity_scan(build_path(2), 0, 1, 1.0, 0)
    for t_max in (math.inf, math.nan, -math.inf):
        with pytest.raises(ValueError, match="t_max < inf"):
            fidelity_scan(build_path(2), 0, 1, t_max, 10)
    # a float steps is no grid size, and True is no count of intervals
    for steps in (100.0, True, 2.5):
        with pytest.raises(ValueError, match=f"^steps must be an integer, got {steps!r}$"):
            fidelity_scan(build_path(2), 0, 1, 1.0, steps)
    with pytest.raises(ValueError, match="^steps must be at least 1, got 0$"):
        fidelity_scan(build_path(2), 0, 1, 1.0, 0)


def pointwise_peak(thetas, weights, lo, dt, steps):
    """The best (t, |amplitude|) over t = lo + k dt, k = 0 .. steps, as
    exp(1j * outer(ts, thetas)) @ weights in chunks of 200 000 points."""
    ts = lo + np.arange(steps + 1) * dt
    best_t, best_f = 0.0, -1.0
    for k in range(0, len(ts), 200_000):
        block = ts[k : k + 200_000]
        vals = np.abs(np.exp(1j * np.outer(block, thetas)) @ weights)
        i = int(np.argmax(vals))
        if vals[i] > best_f:
            best_t, best_f = float(block[i]), float(vals[i])
    return best_t, best_f


def scan_oracle(thetas, weights, t_max, steps):
    """The fidelity scan computed point by point: the whole grid, then the
    same zoom of finer grids, each over point-by-point amplitudes.  Returns
    the scan's (t_best, fidelity_best) and the best grid value."""
    dt = t_max / steps
    best_t, best_f = pointwise_peak(thetas, weights, 0.0, dt, steps)
    grid_best = best_f
    for _ in range(pst._REFINE_GRIDS):
        lo = max(0.0, best_t - dt)
        dt = (min(t_max, best_t + dt) - lo) / pst._REFINE_STEPS
        t, f = pointwise_peak(thetas, weights, lo, dt, pst._REFINE_STEPS)
        if f > best_f:
            best_t, best_f = t, f
    return min(best_t, t_max), best_f, grid_best


def scan_test_graph(rng, nprng, i):
    """Integer weights with loops (unweighted or weighted), or float weights
    with loops, on 2 to 10 vertices."""
    n = rng.randint(2, 10)
    if i % 3 == 2:
        keep = np.triu(nprng.random(size=(n, n)) < 0.5)  # the diagonal gives loops
        m = nprng.normal(size=(n, n)) * 2.0
        return Graph(np.where(keep | keep.T, m + m.T, 0.0))
    w = np.zeros((n, n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                w[u, v] = w[v, u] = rng.choice([-2, -1, 1, 3]) if i % 3 else 1
        if rng.random() < 0.3:
            w[u, u] = rng.choice([-1, 1, 2])
    return Graph(w)


def test_fidelity_scan_matches_the_pointwise_grid():
    """The factorised grid and the scalar refinement give the peak of the
    pointwise scan, on every ordered pair of 60 seeded graphs, with the
    (t_max, steps) settings taken in turn."""
    rng = random.Random(113)
    nprng = np.random.default_rng(113)
    settings = [(t, s) for t in (0.5, 30.0, 200.0) for s in (1, 2, 17, 6000, 6001)]
    seen = set()
    k = 0
    for i in range(60):
        g = scan_test_graph(rng, nprng, i)
        seen.add(g.integer_flag)
        dec = decompose(g)
        thetas = np.array(dec.distinct_eigenvalues)
        # E_r = V_r V_r^T, from the eigenvector columns of eigenspace r
        projectors = [c @ c.T for c in np.split(dec.vectors, dec.starts[1:], axis=1)]
        for a in range(g.n):
            for b in range(g.n):
                if a == b:
                    continue
                t_max, steps = settings[k % len(settings)]
                k += 1
                t_best, peak = fidelity_scan(g, a, b, t_max, steps)
                weights = np.array([e[b, a] for e in projectors])
                _, want, grid_best = scan_oracle(thetas, weights, t_max, steps)
                assert 0.0 <= t_best <= t_max
                assert peak == pytest.approx(want, abs=1e-12)
                assert evolve_fidelity(g, a, b, t_best) == pytest.approx(peak, abs=1e-12)
                assert peak >= grid_best - 1e-12
    assert seen == {True, False} and k > 6 * len(settings)


def bridge_composite():
    """The 8-vertex P2 composite of a 4-vertex marked graph with itself,
    with 7 distinct eigenvalues."""
    y, a = list(marked_graphs(4))[-3]
    z, ga, gb = compose(y, a, y, a, 2)
    assert z.n == 8 and len(decompose(z).distinct_eigenvalues) == 7
    return z, ga, gb


def test_fidelity_scan_takes_about_two_sqrt_steps_exponentials(monkeypatch):
    z, ga, gb = bridge_composite()
    d = len(decompose(z).distinct_eigenvalues)
    counted = []
    exp = np.exp

    def counting_exp(x, *args, **kwargs):
        counted.append(np.size(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting_exp)
    fidelity_scan(z, ga, gb, 30.0, 6000)
    assert 0 < sum(counted) <= 4 * (math.sqrt(6001) + 1) * d


def test_fidelity_scan_refines_in_a_fixed_number_of_grids(monkeypatch):
    # one grid for the scan and one per refinement, each of the refinement's
    # size; evolve_fidelity is a one-point grid
    calls = []
    peak = pst._peak

    def counting_peak(thetas, weights, lo, dt, steps):
        calls.append(steps)
        return peak(thetas, weights, lo, dt, steps)

    monkeypatch.setattr(pst, "_peak", counting_peak)
    z, ga, gb = bridge_composite()
    fidelity_scan(z, ga, gb, 30.0, 6000)
    assert calls == [6000] + [pst._REFINE_STEPS] * pst._REFINE_GRIDS
    calls.clear()
    t, f = fidelity_scan(build_path(2), 0, 1, 4.0, 3)  # grid 0, 4/3, 8/3, 4
    assert calls == [3] + [pst._REFINE_STEPS] * pst._REFINE_GRIDS
    assert t == pytest.approx(math.pi / 2, abs=1e-7) and f == pytest.approx(1.0, abs=1e-15)
    calls.clear()
    assert evolve_fidelity(z, ga, gb, 1.0) == pytest.approx(fidelity_oracle(z, ga, gb, 1.0))
    assert calls == [0]


def test_fidelity_scan_memory_stays_bounded():
    z, ga, gb = bridge_composite()
    decompose(z)
    tracemalloc.start()
    try:
        t_best, peak = fidelity_scan(z, ga, gb, 30.0, 4_000_000)
        _, held = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert evolve_fidelity(z, ga, gb, t_best) == pytest.approx(peak, abs=1e-12)
    # the 4 000 001 grid times alone would take 32 MB
    assert held < 32 * 2**20


def test_batched_bounds_match_single_bounds():
    """One stack of pairs with up to 10 distinct eigenvalues, the shorter
    ones padded with zero weights, gives each pair its own ``scan_bounds``
    in every window and at every grid size, up to the rounding of sums
    that the padding regroups."""
    rng = random.Random(271)
    nprng = np.random.default_rng(271)
    pairs = [(build_path(2), 0, 1)]
    for i in range(40):
        g = scan_test_graph(rng, nprng, i)
        pairs.append((g, *rng.sample(range(g.n), 2)))
    readings = [decompose(g).pair(a, b) for g, a, b in pairs]
    assert len({len(r.thetas) for r in readings}) > 5
    for t_max in (0.5, 30.0, 200.0):
        for steps in (1, 17, 6000):
            bounds = pst.scan_bounds(readings, t_max, steps)
            singles = [pst.scan_bounds([r], t_max, steps)[0] for r in readings]
            assert bounds == pytest.approx(singles, rel=1e-14, abs=1e-14)


def test_scan_bounds_hold_over_the_whole_window():
    """The bound of each of the 41 seeded pairs of
    ``test_batched_bounds_match_single_bounds``, in each of its three windows,
    is at least the refined peak of its ``fidelity_scan`` and the best
    point of a grid 16 times finer than the scan's."""
    rng = random.Random(271)
    nprng = np.random.default_rng(271)
    pairs = [(build_path(2), 0, 1)]
    for i in range(40):
        g = scan_test_graph(rng, nprng, i)
        pairs.append((g, *rng.sample(range(g.n), 2)))
    readings = [decompose(g).pair(a, b) for g, a, b in pairs]
    for t_max in (0.5, 30.0, 200.0):
        for steps in (17, 6000):
            bounds = pst.scan_bounds(readings, t_max, steps)
            for (g, a, b), r, bound in zip(pairs, readings, bounds.tolist()):
                assert bound >= fidelity_scan(g, a, b, t_max, steps)[1]
                fine = 16 * steps
                assert bound >= pointwise_peak(r.thetas, r.ab, 0.0, t_max / fine, fine)[1]


@pytest.mark.parametrize("bridge", [2, 3])
def test_scan_bounds_never_settle_k1_k1(bridge):
    # K1 - K1 across the bridge is the path itself, with transfer between
    # its ends at pi / 2 (P2) or pi / sqrt 2 (P3)
    k1 = Graph.from_edges(1)
    z, ga, gb = compose(k1, 0, k1, 0, bridge)
    reading = decompose(z).pair(ga, gb)
    t_pst = pst_certificate(z, ga, gb).pst_time
    for t_max in (max(2.5 * t_pst, 1.0), 30.0, 200.0):
        for steps in (1, 17, 2000, 6000):
            (bound,) = pst.scan_bounds([reading], t_max, steps).tolist()
            assert bound >= 1 - SCAN_THRESHOLD


def test_batched_bound_memory_stays_bounded():
    z, ga, gb = bridge_composite()
    readings = [decompose(z).pair(ga, gb)] * 64
    # a grid of 200 000 intervals, 16 times coarser than the scan's
    steps = 200_000 * pst._BOUND_COARSENING
    tracemalloc.start()
    try:
        bounds = pst.scan_bounds(readings, 30.0, steps)
        _, held = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert set(bounds.tolist()) == {pst.scan_bounds(readings[:1], 30.0, steps)[0]}
    # the 64 x 200 001 amplitudes alone would take 205 MB
    assert held < 32 * 2**20


def test_fidelity_ceiling_examples():
    # mirror pairs are strongly cospectral, so the ceiling is 1
    for g, a, b in ((build_path(2), 0, 1), (build_path(4), 0, 3), (build_path(4), 1, 2)):
        assert fidelity_ceiling(g, a, b) == pytest.approx(1.0, abs=1e-12)
    # a vertex against itself: sum_r (E_r)_aa = 1
    assert fidelity_ceiling(build_path(4), 1, 1) == pytest.approx(1.0, abs=1e-12)
    # P3 end and middle: (E_r)_10 is -sqrt(2)/4, 0, sqrt(2)/4 at theta = -sqrt 2, 0, sqrt 2
    p3 = build_path(3)
    assert fidelity_ceiling(p3, 0, 1) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    # star K_{1,3}: a leaf against the centre, and two leaves
    star = build_star(3)
    assert fidelity_ceiling(star, 1, 0) == pytest.approx(1 / math.sqrt(3), abs=1e-12)
    # leaves: 1/6 at each of +-sqrt 3, -1/3 from the two-dimensional eigenspace of 0
    assert fidelity_ceiling(star, 1, 2) == pytest.approx(2 / 3, abs=1e-12)
    with pytest.raises(ValueError):
        fidelity_ceiling(p3, 0, 3)


def test_fidelity_ceiling_bounds_every_bridge_scan():
    """Every n <= 4 marked pair over both bridges: no scan peaks above the
    ceiling, and the ceiling stays below the scan threshold off strong
    cospectrality (it is 1 on strongly cospectral pairs)."""
    marked = list(marked_graphs(4))
    off_sc = []
    for bridge in (2, 3):
        for y1, a in marked:
            for y2, b in marked:
                z, ga, gb = compose(y1, a, y2, b, bridge)
                ceiling = fidelity_ceiling(z, ga, gb)
                _, peak = fidelity_scan(z, ga, gb, 30.0, 6000)
                assert peak <= ceiling + 1e-12
                if strongly_cospectral(z, ga, gb)[0]:
                    assert ceiling == pytest.approx(1.0, abs=1e-9)
                else:
                    off_sc.append(ceiling)
    assert len(off_sc) == 2 * 240
    assert max(off_sc) < 1 - SCAN_THRESHOLD


def test_quadratic_structure_examples():
    assert quadratic_integer_structure(IntPoly([-1, 0, 1]), [1.0, -1.0]) == (0, 1, (2, -2))
    # P3: sqrt 2, 0, -sqrt 2
    assert quadratic_integer_structure(
        IntPoly([0, -2, 0, 1]), [math.sqrt(2), 0.0, -math.sqrt(2)]
    ) == (0, 2, (2, 0, -2))
    assert quadratic_integer_structure(
        IntPoly([-1, -1, 1]), [PHI, 1 - PHI]
    ) == (1, 5, (1, -1))
    # all-integer roots take the pair sum of least size, then the smaller
    assert quadratic_integer_structure(
        IntPoly([-6, 11, -6, 1]), [1.0, 2.0, 3.0]
    ) == (2, 1, (4, 2, 0))
    assert quadratic_integer_structure(IntPoly([-3, 1]), [3.0]) == (6, 1, (0,))


def test_quadratic_structure_floats_only_propose():
    # the proposals may be off by much more than 1/2; every root is still exact
    big = 2**40
    p = IntPoly([0, -2 * big * big, 0, 1])  # t (t**2 - 2**81)
    off = [math.sqrt(2) * big + 1e3, 7.0, -math.sqrt(2) * big - 1e3]
    assert quadratic_integer_structure(p, off) == (0, 2, (2 * big, 0, -2 * big))
    # a proposal near no root finds none
    with pytest.raises(StructureFailure) as err:
        quadratic_integer_structure(IntPoly([-1, 0, 1]), [1.0, 0.4])
    assert err.value.reason == "no_common_alpha"


def integer_roots_oracle(p, xs):
    """One exact Newton walk per proposal, duplicates included."""
    dp = p.derivative()
    found = set()
    for x in xs:
        r, last = round(x), None
        while (v := p(r)) != 0:
            d = dp(r)
            if d < 0:
                v, d = -v, -d
            step = (2 * v + d) // (2 * d) if d else 0
            if step == 0 or (last is not None and abs(step) >= last):
                break
            r, last = r - step, abs(step)
        else:
            found.add(r)
    return found


def half_shift_oracle(p, alpha):
    """2**deg(p) p((alpha + s) / 2) by Horner in (alpha + s)."""
    out = []
    for k, c in enumerate(reversed(p.coeffs)):
        out = [alpha * x + y for x, y in zip(out + [0], [0] + out)]
        out[0] += c << k
    return IntPoly(out)


def test_integer_roots_walk_each_start_once_and_match_the_per_proposal_walks():
    rng = random.Random(31)
    for trial in range(200):
        roots = [rng.randint(-40, 40) for _ in range(rng.randint(1, 6))]
        if trial % 4 == 0:
            # large roots, whose floats lie more than 1/2 away
            roots.append(rng.choice((-1, 1)) * (2**60 + rng.randint(2, 999)))
        p = IntPoly((1,))
        for r in roots:
            p = p * IntPoly((-r, 1))
        if trial % 3 == 0:
            p = p * IntPoly((rng.randint(1, 9), 0, 1))  # t**2 + c: no real root
        xs = [r + rng.uniform(-0.7, 0.7) for r in roots for _ in range(rng.randint(1, 3))]
        xs += [float(r) for r in roots] + [rng.uniform(-50, 50) for _ in range(3)]
        assert pst._integer_roots(p, xs) == integer_roots_oracle(p, xs)
    # a float more than 1/2 from its root still lands
    big = 2**60 + 3
    assert round(float(big)) == big - 3
    assert pst._integer_roots(IntPoly((-big, 1)), [float(big)]) == {big}


def test_integer_roots_run_one_walk_per_distinct_start():
    evaluations = []

    class Counted(IntPoly):
        def __call__(self, x):
            evaluations.append(x)
            return super().__call__(x)

    p = Counted(IntPoly((-6, 11, -6, 1)).coeffs)  # roots 1, 2, 3
    assert pst._integer_roots(p, [1.1, 0.9, 1.0, 2.2, 1.8, 3.0, 2.9]) == {1, 2, 3}
    assert sorted(evaluations) == [1, 2, 3]


def test_half_shift_matches_horner():
    rng = random.Random(32)
    for _ in range(300):
        p = IntPoly([rng.randint(-50, 50) for _ in range(rng.randint(0, 12))] + [rng.choice((1, -3, 7))])
        for alpha in (0, rng.randint(-9, 9)):
            assert pst._half_shift(p, alpha) == half_shift_oracle(p, alpha)
    for alpha in range(-9, 10):
        assert pst._half_shift(IntPoly((5,)), alpha) == IntPoly((5,))


def test_quadratic_structure_failures():
    golden = [PHI, 1 / PHI, -1 / PHI, -PHI]
    for poly, thetas, reason in (
        (IntPoly([1, 0, -3, 0, 1]), golden, "no_common_alpha"),  # P4
        (IntPoly([-2, 0, 0, 1]), [2 ** (1 / 3)], "no_common_alpha"),  # t**3 - 2
        # (t**2 - 1)(t**2 - 2) and (t**2 - 2)(t**2 - 3)
        (IntPoly([2, 0, -3, 0, 1]), [1, -1, 2**0.5, -(2**0.5)], "delta_not_consistent"),
        (IntPoly([6, 0, -5, 0, 1]), [3**0.5, 2**0.5, -(2**0.5), -(3**0.5)], "delta_not_consistent"),
    ):
        with pytest.raises(StructureFailure) as err:
            quadratic_integer_structure(poly, thetas)
        assert err.value.reason == reason


def test_certificate_p2():
    cert = pst_certificate(build_path(2), 0, 1)
    assert cert.success
    assert cert.pst_time == pytest.approx(math.pi / 2, rel=1e-12)
    assert (cert.alpha, cert.delta, cert.betas) == (0, 1, (2, -2))
    assert cert.sigmas == (1, -1)
    assert cert.g == 4
    assert cert.ks == (0, 1)
    assert cert.fidelity_at_time >= 1 - 1e-9


def test_certificate_p3_ends():
    cert = pst_certificate(build_path(3), 0, 2)
    assert cert.success
    assert cert.pst_time == pytest.approx(math.pi / math.sqrt(2), rel=1e-12)
    assert (cert.alpha, cert.delta, cert.betas) == (0, 2, (2, 0, -2))
    assert cert.sigmas == (1, -1, 1)


def test_certificate_c4_antipodal():
    cert = pst_certificate(build_cycle(4), 0, 2)
    assert cert.success
    assert cert.pst_time == pytest.approx(math.pi / 2, rel=1e-12)


def test_certificate_failures():
    assert (
        pst_certificate(build_path(4), 1, 2).failure_reason == "no_common_alpha"
    )
    g, a, b = build_double_star(2, 2)
    assert pst_certificate(g, a, b).failure_reason == "no_admissible_g"
    g, a, b = build_double_star(2, 3)
    assert pst_certificate(g, a, b).failure_reason == "not_strongly_cospectral"
    g, a, b = build_extended_double_star(1, 1)
    assert pst_certificate(g, a, b).failure_reason == "delta_not_consistent"


@pytest.mark.parametrize("k", [20, 30, 40])
def test_certificate_scales_with_the_weights(k):
    # multiplying every weight by 2**k divides the transfer time by 2**k;
    # rounded floats lose the quadratic structure at these scales
    s = 2**k
    cases = (
        (build_path(2), 0, 1, math.pi / 2 ** (k + 1)),
        (build_path(3), 0, 2, math.pi / (s * math.sqrt(2))),
        (build_cycle(4), 0, 2, math.pi / 2 ** (k + 1)),
    )
    for g, a, b, t in cases:
        cert = pst_certificate(Graph(s * g.weights), a, b)
        assert cert.success
        assert cert.pst_time == pytest.approx(t, rel=1e-12)
    g, a, b = build_double_star(2, 2)
    assert pst_certificate(Graph(s * g.weights), a, b).failure_reason == "no_admissible_g"


def test_certificate_prime_weight():
    # every squared gap carries p**2; finding delta must not trial-divide up to p
    p = 2**31 - 1
    cert = pst_certificate(Graph(p * build_path(3).weights), 0, 2)
    assert (cert.alpha, cert.delta, cert.betas) == (0, 2, (2 * p, 0, -2 * p))
    assert cert.pst_time == pytest.approx(math.pi / (p * math.sqrt(2)), rel=1e-12)


def test_certificate_needs_integer_weights():
    # K2 with weight 1/2 transfers at t = pi, but the exact layer has no
    # polynomials for it
    g = Graph(np.array([[0.0, 0.5], [0.5, 0.0]]))
    assert evolve_fidelity(g, 0, 1, math.pi) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="integer weights"):
        pst_certificate(g, 0, 1)


def test_sign_disagreement_raises():
    # P3 ends have sigma = (+1, -1, +1); a reading whose (E_0)_02 has the
    # wrong sign, all else kept, contradicts the exact classes
    g = build_path(3)
    reading = decompose(g).pair(0, 2)
    ab = reading.ab.copy()
    ab[np.argmin(np.abs(reading.thetas))] *= -1
    flipped = dataclasses.replace(reading, ab=ab)
    with pytest.raises(RuntimeError, match="exact and numeric sigma signs disagree"):
        pst.pst_decision(xp.sigma_classes(g, 0, 2), flipped, 0, 2)


def test_unconfirmed_transfer_time_raises():
    # a reading whose top eigenvalue is off by 0.05 misses the certified time
    g = build_path(2)
    reading = decompose(g).pair(0, 1)
    shifted = dataclasses.replace(reading, thetas=(reading.thetas[0] + 0.05, *reading.thetas[1:]))
    with pytest.raises(RuntimeError, match=r"but fidelity is 0\.9992"):
        pst.pst_decision(xp.sigma_classes(g, 0, 1), shifted, 0, 1)


def test_double_star_failure_reasons():
    # S(k,k): the centres' support is (+-1 +- sqrt(4k+1)) / 2, with a common
    # alpha only when 4k + 1 is a square, and then the gaps have no
    # admissible divisor; E(k,k): +-sqrt(k+2), +-sqrt(k), 0 never share a delta
    for k in range(1, 17):
        g, a, b = build_double_star(k, k)
        square = math.isqrt(4 * k + 1) ** 2 == 4 * k + 1
        expected = "no_admissible_g" if square else "no_common_alpha"
        assert pst_certificate(g, a, b).failure_reason == expected, k
        g, a, b = build_extended_double_star(k, k)
        assert pst_certificate(g, a, b).failure_reason == "delta_not_consistent", k


def hypercube(d):
    n = 1 << d
    return Graph.from_edges(n, [(u, u ^ (1 << i)) for u in range(n) for i in range(d) if u >> i & 1])


def test_hypercube_q10_antipodes_transfer_at_half_pi():
    # 1024 vertices, and walk modules of e_a +- e_b of degree 6 and 5
    cert = pst_certificate(hypercube(10), 0, 1023)
    assert cert.success
    assert cert.pst_time == pytest.approx(math.pi / 2, rel=1e-12)
    assert cert.delta == 1 and cert.g == 4


def test_double_star_500_centres_share_no_alpha():
    g, a, b = build_double_star(500, 500)
    assert pst_certificate(g, a, b).failure_reason == "no_common_alpha"


def hubs_with_leaves(k, leaves):
    """K_{2,k} with its two degree-k vertices 0 and 1, the hubs, and
    ``leaves`` pendant vertices on each hub."""
    edges = [(hub, 2 + i) for hub in (0, 1) for i in range(k)]
    edges += [(hub, 2 + k + leaves * hub + i) for hub in (0, 1) for i in range(leaves)]
    return Graph.from_edges(2 + k + 2 * leaves, [(u, v, 1.0) for u, v in edges])


def test_cut_vertices_off_a_bridge_can_transfer():
    # the paper rules transfer out between cut vertices joined by a bridge
    # path of one or two edges.  The hubs of K_{2,k} with leaves are the
    # graph's only cut vertices, two edges apart over k paths, and they can
    # transfer: the hypothesis cannot be weakened to "two cut vertices"
    for k, leaves, n, delta, time in (
        (3, 2, 9, 2, math.pi / math.sqrt(2)),
        (6, 4, 16, 1, math.pi / 2),
    ):
        g = hubs_with_leaves(k, leaves)
        assert g.n == n and g.articulation_points() == {0, 1}
        cert = pst_certificate(g, 0, 1)
        assert cert.success and (cert.alpha, cert.delta) == (0, delta)
        assert cert.pst_time == pytest.approx(time, rel=1e-12)
        assert evolve_fidelity(g, 0, 1, time) == pytest.approx(1.0, abs=1e-9)
    for k in (3, 2):
        g = hubs_with_leaves(k, 1)
        assert g.articulation_points() == {0, 1}
        assert pst_certificate(g, 0, 1).failure_reason == "delta_not_consistent"


# Self-pair composites of sides with n = 8 (graph6, marked vertex, bridge)
# that the exact decision calls strongly cospectral and the numeric one
# does not: one eigenvalue of m+ and one of m- lie 1.9-3.9e-9 apart, below
# the grouping tolerance, so eigenspaces merges them and the cross-check
# in strongly_cospectral raises
MERGED_AT_N8 = [
    ("Grm^E?", 7, 2),
    ("Grm^E?", 7, 3),
    ("GQ~kf?", 1, 2),
    ("GQ~kf?", 1, 3),
    ("Grnmf?", 0, 2),
    ("G\\r^V_", 0, 2),
    ("G\\r^V_", 0, 3),
]


@pytest.mark.xfail(
    strict=True, raises=RuntimeError, reason="eigenvalues closer than the grouping tolerance merge"
)
@pytest.mark.parametrize("name, v, bridge", MERGED_AT_N8)
def test_n8_self_pairs_certify_without_raising(name, v, bridge):
    y = parse_graph(name, "graph6")
    z, a, b = compose(y, v, y, v, bridge)
    classes = xp.sigma_classes(z, a, b)
    assert classes == xp.bridge_classes(xp.walk_gf(y, v), bridge)
    assert xp.poly_gcd(*classes).degree == 0
    pst_certificate(z, a, b)


def test_certificate_families_run_no_charpoly(monkeypatch):
    # a small member of each family of the certify-large benchmark, cold
    calls = []
    real = xp._charpoly_of_rows
    monkeypatch.setattr(xp, "_charpoly_of_rows", lambda rows: calls.append(1) or real(rows))
    members = [
        (build_path(2), 0, 1),
        (build_path(3), 0, 2),
        (hypercube(4), 0, 15),
        (build_path(8), 0, 7),
        (build_cycle(10), 0, 5),
        (build_complete(9), 0, 1),
        build_double_star(3, 3),
        build_extended_double_star(2, 2),
    ]
    verdicts = [pst_certificate(g, a, b).success for g, a, b in members]
    assert verdicts == [True, True, True, False, False, False, False, False]
    assert calls == []


def test_certificate_rejects_same_vertex():
    with pytest.raises(ValueError):
        pst_certificate(build_path(2), 0, 0)


def test_transfer_at_odd_multiples_only():
    for g, a, b in ((build_path(2), 0, 1), (build_path(3), 0, 2)):
        cert = pst_certificate(g, a, b)
        t = cert.pst_time
        for k in (3, 5):
            assert evolve_fidelity(g, a, b, k * t) >= 1 - 1e-8
        # even multiples return the state to the start, not to b
        assert evolve_fidelity(g, a, b, 2 * t) <= 1e-6
        # minimality: half the time is not a transfer time
        assert evolve_fidelity(g, a, b, t / 2) < 1 - 1e-6


def test_scan_agrees_with_certificate_threshold():
    # scan >= 1 - 1e-6 exactly on the certified-success pairs
    cases = [
        (build_path(2), 0, 1, True),
        (build_path(3), 0, 2, True),
        (build_cycle(4), 0, 2, True),
        (build_path(4), 0, 3, False),
        (build_path(4), 1, 2, False),
    ]
    for g, a, b, expect in cases:
        cert = pst_certificate(g, a, b)
        assert cert.success == expect
        _, f = fidelity_scan(g, a, b, 20.0, 40_000)
        assert (f >= 1 - 1e-6) == expect


def test_certificate_json_schema():
    cert = pst_certificate(build_path(2), 0, 1)
    data = cert.to_json()
    assert data["status"] == "success"
    for key in ("alpha", "delta", "betas", "g", "sigmas", "pst_time", "fidelity_at_time"):
        assert key in data
    assert "failure_reason" not in data
    json.dumps(data)  # serializable as-is

    fail = pst_certificate(build_path(4), 1, 2).to_json()
    assert fail["status"] == "fail"
    assert fail["failure_reason"] == "no_common_alpha"
    assert "pst_time" not in fail
    json.dumps(fail)
