"""End-to-end acceptance checks.

Each test exercises one advertised guarantee at its stated tolerance and
prints a single visible line

    ACCEPTANCE <n>: PASS|FAIL  <detail>

so the tee'd pytest log doubles as an acceptance report.  Runtime caps are
asserted alongside the mathematical content.  Nothing here is mocked or
relaxed: a criterion that does not hold fails its test.
"""

import math
import random
import time

import numpy as np

from pstwalk import (
    build_cycle,
    build_double_star,
    build_extended_double_star,
    build_path,
    connected_graphs,
    decompose,
    evolve_fidelity,
    fidelity_scan,
    projector_entry_via_neutrino,
    pst_certificate,
    search_no_pst,
    strongly_cospectral,
    strongly_cospectral_exact,
)
from pstwalk.verify import (
    random_connected_graph,
    suite_correspondence,
    suite_interlacing,
    suite_neutrino,
    suite_onesum,
)


def _report(capsys, n: int, ok: bool, detail: str = "") -> None:
    with capsys.disabled():
        line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  {detail}"
        print("\n" + line)


def test_path_transfer_positives(capsys):
    """P2 and P3 end-to-end admit perfect transfer at pi/2 and pi/sqrt(2)."""
    t0 = time.perf_counter()
    failures = []

    p2 = build_path(2)
    c2 = pst_certificate(p2, 0, 1)
    if not c2.success:
        failures.append(f"P2 certificate failed: {c2.failure_reason}")
    elif abs(c2.pst_time - math.pi / 2) > 1e-12:
        failures.append(f"P2 minimal time {c2.pst_time} != pi/2")
    elif evolve_fidelity(p2, 0, 1, c2.pst_time) < 1 - 1e-9:
        failures.append("P2 fidelity at certified time below 1 - 1e-9")

    p3 = build_path(3)
    c3 = pst_certificate(p3, 0, 2)
    if not c3.success:
        failures.append(f"P3 certificate failed: {c3.failure_reason}")
    elif abs(c3.pst_time - math.pi / math.sqrt(2)) > 1e-12:
        failures.append(f"P3 minimal time {c3.pst_time} != pi/sqrt(2)")
    elif evolve_fidelity(p3, 0, 2, c3.pst_time) < 1 - 1e-9:
        failures.append("P3 fidelity at certified time below 1 - 1e-9")

    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 1s cap")
    _report(capsys, 1, not failures,
            f"P2 t=pi/2, P3 t=pi/sqrt(2), fidelities >= 1-1e-9 ({elapsed:.2f}s)"
            if not failures else "; ".join(failures))
    assert not failures, failures


def _double_star_pgst(k, ell):
    """Fan & Godsil (LAA 438, 2013): the centres of S(k, k) have pretty good
    state transfer exactly when 4k + 1 is not a perfect square."""
    return k == ell and math.isqrt(4 * k + 1) ** 2 != 4 * k + 1


def _extended_double_star_pgst(k, ell):
    """The centres of E(k, k) have fidelity
    |cos(sqrt(k + 2) t) - cos(sqrt(k) t)| / 2, and k (k + 2) = (k + 1)^2 - 1
    is never a square, so the two frequencies are rationally independent and
    Kronecker's theorem gives pretty good state transfer for every k."""
    return k == ell


def _no_go_family(capsys, n, build, label, pgst):
    """The paper's no-PST theorem on the centres of build(k, ell) for every
    1 <= k, ell <= 6, checked by certificate and by a fidelity scan of
    |<b|U(t)|a>| (not its square) over t in [0, 200] with 2e5 steps.

    Every certificate must fail. Where pretty good state transfer (PGST) is
    ruled out, the scan peak must stay below 1 - 1e-3: on k != ell pairs the
    centres have different degrees, and must not be strongly cospectral.
    Where ``pgst(k, ell)`` holds, the fidelity comes arbitrarily close to 1
    and no ceiling below 1 can hold; there the centres must be strongly
    cospectral and the peak must stay below 1 - 1e-6, the threshold at
    which search_no_pst counts a scan as contradicting a failed certificate.
    """
    t0 = time.perf_counter()
    failures = []
    ceiling_peaks = []
    pgst_peaks = []
    for k in range(1, 7):
        for ell in range(1, 7):
            name = f"{label}({k},{ell})"
            g, a, b = build(k, ell)
            if pst_certificate(g, a, b).success:
                failures.append(f"{name} certified transfer")
            t_best, f_best = fidelity_scan(g, a, b, t_max=200.0, steps=200_000)
            if pgst(k, ell):
                pgst_peaks.append(f"{name} {f_best:.7f} at t={t_best:.2f}")
                if not strongly_cospectral_exact(g, a, b):
                    failures.append(f"{name} PGST pair not strongly cospectral")
                if f_best >= 1 - 1e-6:
                    failures.append(f"{name} PGST peak {f_best:.7f} at "
                                    f"t={t_best:.2f} reaches 1-1e-6")
                continue
            ceiling_peaks.append(f_best)
            if k != ell and strongly_cospectral_exact(g, a, b):
                failures.append(f"{name} centres strongly cospectral")
            if f_best >= 1 - 1e-3:
                failures.append(f"{name} peak {f_best:.7f} at t={t_best:.2f} "
                                f"reaches 1-1e-3")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s cap")
    _report(capsys, n, not failures,
            (f"36 certificates fail; {len(ceiling_peaks)} peaks < 1-1e-3 "
             f"(max {max(ceiling_peaks):.7f}); {len(pgst_peaks)} PGST pairs "
             f"strongly cospectral, peaks < 1-1e-6: {'; '.join(pgst_peaks)} "
             f"({elapsed:.1f}s)")
            if not failures else "; ".join(failures))
    assert not failures, failures


def test_double_star_centers_no_transfer(capsys):
    _no_go_family(capsys, 2, build_double_star, "S", _double_star_pgst)


def test_extended_double_star_centers_no_transfer(capsys):
    _no_go_family(capsys, 3, build_extended_double_star, "E",
                        _extended_double_star_pgst)


def test_bridge_search_finds_only_trivial_transfer(capsys):
    """Exhaustive search over marked graphs with at most 4 vertices on each
    side of a P2 or P3 bridge: the only composition with transfer is K1-K1.
    """
    t0 = time.perf_counter()
    failures = []
    for bridge in (2, 3):
        report = search_no_pst(bridge, max_n=4, jobs=1)
        nontrivial = report.nontrivial_successes
        if nontrivial:
            failures.append(f"bridge {bridge}: unexpected transfer "
                            f"{nontrivial[:4]}")
        trivial = [s for s in report.pst_successes if s not in nontrivial]
        if len(trivial) != 1:
            failures.append(f"bridge {bridge}: expected exactly the K1-K1 "
                            f"success, saw {len(trivial)}")
        if report.scan_disagreements:
            failures.append(f"bridge {bridge}: certificate/scan disagreement "
                            f"{report.scan_disagreements[:3]}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 600.0:
        failures.append(f"runtime {elapsed:.0f}s exceeds 10min cap")
    _report(capsys, 4, not failures,
            f"bridges 2 and 3, n<=4 each side, only K1-K1 transfers "
            f"({elapsed:.1f}s)" if not failures else "; ".join(failures))
    assert not failures, failures


def test_exact_identity_suites(capsys):
    """Exact-equality property suites, 200 random instances each: 1-sum
    charpoly recurrence, path-sum projector identity, bridge factorization
    under walk equivalence, and return-walk generating function additivity.
    """
    t0 = time.perf_counter()
    failures = []
    for suite in (suite_onesum(200), suite_neutrino(200)):
        if not suite.passed:
            failures.append(f"{suite.name}: {suite.failures[:5]}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.0f}s exceeds 2min cap")
    _report(capsys, 5, not failures,
            f"onesum and neutrino suites, 200 instances each, exact "
            f"equality ({elapsed:.1f}s)" if not failures else
            "; ".join(failures))
    assert not failures, failures


def test_projector_entries_match_exact_formula(capsys):
    """Numeric eigenprojector entries agree with the charpoly-ratio formula
    within 1e-7 on 100 random connected graphs with up to 10 vertices.
    """
    t0 = time.perf_counter()
    rng = random.Random(20240806)
    worst = 0.0
    checked = 0
    for _ in range(100):
        n = rng.randint(2, 10)
        g = random_connected_graph(rng, n)
        a, b = rng.sample(range(n), 2)
        dec = decompose(g)
        # E_r = V_r V_r^T, from the eigenvector columns of eigenspace r
        projectors = [c @ c.T for c in np.split(dec.vectors, dec.starts[1:], axis=1)]
        for th, e in zip(dec.distinct_eigenvalues, projectors):
            off = abs(projector_entry_via_neutrino(g, a, b, th) - float(e[b, a]))
            diag = abs(projector_entry_via_neutrino(g, a, a, th) - float(e[a, a]))
            worst = max(worst, off, diag)
            checked += 2
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-7
    _report(capsys, 6, ok,
            f"{checked} entries on 100 graphs, worst deviation "
            f"{worst:.2e} ({elapsed:.1f}s)")
    assert ok, f"worst deviation {worst} exceeds 1e-7"


def test_interlacing_suite(capsys):
    """Cauchy, Weyl, and Ky Fan eigenvalue inequalities on 200 random
    instances each, compared at spectral.GROUPING_TOL (1e-9).
    """
    t0 = time.perf_counter()
    suite = suite_interlacing(200)
    elapsed = time.perf_counter() - t0
    _report(capsys, 7, suite.passed,
            f"200 instances of each inequality family, tolerance 1e-9 "
            f"({elapsed:.1f}s)" if suite.passed else str(suite.failures[:5]))
    assert suite.passed, suite.failures[:5]


def test_support_correspondence_suites(capsys):
    """Eigenvalue-support correspondence across a P2 and P3 bridge for all
    walk-equivalent pairs built from isomorphic sides with up to 5 vertices,
    including the leftover-eigenvalue bookkeeping and the optional 0.
    """
    t0 = time.perf_counter()
    failures = []
    for bridge in (2, 3):
        suite = suite_correspondence(bridge, max_n=5)
        if not suite.passed:
            failures.append(f"bridge {bridge}: {suite.failures[:5]}")
        if suite.instances == 0:
            failures.append(f"bridge {bridge}: no instances run")
    elapsed = time.perf_counter() - t0
    _report(capsys, 8, not failures,
            f"both bridges, isomorphic sides n<=5 ({elapsed:.1f}s)"
            if not failures else "; ".join(failures))
    assert not failures, failures


def test_exact_and_numeric_strong_cospectrality_agree(capsys):
    """The deleted-charpoly + simple-pole decision matches the projector
    decision on every vertex pair of every connected graph with n <= 5, and
    on the canonical path and cycle cases.
    """
    t0 = time.perf_counter()
    failures = []
    pairs = 0
    for g in connected_graphs(5):
        for a in range(g.n):
            for b in range(a + 1, g.n):
                exact = strongly_cospectral_exact(g, a, b)
                numeric, _ = strongly_cospectral(g, a, b)
                pairs += 1
                if exact != numeric:
                    failures.append(f"disagreement on n={g.n} pair ({a},{b})")

    c4 = build_cycle(4)
    canonical = [
        (c4, 0, 1, False),
        (c4, 0, 2, True),
        (build_path(3), 0, 2, True),
        (build_path(4), 0, 3, True),
        (build_path(4), 1, 2, True),
    ]
    for g, a, b, expected in canonical:
        if strongly_cospectral_exact(g, a, b) != expected:
            failures.append(f"canonical case ({a},{b}) expected {expected}")

    elapsed = time.perf_counter() - t0
    _report(capsys, 9, not failures,
            f"{pairs} pairs across the n<=5 corpus plus canonical cases "
            f"({elapsed:.1f}s)" if not failures else "; ".join(failures))
    assert not failures, failures
