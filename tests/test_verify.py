"""Interlacing checks, quotients, support correspondence, and the search."""

import concurrent.futures
import dataclasses
import itertools
import json
import math
import operator
import os
import random
from pathlib import Path

import numpy as np
import pytest

from pstwalk import exactpoly as xp
from pstwalk import pst, spectral, verify
from pstwalk.graphs import (
    Graph,
    build_complete,
    build_cycle,
    build_double_star,
    build_path,
    build_star,
    compose,
    compose_weights,
    marked_graphs,
)
from pstwalk.pst import fidelity_ceiling, fidelity_scan, pst_certificate
from pstwalk.spectral import strongly_cospectral
from pstwalk.verify import (
    SCAN_THRESHOLD,
    EquitabilityError,
    check_cauchy,
    check_kyfan,
    check_weyl,
    equitable_quotient,
    random_connected_graph,
    run_suite,
    search_no_pst,
    suite_correspondence,
    verify_double_star_quotient_relations,
    verify_support_correspondence_p2,
    verify_support_correspondence_p3,
)


def test_check_cauchy_on_deletions():
    rng = random.Random(300)
    nprng = np.random.default_rng(300)
    for _ in range(50):
        n = rng.randint(2, 9)
        a = nprng.normal(size=(n, n))
        a = a + a.T
        keep = sorted(rng.sample(range(n), rng.randint(1, n - 1)))
        s = np.zeros((n, len(keep)))
        for col, v in enumerate(keep):
            s[v, col] = 1.0
        assert check_cauchy(a, s)


def test_check_cauchy_detects_direction(monkeypatch):
    # eigenvalues of the compression B read 10 too high break interlacing
    a = np.diag([3.0, 1.0, -2.0])
    s = np.eye(3)[:, :2]
    assert check_cauchy(a, s)
    eig_desc = verify._eig_desc
    monkeypatch.setattr(verify, "_eig_desc", lambda m: eig_desc(m) + 10.0 * (len(m) == 2))
    assert not check_cauchy(a, s)


def test_check_cauchy_detects_the_lower_direction(monkeypatch):
    # eigenvalues of the compression B read 10 too low break the
    # reversed-order inequality
    a = np.diag([3.0, 1.0, -2.0])
    s = np.eye(3)[:, :2]
    eig_desc = verify._eig_desc
    monkeypatch.setattr(verify, "_eig_desc", lambda m: eig_desc(m) - 10.0 * (len(m) == 2))
    assert not check_cauchy(a, s)


def test_check_cauchy_rejects_bad_isometry():
    a = np.eye(3)
    with pytest.raises(ValueError):
        check_cauchy(a, np.ones((3, 2)))
    with pytest.raises(ValueError):
        check_cauchy(a, np.eye(2))


def test_check_weyl_and_kyfan(monkeypatch):
    nprng = np.random.default_rng(301)
    for _ in range(100):
        n = int(nprng.integers(1, 9))
        a = nprng.normal(size=(n, n))
        a = a + a.T
        b = nprng.normal(size=(n, n))
        b = b + b.T
        assert check_weyl(a, b)
        assert check_kyfan(a, b)
    with pytest.raises(ValueError):
        check_weyl(np.eye(2), np.eye(3))
    # eigenvalues of A + B read 5 too high break both inequalities
    a = b = np.diag([1.0, 0.0])
    eig_desc = verify._eig_desc
    monkeypatch.setattr(verify, "_eig_desc", lambda m: eig_desc(m) + 5.0 * (m[0, 0] == 2))
    assert not check_weyl(a, b)
    assert not check_kyfan(a, b)


def test_check_weyl_detects_the_lower_bound(monkeypatch):
    # eigenvalues of A + B read 5 too low break the lower Weyl bound, and
    # leave the Ky Fan sums below their bound
    a = b = np.diag([1.0, 0.0])
    eig_desc = verify._eig_desc
    monkeypatch.setattr(verify, "_eig_desc", lambda m: eig_desc(m) - 5.0 * (m[0, 0] == 2))
    assert not check_weyl(a, b)
    assert check_kyfan(a, b)


def test_check_kyfan_rejects_unequal_shapes():
    with pytest.raises(ValueError, match="equal shape"):
        check_kyfan(np.eye(2), np.eye(3))


def test_equitable_quotient_star():
    g = build_star(4)
    q = equitable_quotient(g, [[0], [1, 2, 3, 4]])
    assert np.allclose(q.quotient, [[0, 2], [2, 0]])
    eig = np.linalg.eigvalsh(q.quotient)
    assert sorted(eig) == pytest.approx([-2.0, 2.0])


def test_equitable_quotient_double_star():
    g, a, b = build_double_star(2, 2)
    cells = [[a], [1, 2], [b], [4, 5]]
    q = equitable_quotient(g, cells)
    full = np.linalg.eigvalsh(g.weights)
    for th in np.linalg.eigvalsh(q.quotient):
        assert np.min(np.abs(full - th)) <= 1e-8


def test_equitable_quotient_rejects_uneven_partition():
    g = build_path(4)
    with pytest.raises(EquitabilityError):
        equitable_quotient(g, [[0, 1], [2, 3]])  # vertex 1 vs 0 differ toward cell 2
    with pytest.raises(EquitabilityError):
        equitable_quotient(g, [[0], [1, 2]])  # does not cover
    with pytest.raises(EquitabilityError):
        equitable_quotient(g, [[0, 0], [1, 2, 3]])
    with pytest.raises(EquitabilityError):
        equitable_quotient(g, [[], [0, 1, 2, 3]])


def test_quotient_polynomial_must_divide_exactly():
    g, a, b = build_double_star(2, 3)
    cells = [[a], [1, 2], [b], [4, 5, 6]]
    counts = verify._cell_counts(g, equitable_quotient(g, cells).cells)
    assert counts == [[0, 2, 1, 0], [1, 0, 0, 0], [1, 0, 0, 3], [0, 0, 1, 0]]
    assert verify._quotient_embeds(g, counts)
    for i, j in ((0, 0), (0, 1), (2, 3), (3, 2)):
        perturbed = [row[:] for row in counts]
        perturbed[i][j] += 1
        assert not verify._quotient_embeds(g, perturbed)


def test_double_star_quotient_relations():
    # K_{1,3} with an apex loop: theta^2 - theta - 3 = 0
    assert verify_double_star_quotient_relations(0, 3)
    # cone over C3 is K4: relations hold with k = 2
    assert verify_double_star_quotient_relations(2, 3)
    assert verify_double_star_quotient_relations(1, 4)


def test_support_correspondence_p2_k1():
    k1 = build_path(1)
    assert verify_support_correspondence_p2(k1, 0, k1, 0)


def test_support_correspondence_p2_p2_leaf():
    p2 = build_path(2)
    assert verify_support_correspondence_p2(p2, 0, p2, 0)


def test_support_correspondence_p3_k1():
    k1 = build_path(1)
    assert verify_support_correspondence_p3(k1, 0, k1, 0)


def test_support_correspondence_p3_p2_leaf():
    p2 = build_path(2)
    assert verify_support_correspondence_p3(p2, 0, p2, 0)


def test_support_correspondence_requires_walk_equivalence():
    p2 = build_path(2)
    k1 = build_path(1)
    with pytest.raises(ValueError):
        verify_support_correspondence_p2(p2, 0, k1, 0)
    with pytest.raises(ValueError):
        verify_support_correspondence_p3(p2, 0, k1, 0)


def test_support_correspondence_requires_strongly_cospectral_ends(monkeypatch):
    # the composite's classes are read only once its ends are strongly cospectral
    monkeypatch.setattr(verify, "strongly_cospectral_exact", lambda *args: False)
    p2 = build_path(2)
    with pytest.raises(ValueError, match="not strongly cospectral"):
        verify_support_correspondence_p2(p2, 0, p2, 0)


def test_support_correspondence_detects_swapped_classes(monkeypatch):
    # the sides' classes are compared with the composite's own, so a
    # bridge_classes that swaps its pair fails both correspondences
    right = xp.bridge_classes
    monkeypatch.setattr(xp, "bridge_classes", lambda key, bridge: right(key, bridge)[::-1])
    p2 = build_path(2)
    assert not verify_support_correspondence_p2(p2, 0, p2, 0)
    assert not verify_support_correspondence_p3(p2, 0, p2, 0)


def test_support_correspondence_star_centers():
    s3 = build_star(3)
    assert verify_support_correspondence_p2(s3, 0, s3, 0)
    assert verify_support_correspondence_p3(s3, 0, s3, 0)
    c4 = build_cycle(4)
    assert verify_support_correspondence_p2(c4, 0, c4, 0)
    assert verify_support_correspondence_p3(c4, 0, c4, 0)


def test_correspondence_suites_small():
    assert suite_correspondence(2, max_n=3).passed
    assert suite_correspondence(3, max_n=3).passed


def test_support_correspondence_huge_weight():
    # the numeric strong-cospectrality test misjudges these composites
    # (it raises on the exact/numeric disagreement); the correspondence is
    # decided on exact polynomials and never asks it
    k2 = Graph(np.array([[0.0, 2.0**30], [2.0**30, 0.0]]))
    assert verify_support_correspondence_p2(k2, 0, k2, 0)
    assert verify_support_correspondence_p3(k2, 0, k2, 0)


def test_correspondence_suites_need_no_decomposition(monkeypatch):
    def refuse(g):
        raise AssertionError("the support correspondence decomposed a graph")

    for module in (spectral, verify):
        monkeypatch.setattr(module, "decompose", refuse)
    assert suite_correspondence(2, max_n=4).passed
    assert suite_correspondence(3, max_n=4).passed


def test_search_tiny():
    report = search_no_pst(2, 2, scan_t_max=10.0, scan_steps=2000)
    assert report.instances_tested == 4  # two marked graphs, ordered pairs
    assert len(report.pst_successes) == 1
    assert report.nontrivial_successes == []
    assert report.pst_successes[0]["n1"] == 1 and report.pst_successes[0]["n2"] == 1
    assert report.scan_disagreements == []
    data = report.to_json()
    assert data["instances_tested"] == 4
    assert data["family"]["bridge"] == 2


def test_search_bridge3_tiny():
    report = search_no_pst(3, 2, scan_t_max=10.0, scan_steps=2000)
    assert report.instances_tested == 4
    assert len(report.pst_successes) == 1  # K1 - K1 over the 3-path is P3
    assert report.nontrivial_successes == []


def test_search_parallel_matches_serial():
    for scan in (False, True):
        serial = search_no_pst(2, 3, scan_cross_check=scan)
        parallel = search_no_pst(2, 3, scan_cross_check=scan, jobs=2)
        assert serial.instances_tested == parallel.instances_tested
        assert serial.failure_histogram == parallel.failure_histogram
        assert serial.to_json() == parallel.to_json()
        assert (serial.ceiling_settled > 0) == scan
        # 25 pairs, 5 of them sharing a side bucket
        assert serial.bucket_settled == parallel.bucket_settled == 20


def _count_scans(monkeypatch):
    """The grid size of each pair the search scans, one entry a scan, and
    the bounds each ``scan_bounds`` call returns."""
    grids, bounds = [], []
    original, bound = verify.scan_phases, verify.scan_bounds

    def counting(reading, t_max, steps):
        grids.append(steps)
        return original(reading, t_max, steps)

    def bounding(phases, t_max, steps):
        bounds.append(bound(phases, t_max, steps))
        return bounds[-1]

    monkeypatch.setattr(verify, "scan_phases", counting)
    monkeypatch.setattr(verify, "scan_bounds", bounding)
    return grids, bounds


def test_search_scans_only_strongly_cospectral_pairs(monkeypatch):
    scans, bounds = _count_scans(monkeypatch)
    report = search_no_pst(2, 4)
    assert report.strongly_cospectral_pairs == 16
    # one part: the 15 failures reach the bound, which leaves one of them
    # to the scan, and the success is scanned too, at the failures' 6000
    # steps
    (bound,) = bounds
    unsettled = int((bound >= 1 - SCAN_THRESHOLD).sum())
    assert (len(bound), unsettled) == (15, 1)
    assert scans == [6000] * (1 + unsettled)
    assert len(bound) + len(scans) - unsettled == report.strongly_cospectral_pairs
    # the ceiling settles the other failures, and they still count as checked
    assert report.scan_checked == 255
    assert report.ceiling_settled == 240
    assert report.max_ceiling < 1 - SCAN_THRESHOLD
    assert report.bucket_settled == 240
    data = report.to_json()["scan_cross_check"]
    assert (data["instances"], data["bucket_settled"], data["ceiling_settled"]) == (255, 240, 240)
    assert data["max_ceiling"] == report.max_ceiling


def test_search_without_scans_still_reports_the_ceiling():
    report = search_no_pst(2, 4, scan_cross_check=False)
    assert (report.scan_checked, report.ceiling_settled) == (0, 0)
    assert 0 < report.max_ceiling < 1 - SCAN_THRESHOLD


def _fix_ceilings(monkeypatch, value):
    """Make the pair reader, which the search takes every pair's ceiling
    from, report ``value`` as each ceiling."""
    original = verify.read_pairs

    def fixed(*args):
        readings = original(*args)
        return dataclasses.replace(readings, ceilings=np.full_like(readings.ceilings, value))

    monkeypatch.setattr(verify, "read_pairs", fixed)


def test_search_scans_every_failure_under_a_ceiling_of_one(monkeypatch):
    scans, bounds = _count_scans(monkeypatch)
    _fix_ceilings(monkeypatch, 1.0)
    report = search_no_pst(2, 4)
    assert report.ceiling_settled == 0
    assert report.scan_checked == 255
    # 16 sides make 16 * 17 / 2 = 136 of the 256 ordered pairs: each of the
    # 135 failures reaches the bound, and the K1 - K1 success and the
    # failures the bound leaves reach the scan
    (bound,) = bounds
    unsettled = int((bound >= 1 - SCAN_THRESHOLD).sum())
    assert len(bound) + 1 == 136
    assert len(scans) == 1 + unsettled
    assert report.scan_disagreements == []


@pytest.mark.parametrize("bridge", [2, 3])
@pytest.mark.parametrize("ceiling", [None, 1.0], ids=["ceilings", "ceilings-at-1"])
def test_search_reports_alike_when_the_bound_settles_nothing(monkeypatch, bridge, ceiling):
    # a failure the bound settles is one whose scan would show no transfer,
    # so a bound that settles nothing gives the same report; with every
    # ceiling at 1 the cross-bucket failures reach the bound too
    if ceiling is not None:
        _fix_ceilings(monkeypatch, ceiling)
    scans, _ = _count_scans(monkeypatch)
    want = search_no_pst(bridge, 4).to_json()
    scanned = len(scans)
    monkeypatch.setattr(verify, "scan_bounds", lambda phases, t_max, steps: np.full(len(phases), np.inf))
    scans.clear()
    assert search_no_pst(bridge, 4).to_json() == want
    # unpatched, the bound settled some failures
    assert len(scans) > scanned


def _per_pair_search(bridge, max_n, ceiling=None, scan_t_max=30.0, scan_steps=6000):
    """The search's report over every ordered pair of ``marked_graphs(max_n)``,
    reached pair by pair: each composite built by ``compose``, certified by
    ``pst_certificate`` and scanned by ``fidelity_scan``, its fidelity
    ceiling from ``fidelity_ceiling`` unless ``ceiling`` stands in for
    every pair's, and a pair counted as bucket-settled when its ends are
    not cospectral.  ``max_ceiling`` is read only on the pairs whose
    (y1, a) comes no later in the list than (y2, b), the order the search
    composes, since a mirrored composite's ceiling may round differently."""
    report = verify.SearchReport(bridge=bridge, max_n=max_n, source="builtin")
    marked = list(marked_graphs(max_n))
    for (p, (y1, a)), (q, (y2, b)) in itertools.product(enumerate(marked), repeat=2):
        z, ga, gb = compose(y1, a, y2, b, bridge)
        report.instances_tested += 1
        if xp.sigma_classes(z, ga, gb) is None:
            report.bucket_settled += 1
        c = fidelity_ceiling(z, ga, gb) if ceiling is None else ceiling
        cert = pst_certificate(z, ga, gb)
        reason = cert.failure_reason
        if reason != "not_strongly_cospectral":
            report.strongly_cospectral_pairs += 1
        elif p <= q:
            report.max_ceiling = max(report.max_ceiling, c)
        record = verify._pair_record(y1, a, y2, b)
        if cert.success:
            _, peak = fidelity_scan(z, ga, gb, max(2.5 * cert.pst_time, 1.0), max(scan_steps, 2000))
            report.pst_successes.append({**record, "pst_time": cert.pst_time, "scan_peak": peak})
            continue
        report.failure_histogram[reason] = report.failure_histogram.get(reason, 0) + 1
        report.scan_checked += 1
        if c < 1.0 - SCAN_THRESHOLD:
            report.ceiling_settled += 1
            continue
        t_best, peak = fidelity_scan(z, ga, gb, scan_t_max, scan_steps)
        if peak >= 1.0 - SCAN_THRESHOLD:
            report.scan_disagreements.append({**record, "scan_peak": peak, "scan_t": t_best})
    order = operator.itemgetter("n1", "n2", "y1", "a", "y2", "b")
    report.pst_successes.sort(key=order)
    report.scan_disagreements.sort(key=order)
    return report


@pytest.mark.parametrize("bridge", [2, 3])
@pytest.mark.parametrize("ceiling", [None, 1.0], ids=["ceilings", "ceilings-at-1"])
def test_search_matches_the_per_pair_oracle(monkeypatch, bridge, ceiling):
    # floats included: every number a same-bucket pair reads from its stack
    # row, and every scan, is the one its own composite gives
    want = _per_pair_search(bridge, 4, ceiling).to_json()
    if ceiling is not None:
        _fix_ceilings(monkeypatch, ceiling)
    got = search_no_pst(bridge, 4).to_json()
    assert got == want
    assert got["pst_successes"] and got["strongly_cospectral_pairs"] == 16
    # a grid of fewer than 2000 steps still scans the success at 2000
    short = _per_pair_search(bridge, 3, ceiling, scan_t_max=7.5, scan_steps=300).to_json()
    assert search_no_pst(bridge, 3, scan_t_max=7.5, scan_steps=300).to_json() == short


GOLDEN_SEARCH = Path(__file__).resolve().parent / "golden_search_reports.json"
# the report's floats, which may round differently on another BLAS
_GOLDEN_FLOATS = {"max_ceiling", "pst_time", "scan_peak"}


def _assert_report_matches(got, want, key=None):
    """Every exact field of ``got`` equals ``want``'s, and each field named
    in _GOLDEN_FLOATS is within 1e-12."""
    if key in _GOLDEN_FLOATS:
        assert abs(got - want) <= 1e-12, key
    elif isinstance(want, dict):
        assert sorted(got) == sorted(want), key
        for k in want:
            _assert_report_matches(got[k], want[k], k)
    elif isinstance(want, list):
        assert len(got) == len(want), key
        for g, w in zip(got, want):
            _assert_report_matches(g, w, key)
    else:
        assert got == want, key


@pytest.mark.parametrize("bridge", [2, 3])
def test_search_reports_match_the_golden_file(bridge):
    # every pair of marked graphs on at most 5 vertices: a change to the
    # search that moves a decision, a count or a scan shows here
    want = json.loads(GOLDEN_SEARCH.read_text())[str(bridge)]
    got = json.loads(json.dumps(search_no_pst(bridge, 5).to_json()))
    _assert_report_matches(got, want)


@pytest.mark.parametrize("bridge", [2, 3])
def test_mirrored_pairs_decide_alike(bridge):
    # joining (y2, b) to (y1, a) gives the composite of (y1, a) and (y2, b)
    # relabelled, so the search decides each unordered pair once: the
    # certificate and the cospectrality agree, the fidelity at the transfer
    # time and the ceiling up to rounding
    marked = list(marked_graphs(4))
    for (y1, a), (y2, b) in itertools.product(marked, repeat=2):
        z, za, zb = compose(y1, a, y2, b, bridge)
        m, mb, ma = compose(y2, b, y1, a, bridge)
        cert, mirror = pst_certificate(z, za, zb).to_json(), pst_certificate(m, mb, ma).to_json()
        fidelity = cert.pop("fidelity_at_time", 0.0)
        assert abs(fidelity - mirror.pop("fidelity_at_time", 0.0)) <= 1e-12
        assert cert == mirror
        assert (xp.sigma_classes(z, za, zb) is None) == (xp.sigma_classes(m, mb, ma) is None)
        assert abs(fidelity_ceiling(z, za, zb) - fidelity_ceiling(m, mb, ma)) <= 1e-12


def test_search_lists_a_mirrored_pair_under_both_orders(monkeypatch):
    # two copies of K1: the pair of the two copies is decided and scanned
    # once, and its success is listed as (0, 1) and as (1, 0)
    k1 = Graph.from_edges(1)
    report = search_no_pst(2, 0, graph_source=[(k1, 0), (k1, 0)])
    assert (report.instances_tested, report.strongly_cospectral_pairs) == (4, 4)
    assert len(report.pst_successes) == 4
    assert len({(s["pst_time"], s["scan_peak"]) for s in report.pst_successes}) == 1
    # with every ceiling and bound at 1 and every scan peaking at 1, each
    # failure is a disagreement, and a mirrored pair's two have the same
    # peak time
    _fix_ceilings(monkeypatch, 1.0)
    original = verify.scan_phases

    def peaked(phases, t_max, steps):
        ts, fs = original(phases, t_max, steps)
        return ts, np.ones_like(fs)

    monkeypatch.setattr(verify, "scan_phases", peaked)
    monkeypatch.setattr(verify, "scan_bounds", lambda phases, t_max, steps: np.ones(len(phases)))
    report = search_no_pst(2, 3)
    names = [(verify._side_name(g), v) for g, v in marked_graphs(3)]
    failures = {(*p, *q) for p, q in itertools.product(names, repeat=2)} - {("@", 0, "@", 0)}
    times = {(d["y1"], d["a"], d["y2"], d["b"]): d["scan_t"] for d in report.scan_disagreements}
    assert len(report.scan_disagreements) == report.scan_checked == len(failures) == 24
    assert set(times) == failures
    assert all(times[y2, b, y1, a] == t for (y1, a, y2, b), t in times.items())


def test_search_rejects_a_low_ceiling_on_strongly_cospectral_pairs(monkeypatch):
    _fix_ceilings(monkeypatch, 0.5)
    # K1 - K1 across the bridge is the path itself: strongly cospectral ends
    with pytest.raises(RuntimeError, match="fidelity ceiling"):
        search_no_pst(2, 1)


def test_search_rejects_a_success_the_scan_does_not_confirm(monkeypatch):
    def low_peaks(reading, t_max, steps):
        return 0.0, 0.5

    monkeypatch.setattr(verify, "scan_phases", low_peaks)
    # K1 - K1 across the bridge is P2, which certifies transfer at pi / 2
    with pytest.raises(RuntimeError, match="certificate success not confirmed by scan"):
        search_no_pst(2, 1)


def _count_eigh_matrices(monkeypatch):
    """The number of matrices each ``eigh`` call receives, one entry a call."""
    matrices = []
    original = np.linalg.eigh

    def counting(a):
        matrices.append(math.prod(np.shape(a)[:-2]))
        return original(a)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return matrices


def test_search_decomposes_once_per_pair(monkeypatch):
    matrices = _count_eigh_matrices(monkeypatch)
    report = search_no_pst(2, 3)
    # 25 ordered pairs of 5 sides, stacked as their 5 * 6 / 2 = 15 unordered
    # ones, a mirror being its pair relabelled; the 5 same-bucket pairs (the
    # self-pairs) are read from the stack
    assert (report.instances_tested, report.bucket_settled) == (25, 20)
    assert sum(matrices) == 15
    # with every ceiling at 1, the 10 cross-bucket pairs are cross-checked
    # and scanned from their stack rows too: their composites are built for
    # the exact decision only, and decomposed by no eigh of their own
    matrices.clear()
    _fix_ceilings(monkeypatch, 1.0)
    report = search_no_pst(2, 3)
    assert report.scan_checked == report.instances_tested - 1
    assert report.ceiling_settled == 0
    assert sum(matrices) == 15


@pytest.mark.parametrize("bridge", [2, 3])
def test_search_certifies_same_bucket_pairs_from_the_stack(monkeypatch, bridge):
    # no composite graph, decomposition or graph certificate for a
    # same-bucket pair, and at n <= 4 no cross-bucket ceiling reaches the
    # cross-check
    def refuse(*args, **kwargs):
        raise AssertionError("the search built, decomposed or certified a composite")

    for module, name in ((verify, "compose"), (verify, "decompose"), (spectral, "decompose"),
                         (pst, "pst_certificate")):
        monkeypatch.setattr(module, name, refuse)
    report = search_no_pst(bridge, 4)
    assert (report.instances_tested, report.strongly_cospectral_pairs) == (256, 16)


@pytest.mark.parametrize("bridge", [2, 3])
def test_search_reads_shapes_in_chunks(monkeypatch, bridge):
    whole = search_no_pst(bridge, 4).to_json()
    matrices = _count_eigh_matrices(monkeypatch)
    monkeypatch.setattr(verify, "_CHUNK", 3)
    assert search_no_pst(bridge, 4).to_json() == whole
    assert 0 < max(matrices) <= 3
    # forked workers read the same small chunks
    assert search_no_pst(bridge, 4, jobs=2).to_json() == whole


@pytest.mark.parametrize("jobs", [1, 2])
def test_search_plans_its_chunks_once(monkeypatch, jobs):
    # workers in threads share the counter, so a plan made in a worker counts
    calls = []
    plan = verify._chunks

    def counted(sides):
        calls.append(len(sides))
        return plan(sides)

    monkeypatch.setattr(verify, "_chunks", counted)
    threads = concurrent.futures.ThreadPoolExecutor
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", threads)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert search_no_pst(2, 3, jobs=jobs).to_json() == search_no_pst(2, 3).to_json()
    assert calls == [len(list(marked_graphs(3)))] * 2


def test_chunks_cover_each_unordered_pair_once(monkeypatch):
    # marked_graphs lists its sides by order, so the search composes (p, q)
    # with p <= q; chunks of 7 split the triangles and rectangles mid-row
    monkeypatch.setattr(verify, "_CHUNK", 7)
    sides = list(marked_graphs(4))
    seen = []
    for first, second, lo, hi in verify._chunks(sides):
        assert 0 < hi - lo <= 7
        i, j = verify._shape_pairs(first, second, np.arange(lo, hi))
        seen += zip(i.tolist(), j.tolist())
    assert sorted(seen) == [(p, q) for p in range(len(sides)) for q in range(p, len(sides))]
    # the triangle inverts k = j (j + 1) / 2 + i exactly at large k too
    big = np.arange(10**6)
    ks = np.arange(4 * 10**11 - 3, 4 * 10**11 + 3)
    i, j = verify._shape_pairs(big, big, ks)
    assert np.array_equal(j * (j + 1) // 2 + i, ks) and (0 <= i).all() and (i <= j).all()


@pytest.mark.parametrize("bridge", [2, 3])
def test_search_takes_composite_polynomials_from_the_sides(monkeypatch, bridge):
    # the side keys come from walk moments and the composites' classes from
    # the keys (bridge_classes): no charpoly, no adjugate entry and no
    # cross-multiplied walk equivalence anywhere in the search
    def refuse(*args):
        raise AssertionError("the search formed a charpoly, adjugate entry or walk equivalence")

    for name in ("_charpoly_of_rows", "_adjugate_entries", "walk_equivalent"):
        monkeypatch.setattr(xp, name, refuse)
    report = search_no_pst(bridge, 4)
    assert (report.instances_tested, report.strongly_cospectral_pairs) == (256, 16)
    assert report.ceiling_settled == 240


@pytest.mark.parametrize(
    "bridge, histogram",
    [
        (2, {"no_admissible_g": 1, "no_common_alpha": 14, "not_strongly_cospectral": 240}),
        (3, {"delta_not_consistent": 4, "no_common_alpha": 11, "not_strongly_cospectral": 240}),
    ],
)
def test_search_failure_histogram(bridge, histogram):
    report = search_no_pst(bridge, 4, scan_cross_check=False)
    assert report.instances_tested == 256
    assert report.failure_histogram == histogram
    assert len(report.pst_successes) == 1


@pytest.mark.parametrize(
    "bridge, histogram, max_ceiling",
    [
        (
            2,
            {"delta_not_consistent": 2, "no_admissible_g": 1, "no_common_alpha": 70,
             "not_strongly_cospectral": 5402},
            0.9857225453222067,
        ),
        (
            3,
            {"delta_not_consistent": 5, "no_common_alpha": 68, "not_strongly_cospectral": 5402},
            0.9714285714285716,
        ),
    ],
)
def test_search_exhaustive_n5_report(bridge, histogram, max_ceiling):
    report = search_no_pst(bridge, 5)
    assert (report.instances_tested, report.strongly_cospectral_pairs) == (5476, 74)
    assert report.failure_histogram == histogram
    settled = (report.bucket_settled, report.ceiling_settled, report.scan_checked)
    assert settled == (5402, 5402, 5475)
    assert [(s["y1"], s["a"], s["y2"], s["b"]) for s in report.pst_successes] == [("@", 0, "@", 0)]
    assert report.scan_disagreements == []
    # the stacked sums may round differently from a per-graph sum
    assert report.max_ceiling == pytest.approx(max_ceiling, abs=1e-12)


def _oracle_pairs():
    """Every ordered pair of marked_graphs(4), then 30 seeded pairs of
    weighted sides with loops, every third a side and a relabelled copy."""
    marked = list(marked_graphs(4))
    pairs = list(itertools.product(marked, marked))
    rng = random.Random(1414)
    for i in range(30):
        y1 = random_connected_graph(rng, rng.randint(1, 4), weighted=True, loops=True)
        a = rng.randrange(y1.n)
        if i % 3 == 0:
            perm = list(range(y1.n))
            rng.shuffle(perm)
            y2, b = y1.relabeled(perm), perm[a]
        else:
            y2 = random_connected_graph(rng, rng.randint(1, 4), weighted=True, loops=True)
            b = rng.randrange(y2.n)
        pairs.append(((y1, a), (y2, b)))
    return pairs


@pytest.mark.parametrize("bridge", [2, 3])
def test_side_buckets_decide_cospectrality_in_the_composite(bridge):
    apart = []
    for (y1, a), (y2, b) in _oracle_pairs():
        z, ga, gb = compose(y1, a, y2, b, bridge)
        apart.append(xp.walk_gf(y1, a) != xp.walk_gf(y2, b))
        assert apart[-1] == (xp.sigma_classes(z, ga, gb) is None)
    assert 0 < sum(apart) < len(apart)


@pytest.mark.parametrize("bridge", [2, 3])
def test_seeded_composites_certify_as_cold_ones(bridge):
    # the search's route, the classes bridge_classes takes from the side key
    # and the composite's reading, decides every same-bucket pair as the
    # composite's own certificate does, and forms no composite polynomial
    marked = list(marked_graphs(5))
    pairs = list(itertools.product(marked, marked)) + _oracle_pairs()
    same = [
        ((y1, a), (y2, b)) for (y1, a), (y2, b) in pairs if xp.walk_gf(y1, a) == xp.walk_gf(y2, b)
    ]
    assert len(same) > len(marked) + 10
    for (y1, a), (y2, b) in same:
        z, ga, gb = compose(y1, a, y2, b, bridge)
        classes = xp.bridge_classes(xp.walk_gf(y1, a), bridge)
        seeded = pst.pst_decision(classes, spectral.decompose(z).pair(ga, gb), ga, gb).to_json()
        assert list(z._poly_cache) == [spectral._DECOMPOSE_KEY]
        assert seeded == pst_certificate(z, ga, gb).to_json()


@pytest.mark.parametrize("bridge", [2, 3])
def test_stacked_readings_match_the_single_graph_readers(bridge):
    # a pair's slice of a stack's readings is its composite's own reading,
    # number for number, since each matrix of a stacked eigh runs the same
    # LAPACK call and each eigenspace sum adds the same numbers
    shapes = {}
    for pair in _oracle_pairs():
        shapes.setdefault((pair[0][0].n, pair[1][0].n), []).append(pair)
    for shape in shapes.values():
        (w1, a1), (w2, a2) = (
            (np.stack([y.weights for y, _ in sides]), np.array([v for _, v in sides]))
            for sides in zip(*shape)
        )
        composites = compose_weights(w1, a1, w2, a2, bridge)
        _, vectors, tol, starts, thetas = spectral.eigenspaces(composites)
        readings = spectral.read_pairs(thetas, vectors, starts, a1, w1.shape[1] + a2)
        n = composites.shape[-1]
        for i, ((y1, a), (y2, b)) in enumerate(shape):
            z, ga, gb = compose(y1, a, y2, b, bridge)
            assert abs(readings.ceilings[i] - fidelity_ceiling(z, ga, gb)) <= 1e-12
            row, dec = readings[i], spectral.decompose(z)
            single = dec.pair(ga, gb)
            for field in dataclasses.fields(single):
                assert np.array_equal(getattr(row, field.name), getattr(single, field.name))
            # the grouping, the tolerance and the vectors the readings came from
            lo, hi = readings.bounds[i : i + 2]
            assert np.array_equal(starts[lo:hi] - i * n, dec.starts)
            assert tol[i] == dec.grouping_tolerance
            assert np.array_equal(vectors[i], dec.vectors)


@pytest.mark.parametrize("bridge", [2, 3])
def test_only_a_ceiling_near_one_can_read_strongly_cospectral(bridge):
    # A numeric "strongly cospectral" leaves every eigenspace either outside
    # both supports (norms at most SUPPORT_TOL) or parallel (gap at most
    # SUPPORT_TOL), so 1 - C = 1/2 sum_r ||E_r e_a - s_r E_r e_b||**2 is at
    # most 2 d SUPPORT_TOL**2: the search may skip the reading below the
    # scan threshold.
    bound = 2 * spectral.SUPPORT_TOL**2
    read = 0
    for (y1, a), (y2, b) in _oracle_pairs():
        z, ga, gb = compose(y1, a, y2, b, bridge)
        if strongly_cospectral(z, ga, gb)[0]:
            read += 1
            d = len(spectral.decompose(z).distinct_eigenvalues)
            assert 1 - fidelity_ceiling(z, ga, gb) <= d * bound + 1e-14
    assert read >= 26  # 16 self-pairs and 10 relabelled copies
    # sides of up to _MAX_ORDER vertices each, and the bridge's middle vertex
    largest = 2 * xp._MAX_ORDER + 1
    assert largest * bound < SCAN_THRESHOLD


def test_search_raises_on_a_numeric_true_across_buckets(monkeypatch):
    # K1 and an end of P2 across the one-edge bridge make P3 with an end and
    # its middle: every norm ||E_r e_v|| is at most 1/sqrt(2), so a support
    # tolerance of 0.8 leaves both supports empty and reads True.  Its
    # ceiling is 1/sqrt(2), so it is forced to 1 for the search to read the
    # composite.
    monkeypatch.setattr(spectral, "SUPPORT_TOL", 0.8)
    _fix_ceilings(monkeypatch, 1.0)
    k1, p2 = Graph.from_edges(1), build_path(2)
    assert xp.walk_gf(k1, 0) != xp.walk_gf(p2, 0)
    disagree = r"numeric \(True\) strong-cospectrality decisions disagree"
    sides = [(k1, 0), (p2, 0)]
    with pytest.raises(RuntimeError, match=disagree):
        # the second of the three one-pair chunks is (K1, P2)
        verify._search_part(sides, verify._chunks(sides)[1:2], 2, True, 30.0, 6000)


def test_search_raises_when_the_composite_contradicts_the_side_keys(monkeypatch):
    # a cross-bucket pair that the composite's exact decision calls strongly
    # cospectral means the keys are wrong
    _fix_ceilings(monkeypatch, 1.0)
    monkeypatch.setattr(verify, "strongly_cospectral_exact", lambda z, a, b: True)
    sides = [(Graph.from_edges(1), 0), (build_path(2), 0)]
    with pytest.raises(RuntimeError, match="side keys differ"):
        # the (K1, P2) chunk
        verify._search_part(sides, verify._chunks(sides)[1:2], 2, True, 30.0, 6000)


def test_search_rejects_non_integer_sides_before_composing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a pair was composed")

    monkeypatch.setattr(verify, "compose_weights", refuse)
    half = Graph.from_edges(2, [(0, 1, 0.5)])
    with pytest.raises(ValueError, match=r"integer weights.*0 1 0\.5"):
        search_no_pst(2, 0, graph_source=[(build_path(3), 0), (half, 0)])


@pytest.mark.parametrize(
    "side, max_n, problem",
    [
        (Graph.from_edges(2), 0, r"'A\?' is disconnected"),
        (build_path(4), 3, r"'Ch' has 4 vertices, above max_n 3"),
    ],
    ids=["disconnected", "above-max-n"],
)
def test_search_rejects_stream_sides_it_cannot_search(monkeypatch, side, max_n, problem):
    def refuse(*args, **kwargs):
        raise AssertionError("a pair was composed")

    monkeypatch.setattr(verify, "compose_weights", refuse)
    with pytest.raises(ValueError, match=problem):
        search_no_pst(2, max_n, graph_source=[(build_path(2), 0), (side, 0)])


def test_search_accepts_sides_graph6_cannot_encode():
    k1 = Graph.from_edges(1)
    looped = Graph.from_edges(1, loops=[(0, 1)])
    source = [(k1, 0), (looped, 0)]
    report = search_no_pst(2, 0, graph_source=source)
    # sorted by side name, so the looped pair (second in pair order) comes first
    named = [(s["y1"], s["y2"]) for s in report.pst_successes]
    assert named == [("1 0\nloop 0 1\n", "1 0\nloop 0 1\n"), ("@", "@")]
    assert report.to_json() == search_no_pst(2, 0, graph_source=source, jobs=2).to_json()
    report = search_no_pst(3, 0, graph_source=source)
    assert [s["y1"] for s in report.pst_successes] == ["@"]
    assert report.failure_histogram == {"no_admissible_g": 1, "not_strongly_cospectral": 2}


def test_search_starts_no_idle_workers(monkeypatch):
    started, submitted = [], []

    class InlinePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            submitted.append(args)
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    def handed_off(sides):
        # every worker gets the whole side list, never pairs, and its own
        # chunks i, i + w, ... of the one plan, which together cover it once
        def listed(chunks):
            return [(first.tolist(), second.tolist(), lo, hi) for first, second, lo, hi in chunks]

        workers = started[0]
        names = [(verify._side_name(g), v) for g, v in sides]
        plan = listed(verify._chunks(sides))
        assert len(submitted) == workers
        sent_chunks = []
        for i, (sent, chunks, *_) in enumerate(submitted):
            assert [(verify._side_name(g), v) for g, v in sent] == names
            assert listed(chunks) == plan[i::workers]
            sent_chunks += listed(chunks)
        assert sorted(sent_chunks) == sorted(plan)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    sides = list(marked_graphs(2))
    # 2 sides of orders 1 and 2: the shapes (1, 1), (1, 2) and (2, 2), one
    # unordered pair each
    serial = search_no_pst(2, 2).to_json()
    cases = ((64, 500, [3]), (3, 500, [3]), (64, 2, [2]), (1, 500, []), (None, 500, []))
    for cpus, jobs, pools in cases:
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        started.clear()
        submitted.clear()
        assert search_no_pst(2, 2, jobs=jobs).to_json() == serial
        assert started == pools
        if pools:
            handed_off(sides)
    # one shape of 3 unordered pairs in chunks of 2: two chunks, so two workers
    p3 = build_path(3)
    sides = [(p3, 0), (p3, 1)]
    serial = search_no_pst(2, 0, graph_source=sides).to_json()
    monkeypatch.setattr(verify, "_CHUNK", 2)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    started.clear()
    submitted.clear()
    assert search_no_pst(2, 0, graph_source=sides, jobs=8).to_json() == serial
    assert started == [2]
    handed_off(sides)


def test_search_rejects_bad_bridge():
    with pytest.raises(ValueError):
        search_no_pst(4, 2)


@pytest.mark.parametrize(
    "options, problem",
    [
        ({"scan_t_max": 0.0}, "t_max"),
        ({"scan_t_max": math.inf}, "t_max"),
        ({"scan_t_max": math.nan}, "t_max"),
        ({"scan_steps": 0}, "steps"),
        ({"scan_steps": 100.0}, "steps"),
        ({"scan_steps": True}, "steps"),
    ],
)
def test_search_checks_its_scan_grid_before_composing(monkeypatch, options, problem):
    # the scans run after every certificate of a part, so a bad grid must
    # be refused before the first composite
    def refuse(*args, **kwargs):
        raise AssertionError("a pair was composed")

    monkeypatch.setattr(verify, "compose_weights", refuse)
    with pytest.raises(ValueError, match=problem):
        search_no_pst(2, 3, **options)


@pytest.mark.parametrize("jobs", [0, -3, 1.5, 2.0, True, "2", None])
def test_search_checks_its_jobs_before_reading_sides(monkeypatch, jobs):
    # a worker count below 1 would run serially without a word, and a float
    # would fail only once every side was read
    def refuse(*args, **kwargs):
        raise AssertionError("the search read or composed its sides")

    monkeypatch.setattr(verify, "marked_graphs", refuse)
    monkeypatch.setattr(verify, "compose_weights", refuse)
    with pytest.raises(ValueError, match="jobs"):
        search_no_pst(2, 2, jobs=jobs)


@pytest.mark.parametrize("bridge", [2.0, 3.0, np.float64(2)])
def test_search_checks_its_bridge_before_reading_sides(monkeypatch, bridge):
    # 2.0 passes an ``in (2, 3)`` test and would fail inside compose_weights,
    # once every side was keyed
    def refuse(*args, **kwargs):
        raise AssertionError("the search read or composed its sides")

    monkeypatch.setattr(verify, "marked_graphs", refuse)
    with pytest.raises(ValueError, match="bridge must have 2 or 3 path vertices"):
        search_no_pst(bridge, 2)


def test_search_custom_source():
    p2 = build_path(2)
    report = search_no_pst(2, 0, graph_source=[(p2, 0), (p2, 1)], scan_cross_check=False)
    assert report.instances_tested == 4
    # P2 composed with P2 at leaves is P4; its end pair has no transfer
    assert report.pst_successes == []


def test_random_connected_graph_properties():
    rng = random.Random(302)
    for _ in range(60):
        n = rng.randint(1, 8)
        g = random_connected_graph(rng, n, weighted=True, loops=True)
        assert g.n == n
        assert g.is_connected()
        assert np.allclose(g.weights, g.weights.T)


def random_connected_graph_oracle(rng, n, weighted=False, loops=False, p=0.45):
    """The sampler drawn in full and rejected by a DFS on a built Graph."""
    if n == 1:
        w = np.zeros((1, 1))
        if loops and rng.random() < 0.3:
            w[0, 0] = rng.choice([-1, 1, 2])
        return Graph(w)
    while True:
        w = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    wt = rng.choice([-2, -1, 1, 2, 3]) if weighted else 1
                    w[i, j] = w[j, i] = wt
        g = Graph(w)
        if g.is_connected():
            break
    if loops:
        w = g.weights.copy()
        for v in range(n):
            if rng.random() < 0.2:
                w[v, v] = rng.choice([-1, 1, 2])
        g = Graph(w)
    return g


def test_random_connected_graph_draws_as_the_rejecting_oracle():
    # same weights and the same rng state after the call
    for seed in range(100):
        for n in range(1, 9):
            for weighted, loops in ((False, False), (True, False), (True, True)):
                rng, ref = random.Random(seed), random.Random(seed)
                g = random_connected_graph(rng, n, weighted, loops)
                want = random_connected_graph_oracle(ref, n, weighted, loops)
                assert np.array_equal(g.weights, want.weights)
                assert rng.getstate() == ref.getstate()
    for sampler in (random_connected_graph, random_connected_graph_oracle):
        with pytest.raises(ValueError, match="at least one vertex"):
            sampler(random.Random(0), 0)


def test_run_suite_dispatch():
    assert run_suite("onesum", instances=10).passed
    assert run_suite("neutrino", instances=10).passed
    assert run_suite("interlacing", instances=10).passed
    with pytest.raises(ValueError):
        run_suite("unknown-suite")


@pytest.mark.parametrize("name", ["onesum", "correspondence-p2"])
@pytest.mark.parametrize("instances", [0, -5])
def test_run_suite_rejects_instance_counts_below_one(name, instances):
    with pytest.raises(ValueError, match=f"instances must be at least 1, got {instances}"):
        run_suite(name, instances=instances)


@pytest.mark.parametrize("name", ["onesum", "correspondence-p2"])
@pytest.mark.parametrize("instances", [True, 2.5, "3"])
def test_run_suite_rejects_instance_counts_that_are_not_integers(name, instances):
    # True would run one round, 2.5 fail in range()
    with pytest.raises(ValueError, match=f"instances must be an integer, got {instances!r}"):
        run_suite(name, instances=instances)


@pytest.mark.parametrize(
    "name, options, option",
    [
        ("quotient", {"instances": 3}, "instances"),
        ("quotient", {"seed": 9}, "seed"),
        ("correspondence-p2", {"seed": 5}, "seed"),
        ("correspondence-p3", {"instances": 3, "seed": 5}, "seed"),
    ],
)
def test_run_suite_refuses_options_the_suite_does_not_read(name, options, option):
    with pytest.raises(ValueError, match=f"suite {name} takes no {option}"):
        run_suite(name, **options)


def test_run_suite_reads_the_options_it_takes():
    # the correspondence suites read instances as their largest side order
    assert run_suite("correspondence-p2", instances=2).passed
    assert run_suite("quotient").passed


def test_suite_result_json():
    r = run_suite("onesum", instances=5)
    data = r.to_json()
    assert data["passed"] is True
    assert data["suite"] == "onesum"
    assert data["instances"] == 15


def test_bridge_factorization_instance_detects_each_failure(monkeypatch):
    # halves that read as not walk equivalent, then a bridge charpoly of 1
    monkeypatch.setattr(xp, "walk_equivalent", lambda *args: False)
    assert not verify.check_bridge_factorization_instance(random.Random(0))
    monkeypatch.undo()
    monkeypatch.setattr(xp, "bridge_charpoly_p2", lambda *args: xp.IntPoly((1,)))
    assert not verify.check_bridge_factorization_instance(random.Random(0))


def test_suites_record_each_failure(monkeypatch):
    monkeypatch.setattr(verify, "check_onesum_instance", lambda rng: False)
    assert verify.suite_onesum(1).failures == ["onesum #0"]
    # a path-sum failure skips the instance's spot check
    monkeypatch.setattr(verify, "check_pathsum_instance", lambda rng: False)
    assert verify.suite_neutrino(2).failures == ["path-sum #0", "path-sum #1"]
    monkeypatch.undo()
    # the spot check of instance 0 reads every projector entry 10 too high
    right = spectral.projector_entry_via_neutrino
    monkeypatch.setattr(
        spectral, "projector_entry_via_neutrino", lambda *args: right(*args) + 10.0
    )
    failures = verify.suite_neutrino(1).failures
    assert failures and all(f.startswith("projector-entry #0 theta=") for f in failures)
