"""Fidelity evolution, transfer-time derivation, and PST certificates."""

import json
import math
import random

import numpy as np
import pytest

from pstwalk.graphs import (
    Graph,
    build_complete,
    build_cycle,
    build_double_star,
    build_extended_double_star,
    build_path,
)
from pstwalk.pst import (
    StructureFailure,
    evolve_fidelity,
    fidelity_scan,
    min_pst_time,
    pst_certificate,
    quadratic_integer_structure,
)
from pstwalk.spectral import decompose

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


def test_min_pst_time_examples():
    assert min_pst_time([1.0, -1.0], [1, -1]) == pytest.approx(math.pi / 2)
    assert min_pst_time(
        [math.sqrt(2), 0.0, -math.sqrt(2)], [1, -1, 1]
    ) == pytest.approx(math.pi / math.sqrt(2))
    golden = [PHI, 1 / PHI, -1 / PHI, -PHI]
    assert min_pst_time(golden, [1, -1, 1, -1]) is None


def test_min_pst_time_input_validation():
    with pytest.raises(ValueError):
        min_pst_time([1.0, -1.0], [1])
    with pytest.raises(ValueError):
        min_pst_time([1.0, -1.0], [1, 2])
    assert min_pst_time([1.0], [1]) is None


def test_quadratic_structure_examples():
    assert quadratic_integer_structure([1.0, -1.0]) == (0, 1, (2, -2))
    alpha, delta, betas = quadratic_integer_structure(
        [math.sqrt(2), 0.0, -math.sqrt(2)]
    )
    assert (alpha, delta, betas) == (0, 2, (2, 0, -2))
    alpha, delta, betas = quadratic_integer_structure(
        [(1 + math.sqrt(5)) / 2, (1 - math.sqrt(5)) / 2]
    )
    assert (alpha, delta, betas) == (1, 5, (1, -1))


def test_quadratic_structure_failures():
    with pytest.raises(StructureFailure) as err:
        quadratic_integer_structure([PHI, 1 / PHI, -1 / PHI, -PHI])
    assert err.value.reason == "no_common_alpha"
    with pytest.raises(StructureFailure) as err:
        quadratic_integer_structure([math.sqrt(2), -math.sqrt(3)])
    assert err.value.reason in ("no_common_alpha", "delta_not_consistent")


def test_certificate_p2():
    cert = pst_certificate(build_path(2), 0, 1)
    assert cert.success
    assert cert.pst_time == pytest.approx(math.pi / 2, rel=1e-12)
    assert (cert.alpha, cert.delta, cert.betas) == (0, 1, (2, -2))
    assert cert.sigmas == (1, -1)
    assert cert.g == 4
    assert cert.ks == (0, 1)
    assert cert.fidelity_at_time >= 1 - 1e-9
    # the bare closed form would give pi/4 here, half the true minimal time
    assert cert.closed_form_match is False


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


def test_certificate_rejects_same_vertex():
    with pytest.raises(ValueError):
        pst_certificate(build_path(2), 0, 0)


def test_certificate_takes_a_decomposition():
    g = build_path(3)
    dec = decompose(g)
    assert pst_certificate(g, 0, 2, dec=dec) == pst_certificate(g, 0, 2)


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
