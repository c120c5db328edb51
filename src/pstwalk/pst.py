"""Perfect state transfer: fidelity simulation, certificates, minimal times.

A pair of vertices admits perfect state transfer when |<b| exp(itA) |a>|
reaches 1.  The certificate decides this exactly from the spectral
structure: strong cospectrality, a common quadratic-integer form
theta_r = (alpha + beta_r sqrt(delta)) / 2 over the supported eigenvalues,
and a parity-compatible integer divisor of the beta gaps.  Transfer times
are derived directly from the phase congruences t (theta_0 - theta_r) in
pi Z with the parities dictated by the sigma signs, so the reported
minimal time is correct independent of any closed form; the certificate
also records whether the closed form pi / (g sqrt(delta)) happens to match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .graphs import Graph
from .spectral import SpectralDecomposition, decompose, strongly_cospectral

__all__ = [
    "CONFIRM_TOL",
    "ROUND_TOL",
    "PstCertificate",
    "evolve_fidelity",
    "fidelity_scan",
    "min_pst_time",
    "pst_certificate",
    "quadratic_integer_structure",
    "StructureFailure",
]

# Pair sums and squared gaps within ROUND_TOL of an integer count as integers.
ROUND_TOL = 1e-6
# Each eigenvalue must match (alpha + beta sqrt(delta)) / 2 to within _RECON_TOL.
_RECON_TOL = 1e-7
# A certified transfer time must show a fidelity of at least 1 - CONFIRM_TOL.
CONFIRM_TOL = 1e-9

FAILURE_REASONS = (
    "not_strongly_cospectral",
    "no_common_alpha",
    "delta_not_consistent",
    "parity_violation",
    "no_admissible_g",
)


@dataclass(frozen=True)
class PstCertificate:
    """Outcome of the perfect-state-transfer decision for one vertex pair."""

    status: str  # "success" or "fail"
    a: int
    b: int
    failure_reason: str | None = None
    support: tuple[float, ...] | None = None
    sigmas: tuple[int, ...] | None = None
    alpha: int | None = None
    delta: int | None = None
    betas: tuple[int, ...] | None = None
    g: int | None = None
    ks: tuple[int, ...] | None = None
    pst_time: float | None = None
    fidelity_at_time: float | None = None
    closed_form_match: bool | None = None

    @property
    def success(self) -> bool:
        return self.status == "success"

    def to_json(self) -> dict:
        out: dict = {"status": self.status}
        if self.failure_reason is not None:
            out["failure_reason"] = self.failure_reason
        for key in ("alpha", "delta", "g"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        if self.betas is not None:
            out["betas"] = list(self.betas)
        if self.sigmas is not None:
            out["sigmas"] = list(self.sigmas)
        if self.ks is not None:
            out["ks"] = list(self.ks)
        if self.pst_time is not None:
            out["pst_time"] = self.pst_time
        if self.fidelity_at_time is not None:
            out["fidelity_at_time"] = self.fidelity_at_time
        if self.closed_form_match is not None:
            out["closed_form_match"] = self.closed_form_match
        return out


# ---------------------------------------------------------------------------
# fidelity

def _phase_data(g: Graph, a: int, b: int, dec: SpectralDecomposition | None):
    if dec is None:
        dec = decompose(g)
    thetas = np.array(dec.distinct_eigenvalues)
    weights = np.array([e[b, a] for e in dec.projectors])
    return thetas, weights


def evolve_fidelity(
    g: Graph, a: int, b: int, t: float, dec: SpectralDecomposition | None = None
) -> float:
    """|<b| exp(itA) |a>| at time t."""
    g._check_vertex(a)
    g._check_vertex(b)
    thetas, weights = _phase_data(g, a, b, dec)
    return float(abs(np.sum(np.exp(1j * t * thetas) * weights)))


def _golden_max(f, lo: float, hi: float, iters: int = 80) -> tuple[float, float]:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
    xm = 0.5 * (lo + hi)
    return xm, f(xm)


def fidelity_scan(
    g: Graph,
    a: int,
    b: int,
    t_max: float,
    steps: int,
    dec: SpectralDecomposition | None = None,
) -> tuple[float, float]:
    """Maximum fidelity over a uniform t grid on [0, t_max] with ``steps``
    intervals, refined around the best grid point by golden-section search.

    Returns (t_best, fidelity_best).
    """
    g._check_vertex(a)
    g._check_vertex(b)
    if a == b:
        raise ValueError("fidelity scan needs two distinct vertices")
    if t_max <= 0 or steps < 1:
        raise ValueError("need t_max > 0 and steps >= 1")
    thetas, weights = _phase_data(g, a, b, dec)
    ts = np.linspace(0.0, float(t_max), steps + 1)
    best_t = 0.0
    best_f = -1.0
    chunk = 200_000
    for k in range(0, len(ts), chunk):
        block = ts[k : k + chunk]
        vals = np.abs(np.exp(1j * np.outer(block, thetas)) @ weights)
        i = int(np.argmax(vals))
        if vals[i] > best_f:
            best_f = float(vals[i])
            best_t = float(block[i])
    dt = float(t_max) / steps

    def f(t: float) -> float:
        return float(abs(np.sum(np.exp(1j * t * thetas) * weights)))

    lo = max(0.0, best_t - dt)
    hi = min(float(t_max), best_t + dt)
    t_ref, f_ref = _golden_max(f, lo, hi)
    if f_ref > best_f:
        return t_ref, f_ref
    return best_t, best_f


# ---------------------------------------------------------------------------
# quadratic integer structure of the supported eigenvalues

class StructureFailure(Exception):
    """The supported eigenvalues do not fit theta = (alpha + beta sqrt(delta))/2."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _squarefree_kernel(n: int) -> int:
    out = 1
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e % 2:
            out *= d
        d += 1
    return out * n


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def quadratic_integer_structure(thetas: list[float]) -> tuple[int, int, tuple[int, ...]]:
    """Find integers alpha, squarefree delta, and integers beta_r with
    theta_r = (alpha + beta_r sqrt(delta)) / 2 for every input eigenvalue.

    Candidate alphas are pair sums that round to integers; for a
    candidate to survive, every (2 theta_r - alpha)^2 must round to a
    nonnegative integer.  Raises StructureFailure with a reason of
    no_common_alpha, delta_not_consistent, or parity_violation.
    """
    thetas = [float(t) for t in thetas]
    candidates: set[int] = set()
    for i, ti in enumerate(thetas):
        for tj in thetas[i:]:
            s = ti + tj
            if abs(s - round(s)) <= ROUND_TOL:
                candidates.add(round(s))
    if not candidates:
        raise StructureFailure("no_common_alpha")
    downstream: StructureFailure | None = None
    for alpha in sorted(candidates, key=lambda x: (abs(x), x)):
        ds = []
        for th in thetas:
            d = (2.0 * th - alpha) ** 2
            di = round(d)
            if abs(d - di) > ROUND_TOL:
                break
            ds.append(di)
        else:
            try:
                return _extract_betas(thetas, alpha, ds)
            except StructureFailure as exc:
                if downstream is None:
                    downstream = exc
    raise downstream or StructureFailure("no_common_alpha")


def _extract_betas(thetas, alpha, ds):
    positive = [d for d in ds if d > 0]
    if not positive:
        # single eigenvalue equal to alpha/2; represent it with beta = 0
        return alpha, 1, tuple(0 for _ in ds)
    delta = _squarefree_kernel(reduce(math.gcd, positive))
    betas = []
    for th, d in zip(thetas, ds):
        q, r = divmod(d, delta)
        s = math.isqrt(q)
        if r or s * s != q:
            raise StructureFailure("delta_not_consistent")
        beta = s if 2.0 * th - alpha >= 0 else -s
        if abs(th - (alpha + beta * math.sqrt(delta)) / 2.0) > _RECON_TOL:
            raise StructureFailure("delta_not_consistent")
        betas.append(beta)
    parities = {b % 2 for b in betas}
    if len(parities) > 1:
        raise StructureFailure("parity_violation")
    # theta_r is an algebraic integer, so beta parity must be compatible
    # with alpha: equal parity when delta is 1 mod 4, both even otherwise.
    if delta % 4 == 1:
        if betas[0] % 2 != alpha % 2:
            raise StructureFailure("parity_violation")
    else:
        if betas[0] % 2 or alpha % 2:
            raise StructureFailure("parity_violation")
    return alpha, delta, tuple(betas)


def _normalize_support(thetas, sigmas):
    if len(thetas) != len(sigmas):
        raise ValueError("eigenvalue and sign lists must have equal length")
    if any(s not in (1, -1) for s in sigmas):
        raise ValueError("signs must be +1 or -1")
    pairs = sorted(zip(map(float, thetas), sigmas), key=lambda p: -p[0])
    thetas = [p[0] for p in pairs]
    sigmas = [p[1] for p in pairs]
    if sigmas and sigmas[0] == -1:  # global phase: normalize sigma_0 = +1
        sigmas = [-s for s in sigmas]
    return thetas, sigmas


def _admissible_gs(betas, sigmas):
    """Divisors g of gcd(beta_0 - beta_r) whose quotients carry the
    parities (1 - sigma_r)/2, largest first."""
    gaps = [betas[0] - b for b in betas]
    eps = [(1 - s) // 2 for s in sigmas]
    gbig = reduce(math.gcd, gaps)
    if gbig == 0:
        return [], gaps, eps
    good = [
        q
        for q in _divisors(gbig)
        if all((gap // q) % 2 == e for gap, e in zip(gaps, eps))
    ]
    return sorted(good, reverse=True), gaps, eps


def min_pst_time(thetas: list[float], sigmas: list[int]) -> float | None:
    """Smallest t > 0 with t (theta_0 - theta_r) an integer multiple of pi
    whose parity is even exactly when sigma_r = +1, or None when no such t
    exists (incommensurable gaps or parity obstruction).
    """
    thetas, sigmas = _normalize_support(thetas, sigmas)
    if len(thetas) < 2:
        return None
    try:
        _, delta, betas = quadratic_integer_structure(thetas)
    except StructureFailure:
        return None
    good, _, _ = _admissible_gs(betas, sigmas)
    if not good:
        return None
    return 2.0 * math.pi / (good[0] * math.sqrt(delta))


def pst_certificate(
    g: Graph,
    a: int,
    b: int,
    dec: SpectralDecomposition | None = None,
) -> PstCertificate:
    """Decide perfect state transfer between a and b.

    Checks, in order: strong cospectrality, the common quadratic-integer
    form of the supported eigenvalues, beta parity consistency, and an
    admissible gap divisor.  On success the minimal transfer time is
    derived from the phase congruences and cross-validated by evolving
    the walk; a cross-validation miss raises rather than returning a
    wrong certificate.

    ``dec`` is a decomposition of g already at hand, if any.
    """
    if a == b:
        raise ValueError("perfect state transfer needs two distinct vertices")
    if dec is None:
        dec = decompose(g)
    sc, sig = strongly_cospectral(g, a, b, dec=dec)
    if not sc:
        return PstCertificate("fail", a, b, failure_reason="not_strongly_cospectral")
    supported = sig.supported()
    thetas, sigmas = _normalize_support(
        [th for th, _ in supported], [s for _, s in supported]
    )
    base = dict(support=tuple(thetas), sigmas=tuple(sigmas))
    try:
        alpha, delta, betas = quadratic_integer_structure(thetas)
    except StructureFailure as exc:
        return PstCertificate("fail", a, b, failure_reason=exc.reason, **base)
    base.update(alpha=alpha, delta=delta, betas=betas)
    good, gaps, _ = _admissible_gs(betas, sigmas)
    if not good:
        return PstCertificate("fail", a, b, failure_reason="no_admissible_g", **base)
    gstar = good[0]
    ks = tuple(gap // gstar for gap in gaps)
    t = 2.0 * math.pi / (gstar * math.sqrt(delta))
    fid = evolve_fidelity(g, a, b, t, dec=dec)
    if fid < 1.0 - CONFIRM_TOL:
        raise RuntimeError(
            f"certificate claims transfer at t={t} but fidelity is {fid}; "
            "tolerance failure"
        )
    closed_form = math.pi / (gstar * math.sqrt(delta))
    return PstCertificate(
        "success",
        a,
        b,
        g=gstar,
        ks=ks,
        pst_time=t,
        fidelity_at_time=fid,
        closed_form_match=abs(closed_form - t) <= 1e-9 * t,
        **base,
    )
