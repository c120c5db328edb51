"""Perfect state transfer: fidelity simulation and certificates.

A pair of vertices admits perfect state transfer when |<b| exp(itA) |a>|
reaches 1.  The certificate decides this from integer polynomials: strong
cospectrality, the sigma = +1 and sigma = -1 eigenvalue classes of the
pair, a common quadratic-integer form theta_r = (alpha + beta_r sqrt(delta))
/ 2 of the supported eigenvalues, and a parity-compatible integer divisor
of the beta gaps.  Transfer times are derived directly from the phase
congruences t (theta_0 - theta_r) in pi Z with the parities dictated by the
sigma signs.  Floats only propose roots and cross-check: the numeric
decomposition must agree with the exact classes, and the walk must reach
fidelity 1 at the certified time.  ``pst_decision`` is the one certificate:
it reads every number of a pair from its reading (``spectral.read_pairs``),
a graph's own (a stack of one) or a pair of a stack of composites.  Every
fidelity, at one time or over a scan, comes from one evaluator, the
factorised grid of ``_peak``, which reads a stack of pairs at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .exactpoly import IntPoly, poly_divexact, sigma_classes
from .graphs import Graph, _check_count
from .spectral import PairReading, coprime_classes, decompose, pair_signature

__all__ = [
    "CONFIRM_TOL",
    "PstCertificate",
    "check_scan",
    "evolve_fidelity",
    "fidelity_ceiling",
    "fidelity_scan",
    "phase_fidelity",
    "pst_certificate",
    "pst_decision",
    "quadratic_integer_structure",
    "scan_phases",
    "StructureFailure",
]

# A certified transfer time must show a fidelity of at least 1 - CONFIRM_TOL.
CONFIRM_TOL = 1e-9
# fidelity_scan refines its grid by _REFINE_GRIDS grids of _REFINE_STEPS intervals
_REFINE_GRIDS = 4
_REFINE_STEPS = 128

@dataclass(frozen=True)
class PstCertificate:
    """Outcome of the perfect-state-transfer decision for one vertex pair."""

    status: str  # "success" or "fail"
    a: int
    b: int
    failure_reason: str | None = None
    sigmas: tuple[int, ...] | None = None
    alpha: int | None = None
    delta: int | None = None
    betas: tuple[int, ...] | None = None
    g: int | None = None
    ks: tuple[int, ...] | None = None
    pst_time: float | None = None
    fidelity_at_time: float | None = None

    @property
    def success(self) -> bool:
        return self.status == "success"

    def to_json(self) -> dict:
        out: dict = {"status": self.status}
        for key in ("failure_reason", "alpha", "delta", "g", "betas", "sigmas", "ks",
                    "pst_time", "fidelity_at_time"):
            val = getattr(self, key)
            if val is not None:
                out[key] = list(val) if isinstance(val, tuple) else val
        return out


# ---------------------------------------------------------------------------
# fidelity

def _peak(thetas: np.ndarray, weights: np.ndarray, lo: np.ndarray, dt: np.ndarray, steps: int):
    """For each pair i of a stack, the best (t, |sum_r w_ir exp(i theta_ir t)|)
    over the grid t_k = lo_i + k dt_i, k = 0 .. steps, as two arrays.
    ``thetas`` and ``weights`` are (pairs, d), a pair with fewer eigenvalues
    padded with zero weights, which add nothing; ``lo`` and ``dt`` are
    (pairs,).

    The grid is factorised: with C = ceil(sqrt(steps + 1)), t_k = lo +
    (jC + i) dt, so a pair's amplitudes are the entries of coarse @ fine.T,
    where coarse[j, r] = exp(i theta_r (lo + jC dt)) and fine[i, r] = w_r
    exp(i theta_r i dt).  That takes about 2 sqrt(steps) d complex
    exponentials a pair, not steps d.  The pairs go in groups whose fine
    tables hold at most 200 000 entries, and each group's coarse rows in
    blocks of at most 200 000 grid points over its pairs (or one row, when
    a row is longer), so memory stays bounded for any ``steps`` and any
    number of pairs.
    """
    points = steps + 1
    width = math.isqrt(steps) + 1  # ceil(sqrt(points))
    height = -(-points // width)
    count, d = thetas.shape
    group = max(1, 200_000 // (width * d))
    ks, fs = [], []
    for p0 in range(0, count, group):
        th, w = thetas[p0 : p0 + group, None], weights[p0 : p0 + group, None]
        step, start = dt[p0 : p0 + group, None], lo[p0 : p0 + group, None]
        fine = np.exp(1j * ((np.arange(width) * step)[..., None] * th)) * w
        fine_t = fine.transpose(0, 2, 1)
        pairs = np.arange(len(fine))
        block = max(1, 200_000 // (width * len(fine)))
        for j0 in range(0, height, block):
            js = np.arange(j0, min(j0 + block, height))
            coarse = np.exp(1j * ((start + js * width * step)[..., None] * th))
            vals = np.abs(coarse @ fine_t).reshape(len(fine), -1)[:, : points - j0 * width]
            k = vals.argmax(axis=1)
            f = vals[pairs, k]
            if j0 == 0:
                best_k, best_f = k, f
            else:
                better = f > best_f
                best_k = np.where(better, j0 * width + k, best_k)
                best_f = np.where(better, f, best_f)
        ks.append(best_k)
        fs.append(best_f)
    best_k, best_f = (np.concatenate(ks), np.concatenate(fs)) if len(ks) > 1 else (ks[0], fs[0])
    return lo + best_k * dt, best_f


def phase_fidelity(reading: PairReading, t: float) -> float:
    """|<b| exp(itA) |a>| = |sum_r (E_r)_ab exp(i theta_r t)| at time t of
    one pair's reading, a one-point grid of ``_peak``."""
    thetas, weights = np.asarray(reading.thetas)[None], reading.ab[None]
    return float(_peak(thetas, weights, np.array([float(t)]), np.zeros(1), 0)[1][0])


def evolve_fidelity(g: Graph, a: int, b: int, t: float) -> float:
    """|<b| exp(itA) |a>| at time t (``phase_fidelity``)."""
    g._check_vertex(a, b)
    if not math.isfinite(t):
        raise ValueError(f"evolve_fidelity needs a finite time, got {t}")
    return phase_fidelity(decompose(g).pair(a, b), t)


def fidelity_ceiling(g: Graph, a: int, b: int) -> float:
    """C(a, b) = sum_r |(E_r)_ba|, a bound on |<b| exp(itA) |a>| for every t.

    With s_r the sign of (E_r)_ab and sum_r (E_r)_aa = sum_r (E_r)_bb = 1,

        1 - C = 1/2 sum_r ||E_r e_a - s_r E_r e_b||**2,

    so C <= 1, with equality exactly when a and b are strongly cospectral
    (Godsil & Smith, "Strongly cospectral vertices", 2017).  Read from the
    pair's reading, like ``fidelity_scan``, so a scan never peaks above C
    beyond rounding; the bridge search reads its ceilings the same way, a
    stack of composites at once.
    """
    g._check_vertex(a, b)
    return float(decompose(g).pair(a, b).ceilings[0])


def check_scan(t_max: float, steps: int) -> None:
    """Raise ValueError unless 0 < t_max < inf and ``steps`` is an integer
    of at least 1 (``graphs._check_count``)."""
    if not 0 < t_max < math.inf:
        raise ValueError(f"need 0 < t_max < inf, got {t_max}")
    _check_count("steps", steps, 1)


def scan_phases(readings, t_max, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The fidelity scans of a list of pairs, given by their readings (the
    phases theta_r and (E_r)_ab), each over [0, t_max[i]] with ``steps``
    intervals, as one stack through ``_peak``: the grid, then
    _REFINE_GRIDS finer grids, each spanning one spacing of the grid
    before it on either side of the pair's best point so far, clipped to
    [0, t_max[i]], and kept only when it beats that point.  Returns the
    arrays (t_best, fidelity_best).  The caller checks each window
    (``check_scan``).
    """
    # one row a pair, padded with zero weights
    thetas = np.zeros((len(readings), max(len(r.ab) for r in readings)))
    weights = np.zeros_like(thetas)
    for i, r in enumerate(readings):
        thetas[i, : len(r.ab)] = r.thetas
        weights[i, : len(r.ab)] = r.ab
    t_max = np.asarray(t_max, dtype=float)
    dt = t_max / steps
    best_t, best_f = _peak(thetas, weights, np.zeros(len(t_max)), dt, steps)
    for _ in range(_REFINE_GRIDS):
        lo = np.maximum(0.0, best_t - dt)
        dt = (np.minimum(t_max, best_t + dt) - lo) / _REFINE_STEPS
        t, f = _peak(thetas, weights, lo, dt, _REFINE_STEPS)
        better = f > best_f
        best_t = np.where(better, t, best_t)
        best_f = np.where(better, f, best_f)
    # lo + k dt may round past t_max by an ulp
    return np.minimum(best_t, t_max), best_f


def fidelity_scan(
    g: Graph,
    a: int,
    b: int,
    t_max: float,
    steps: int,
) -> tuple[float, float]:
    """Maximum fidelity over a uniform t grid on [0, t_max] with ``steps``
    intervals, refined: ``scan_phases`` of this one pair.  Returns
    (t_best, fidelity_best).
    """
    g._check_pair(a, b, "fidelity scan needs two distinct vertices")
    check_scan(t_max, steps)
    t, f = scan_phases([decompose(g).pair(a, b)], [float(t_max)], steps)
    return float(t[0]), float(f[0])


# ---------------------------------------------------------------------------
# quadratic integer structure of the supported eigenvalues

class StructureFailure(Exception):
    """The supported eigenvalues do not fit theta = (alpha + beta sqrt(delta))/2."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _squarefree_kernel(n: int) -> int:
    """n over its largest square divisor.  Trial division stops once the
    cofactor is a square, as it is when all weights share a large prime."""
    out, d = 1, 2
    while math.isqrt(n) ** 2 != n:
        if d * d > n:
            return out * n
        while n % (d * d) == 0:
            n //= d * d
        if n % d == 0:
            n //= d
            out *= d
        d += 1
    return out


def _integer_roots(p: IntPoly, xs) -> set[int]:
    """The integer roots of p that the floats xs propose.

    Newton steps in exact integer arithmetic move round(x) for as long as
    they shrink, so a proposal that is close but more than 1/2 away (large
    roots) still lands; only p(r) == 0 accepts r.  The walk depends on its
    start alone, so each distinct round(x) is walked once."""
    dp = p.derivative()
    found = set()
    for r in {round(x) for x in xs}:
        last = None
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


def _half_shift(p: IntPoly, alpha: int) -> IntPoly:
    """2**deg(p) p((alpha + s) / 2), a polynomial in s with integer
    coefficients: q(s) = 2**deg(p) p(s / 2), made by shifts, then
    Taylor-shifted to q(alpha + s), so alpha = 0 costs O(deg)."""
    deg = p.degree
    out = [c << (deg - k) for k, c in enumerate(p.coeffs)]
    if alpha:
        for i in range(deg):
            for k in range(deg - 1, i - 1, -1):
                out[k] += alpha * out[k + 1]
    return IntPoly(out)


def _beta(square: int, delta: int) -> int:
    q, r = divmod(square, delta)
    root = math.isqrt(q)
    if r or root * root != q:
        raise StructureFailure("delta_not_consistent")
    return root


def quadratic_integer_structure(
    poly: IntPoly, thetas: list[float]
) -> tuple[int, int, tuple[int, ...]]:
    """Find integers alpha, squarefree delta, and integers beta_r, largest
    first, with theta_r = (alpha + beta_r sqrt(delta)) / 2 for every root
    of ``poly``, a monic squarefree integer polynomial with real roots.

    ``thetas`` approximate the roots and only propose candidates; every
    accepted root is an exact root.  The integer roots are split off.  With
    none left, alpha is the pair sum of least size.  Otherwise the rest has
    its k roots in conjugate pairs (alpha +- s) / 2, so alpha is minus
    twice its t**(k-1) coefficient over k, 2**k rest((alpha + s) / 2) is
    even in s, and its roots in s**2 are integers.  Raises StructureFailure
    with a reason of no_common_alpha or delta_not_consistent.
    """
    roots = sorted(_integer_roots(poly, thetas))
    rest = reduce(poly_divexact, (IntPoly((-r, 1)) for r in roots), poly)
    squares: set[int] = set()
    if rest.degree == 0:
        sums = (x + y for i, x in enumerate(roots) for y in roots[i:])
        alpha = min(sums, key=lambda s: (abs(s), s))
    else:
        alpha, rem = divmod(-2 * rest.coeffs[-2], rest.degree)
        shifted = _half_shift(rest, alpha).coeffs
        if rem or any(shifted[1::2]):
            raise StructureFailure("no_common_alpha")
        in_squares = IntPoly(shifted[::2])
        squares = _integer_roots(in_squares, [(2 * th - alpha) ** 2 for th in thetas])
        if len(squares) != in_squares.degree:
            raise StructureFailure("no_common_alpha")
    gaps = [2 * r - alpha for r in roots]
    positive = [g * g for g in gaps if g] + sorted(squares)
    # a single root alpha / 2 has no positive square; it gets delta 1, beta 0
    delta = _squarefree_kernel(math.gcd(*positive) or 1)
    betas = [_beta(g * g, delta) * (1 if g > 0 else -1) for g in gaps]
    for u in squares:
        betas += [_beta(u, delta), -_beta(u, delta)]
    # No parity check is needed: each root is an algebraic integer, so beta
    # has the parity of alpha when delta is 1 mod 4, and both are even otherwise.
    return alpha, delta, tuple(sorted(betas, reverse=True))


def _class_signs(plus: IntPoly, alpha: int, delta: int, betas) -> tuple[int, ...]:
    """sigma_r of each root (alpha + beta_r sqrt(delta)) / 2, scaled so that
    sigma_0 = +1: +1 where ``plus`` vanishes.  2**deg(plus) plus at the root
    is x + y sqrt(delta), computed exactly."""
    shifted = _half_shift(plus, alpha).coeffs
    even, odd = IntPoly(shifted[::2]), IntPoly(shifted[1::2])
    signs = []
    for beta in betas:
        x, y = even(beta * beta * delta), beta * odd(beta * beta * delta)
        signs.append(1 if (x + y == 0 if delta == 1 else x == y == 0) else -1)
    return tuple(s * signs[0] for s in signs)


def _admissible_g(gaps: list[int], sigmas) -> int | None:
    """The largest divisor g of gcd(gaps) whose quotients gap / g are odd
    exactly where sigma_r = -1, or None.  An odd factor of g changes no
    quotient's parity, so g is the odd part of the gcd times the largest
    power of two that works."""
    big = reduce(math.gcd, gaps)
    twos = (big & -big).bit_length() - 1
    for j in range(twos, -1, -1):
        if all((gap >> j) % 2 == (1 - s) // 2 for gap, s in zip(gaps, sigmas)):
            return big >> twos << j
    return None


def pst_certificate(g: Graph, a: int, b: int) -> PstCertificate:
    """Decide perfect state transfer between a and b.  Requires integer
    weights: ``sigma_classes`` refuses others before any work.

    ``pst_decision`` over the pair's sigma classes and its reading from
    the graph's decomposition, a stack of one.
    """
    g._check_pair(a, b, "perfect state transfer needs two distinct vertices")
    return pst_decision(sigma_classes(g, a, b), decompose(g).pair(a, b), a, b)


def pst_decision(classes, reading: PairReading, a: int, b: int) -> PstCertificate:
    """The certificate of the pair a, b, from its sigma classes (m+, m-)
    (``exactpoly.sigma_classes``; None when not cospectral) and its reading
    (``spectral.read_pairs``), from a graph's decomposition or a stack of
    composites: the numeric signature (``spectral.pair_signature``, which
    checks its strong-cospectrality decision against the classes), the
    phases and the confirming fidelity.

    Checks, in order: strong cospectrality, the common quadratic-integer
    form of the roots of m+ m- (the sigma = +1 and sigma = -1 classes, so
    the supported eigenvalues), and an admissible gap divisor.  On success
    the minimal transfer time is derived from the phase congruences and
    cross-validated by the fidelity there.  A support size or sign pattern
    on which the numeric signature and the exact classes disagree, or a
    cross-validation miss, raises rather than returning a wrong
    certificate.

    A failure names the first check that fails: not_strongly_cospectral,
    no_common_alpha, delta_not_consistent or no_admissible_g.
    """
    signature = pair_signature(reading, a, b, coprime_classes(classes))
    if not signature.strongly_cospectral:
        return PstCertificate("fail", a, b, failure_reason="not_strongly_cospectral")
    supported = sorted(signature.supported(), reverse=True)
    thetas = [th for th, _ in supported]
    # global phase: normalize sigma_0 = +1
    sigmas = tuple(s * supported[0][1] for _, s in supported)
    base = dict(sigmas=sigmas)
    # which class is +1 does not matter, as the sigma_0 = +1 normalization
    # undoes a swap
    plus, minus = classes
    if plus.degree + minus.degree != len(thetas):
        raise RuntimeError(
            f"exact support has {plus.degree + minus.degree} eigenvalues, "
            f"numeric support {len(thetas)}"
        )
    try:
        alpha, delta, betas = quadratic_integer_structure(plus * minus, thetas)
    except StructureFailure as exc:
        return PstCertificate("fail", a, b, failure_reason=exc.reason, **base)
    if _class_signs(plus, alpha, delta, betas) != sigmas:
        raise RuntimeError(f"exact and numeric sigma signs disagree for vertices {a}, {b}")
    base.update(alpha=alpha, delta=delta, betas=betas)
    gaps = [betas[0] - beta for beta in betas]
    gstar = _admissible_g(gaps, sigmas)
    if gstar is None:
        return PstCertificate("fail", a, b, failure_reason="no_admissible_g", **base)
    ks = tuple(gap // gstar for gap in gaps)
    t = 2.0 * math.pi / (gstar * math.sqrt(delta))
    fid = phase_fidelity(reading, t)
    if fid < 1.0 - CONFIRM_TOL:
        raise RuntimeError(
            f"certificate claims transfer at t={t} but fidelity is {fid}; "
            "tolerance failure"
        )
    return PstCertificate(
        "success", a, b, g=gstar, ks=ks, pst_time=t, fidelity_at_time=fid, **base
    )
