"""Numeric eigendecomposition, eigenvalue supports, and cospectrality.

Eigen-data comes from LAPACK (``numpy.linalg.eigh``).  The numeric route
shares nothing with the exact polynomial route; the two are cross-checked
wherever both apply.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exactpoly as xp
from .graphs import Graph

__all__ = [
    "GROUPING_TOL",
    "SUPPORT_TOL",
    "SpectralDecomposition",
    "decompose",
    "eigenspaces",
    "PairReading",
    "read_pairs",
    "support",
    "cospectral",
    "SupportSignature",
    "strongly_cospectral",
    "pair_signature",
    "strongly_cospectral_exact",
    "coprime_classes",
    "projector_entry_via_neutrino",
    "walk_module_matrix",
]

# Eigenvalues closer than GROUPING_TOL * max(1, ||A||_inf) share an eigenspace.
GROUPING_TOL = 1e-9
# ||E_r e_a|| above SUPPORT_TOL puts theta_r in the support of a; such
# norms, and E_r e_a and +-E_r e_b, within SUPPORT_TOL count as equal.
SUPPORT_TOL = 1e-7
# An eigenvalue handed to projector_entry_via_neutrino must be a root of the
# squarefree part of phi to within _ROOT_TOL relative to its size there.
_ROOT_TOL = 1e-6
# where a graph keeps its decomposition, beside its polynomials
_DECOMPOSE_KEY = ("decompose", None)
# the squarefree part of phi, which every pair's neutrino entries divide by
_SQUAREFREE_KEY = ("squarefree", None)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Distinct eigenvalues (descending), multiplicities, and the ``eigh``
    eigenvector matrix, its columns grouped eigenspace by eigenspace, with
    ``starts`` the first column of each eigenspace.

    With V_r the columns of eigenspace r, E_r = V_r V_r^T, so a pair's
    numbers read two rows of V (``pair``).
    """

    distinct_eigenvalues: tuple[float, ...]
    multiplicities: tuple[int, ...]
    vectors: np.ndarray
    grouping_tolerance: float
    starts: np.ndarray

    def pair(self, a: int, b: int) -> PairReading:
        """The reading of a and b: ``read_pairs`` on a stack of one."""
        return read_pairs(self.distinct_eigenvalues, self.vectors[None], self.starts, a, b)


def decompose(g: Graph) -> SpectralDecomposition:
    """Spectral decomposition of the weighted adjacency matrix: the graph as
    a stack of one (``eigenspaces``).

    Eigenvalues closer than GROUPING_TOL * max(1, ||A||_inf) are merged
    into one eigenspace (single-linkage on the sorted list).  The result is
    kept on the graph with its polynomials, so each graph runs one ``eigh``.
    """
    cached = g._poly_cache.get(_DECOMPOSE_KEY)
    if cached is None:
        _, v, tol, starts, thetas = eigenspaces(g.weights[None])
        vectors = np.ascontiguousarray(v[0])
        vectors.setflags(write=False)
        starts.setflags(write=False)
        # a few eigenspaces: their sizes are cheaper in Python
        bounds = starts.tolist() + [g.n]
        mults = tuple(end - start for start, end in zip(bounds, bounds[1:]))
        cached = g._poly_cache[_DECOMPOSE_KEY] = SpectralDecomposition(
            tuple(thetas.tolist()), mults, vectors, float(tol[0]), starts
        )
    return cached


def eigenspaces(mats: np.ndarray):
    """One ``eigh`` over a stack of symmetric matrices, shape (k, n, n),
    grouped as ``decompose`` groups.

    Returns the eigenvalues (k, n) and the eigenvectors (k, n, n), both in
    descending eigenvalue order, each matrix's grouping tolerance
    GROUPING_TOL * max(1, ||A||_inf), the flat indices into all the
    matrices' columns, in order, at which an eigenspace starts, and each
    eigenspace's eigenvalue, the mean of its group.  The package's one
    ``eigh``.
    """
    tol = GROUPING_TOL * np.abs(mats).sum(axis=-1).max(axis=-1, initial=1.0)
    w, v = np.linalg.eigh(mats)
    w, v = w[..., ::-1], v[..., ::-1]
    split = np.ones(w.shape, dtype=bool)
    split[..., 1:] = w[..., :-1] - w[..., 1:] >= tol[..., None]
    starts = np.flatnonzero(split)
    thetas = np.add.reduceat(w.ravel(), starts) / np.add.reduceat(np.ones(w.size), starts)
    return w, v, tol, starts, thetas


@dataclass(frozen=True)
class PairReading:
    """The numbers of vertex pairs a, b (``read_pairs``), pair after pair.
    Per eigenspace r: theta_r, (E_r)_ab, ||E_r e_a||**2, ||E_r e_b||**2 and
    ||E_r (e_a - s_r e_b)||**2 with s_r the sign of (E_r)_ab.  Pair i's
    eigenspaces are bounds[i] .. bounds[i + 1] - 1, and ceilings[i] is its
    fidelity ceiling sum_r |(E_r)_ab| (``pst.fidelity_ceiling``).  A
    graph's reading keeps its decomposition's tuple of eigenvalues.
    """

    thetas: np.ndarray
    ab: np.ndarray
    aa: np.ndarray
    bb: np.ndarray
    apart: np.ndarray
    bounds: np.ndarray
    ceilings: np.ndarray

    def __getitem__(self, i: int) -> PairReading:
        """Pair i's reading alone, copied out of the arrays of every pair."""
        lo, hi = self.bounds[i : i + 2]
        spaces = (np.array(x[lo:hi]) for x in (self.thetas, self.ab, self.aa, self.bb, self.apart))
        return PairReading(*spaces, np.array([0, hi - lo]), self.ceilings[i : i + 1].copy())


def read_pairs(thetas, vectors: np.ndarray, starts: np.ndarray, a, b) -> PairReading:
    """The one reader of vertex pairs: rows a[i] and b[i] of each matrix i
    of a stack of eigenvector matrices (k, n, n), its eigenspaces starting
    at the flat columns ``starts``, one eigenvalue in ``thetas`` each
    (``eigenspaces``).  Integers a and b read the same rows of every
    matrix, as a graph does (a stack of one, ``SpectralDecomposition.pair``).
    Each number sums a product of the two rows over an eigenspace; the
    difference norms come from the row differences, with no cancellation.
    """
    k, n = vectors.shape[:2]
    va, vb = vectors[np.arange(k), a], vectors[np.arange(k), b]
    # np.array, not np.stack, whose checks cost more than a graph's few rows
    products = np.array([va * vb, va * va, vb * vb, (va - vb) ** 2, (va + vb) ** 2])
    ab, aa, bb, minus, plus = np.add.reduceat(products.reshape(5, -1), starts, axis=-1)
    bounds = starts.searchsorted(np.arange(0, (k + 1) * n, n))
    ceilings = np.add.reduceat(np.abs(ab), bounds[:-1])
    return PairReading(thetas, ab, aa, bb, np.where(ab >= 0, minus, plus), bounds, ceilings)


def support(g: Graph, a: int) -> list[float]:
    """Eigenvalues whose eigenspace sees vertex a (``_pair_rule``)."""
    g._check_vertex(a)
    reading = decompose(g).pair(a, a)
    return [th for th, x in zip(reading.thetas, _pair_rule(reading)[0]) if x]


def cospectral(g: Graph, a: int, b: int) -> bool:
    """Whether G\\a and G\\b are cospectral, that is, (E_r)_aa = (E_r)_bb
    for every eigenspace.

    Exact for integer weights, by ``exactpoly.sigma_classes``, which
    compares the walk counts (A**k)_aa and (A**k)_bb for k below the
    degree of the minimal polynomial of e_a + e_b; otherwise the norms
    ||E_r e_a|| and ||E_r e_b|| of the pair's reading must agree by
    ``_pair_rule``.
    """
    g._check_vertex(a, b)
    if a == b:
        return True
    if g.integer_flag:
        return xp.sigma_classes(g, a, b) is not None
    _, _, equal, _, _ = _pair_rule(decompose(g).pair(a, b))
    return bool(equal.all())


def _pair_rule(reading: PairReading):
    """The numeric strong-cospectrality rule on one pair's reading.

    Per eigenspace: whether r is in the support of a and of b, whether
    ||E_r e_a|| = ||E_r e_b||, whether E_r e_a = +-E_r e_b, and whether the
    eigenspace agrees with strong cospectrality (both supports or neither,
    and parallel).  The only reader of SUPPORT_TOL.
    """
    na, nb, gap = np.sqrt(reading.aa), np.sqrt(reading.bb), np.sqrt(reading.apart)
    ia = na > SUPPORT_TOL
    ib = nb > SUPPORT_TOL
    equal = np.abs(na - nb) <= SUPPORT_TOL
    parallel = ia & ib & equal & (gap <= SUPPORT_TOL)
    return ia, ib, equal, parallel, (ia == ib) & (parallel | ~ia)


@dataclass(frozen=True)
class SupportSignature:
    """Per-eigenvalue support information for a vertex pair.

    ``entries`` holds one (eigenvalue, in_support_a, in_support_b, sigma)
    tuple per distinct eigenvalue, descending; sigma is +-1 when the
    projections are parallel and None otherwise.
    """

    a: int
    b: int
    entries: tuple[tuple[float, bool, bool, int | None], ...]
    strongly_cospectral: bool

    def supported(self) -> list[tuple[float, int]]:
        """(eigenvalue, sigma) for eigenvalues in both supports."""
        return [(th, s) for th, ia, ib, s in self.entries if ia and ib and s is not None]

    def to_json(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "strongly_cospectral": self.strongly_cospectral,
            "eigenvalues": [
                {
                    "theta": th,
                    "in_support_a": ia,
                    "in_support_b": ib,
                    "sigma": s,
                }
                for th, ia, ib, s in self.entries
            ],
        }


def strongly_cospectral(g: Graph, a: int, b: int) -> tuple[bool, SupportSignature]:
    """Decide whether E_r e_a = sigma_r E_r e_b with sigma_r in {+1, -1}
    holds for every eigenspace.

    Numeric decision from the spectral decomposition (``pair_signature``);
    for integer weights the exact criterion (``strongly_cospectral_exact``)
    is computed as well, and a disagreement raises.
    """
    g._check_pair(a, b, "strong cospectrality needs two distinct vertices")
    exact = strongly_cospectral_exact(g, a, b) if g.integer_flag else None
    sig = pair_signature(decompose(g).pair(a, b), a, b, exact)
    return sig.strongly_cospectral, sig


def pair_signature(
    reading: PairReading, a: int, b: int, exact: bool | None
) -> SupportSignature:
    """The numeric strong-cospectrality decision and signature of a and b,
    from their reading (``_pair_rule``).

    ``exact`` is the exact decision, or None where there is none
    (non-integer weights).  A disagreement raises, since it signals a
    numeric failure rather than a mathematical result: the package's one
    such check, which every pair the bridge search certifies or composes
    goes through.
    """
    ia, ib, _, parallel, agrees = _pair_rule(reading)
    numeric = bool(agrees.all())
    if exact is not None and exact != numeric:
        raise RuntimeError(
            f"exact ({exact}) and numeric ({numeric}) strong-cospectrality "
            f"decisions disagree for vertices {a}, {b}"
        )
    signs = np.where(reading.ab >= 0, 1, -1)
    entries = [
        (th, bool(x), bool(y), int(s) if p else None)
        for th, x, y, s, p in zip(reading.thetas, ia, ib, signs, parallel)
    ]
    return SupportSignature(a, b, tuple(entries), numeric)


def strongly_cospectral_exact(g: Graph, a: int, b: int) -> bool:
    """Exact strong-cospectrality decision for integer weights, from the
    sigma classes of a and b (``exactpoly.sigma_classes``, which checks the
    pair and the weights, and ``coprime_classes``)."""
    return coprime_classes(xp.sigma_classes(g, a, b))


def coprime_classes(classes: tuple[xp.IntPoly, xp.IntPoly] | None) -> bool:
    """Whether a pair with sigma classes ``classes`` (None: not cospectral)
    is strongly cospectral: it is cospectral and its classes m+ and m-, the
    minimal polynomials of e_a + e_b and e_a - e_b, share no eigenvalue."""
    return classes is not None and xp.poly_gcd(*classes).degree == 0


def _poly_scale_at(p: xp.IntPoly, x: float) -> float:
    m = max(1.0, abs(x))
    return sum(abs(c) * m**k for k, c in enumerate(p.coeffs)) or 1.0


def projector_entry_via_neutrino(g: Graph, a: int, b: int, theta: float) -> float:
    """<b| E_theta |a> computed from characteristic polynomials alone.

    The resolvent entry p(t)/phi(t) (p the deleted charpoly on the
    diagonal, the signed path sum off the diagonal) is
    sum_r (E_r)_ab / (t - theta_r), with only simple poles.  So with sf the
    squarefree part of phi, N = p sf / phi = sum_r (E_r)_ab sf / (t - theta_r)
    is an integer polynomial, and (E_r)_ab = N(theta_r) / sf'(theta_r): the
    exact residue, which vanishes where the pole cancelled.  sf is cached
    once per graph and N once per (a, b), so every pair of a graph reads
    one sf and every eigenvalue of a pair one N.
    """
    g._check_vertex(a, b)
    if not np.isfinite(theta):
        raise ValueError(f"projector_entry_via_neutrino needs a finite eigenvalue, got {theta}")
    sf = g._poly_cache.get(_SQUAREFREE_KEY)
    if sf is None:
        sf = g._poly_cache[_SQUAREFREE_KEY] = xp.squarefree_part(xp.charpoly(g))
    key = ("neutrino", a, b)
    if key not in g._poly_cache:
        p = xp.charpoly_deleted(g, [a]) if a == b else xp.path_sum_poly(g, a, b)
        g._poly_cache[key] = xp.poly_divexact(p * sf, xp.charpoly(g))
    residue = g._poly_cache[key]
    if abs(sf(theta)) > _ROOT_TOL * _poly_scale_at(sf, theta):
        raise ValueError(f"{theta} is not an eigenvalue within tolerance")
    return float(residue(theta)) / float(sf.derivative()(theta))


def walk_module_matrix(g: Graph, a: int) -> np.ndarray:
    """Tridiagonal matrix representing the adjacency action on the walk
    module generated by e_a (Lanczos with full reorthogonalization).

    The first basis vector is e_a, and the run takes as many steps as the
    module has dimensions: the degree of the minimal polynomial of e_a, the
    denominator of ``exactpoly.walk_gf``, on integer weights, and otherwise
    the number of eigenvalues in the support of a (``support``), which
    reads SUPPORT_TOL and so misses an eigenspace that large weights leave
    a small share of e_a.
    """
    dim = xp.walk_gf(g, a).den.degree if g.integer_flag else len(support(g, a))
    A = g.weights
    q = np.zeros(g.n)
    q[a] = 1.0
    basis = [q]
    alphas = []
    betas = []
    while True:
        q = basis[-1]
        w = A @ q
        alphas.append(float(q @ w))
        if len(basis) == dim:
            break
        r = w - alphas[-1] * q
        if len(basis) > 1:
            r -= betas[-1] * basis[-2]
        Q = np.column_stack(basis)
        r -= Q @ (Q.T @ r)
        r -= Q @ (Q.T @ r)
        betas.append(float(np.linalg.norm(r)))
        basis.append(r / betas[-1])
    return np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
