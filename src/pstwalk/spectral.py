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
    "stacked_decomposition",
    "pair_ceilings",
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


@dataclass(frozen=True)
class SpectralDecomposition:
    """Distinct eigenvalues (descending), multiplicities, and the ``eigh``
    eigenvector matrix, its columns grouped eigenspace by eigenspace, with
    ``starts`` the first column of each eigenspace.

    With V_r the columns of eigenspace r, E_r = V_r V_r^T, so a projector
    entry reads two rows: (E_r)_ab = sums(V[a] * V[b]).
    """

    distinct_eigenvalues: tuple[float, ...]
    multiplicities: tuple[int, ...]
    vectors: np.ndarray
    grouping_tolerance: float
    starts: np.ndarray

    def sums(self, x: np.ndarray) -> np.ndarray:
        """Sum x over each eigenspace's columns (last axis)."""
        return np.add.reduceat(x, self.starts, axis=-1)


def decompose(g: Graph) -> SpectralDecomposition:
    """Spectral decomposition of the weighted adjacency matrix: the graph as
    a stack of one (``eigenspaces``, ``stacked_decomposition``).

    Eigenvalues closer than GROUPING_TOL * max(1, ||A||_inf) are merged
    into one eigenspace (single-linkage on the sorted list).  The result is
    kept on the graph with its polynomials, so each graph runs one ``eigh``.
    """
    cached = g._poly_cache.get(_DECOMPOSE_KEY)
    if cached is None:
        cached = g._poly_cache[_DECOMPOSE_KEY] = stacked_decomposition(
            eigenspaces(g.weights[None]), 0
        )
    return cached


def stacked_decomposition(stack, i: int) -> SpectralDecomposition:
    """Matrix i of a stack that ``eigenspaces`` decomposed (its output
    tuple), read from the stack's rows with no further ``eigh``."""
    w, v, tol, starts = stack
    n = w.shape[-1]
    lo, hi = np.searchsorted(starts, [i * n, (i + 1) * n])
    starts = starts[lo:hi] - i * n
    vectors = np.ascontiguousarray(v[i])
    vectors.setflags(write=False)
    starts.setflags(write=False)
    # a few eigenspaces: their sizes and means are cheaper in Python
    bounds = starts.tolist() + [n]
    mults = tuple(end - start for start, end in zip(bounds, bounds[1:]))
    sums = np.add.reduceat(w[i], starts).tolist()
    return SpectralDecomposition(
        tuple(x / m for x, m in zip(sums, mults)), mults, vectors, float(tol[i]), starts
    )


def eigenspaces(mats: np.ndarray):
    """One ``eigh`` over a stack of symmetric matrices, shape (k, n, n),
    grouped as ``decompose`` groups.

    Returns the eigenvalues (k, n) and the eigenvectors (k, n, n), both in
    descending eigenvalue order, each matrix's grouping tolerance
    GROUPING_TOL * max(1, ||A||_inf), and the flat indices into all the
    matrices' columns, in order, at which an eigenspace starts.  The
    package's one ``eigh``.
    """
    tol = GROUPING_TOL * np.abs(mats).sum(axis=-1).max(axis=-1, initial=1.0)
    w, v = np.linalg.eigh(mats)
    w, v = w[..., ::-1], v[..., ::-1]
    split = np.ones(w.shape, dtype=bool)
    split[..., 1:] = w[..., :-1] - w[..., 1:] >= tol[..., None]
    return w, v, tol, np.flatnonzero(split)


def support(g: Graph, a: int) -> list[float]:
    """Eigenvalues whose eigenspace sees vertex a (``_pair_rule``)."""
    g._check_vertex(a)
    dec = decompose(g)
    _, in_support, *_ = _pair_rule(dec.vectors[a], dec.vectors[a], dec.starts)
    return [th for th, x in zip(dec.distinct_eigenvalues, in_support) if x]


def cospectral(g: Graph, a: int, b: int) -> bool:
    """Whether G\\a and G\\b are cospectral, that is, (E_r)_aa = (E_r)_bb
    for every eigenspace.

    Exact for integer weights, by ``exactpoly.sigma_classes``, which
    compares the walk counts (A**k)_aa and (A**k)_bb for k below the
    degree of the minimal polynomial of e_a + e_b; otherwise the norms
    ||E_r e_a|| and ||E_r e_b||, read from rows a and b of the
    eigenvectors of ``decompose``, must agree by ``_pair_rule``.
    """
    g._check_vertex(a, b)
    if a == b:
        return True
    if g.integer_flag:
        return xp.sigma_classes(g, a, b) is not None
    dec = decompose(g)
    _, _, _, equal, _, _ = _pair_rule(dec.vectors[a], dec.vectors[b], dec.starts)
    return bool(equal.all())


def _pair_rule(va: np.ndarray, vb: np.ndarray, starts: np.ndarray):
    """The numeric strong-cospectrality rule on rows a and b of one graph's
    eigenvector matrix, with eigenspaces starting at columns ``starts``.

    Per eigenspace: (E_r)_ab, whether r is in the support of a and of b,
    whether ||E_r e_a|| = ||E_r e_b||, whether E_r e_a = +-E_r e_b, and
    whether the eigenspace agrees with strong cospectrality (both supports
    or neither, and parallel).  The only reader of SUPPORT_TOL.
    """
    # ||E_r e_a||^2, ||E_r e_b||^2, (E_r)_ab and ||E_r (e_a -+ e_b)||^2; the
    # last two come from row differences, with no cancellation
    rows = np.stack([va * va, vb * vb, va * vb, (va - vb) ** 2, (va + vb) ** 2])
    aa, bb, ab, minus, plus = np.add.reduceat(rows, starts, axis=-1)
    na, nb = np.sqrt(aa), np.sqrt(bb)
    gap = np.sqrt(np.where(ab >= 0, minus, plus))
    ia = na > SUPPORT_TOL
    ib = nb > SUPPORT_TOL
    equal = np.abs(na - nb) <= SUPPORT_TOL
    parallel = ia & ib & equal & (gap <= SUPPORT_TOL)
    return ab, ia, ib, equal, parallel, (ia == ib) & (parallel | ~ia)


def pair_ceilings(vectors: np.ndarray, starts: np.ndarray, a, b) -> np.ndarray:
    """For each matrix i of a stack (eigenvectors (k, n, n) and eigenspace
    starts as ``eigenspaces`` gives them), the fidelity ceiling
    sum_r |(E_r)_ab| of a[i], b[i] (``pst.fidelity_ceiling``), from one
    product of rows a[i] and b[i]."""
    rows = np.arange(len(vectors))
    ab = np.add.reduceat((vectors[rows, a] * vectors[rows, b]).ravel(), starts)
    firsts = np.searchsorted(starts, rows * vectors.shape[-1])
    return np.add.reduceat(np.abs(ab), firsts)


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
    sig = pair_signature(decompose(g), a, b, exact)
    return sig.strongly_cospectral, sig


def pair_signature(
    dec: SpectralDecomposition, a: int, b: int, exact: bool | None
) -> SupportSignature:
    """The numeric strong-cospectrality decision and signature of a and b,
    read from rows a and b of ``dec`` (``_pair_rule``).

    ``exact`` is the exact decision, or None where there is none
    (non-integer weights).  A disagreement raises, since it signals a
    numeric failure rather than a mathematical result: the package's one
    such check, which every pair the bridge search certifies or composes
    goes through.
    """
    ab, ia, ib, _, parallel, agrees = _pair_rule(dec.vectors[a], dec.vectors[b], dec.starts)
    numeric = bool(agrees.all())
    if exact is not None and exact != numeric:
        raise RuntimeError(
            f"exact ({exact}) and numeric ({numeric}) strong-cospectrality "
            f"decisions disagree for vertices {a}, {b}"
        )
    signs = np.where(ab >= 0, 1, -1)
    entries = [
        (th, bool(x), bool(y), int(s) if p else None)
        for th, x, y, s, p in zip(dec.distinct_eigenvalues, ia, ib, signs, parallel)
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
    exact residue, which vanishes where the pole cancelled.  sf and N are
    cached per (a, b), so every eigenvalue of a pair reads them.
    """
    g._check_vertex(a, b)
    if not np.isfinite(theta):
        raise ValueError(f"projector_entry_via_neutrino needs a finite eigenvalue, got {theta}")
    key = ("neutrino", a, b)
    if key not in g._poly_cache:
        phi = xp.charpoly(g)
        sf = xp.squarefree_part(phi)
        p = xp.charpoly_deleted(g, [a]) if a == b else xp.path_sum_poly(g, a, b)
        g._poly_cache[key] = sf, xp.poly_divexact(p * sf, phi)
    sf, residue = g._poly_cache[key]
    if abs(sf(theta)) > _ROOT_TOL * _poly_scale_at(sf, theta):
        raise ValueError(f"{theta} is not an eigenvalue within tolerance")
    return float(residue(theta)) / float(sf.derivative()(theta))


def walk_module_matrix(g: Graph, a: int) -> np.ndarray:
    """Tridiagonal matrix representing the adjacency action on the walk
    module generated by e_a (Lanczos with full reorthogonalization).

    The first basis vector is e_a, and the run takes as many steps as a has
    eigenvalues in its support (``support``), the dimension of the module.
    """
    dim = len(support(g, a))
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
