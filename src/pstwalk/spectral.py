"""Numeric eigendecomposition, eigenvalue supports, and cospectrality.

Eigen-data comes from LAPACK (``numpy.linalg.eigh``).  The numeric route
shares nothing with the exact polynomial route; the two are cross-checked
wherever both apply.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import exactpoly as xp
from .graphs import Graph

__all__ = [
    "GROUPING_TOL",
    "SUPPORT_TOL",
    "SpectralDecomposition",
    "decompose",
    "eigenspaces",
    "pair_readings",
    "support",
    "cospectral",
    "SupportSignature",
    "strongly_cospectral",
    "strongly_cospectral_exact",
    "projector_entry_via_neutrino",
    "walk_module_matrix",
]

# Eigenvalues closer than GROUPING_TOL * max(1, ||A||_inf) share an eigenspace.
GROUPING_TOL = 1e-9
# ||E_r e_a|| above SUPPORT_TOL puts theta_r in the support of a; for
# non-integer weights, such norms within SUPPORT_TOL count as equal.
SUPPORT_TOL = 1e-7
# An eigenvalue handed to projector_entry_via_neutrino must be a root of phi to
# within _ROOT_TOL relative to the polynomial's size there.
_ROOT_TOL = 1e-6
# where a graph keeps its decomposition, beside its polynomials
_DECOMPOSE_KEY = ("decompose", None)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Distinct eigenvalues (descending), multiplicities, and the ``eigh``
    eigenvector matrix, its columns grouped eigenspace by eigenspace.

    With V_r the columns of eigenspace r, E_r = V_r V_r^T, so a projector
    entry reads two rows: (E_r)_ab = sums(V[a] * V[b]).
    """

    distinct_eigenvalues: tuple[float, ...]
    multiplicities: tuple[int, ...]
    vectors: np.ndarray
    grouping_tolerance: float

    @cached_property
    def starts(self) -> np.ndarray:
        """The first column of each eigenspace."""
        return np.cumsum((0,) + self.multiplicities[:-1])

    def sums(self, x: np.ndarray) -> np.ndarray:
        """Sum x over each eigenspace's columns (last axis)."""
        return np.add.reduceat(x, self.starts, axis=-1)


def decompose(g: Graph) -> SpectralDecomposition:
    """Spectral decomposition of the weighted adjacency matrix.

    Eigenvalues closer than GROUPING_TOL * max(1, ||A||_inf) are merged
    into one eigenspace (single-linkage on the sorted list).  The result is
    kept on the graph with its polynomials, so each graph runs one ``eigh``.
    """
    cached = g._poly_cache.get(_DECOMPOSE_KEY)
    if cached is None:
        w, v, tol, starts = eigenspaces(g.weights)
        vectors = np.ascontiguousarray(v)
        vectors.setflags(write=False)
        mults = np.diff(np.r_[starts, g.n])
        thetas = np.add.reduceat(w, starts) / mults
        cached = g._poly_cache[_DECOMPOSE_KEY] = SpectralDecomposition(
            tuple(thetas.tolist()), tuple(mults.tolist()), vectors, float(tol)
        )
    return cached


def eigenspaces(mats: np.ndarray):
    """One ``eigh`` over symmetric matrices of shape (..., n, n), one matrix
    or a stack, grouped as ``decompose`` groups.

    Returns the eigenvalues (..., n) and the eigenvectors (..., n, n), both
    in descending eigenvalue order, each matrix's grouping tolerance
    GROUPING_TOL * max(1, ||A||_inf), and the flat indices into all the
    matrices' columns, in order, at which an eigenspace starts.
    """
    tol = GROUPING_TOL * np.maximum(1.0, np.abs(mats).sum(axis=-1).max(axis=-1))
    w, v = np.linalg.eigh(mats)
    w, v = w[..., ::-1], v[..., ::-1]
    split = np.ones(w.shape, dtype=bool)
    split[..., 1:] = w[..., :-1] - w[..., 1:] >= tol[..., None]
    return w, v, tol, np.flatnonzero(split)


def support(g: Graph, a: int) -> list[float]:
    """Eigenvalues whose eigenspace sees vertex a: ||E_r e_a|| > SUPPORT_TOL."""
    g._check_vertex(a)
    dec = decompose(g)
    norms = np.sqrt(dec.sums(dec.vectors[a] ** 2))
    return [th for th, na in zip(dec.distinct_eigenvalues, norms) if na > SUPPORT_TOL]


def cospectral(g: Graph, a: int, b: int) -> bool:
    """Whether G\\a and G\\b are cospectral, that is, (E_r)_aa = (E_r)_bb
    for every eigenspace.

    Exact for integer weights, by ``exactpoly.sigma_classes``, which
    compares phi(G\\a) with phi(G\\b) after its Jacobi check; otherwise the
    norms ||E_r e_a|| and ||E_r e_b||, read from rows a and b of the
    eigenvectors of ``decompose``, must agree to within SUPPORT_TOL.
    """
    g._check_vertex(a)
    g._check_vertex(b)
    if a == b:
        return True
    if g.integer_flag:
        return xp.sigma_classes(g, a, b) is not None
    dec = decompose(g)
    na, nb = np.sqrt(dec.sums(dec.vectors[[a, b]] ** 2))
    return bool(np.all(np.abs(na - nb) <= SUPPORT_TOL))


def _pair_rule(va: np.ndarray, vb: np.ndarray, starts: np.ndarray):
    """The numeric strong-cospectrality rule on rows a and b of eigenvector
    matrices, one row each (n,) or stacked (k, n) with eigenspaces starting
    at the flat column indices ``starts``.

    Per eigenspace: (E_r)_ab, whether r is in the support of a and of b,
    whether E_r e_a = +-E_r e_b, and whether the eigenspace agrees with
    strong cospectrality (both supports or neither, and parallel).
    """
    # ||E_r e_a||^2, ||E_r e_b||^2, (E_r)_ab and ||E_r (e_a -+ e_b)||^2; the
    # last two come from row differences, with no cancellation
    rows = np.stack([va * va, vb * vb, va * vb, (va - vb) ** 2, (va + vb) ** 2])
    aa, bb, ab, minus, plus = np.add.reduceat(rows.reshape(5, -1), starts, axis=-1)
    na, nb = np.sqrt(aa), np.sqrt(bb)
    gap = np.sqrt(np.where(ab >= 0, minus, plus))
    ia = na > SUPPORT_TOL
    ib = nb > SUPPORT_TOL
    parallel = ia & ib & (np.abs(na - nb) <= SUPPORT_TOL) & (gap <= SUPPORT_TOL)
    return ab, ia, ib, parallel, (ia == ib) & (parallel | ~ia)


def pair_readings(
    vectors: np.ndarray, starts: np.ndarray, a, b
) -> tuple[np.ndarray, np.ndarray]:
    """For each matrix i of a stack (eigenvectors (k, n, n) and eigenspace
    starts as ``eigenspaces`` gives them), the numeric strong-cospectrality
    decision of a[i], b[i], by the rule ``strongly_cospectral`` reads, and
    the fidelity ceiling sum_r |(E_r)_ab| (``pst.fidelity_ceiling``)."""
    rows = np.arange(len(vectors))
    ab, _, _, _, agrees = _pair_rule(vectors[rows, a], vectors[rows, b], starts)
    firsts = np.searchsorted(starts, rows * vectors.shape[-1])
    return np.logical_and.reduceat(agrees, firsts), np.add.reduceat(np.abs(ab), firsts)


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

    Numeric decision from the spectral decomposition; for integer weights
    the exact criterion (``strongly_cospectral_exact``) is computed as well
    and any disagreement raises,
    since it signals a numeric failure rather than a mathematical result.
    """
    g._check_vertex(a)
    g._check_vertex(b)
    if a == b:
        raise ValueError("strong cospectrality needs two distinct vertices")
    dec = decompose(g)
    ab, ia, ib, parallel, agrees = _pair_rule(dec.vectors[a], dec.vectors[b], dec.starts)
    numeric = bool(agrees.all())
    signs = np.where(ab >= 0, 1, -1)
    entries = [
        (th, bool(x), bool(y), int(s) if p else None)
        for th, x, y, s, p in zip(dec.distinct_eigenvalues, ia, ib, signs, parallel)
    ]
    if g.integer_flag:
        exact = strongly_cospectral_exact(g, a, b)
        if exact != numeric:
            raise RuntimeError(
                f"exact ({exact}) and numeric ({numeric}) strong-cospectrality "
                f"decisions disagree for vertices {a}, {b}"
            )
    return numeric, SupportSignature(a, b, tuple(entries), numeric)


def strongly_cospectral_exact(g: Graph, a: int, b: int) -> bool:
    """Exact strong-cospectrality decision for integer weights: a and b are
    cospectral and their sigma classes m+ and m- share no eigenvalue
    (``exactpoly.sigma_classes``)."""
    g._check_vertex(a)
    g._check_vertex(b)
    if a == b:
        raise ValueError("strong cospectrality needs two distinct vertices")
    if not g.integer_flag:
        raise ValueError("exact decision needs integer weights")
    classes = xp.sigma_classes(g, a, b)
    return classes is not None and xp.poly_gcd(*classes).degree == 0


def _poly_scale_at(p: xp.IntPoly, x: float) -> float:
    m = max(1.0, abs(x))
    return sum(abs(c) * m**k for k, c in enumerate(p.coeffs)) or 1.0


def projector_entry_via_neutrino(g: Graph, a: int, b: int, theta: float) -> float:
    """<b| E_theta |a> computed from characteristic polynomials alone.

    The resolvent entry p(t)/phi(t) (p the deleted charpoly on the
    diagonal, the signed path sum off the diagonal) has only simple poles,
    so once reduced its denominator is squarefree and the projector entry
    is the residue p(theta)/phi'(theta) of the reduced fraction, or 0 when
    theta is no longer a pole.
    """
    g._check_vertex(a)
    g._check_vertex(b)
    phi = xp.charpoly(g)
    sf = xp.squarefree_part(phi)
    if abs(sf(theta)) > _ROOT_TOL * _poly_scale_at(sf, theta):
        raise ValueError(f"{theta} is not an eigenvalue within tolerance")
    p = xp.charpoly_deleted(g, [a]) if a == b else xp.path_sum_poly(g, a, b)
    r = xp.RationalFunction(p, phi)
    if abs(r.den(theta)) > _ROOT_TOL * _poly_scale_at(r.den, theta):
        return 0.0  # the pole at theta cancelled entirely
    return float(r.num(theta)) / float(r.den.derivative()(theta))


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
