"""Exact integer polynomial arithmetic and characteristic polynomial identities.

Everything here is big-integer exact.  Characteristic polynomials are of
tI - A for the weighted adjacency matrix A.  The empty graph has
characteristic polynomial 1; several identities below lean on that
convention.

All walk counts (A**k x)_u come from one place, the exact Krylov vectors
A**k x of ``_Krylov`` over a graph's one exact adjacency (``_adjacency``).
The exact decisions read one walk-moment engine, ``_minimal_polynomial``:
the shortest linear recurrence of the moments x^T A**k x, by
fraction-free Berlekamp-Massey over the integers, accepted only when it
annihilates x exactly; no characteristic polynomial and no modulus.  On
e_a +- e_b it gives the sigma classes of a pair (``sigma_classes``), on
e_v the reduced key N / D = phi(Y\\v) / phi(Y) of a bridge side
(``walk_gf``).  A bridge composite that is never built needs no vector:
the classes of its ends are closed forms in the sides' common key
(``bridge_classes``).  ``charpoly`` gives phi(G), the one
polynomial found modulo primes; the adjugate entries phi(G\\a),
phi(G\\b) and P_ab are the walk counts of the Krylov vectors of e_a and
e_b convolved with it, for the projector entries and the identity checks.
"""

from __future__ import annotations

import functools
import math
import operator
from itertools import zip_longest
from typing import Iterable

import numpy as np

from .graphs import Graph, _is_integer

__all__ = [
    "IntPoly",
    "T",
    "ExactDivisionError",
    "poly_gcd",
    "poly_divexact",
    "squarefree_part",
    "bareiss_det",
    "charpoly",
    "charpoly_deleted",
    "one_sum_charpoly",
    "bridge_charpoly_p2",
    "bridge_classes",
    "loop_adjusted_charpoly",
    "pendant_sqrt2_charpoly",
    "path_sum_poly",
    "RationalFunction",
    "sigma_classes",
    "walk_gf",
    "return_walk_gf",
    "walk_equivalent",
]


class ExactDivisionError(ArithmeticError):
    pass


class IntPoly:
    """Integer-coefficient polynomial, coefficients ascending by degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def content(self) -> int:
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def primitive_part(self) -> "IntPoly":
        c = self.content()
        if c <= 1:
            return self
        return IntPoly(x // c for x in self.coeffs)

    def derivative(self) -> "IntPoly":
        return IntPoly(k * c for k, c in enumerate(self.coeffs) if k)

    def __add__(self, other):
        other = _coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return IntPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly(other * c for c in self.coeffs)
        other = _coerce(other)
        if self.is_zero or other.is_zero:
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def __call__(self, x):
        """Horner evaluation; works for int, float, Fraction, complex."""
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        if isinstance(other, int):
            other = _coerce(other)
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)})"

    def __str__(self):
        if self.is_zero:
            return "0"
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            elif k == 1:
                body = "t" if mag == 1 else f"{mag}*t"
            else:
                body = f"t^{k}" if mag == 1 else f"{mag}*t^{k}"
            terms.append(("- " if c < 0 else "+ ") + body)
        s = " ".join(terms)
        return s[2:] if s.startswith("+ ") else "-" + s[2:]


def _coerce(x) -> IntPoly:
    if isinstance(x, IntPoly):
        return x
    if isinstance(x, int):
        return IntPoly((x,))
    raise TypeError(f"cannot treat {type(x).__name__} as IntPoly")


T = IntPoly((0, 1))


def _pack(coeffs: tuple[int, ...], k: int) -> int:
    """c(2**k) by Horner with shifts (Kronecker substitution)."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc << k) + c
    return acc


def _unpack(x: int, k: int) -> list[int]:
    """The balanced base-2**k digits of x, ascending: the coefficients of
    the one polynomial c with c(2**k) == x and every coefficient in
    (-2**(k-1), 2**(k-1)]."""
    mask, half = (1 << k) - 1, 1 << (k - 1)
    digits = []
    while x:
        d = x & mask
        if d > half:
            d -= mask + 1
        digits.append(d)
        x = (x - d) >> k
    return digits


def _exact_cofactor(x: int, h: int, h_norm: int, k: int) -> bool:
    """Whether h divides x and the balanced digits c of x / h satisfy
    ||h||_1 ||c||_inf < 2**(k-1), with ``h_norm`` the 1-norm of h's digits.
    Then the digit product h c has every coefficient inside the balanced
    range, so it is the digit polynomial of x, not only equal at 2**k."""
    cofactor, rem = divmod(x, h)
    return not rem and h_norm * max(map(abs, _unpack(cofactor, k))) < 1 << (k - 1)


# bits of xi beyond the bound.  At the tight xi the cofactor test refuses
# the true gcd in about a quarter of the gcds the benchmark workloads make,
# each then needing one to three bits more; a refusal costs a second attempt
# at twice the width
_GUARD_BITS = 4


def poly_gcd(p: IntPoly, q: IntPoly) -> IntPoly:
    """Primitive gcd with positive leading coefficient, exact.

    Heuristic gcd (Char, Geddes and Gonnet, "GCDHEU: heuristic polynomial
    GCD algorithm based on integer GCD computation", J. Symbolic Comput. 7,
    1989): the primitive parts a, b are packed into integers a(xi), b(xi)
    at xi = 2**k > 2 max(||a||_inf, ||b||_inf) + 2 (k ``_GUARD_BITS`` past
    the least such), and h is read from the balanced base-xi digits of one
    integer gcd(a(xi), b(xi)), made primitive.  h is accepted only when
    both cofactors are exact (``_exact_cofactor``): then h c_a = a and
    h c_b = b as polynomials, since xi bounds the coefficients of both
    sides, and by the theorem of CGG a common divisor read this way is the
    gcd.  Otherwise k doubles.
    With a = g F and b = g G, gcd(a(xi), b(xi)) = g(xi) gcd(F(xi), G(xi)),
    and the spurious factor divides the resultant Res(F, G), which is
    nonzero and fixed, so once xi is large enough the digits are those of a
    constant times g and the loop ends.
    """
    a, b = p.primitive_part(), q.primitive_part()
    if a.is_zero or b.is_zero:
        g = b if a.is_zero else a
        return -g if not g.is_zero and g.leading < 0 else g
    k = (2 * max(map(abs, a.coeffs + b.coeffs)) + 2).bit_length() + _GUARD_BITS
    while True:
        big_a, big_b = _pack(a.coeffs, k), _pack(b.coeffs, k)
        big_h = math.gcd(big_a, big_b)
        digits = _unpack(big_h, k)
        # big_h > 0, so its leading digit is positive
        content = math.gcd(*digits)
        h = [d // content for d in digits]
        big_h //= content
        h_norm = sum(map(abs, h))
        if _exact_cofactor(big_a, big_h, h_norm, k) and _exact_cofactor(
            big_b, big_h, h_norm, k
        ):
            return IntPoly(h)
        k *= 2


def poly_divexact(p: IntPoly, q: IntPoly) -> IntPoly:
    """Exact quotient p / q over the integers; raises when q does not
    divide p exactly."""
    if q.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    if p.is_zero:
        return IntPoly()
    if p.degree < q.degree:
        raise ExactDivisionError("division leaves a remainder")
    r = list(p.coeffs)
    qc = q.coeffs
    lq = qc[-1]
    out = [0] * (len(r) - len(qc) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = r[len(qc) - 1 + k]
        if c % lq:
            raise ExactDivisionError("division leaves a remainder")
        f = c // lq
        out[k] = f
        if f:
            for i, qi in enumerate(qc):
                r[k + i] -= f * qi
    if any(r):
        raise ExactDivisionError("division leaves a remainder")
    return IntPoly(out)


def squarefree_part(p: IntPoly) -> IntPoly:
    """p / gcd(p, p'), the product of the distinct irreducible factors."""
    if p.is_zero:
        return p
    g = poly_gcd(p, p.derivative())
    if g.degree <= 0:
        return p
    return poly_divexact(p, g)


# ---------------------------------------------------------------------------
# exact determinants and characteristic polynomials

def bareiss_det(rows: list[list[int]]) -> int:
    """Fraction-free (Bareiss) determinant of an integer matrix.

    Nothing in the library calls it: ``charpoly`` runs modulo primes.  It
    stays as the independent exact oracle that the tests compare
    ``charpoly`` against, as det(kI - A) == charpoly(g)(k).
    """
    n = len(rows)
    if n == 0:
        return 1
    m = [list(map(int, row)) for row in rows]
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            rik = m[i][k]
            mi, mk = m[i], m[k]
            for j in range(k + 1, n):
                mi[j] = (mi[j] * pivot - rik * mk[j]) // prev
            mi[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


# Every residue is below 2**26, so a product is below 2**52 and a dot
# product of n of them, plus a residue, stays below 2**63 while n <= 2**11.
_PRIME_BITS = 26
_MAX_ORDER = (2**63 - 2**_PRIME_BITS) // (2**_PRIME_BITS - 1) ** 2


@functools.cache
def _primes() -> tuple[int, ...]:
    """The primes in [2**26 - 2**16, 2**26), largest first: a fixed list,
    so every run uses the same moduli."""
    hi = 2**_PRIME_BITS
    lo = hi - 2**16
    root = math.isqrt(hi)
    small = np.ones(root + 1, dtype=bool)  # sieve of the primes up to root
    small[:2] = False
    for q in range(2, math.isqrt(root) + 1):
        if small[q]:
            small[q * q :: q] = False
    window = np.ones(hi - lo, dtype=bool)
    for q in np.flatnonzero(small):
        window[(-lo) % q :: q] = False
    return tuple(int(lo + i) for i in np.flatnonzero(window)[::-1])


def _coefficient_bound(rows: list[list[int]]) -> int:
    """prod(1 + r_i), r_i = ceil(||row i||_2).  The coefficient of
    t**(n-k) is a signed sum of k x k principal minors, each at most the
    product of its row norms (Hadamard), so it is at most e_k(r) <= this."""
    bound = 1
    for row in rows:
        s = sum(x * x for x in row)
        r = math.isqrt(s)
        bound *= 1 + r + (r * r < s)
    return bound


def _charpoly_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Coefficients of det(tI - A) mod p, ascending, for A an object
    array of Python integers.

    A is reduced to upper-Hessenberg form H by similarity over GF(p),
    pivoting by a row and column swap (Cohen, A Course in Computational
    Algebraic Number Theory, Alg. 2.2.9), then phi is read off the
    recurrence p_m = (t - h_mm) p_{m-1} - sum_i (h_{m,m-1} ... h_{m-i+1,m-i})
    h_{m-i,m} p_{m-i-1}.
    """
    n = len(a)
    h = (a % p).astype(np.int64)
    for m in range(1, n - 1):
        nonzero = np.flatnonzero(h[m:, m - 1])
        if not nonzero.size:
            continue
        i = m + int(nonzero[0])
        if i != m:
            h[[m, i]] = h[[i, m]]
            h[:, [m, i]] = h[:, [i, m]]
        u = h[m + 1 :, m - 1] * pow(int(h[m, m - 1]), -1, p) % p
        # columns left of m - 1 are already zero below the subdiagonal
        h[m + 1 :, m - 1 :] = (h[m + 1 :, m - 1 :] - np.outer(u, h[m, m - 1 :])) % p
        h[:, m] = (h[:, m] + h[:, m + 1 :] @ u) % p
    polys = np.zeros((n + 1, n + 1), dtype=np.int64)
    polys[0, 0] = 1
    # prods[i] = h_{m,m-1} h_{m-1,m-2} ... h_{m-i+1,m-i}, prods[0] = 1
    prods = np.ones(1, dtype=np.int64)
    for m in range(1, n + 1):
        if m > 1:
            prods = np.concatenate(([1], prods * h[m - 1, m - 2] % p))
        c = prods * h[m - 1 :: -1, m - 1] % p
        polys[m, 1 : m + 1] = polys[m - 1, :m]
        polys[m, :m] = (polys[m, :m] - c @ polys[m - 1 :: -1, :m]) % p
    return polys[n]


# Up to this order charpoly reduces on Python lists (``_charpoly_mod_rows``),
# where each numpy call of ``_charpoly_mod`` costs more than its arithmetic:
# on 0/1 matrices of density 1/2 (one prime, 2 vCPUs) lists take 2 against
# 8 us at order 1, 98 against 173 us at 8, 188 against 181 us at 10 and
# 231 against 202 us at 11.
_LIST_ORDER = 10


def _charpoly_mod_rows(rows: list[list[int]], p: int) -> list[int]:
    """``_charpoly_mod`` on Python lists, for the orders up to _LIST_ORDER:
    the same reduction, pivot and recurrence, with no numpy call."""
    n = len(rows)
    h = [[x % p for x in row] for row in rows]
    for m in range(1, n - 1):
        for i in range(m, n):
            if h[i][m - 1]:
                break
        else:
            continue
        if i != m:
            h[m], h[i] = h[i], h[m]
            for row in h:
                row[m], row[i] = row[i], row[m]
        pivot = h[m][m - 1 :]
        inv = pow(pivot[0], -1, p)
        us = [row[m - 1] * inv % p for row in h[m + 1 :]]
        if any(us):
            for row, u in zip(h[m + 1 :], us):
                if u:
                    row[m - 1 :] = [(x - u * y) % p for x, y in zip(row[m - 1 :], pivot)]
            for row in h:
                row[m] = (row[m] + sum(map(operator.mul, row[m + 1 :], us))) % p
    polys = [[1]]
    for m in range(1, n + 1):
        new = [0] + polys[-1]
        # prod = h_{m,m-1} ... h_{m-i+1,m-i}, 1-based as in _charpoly_mod
        prod = 1
        for i in range(m):
            c = prod * h[m - 1 - i][m - 1] % p
            if c:
                poly = polys[m - 1 - i]
                new[: len(poly)] = [x - c * y for x, y in zip(new, poly)]
            if i < m - 1:
                prod = prod * h[m - 1 - i][m - 2 - i] % p
                if not prod:
                    break
        polys.append([x % p for x in new])
    return polys[n]


def _charpoly_of_rows(rows: list[list[int]]) -> IntPoly:
    """det(tI - A) for an integer matrix, from its residues modulo as many
    fixed primes as cover twice the coefficient bound, combined one prime
    at a time by Garner's CRT into symmetric residues.  Every prime is
    valid: the reduction is a similarity over GF(p), so no prime has to be
    discarded.  Orders up to _LIST_ORDER reduce on Python lists
    (``_charpoly_mod_rows``), larger ones in numpy (``_charpoly_mod``)."""
    if len(rows) > _MAX_ORDER:
        raise OverflowError(
            f"modular arithmetic supports up to {_MAX_ORDER} vertices, got {len(rows)}"
        )
    need = 2 * _coefficient_bound(rows)
    small = len(rows) <= _LIST_ORDER
    a = None if small else np.array(rows, dtype=object)
    values, modulus = [0] * (len(rows) + 1), 1
    for p in _primes():
        inv = pow(modulus % p, -1, p)
        residues = _charpoly_mod_rows(rows, p) if small else _charpoly_mod(a, p).tolist()
        for j, r in enumerate(residues):
            values[j] += modulus * ((r - values[j]) * inv % p)
        modulus *= p
        if modulus > need:
            return IntPoly(v - modulus if 2 * v > modulus else v for v in values)
    raise OverflowError("weights too large for the fixed prime list")


def charpoly(g: Graph) -> IntPoly:
    """det(tI - A), exact.  Requires integer weights.

    Multi-modular: Hessenberg reduction modulo a fixed list of primes
    below 2**26 (on Python lists up to order _LIST_ORDER, in numpy int64
    beyond), as many as the Hadamard bound on the
    coefficients asks for, then CRT.  Weights beyond int64 work because
    they are reduced modulo each prime as Python integers first.
    """
    key = ("charpoly", None)
    cached = g._poly_cache.get(key)
    if cached is not None:
        return cached
    p = _charpoly_of_rows(g.int_matrix())
    if p.degree != g.n or not p.is_monic:
        raise ArithmeticError("characteristic polynomial failed its shape check")
    g._poly_cache[key] = p
    return p


def _numerator(den: IntPoly, walks) -> IntPoly:
    """The polynomial part of den(t) sum_k walks[k] t**(-k-1), N_i =
    sum_(j>i) d_j walks[j-1-i] for den = sum_j d_j t**j: the numerator of a
    resolvent entry over its denominator, read from walks[:deg den]."""
    d = den.coeffs
    return IntPoly(sum(map(operator.mul, d[i + 1 :], walks)) for i in range(len(d) - 1))


def _adjugate_entries(g: Graph, phi: IntPoly, a: int, b: int) -> None:
    """Put phi(G\\a), phi(G\\b) and, when a != b, P_ab = adj(tI - A)_ab
    into ``g._poly_cache``, from walk counts against phi = phi(G), exact:
    no charpoly, no modulus.  Entries already cached are kept.

    adj(tI - A) = phi(t) (tI - A)**-1 and (tI - A)**-1 = sum_k A**k
    t**(-k-1), so entry (u, v) is the polynomial part of phi(t) sum_k
    (A**k)_uv t**(-k-1) (``_numerator``; Godsil, Algebraic Combinatorics,
    ch. 4).  The walk counts (A**k)_aa and (A**k)_ab, k < n, are entries a
    and b of the Krylov vectors A**k e_a, and (A**k)_bb those of A**k e_b.
    """
    cache = g._poly_cache

    def entry(walks: _Krylov, u: int) -> IntPoly:
        return _numerator(phi, [int(walks[k][u]) for k in range(g.n)])

    from_a = _unit_walks(g, a)
    cache.setdefault(("charpoly", frozenset((a,))), entry(from_a, a))
    if a != b:
        path = entry(from_a, b)
        cache.setdefault(("pathsum", a, b), path)
        cache.setdefault(("pathsum", b, a), path)
        cache.setdefault(("charpoly", frozenset((b,))), entry(_unit_walks(g, b), b))


def charpoly_deleted(g: Graph, deleted: Iterable[int]) -> IntPoly:
    """Characteristic polynomial of the induced subgraph with ``deleted``
    removed.  Deleting every vertex yields the constant 1.

    One deleted vertex v gives the diagonal entry adj(tI - A)_vv, the walk
    counts of the Krylov vectors of e_v against phi(G)
    (``_adjugate_entries``); a larger deletion is the charpoly of the
    induced subgraph."""
    deleted = list(deleted)
    g._check_vertex(*deleted)
    gone = frozenset(int(v) for v in deleted)
    if len(gone) == g.n:
        return IntPoly((1,))
    if not gone:
        return charpoly(g)
    key = ("charpoly", gone)
    cached = g._poly_cache.get(key)
    if cached is not None:
        return cached
    if len(gone) == 1:
        (v,) = gone
        _adjugate_entries(g, charpoly(g), v, v)
    else:
        g._poly_cache[key] = charpoly(g.delete(gone))
    return g._poly_cache[key]


# ---------------------------------------------------------------------------
# composition identities (all take precomputed polynomials)

def one_sum_charpoly(
    phi_y1: IntPoly, phi_y1_del: IntPoly, phi_y2: IntPoly, phi_y2_del: IntPoly
) -> IntPoly:
    """Characteristic polynomial of the vertex gluing of Y1 and Y2 at b,
    from phi(Yi) and phi(Yi minus b)."""
    return phi_y1 * phi_y2_del + phi_y1_del * phi_y2 - T * phi_y1_del * phi_y2_del


def bridge_charpoly_p2(
    phi_y1: IntPoly, phi_y1_del: IntPoly, phi_y2: IntPoly, phi_y2_del: IntPoly
) -> IntPoly:
    """phi of Y1 and Y2 joined by a single bridge edge at a and b."""
    return phi_y1 * phi_y2 - phi_y1_del * phi_y2_del


def loop_adjusted_charpoly(phi_y: IntPoly, phi_y_del: IntPoly, sign: int) -> IntPoly:
    """phi of Y with a loop of weight ``sign`` (+1 or -1) added at a,
    from phi(Y) and phi(Y minus a)."""
    if sign not in (1, -1):
        raise ValueError("loop sign must be +1 or -1")
    return phi_y - sign * phi_y_del


def pendant_sqrt2_charpoly(phi_y: IntPoly, phi_y_del: IntPoly) -> IntPoly:
    """phi of Y with a pendant vertex attached at a by an edge of weight
    sqrt(2).  The squared weight keeps the result in integer coefficients."""
    return T * phi_y - 2 * phi_y_del


def path_sum_poly(g: Graph, a: int, b: int) -> IntPoly:
    """Sum over all simple a..b paths P of w(P) * phi(G minus P), where
    w(P) is the product of the edge weights along P: the (a, b) entry of
    adj(tI - A) (Godsil, Algebraic Combinatorics, ch. 4).

    The square of this polynomial equals phi(G\\a) phi(G\\b) - phi(G)
    phi(G\\ab); signed, it gives the numerator of the off-diagonal
    resolvent entry.  No path is enumerated: the entry is the convolution
    of phi(G) with the exact walk counts (A**k)_ab, read off the Krylov
    vectors of e_a (``_adjugate_entries``), which also caches phi(G\\a)
    and phi(G\\b) from those of e_a and e_b."""
    g._check_pair(a, b, "path endpoints must differ")
    key = ("pathsum", a, b)
    if key not in g._poly_cache:
        _adjugate_entries(g, charpoly(g), a, b)
    return g._poly_cache[key]


# ---------------------------------------------------------------------------
# rational functions

class RationalFunction:
    """Quotient of integer polynomials, stored fully reduced with a
    positive-leading-coefficient denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: IntPoly, den: IntPoly):
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            self.num, self.den = IntPoly(), IntPoly((1,))
            return
        g = poly_gcd(num, den)
        if g.degree > 0:
            num = poly_divexact(num, g)
            den = poly_divexact(den, g)
        c = math.gcd(num.content(), den.content())
        if c > 1:
            num = IntPoly(x // c for x in num.coeffs)
            den = IntPoly(x // c for x in den.coeffs)
        if den.leading < 0:
            num, den = -num, -den
        self.num, self.den = num, den

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def __str__(self):
        return f"({self.num}) / ({self.den})"


# ---------------------------------------------------------------------------
# sigma classes and side keys from walk modules

def _adjacency(g: Graph) -> tuple:
    """The rows, columns and exact weights of the nonzero entries of A and
    ||A||_inf, made once per graph, on integer weights only
    (``Graph._check_integer``); the weights are int64 while every row sum
    of |A| fits (n max |A_uv| < 2**62), Python integers beyond."""
    key = ("adjacency", None)
    if key not in g._poly_cache:
        g._check_integer()
        w = g.weights
        rows, cols = np.nonzero(w)
        if g.n * np.abs(w).max() < 2.0**62:
            weights = w[rows, cols].astype(np.int64)
        else:
            weights = np.array([int(e) for e in w[rows, cols].tolist()], dtype=object)
        sums = np.zeros(g.n, dtype=weights.dtype)
        np.add.at(sums, rows, np.abs(weights))
        g._poly_cache[key] = rows, cols, weights, int(sums.max())
    return g._poly_cache[key]


class _Krylov:
    """The vectors x, Ax, A**2 x, ... of an integer matrix A and a vector
    x with entries in {-1, 0, 1}, exact, made as they are asked for: in
    int64 while ||A||_inf**k < 2**63, which bounds every partial sum of
    A**k x, and in Python integers beyond.  ``mu`` holds the moments read."""

    __slots__ = ("n", "norm", "_rows", "_cols", "_weights", "vectors", "mu")

    def __init__(self, g: Graph, x: np.ndarray):
        self.n = g.n
        self._rows, self._cols, self._weights, self.norm = _adjacency(g)
        self.vectors = [x]
        self.mu: list[int] = []

    def __getitem__(self, k: int) -> np.ndarray:
        while len(self.vectors) <= k:
            x = self.vectors[-1]
            if x.dtype != object and self.norm ** len(self.vectors) >= 2**63:
                x, self._weights = x.astype(object), self._weights.astype(object)
            products = self._weights * x[self._cols]
            y = np.zeros(self.n, dtype=products.dtype)
            np.add.at(y, self._rows, products)
            self.vectors.append(y)
        return self.vectors[k]

    def moments(self, k: int) -> list[int]:
        """``mu`` extended through mu_2k: A**i x adds mu_(2i-1) and mu_2i
        (mu_0 alone for i = 0), as mu_(i+l) = (A**i x) . (A**l x) for A
        symmetric.  The products are in int64 while n ||A||_inf**2i < 2**63,
        which bounds every partial sum, as |(A**i x)_u| <= ||A||_inf**i and
        ||A**l x||_1 <= n ||A||_inf**l, and in Python integers beyond."""
        for i in range((len(self.mu) + 1) // 2, k + 1):
            y = self[i]
            if self.n * self.norm ** (2 * i) >= 2**63:
                y = y.astype(object)
            self.mu += [int(self.vectors[i - 1] @ y), int(y @ y)] if i else [int(y @ y)]
        return self.mu

    def annihilated_by(self, m: IntPoly) -> bool:
        """Whether m(A) x = 0, exactly: in int64 while sum_k |c_k|
        ||A||_inf**k < 2**63, which bounds every partial sum of
        sum_k c_k (A**k x)_u, and in Python integers beyond."""
        vectors = [self[k] for k in range(m.degree + 1)]
        bound = sum(abs(c) * self.norm**k for k, c in enumerate(m.coeffs))
        dtype = np.int64 if bound < 2**63 else object
        return not (np.array(m.coeffs, dtype=dtype) @ np.array(vectors, dtype=dtype)).any()


def _minimal_polynomial(walks: _Krylov) -> IntPoly:
    """The minimal polynomial m of x relative to A, the monic generator of
    the polynomials that annihilate x, of degree s: the shortest linear
    recurrence of the walk moments mu_j = x^T A**j x (``_Krylov.moments``),
    found by Berlekamp-Massey (Massey, "Shift-register synthesis and BCH
    decoding", IEEE Trans. Inf. Theory 15, 1969), fraction-free over the
    integers.  No modulus, bound or lift.

    mu_j = sum_r theta_r**j ||E_r x||**2 over the s eigenvalues with
    E_r x != 0, so m is a recurrence of the moments, and their Hankel
    matrix H_k = [mu_(i+l)]_(i,l<k) is the Gram matrix of x, ...,
    A**(k-1) x: positive definite for k <= s.  A recurrence of length
    L <= k through mu_0, ..., mu_2k would put a nonzero vector in the
    kernel of H_(k+1), so L = k + 1 for every k < s.  At k = s, m is a
    recurrence of length s, and through 2s + 1 terms a recurrence of length
    at most s is unique.  So the loop makes A**k x, reads mu_(2k-1) and
    mu_2k, and stops at the first k with L <= k, which is k = s, after the
    s + 1 vectors that m(A) x reads; ``walks.mu`` then holds mu_0, ...,
    mu_2s.

    The connection polynomial C is updated as last C - d t**shift B, d
    the discrepancy and last that of B, and its content is divided out;
    then m = t**L C(1/t) / C(0).  m is accepted only when that division is
    exact and m(A) x = 0 exactly; else ArithmeticError is raised."""
    c, b, last, length, shift = [1], [1], 1, 0, 1
    for k in range(walks.n + 1):
        moments = walks.moments(k)
        for i in range(max(2 * k - 1, 0), 2 * k + 1):
            d = sum(map(operator.mul, c, moments[i::-1]))
            if not d:
                shift += 1
                continue
            new = [last * cj - d * bj for cj, bj in zip_longest(c, [0] * shift + b, fillvalue=0)]
            content = math.gcd(*new)
            new = [cj // content for cj in new]
            if 2 * length <= i:
                b, last, length, shift = c, d, i + 1 - length, 1
            else:
                shift += 1
            c = new
        if length <= k:
            break
    m = IntPoly(cj // c[0] for cj in reversed(c))
    if not any(cj % c[0] for cj in c) and walks.annihilated_by(m):
        return m
    raise ArithmeticError("minimal polynomial failed its exact annihilation check")


def _unit_walks(g: Graph, a: int, b: int | None = None, sign: int = 1) -> _Krylov:
    """The Krylov vectors of e_a, or of e_a + sign e_b."""
    x = np.zeros(g.n, dtype=np.int64)
    x[a] = 1
    if b is not None:
        x[b] = sign
    return _Krylov(g, x)


def sigma_classes(g: Graph, a: int, b: int) -> tuple[IntPoly, IntPoly] | None:
    """The reduced denominators m+, m- of (phi(G\\a) +- P_ab) / phi(G), or
    None when a and b are not cospectral.  Requires integer weights.

    The fractions are sum_r ((E_r)_aa +- (E_r)_ab) / (t - theta_r) (the
    neutrino identities), and for a cospectral pair (E_r)_aa +- (E_r)_ab
    is half of ||E_r (e_a +- e_b)||**2.  So m+ and m- are the minimal
    polynomials of u = e_a + e_b and v = e_a - e_b relative to A
    (``_minimal_polynomial``, which makes A**k x for k <= deg m only).  No
    phi(G), no adjugate entry and no modulus, on any graph, a bridge
    composite too.  a and b are cospectral exactly when (A**k u)_a =
    (A**k u)_b for every k; the differences are v^T A**k u, which m_u
    annihilates, so k < deg m_u suffices.

    P_ab is taken with a positive leading coefficient, that of the first
    nonzero (A**k)_ab = (mu+_k - mu-_k) / 4, read off the moments
    mu+-_k = x^T A**k x that Berlekamp-Massey has read, k <= 2s for
    s = min(deg m+, deg m-); a negative one swaps the classes.  If the
    moments agree up to 2s, their Hankel matrices of order s + 1, the Gram
    matrices of the first s + 1 Krylov vectors, are equal; the one of
    degree s is singular, so both modules have degree s.  The shortest
    recurrence through 2s + 1 terms is unique, so m+ = m-, the moments
    agree for every k, and P_ab = 0.

    |(E_r)_ab| <= (E_r)_aa = (E_r)_bb, with equality exactly when E_r e_a =
    +-E_r e_b.  So m+ and m- are coprime exactly when a and b are strongly
    cospectral (Godsil and Smith, "Strongly cospectral vertices"), and then
    they are the sigma = +1 and sigma = -1 classes, monic products of t - theta."""
    g._check_pair(a, b, "sigma classes need two distinct vertices")
    key = ("sigma", frozenset((a, b)))
    if key in g._poly_cache:
        return g._poly_cache[key]
    plus = _unit_walks(g, a, b, 1)
    m_plus = _minimal_polynomial(plus)
    classes = None
    if all(plus[k][a] == plus[k][b] for k in range(m_plus.degree)):
        minus = _unit_walks(g, a, b, -1)
        m_minus = _minimal_polynomial(minus)
        leading = next((y - z for y, z in zip(plus.mu, minus.mu) if y != z), 0)
        classes = (m_plus, m_minus) if leading >= 0 else (m_minus, m_plus)
    g._poly_cache[key] = classes
    return classes


def walk_gf(g: Graph, a: int) -> RationalFunction:
    """phi(G\\a) / phi(G), reduced, from the walk moments of e_a: the
    closed-walk generating function at a after the substitution that
    trades the walk variable for t.  Requires integer weights.

    It is sum_r (E_r)_aa / (t - theta_r) = sum_j mu_j t**(-j-1), mu_j =
    (A**j)_aa.  Each residue (E_r)_aa = ||E_r e_a||**2 is positive, so the
    reduced denominator D is the minimal polynomial of e_a, and N is the
    polynomial part of D sum_j mu_j t**(-j-1), N_i = sum_(j>i) d_j mu_(j-1-i)
    (``_numerator``).  No charpoly and no gcd.  Cached under ("walk_gf", a)."""
    g._check_vertex(a)
    key = ("walk_gf", a)
    if key not in g._poly_cache:
        walks = _unit_walks(g, a)
        den = _minimal_polynomial(walks)
        # N / D is reduced as read: set it without a gcd
        gf = g._poly_cache[key] = RationalFunction.__new__(RationalFunction)
        gf.num, gf.den = _numerator(den, walks.mu), den
    return g._poly_cache[key]


def return_walk_gf(g: Graph, a: int) -> RationalFunction:
    """Generating function of closed walks at a that return exactly once,
    in the t domain: 1 - phi(G) / (t phi(G\\a)) = (tN - D) / (tN) on the
    key N / D of ``walk_gf`` (integer weights).  Additive over vertex
    gluings at a, exactly."""
    key = walk_gf(g, a)
    den = T * key.num
    return RationalFunction(den - key.den, den)


# ---------------------------------------------------------------------------
# bridge composites read from their sides

def _check_bridge(bridge) -> None:
    """``bridge`` the integer 2 or 3, the path vertices the identities cover, or ValueError."""
    if not _is_integer(bridge) or bridge not in (2, 3):
        raise ValueError(f"bridge must have 2 or 3 path vertices, got {bridge!r}")


def bridge_classes(key: RationalFunction, bridge: int) -> tuple[IntPoly, IntPoly]:
    """The sigma classes (m+, m-) of the ends of a bridge composite of two
    sides with the common reduced key N / D = phi(Y\\v) / phi(Y)
    (``walk_gf``), from the key alone: no composite is built.

    With phi_i = phi(Yi) and d_i = phi(Yi\\v), by Schwenk (1974) phi(Z) =
    phi_1 phi_2 - d_1 d_2 and phi(Z\\a) = d_1 phi_2 on P2, phi(Z) =
    t phi_1 phi_2 - d_1 phi_2 - phi_1 d_2 and phi(Z\\a) = d_1 (t phi_2 - d_2)
    on P3, and P_ab = d_1 d_2 (the bridge is the only a..b path).  So a
    and b are cospectral exactly when d_1 / phi_1 = d_2 / phi_2.  Then,
    with that key reduced to N / D, phi_i = g_i D and d_i = g_i N, the
    factor g_1 g_2 cancels from (phi(Z\\a) +- P_ab) / phi(Z), which reduces
    to N / (D -+ N) on P2, and to t N / (t D - 2N) and N / D on P3.

    The reduced denominators need no gcd: D - N and D + N on P2, the
    supports of v in Y with a +1 and a -1 loop at v, as gcd(N, D -+ N) =
    gcd(N, D) = 1.  On P3, tD - 2N, divided once by t when N(0) = 0, and
    D.  The first is the reduced denominator of tN / (tD - 2N), the
    support of the attachment vertex in the sqrt(2)-pendant graph.  As
    gcd(N, D) = 1, t is the only possible common factor of tN and
    tD - 2N.  t**2 would need D(0) = 2 M(0), M = N / t.  But N / D =
    sum_r w_r / (t - theta_r), w_r = (E_r)_vv > 0, vanishes at 0, so
    M(0) / D(0) is its derivative there, -sum_r w_r / theta_r**2, and
    D(0) = 2 M(0) would give 1 = -2 sum_r w_r / theta_r**2 < 0."""
    _check_bridge(bridge)
    n, d = key.num, key.den
    if bridge == 2:
        return d - n, d + n
    plus = T * d - 2 * n
    return (plus if plus.coeffs[0] else IntPoly(plus.coeffs[1:])), d


def walk_equivalent(
    phi_y1_del: IntPoly, phi_y1: IntPoly, phi_y2_del: IntPoly, phi_y2: IntPoly
) -> bool:
    """Exact test of phi(Y1\\a)/phi(Y1) == phi(Y2\\b)/phi(Y2) by
    cross multiplication."""
    return phi_y1_del * phi_y2 == phi_y2_del * phi_y1
