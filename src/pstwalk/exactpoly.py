"""Exact integer polynomial arithmetic and characteristic polynomial identities.

Everything here is big-integer exact.  Characteristic polynomials are of
tI - A for the weighted adjacency matrix A.  The empty graph has
characteristic polynomial 1; several identities below lean on that
convention.

``bridge_compose`` joins two marked graphs by a bridge and seeds the
composite with the four polynomials the exact decisions read, built from
the sides' polynomials by the bridge identities, so no composite is ever
handed to ``charpoly``.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable

import numpy as np

from .graphs import Graph, compose

__all__ = [
    "IntPoly",
    "T",
    "ExactDivisionError",
    "poly_gcd",
    "poly_divexact",
    "squarefree_part",
    "poly_sqrt",
    "bareiss_det",
    "charpoly",
    "charpoly_deleted",
    "one_sum_charpoly",
    "bridge_charpoly_p2",
    "bridge_charpoly_p3",
    "bridge_compose",
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
        if self.is_zero:
            return self
        c = self.content()
        return IntPoly(x // c for x in self.coeffs)

    def derivative(self) -> "IntPoly":
        return IntPoly(k * c for k, c in enumerate(self.coeffs) if k)

    def shift(self, k: int) -> "IntPoly":
        """Multiply by t**k."""
        if self.is_zero:
            return self
        return IntPoly((0,) * k + self.coeffs)

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


def _pseudo_rem(p: IntPoly, q: IntPoly) -> IntPoly:
    """Pseudo-remainder: lc(q)**(deg p - deg q + 1) * p mod q, exactly."""
    dq = q.degree
    lq = q.leading
    r = p
    while not r.is_zero and r.degree >= dq:
        k = r.degree - dq
        top = r.leading
        r = lq * r - top * q.shift(k)
    return r


def poly_gcd(p: IntPoly, q: IntPoly) -> IntPoly:
    """Primitive gcd with positive leading coefficient (primitive
    pseudo-remainder sequence)."""
    a, b = p, q
    if a.is_zero and b.is_zero:
        return IntPoly()
    a = a.primitive_part()
    b = b.primitive_part()
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero:
        r = _pseudo_rem(a, b).primitive_part()
        a, b = b, r
    return a if a.leading > 0 else -a


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


def poly_sqrt(p: IntPoly) -> IntPoly:
    """The integer polynomial with positive leading coefficient whose square
    is p; raises ExactDivisionError when there is none."""
    if p.is_zero:
        return p
    m = p.degree // 2
    root = [0] * m + [math.isqrt(max(p.leading, 1))]
    for k in range(m - 1, -1, -1):
        # t**(m+k) of root**2 is 2 root[m] root[k] plus products of known coefficients
        c = p.coeffs[m + k] - sum(root[i] * root[m + k - i] for i in range(k + 1, m))
        root[k] = c // (2 * root[m])
    out = IntPoly(root)
    if out * out != p:
        raise ExactDivisionError("not the square of an integer polynomial")
    return out


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


def _charpoly_of_rows(rows: list[list[int]]) -> IntPoly:
    """det(tI - A) for an integer matrix, by residues modulo enough fixed
    primes to cover twice the coefficient bound, combined by CRT into
    symmetric residues.  Every prime is valid: the reduction is a
    similarity over GF(p), so no prime has to be discarded."""
    n = len(rows)
    if n > _MAX_ORDER:
        raise OverflowError(f"charpoly supports up to {_MAX_ORDER} vertices, got {n}")
    need = 2 * _coefficient_bound(rows)
    a = np.array(rows, dtype=object)
    primes = _primes()
    coeffs = [0] * (n + 1)
    modulus = 1
    k = 0
    while modulus <= need:
        if k == len(primes):
            raise OverflowError("weights too large for the fixed prime list")
        p = primes[k]
        k += 1
        residues = _charpoly_mod(a, p)
        # Garner step: lift x (mod modulus) to x (mod modulus * p)
        inv = pow(modulus % p, -1, p)
        for j, r in enumerate(residues.tolist()):
            coeffs[j] += modulus * ((r - coeffs[j]) * inv % p)
        modulus *= p
    half = modulus // 2
    return IntPoly(c - modulus if c > half else c for c in coeffs)


def charpoly(g: Graph) -> IntPoly:
    """det(tI - A), exact.  Requires integer weights.

    Multi-modular: Hessenberg reduction modulo a fixed list of primes
    below 2**26 (numpy int64), as many as the Hadamard bound on the
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


def charpoly_deleted(g: Graph, deleted: Iterable[int]) -> IntPoly:
    """Characteristic polynomial of the induced subgraph with ``deleted``
    removed.  Deleting every vertex yields the constant 1."""
    gone = frozenset(int(v) for v in deleted)
    for v in gone:
        g._check_vertex(v)
    if len(gone) == g.n:
        return IntPoly((1,))
    if not gone:
        return charpoly(g)
    key = ("charpoly", gone)
    cached = g._poly_cache.get(key)
    if cached is not None:
        return cached
    p = charpoly(g.delete(gone))
    g._poly_cache[key] = p
    return p


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


def bridge_charpoly_p3(
    phi_y1: IntPoly, phi_y1_del: IntPoly, phi_y2: IntPoly, phi_y2_del: IntPoly
) -> IntPoly:
    """phi of Y1 and Y2 joined by a two-edge path (one middle vertex)."""
    return T * phi_y1 * phi_y2 - phi_y2 * phi_y1_del - phi_y1 * phi_y2_del


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
    resolvent entry.  No path is enumerated: for symmetric A the rank-2
    update s (e_a e_b^T + e_b e_a^T) gives

        phi(G + s ab) = phi(G) - 2 s P_ab - s**2 phi(G\\ab),

    so with s = 1, P_ab = (phi(G) - phi(G + ab) - phi(G\\ab)) / 2, where
    G + ab is G with the weight of ab raised by 1."""
    g._check_vertex(a)
    g._check_vertex(b)
    if a == b:
        raise ValueError("path endpoints must differ")
    key = ("pathsum", a, b)
    cached = g._poly_cache.get(key)
    if cached is not None:
        return cached
    rows = g.int_matrix()
    rows[a][b] += 1
    rows[b][a] += 1
    twice = charpoly(g) - _charpoly_of_rows(rows) - charpoly_deleted(g, [a, b])
    if any(c % 2 for c in twice.coeffs):
        raise ArithmeticError("path sum identity left an odd coefficient")
    total = IntPoly(c // 2 for c in twice.coeffs)
    g._poly_cache[key] = total
    g._poly_cache[("pathsum", b, a)] = total
    return total


# ---------------------------------------------------------------------------
# bridge composites seeded from their sides

def bridge_compose(
    y1: Graph, a: int, y2: Graph, b: int, bridge: int
) -> tuple[Graph, int, int]:
    """``graphs.compose(y1, a, y2, b, bridge)`` for a bridge of 2 or 3 path
    vertices, with phi(Z), phi(Z\\a), phi(Z\\b) and phi(Z\\ab) already in
    the composite's cache, built from phi(Y1), phi(Y1\\a), phi(Y2) and
    phi(Y2\\b) (Schwenk, "Computing the characteristic polynomial of a
    graph", 1974).  Deleting an endpoint leaves disjoint unions: on the P2
    bridge Z\\a = (Y1\\a) + Y2; on the P3 bridge Y2 keeps the middle vertex
    as a pendant at b, whose phi is t phi(Y2) - phi(Y2\\b), and Z\\ab keeps
    it isolated.  A composite with non-integer weights gets nothing, so the
    exact layer rejects it as before."""
    if bridge not in (2, 3):
        raise ValueError("bridge identities cover 2 or 3 path vertices")
    z, ga, gb = compose(y1, a, y2, b, bridge)
    if not z.integer_flag:
        return z, ga, gb
    p1, p1d = charpoly(y1), charpoly_deleted(y1, [a])
    p2, p2d = charpoly(y2), charpoly_deleted(y2, [b])
    if bridge == 2:
        phi = bridge_charpoly_p2(p1, p1d, p2, p2d)
        phi_a, phi_b, phi_ab = p1d * p2, p1 * p2d, p1d * p2d
    else:
        phi = bridge_charpoly_p3(p1, p1d, p2, p2d)
        phi_a, phi_b, phi_ab = p1d * (T * p2 - p2d), (T * p1 - p1d) * p2d, T * p1d * p2d
    # the keys charpoly and charpoly_deleted look up
    z._poly_cache.update({
        ("charpoly", None): phi,
        ("charpoly", frozenset((ga,))): phi_a,
        ("charpoly", frozenset((gb,))): phi_b,
        ("charpoly", frozenset((ga, gb))): phi_ab,
    })
    return z, ga, gb


# ---------------------------------------------------------------------------
# rational functions

class RationalFunction:
    """Quotient of integer polynomials, stored fully reduced with a
    positive-leading-coefficient denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: IntPoly, den: IntPoly):
        num = _coerce(num)
        den = _coerce(den)
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

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __add__(self, other):
        if isinstance(other, int):
            other = RationalFunction(IntPoly((other,)), IntPoly((1,)))
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        if isinstance(other, int):
            other = RationalFunction(IntPoly((other,)), IntPoly((1,)))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __call__(self, x):
        return self.num(x) / self.den(x)

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def __str__(self):
        return f"({self.num}) / ({self.den})"


def sigma_classes(g: Graph, a: int, b: int) -> tuple[IntPoly, IntPoly] | None:
    """The reduced denominators m+, m- of (phi(G\\a) +- P_ab) / phi(G), or
    None when a and b are not cospectral.  Requires integer weights.

    phi(G\\a) and phi(G\\b) are compared first, so a pair that is not
    cospectral costs those two charpolys only.  P_ab, up to sign, is the
    square root of phi(G\\a)**2 - phi(G) phi(G\\ab); the root with a
    positive leading coefficient is taken, and the other sign would swap
    m+ and m-.  The fractions are sum_r ((E_r)_aa +- (E_r)_ab) / (t - theta_r)
    and |(E_r)_ab| <= (E_r)_aa = (E_r)_bb, with equality exactly when
    E_r e_a = +-E_r e_b.  So m+ and m- are coprime exactly when a and b are
    strongly cospectral (Godsil and Smith, "Strongly cospectral vertices"),
    and then they are the sigma = +1 and sigma = -1 eigenvalue classes,
    each the monic product of its t - theta."""
    g._check_vertex(a)
    g._check_vertex(b)
    if a == b:
        raise ValueError("sigma classes need two distinct vertices")
    key = ("sigma", frozenset((a, b)))
    if key in g._poly_cache:
        return g._poly_cache[key]
    phi_a = charpoly_deleted(g, [a])
    classes = None
    if phi_a == charpoly_deleted(g, [b]):
        phi = charpoly(g)
        path = poly_sqrt(phi_a * phi_a - phi * charpoly_deleted(g, [a, b]))
        classes = tuple(RationalFunction(phi_a + s * path, phi).den for s in (1, -1))
    g._poly_cache[key] = classes
    return classes


def walk_gf(g: Graph, a: int) -> RationalFunction:
    """phi(G\\a) / phi(G): the closed-walk generating function at a after
    the substitution that trades the walk variable for t."""
    g._check_vertex(a)
    return RationalFunction(charpoly_deleted(g, [a]), charpoly(g))


def return_walk_gf(g: Graph, a: int) -> RationalFunction:
    """Generating function of closed walks at a that return exactly once,
    in the t domain: 1 - phi(G) / (t phi(G\\a)).

    This form is additive over vertex gluings at a, exactly.
    """
    g._check_vertex(a)
    phi = charpoly(g)
    phi_del = charpoly_deleted(g, [a])
    den = T * phi_del
    return RationalFunction(den - phi, den)


def walk_equivalent(
    phi_y1_del: IntPoly, phi_y1: IntPoly, phi_y2_del: IntPoly, phi_y2: IntPoly
) -> bool:
    """Exact test of phi(Y1\\a)/phi(Y1) == phi(Y2\\b)/phi(Y2) by
    cross multiplication."""
    return phi_y1_del * phi_y2 == phi_y2_del * phi_y1
