"""Verification suites: interlacing, equitable quotients, support
correspondence across bridges, exact identity property checks, and
exhaustive no-transfer searches."""

from __future__ import annotations

import math
import operator
import os
import random
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import exactpoly as xp
from .graphs import (
    Graph,
    _check_count,
    build_regular,
    compose,
    compose_weights,
    cone,
    marked_graphs,
    one_sum,
    serialize_graph,
)
from .pst import check_scan, pst_decision, scan_phases
from .spectral import (
    GROUPING_TOL,
    SUPPORT_TOL,
    decompose,
    eigenspaces,
    read_pairs,
    strongly_cospectral_exact,
    walk_module_matrix,
)

__all__ = [
    "check_cauchy",
    "check_weyl",
    "check_kyfan",
    "EquitabilityError",
    "QuotientPartition",
    "equitable_quotient",
    "verify_double_star_quotient_relations",
    "verify_support_correspondence_p2",
    "verify_support_correspondence_p3",
    "SCAN_THRESHOLD",
    "SearchReport",
    "search_no_pst",
    "SuiteResult",
    "run_suite",
    "SUITE_NAMES",
    "random_connected_graph",
]


# The eigenvalue and rounding-level comparisons of this module read
# spectral.GROUPING_TOL, the gap that separates eigenspaces in decompose;
# the neutrino suite's spot check reads spectral.SUPPORT_TOL.


def _eig_desc(m: np.ndarray) -> np.ndarray:
    # descending eigenvalues, from the package's one eigh
    return eigenspaces(m[None])[0][0]


def check_cauchy(a: np.ndarray, s: np.ndarray) -> bool:
    """Cauchy interlacing for B = S^T A S with S^T S = I (m columns):
    lambda_k(A) >= lambda_k(B) and the reversed-order counterpart."""
    a = np.asarray(a, dtype=float)
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or a.shape[0] != s.shape[0]:
        raise ValueError("isometry has incompatible shape")
    m = s.shape[1]
    if not np.allclose(s.T @ s, np.eye(m), atol=GROUPING_TOL):
        raise ValueError("columns are not orthonormal")
    b = s.T @ a @ s
    la = _eig_desc(a)
    lb = _eig_desc(b)
    la_up = la[::-1]
    lb_up = lb[::-1]
    for k in range(m):
        if la[k] < lb[k] - GROUPING_TOL:
            return False
        if lb_up[k] < la_up[k] - GROUPING_TOL:
            return False
    return True


def check_weyl(a: np.ndarray, b: np.ndarray) -> bool:
    """Weyl inequalities for eigenvalues of A + B, both directions."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    if a.shape != b.shape:
        raise ValueError("summands must have equal shape")
    la = _eig_desc(a)
    lb = _eig_desc(b)
    lab = _eig_desc(a + b)
    for k in range(1, n + 1):
        for i in range(1, k + 1):
            if lab[k - 1] > la[i - 1] + lb[k - i] + GROUPING_TOL:
                return False
        for i in range(k, n + 1):
            j = k - i + n
            if lab[k - 1] < la[i - 1] + lb[j - 1] - GROUPING_TOL:
                return False
    return True


def check_kyfan(a: np.ndarray, b: np.ndarray) -> bool:
    """Ky Fan partial sums: sum of the k largest eigenvalues is subadditive."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("summands must have equal shape")
    pa = np.cumsum(_eig_desc(a))
    pb = np.cumsum(_eig_desc(b))
    pab = np.cumsum(_eig_desc(a + b))
    return bool(np.all(pab <= pa + pb + GROUPING_TOL))


# ---------------------------------------------------------------------------
# equitable quotients


class EquitabilityError(ValueError):
    pass


@dataclass(frozen=True)
class QuotientPartition:
    cells: tuple[tuple[int, ...], ...]
    quotient: np.ndarray


def equitable_quotient(g: Graph, cells: list[list[int]]) -> QuotientPartition:
    """Check that ``cells`` is an equitable partition and build the
    symmetrized quotient B_ij = e_ij / sqrt(|cell_i| |cell_j|), whose
    eigenvalues are a subset of the graph's.

    A non-equitable partition is an error, not a silent result.
    """
    seen: set[int] = set()
    norm_cells = []
    for cell in cells:
        g._check_vertex(*cell)
        cl = sorted(int(v) for v in cell)
        if not cl:
            raise EquitabilityError("empty cell")
        for v in cl:
            if v in seen:
                raise EquitabilityError(f"vertex {v} appears in two cells")
            seen.add(v)
        norm_cells.append(tuple(cl))
    if len(seen) != g.n:
        raise EquitabilityError("cells do not cover every vertex")
    k = len(norm_cells)
    w = g.weights
    exact = g.integer_flag
    quotient = np.zeros((k, k))
    for i, ci in enumerate(norm_cells):
        for j, cj in enumerate(norm_cells):
            sums = [float(w[np.ix_([u], list(cj))].sum()) for u in ci]
            ref = sums[0]
            for u, s in zip(ci, sums):
                bad = (s != ref) if exact else (abs(s - ref) > GROUPING_TOL)
                if bad:
                    raise EquitabilityError(
                        f"vertex {u} breaks equitability toward cell {j}: "
                        f"{s} vs {ref}"
                    )
            quotient[i, j] = ref * math.sqrt(len(ci) / len(cj))
    quotient = 0.5 * (quotient + quotient.T)  # symmetric up to rounding
    quotient.setflags(write=False)
    return QuotientPartition(tuple(norm_cells), quotient)


def _cell_counts(g: Graph, cells) -> list[list[int]]:
    """Integer matrix B of an equitable partition: B_ij is the weight from
    one vertex of cell i into cell j."""
    w = g.int_matrix()
    return [[sum(w[ci[0]][v] for v in cj) for cj in cells] for ci in cells]


def _quotient_embeds(g: Graph, b: list[list[int]]) -> bool:
    """Whether det(tI - B) divides phi(G) exactly, as it does when B comes
    from an equitable partition of G."""
    try:
        xp.poly_divexact(xp.charpoly(g), xp._charpoly_of_rows(b))
    except xp.ExactDivisionError:
        return False
    return True


def verify_double_star_quotient_relations(k: int, n: int) -> bool:
    """Desk check of the cone-with-loop quotient algebra.

    Builds the cone over a k-regular graph on n vertices, adds a +1 and a
    -1 loop at the apex, and checks:

    * the 2x2 quotients are [[+-1, sqrt(n)], [sqrt(n), k]], with
      eigenvalue product and sum k - n, k + 1 (plus loop) and -k - n,
      k - 1 (minus loop), and the characteristic polynomial of the
      integer cell matrix [[+-1, n], [1, k]] divides phi exactly;
    * the shifted identification, eigenvalues of the minus quotient being
      exactly theta_i - 1, holds precisely when k = 0 (it forces
      (theta_1 - 1)(theta_2 - 1) = -k - n, which the quotient algebra
      only allows at k = 0).
    """
    base = build_regular(n, k)
    y = cone(base)
    rest = list(range(1, n + 1))
    # rounding of a product or sum of the quotient's eigenvalues
    tol = GROUPING_TOL * (abs(k) + n + 1)
    results = []
    thetas = None
    for sign in (+1, -1):
        yl = y.with_loop(0, sign)
        q = equitable_quotient(yl, [[0], rest]).quotient
        expected = np.array([[float(sign), math.sqrt(n)], [math.sqrt(n), float(k)]])
        ok = bool(np.allclose(q, expected, atol=GROUPING_TOL))
        lam = _eig_desc(q)
        prod_ok = abs(lam[0] * lam[1] - (sign * k - n)) <= tol
        sum_ok = abs(lam[0] + lam[1] - (k + sign)) <= tol
        embed_ok = _quotient_embeds(yl, _cell_counts(yl, [[0], rest]))
        results.append(ok and prod_ok and sum_ok and embed_ok)
        if sign == +1:
            thetas = lam
    shifted = (thetas[0] - 1.0) * (thetas[1] - 1.0)
    identification = abs(shifted - (-k - n)) <= tol
    results.append(identification == (k == 0))
    return all(results)


# ---------------------------------------------------------------------------
# support correspondence across a bridge


# For a vertex v of a graph H, phi(H\v)/phi(H) = sum_r (E_r)_vv / (t - theta_r),
# so its reduced denominator is the support polynomial of v: the product of
# t - theta over the eigenvalues whose eigenspace sees v.  The sides' classes
# are such supports (exactpoly.bridge_classes); the composition's come from
# its own walk modules (exactpoly.sigma_classes).


def _nonsupport_poly(phi: xp.IntPoly, supp: xp.IntPoly) -> xp.IntPoly:
    """prod (t - theta) over the distinct eigenvalues of H outside the support."""
    return xp.poly_divexact(xp.squarefree_part(phi), supp)


def _composite_classes(y1: Graph, a: int, y2: Graph, b: int, bridge: int):
    """Side polynomials, then the +1 class, the -1 class and the leftover
    (eigenvalues outside the support of the endpoints) of the composition,
    each as the monic product of its t - theta.

    The composite is built by ``graphs.compose`` and its classes come from
    its own walk modules (``exactpoly.sigma_classes``), not from the side
    key (``exactpoly.bridge_classes``): these suites stay an independent
    check of the bridge classes the search uses."""
    p1, p1d = xp.charpoly(y1), xp.charpoly_deleted(y1, [a])
    p2, p2d = xp.charpoly(y2), xp.charpoly_deleted(y2, [b])
    if not xp.walk_equivalent(p1d, p1, p2d, p2):
        raise ValueError("inputs are not walk equivalent")
    z, ga, gb = compose(y1, a, y2, b, bridge)
    if not strongly_cospectral_exact(z, ga, gb):
        raise ValueError("composition endpoints are not strongly cospectral")
    # the decision cached the classes.  The bridge is the only a..b path, so
    # P_ab = phi(Y1\a) phi(Y2\b) is monic: sigma_classes keeps its sign,
    # and the classes do not swap
    plus, minus = xp.sigma_classes(z, ga, gb)
    leftover = _nonsupport_poly(xp.charpoly(z), plus * minus)
    return ((p1, p1d), (p2, p2d)), plus, minus, leftover


def _divides_pool(leftover: xp.IntPoly, pool: list[xp.IntPoly]) -> bool:
    """Whether the squarefree leftover divides the product of the pool."""
    product = math.prod(pool, start=xp.IntPoly((1,)))
    return xp.poly_gcd(leftover, product).degree == leftover.degree


def verify_support_correspondence_p2(y1: Graph, a: int, y2: Graph, b: int) -> bool:
    """For walk-equivalent (y1, a), (y2, b) joined by a bridge edge, check
    that the +1 eigenvalue class equals the support of a (resp. b) in the
    graph with a +1 loop added there, the -1 class matches the -1 loop
    (``exactpoly.bridge_classes`` of each side), and every remaining
    eigenvalue of the composition is a non-support eigenvalue of one of
    the four loop graphs.

    Every set is compared as an exact polynomial (the monic product of
    its t - theta), so no eigenvalue is computed.
    """
    sides, plus, minus, leftover = _composite_classes(y1, a, y2, b, 2)
    pool = []
    for phi, phi_del in sides:
        if xp.bridge_classes(xp.RationalFunction(phi_del, phi), 2) != (plus, minus):
            return False
        for sign, cls in ((+1, plus), (-1, minus)):
            pool.append(_nonsupport_poly(xp.loop_adjusted_charpoly(phi, phi_del, sign), cls))
    return _divides_pool(leftover, pool)


def verify_support_correspondence_p3(y1: Graph, a: int, y2: Graph, b: int) -> bool:
    """Same correspondence for the two-edge bridge: the +1 class is the
    support of the attachment vertex in the sqrt(2)-pendant graph (equal
    on both sides), the -1 class is the support of a (resp. b) in y1
    (resp. y2) itself (``exactpoly.bridge_classes`` of each side), and
    leftovers are non-support eigenvalues of y1 or y2, with 0 also allowed
    whenever 0 is an eigenvalue of either pendant graph.

    Compared as exact polynomials, like the one-edge bridge.
    """
    sides, plus, minus, leftover = _composite_classes(y1, a, y2, b, 3)
    pool = []
    for phi, phi_del in sides:
        if xp.bridge_classes(xp.RationalFunction(phi_del, phi), 3) != (plus, minus):
            return False
        pool.append(_nonsupport_poly(phi, minus))
        if xp.pendant_sqrt2_charpoly(phi, phi_del)(0) == 0:
            pool.append(xp.T)
    return _divides_pool(leftover, pool)


# ---------------------------------------------------------------------------
# no-transfer searches

# A scanned fidelity at or above 1 - SCAN_THRESHOLD counts as transfer, and a
# fidelity ceiling below it rules transfer out at every t.
SCAN_THRESHOLD = 1e-6


@dataclass
class SearchReport:
    bridge: int
    max_n: int
    source: str
    instances_tested: int = 0
    strongly_cospectral_pairs: int = 0
    pst_successes: list = field(default_factory=list)
    failure_histogram: dict = field(default_factory=dict)
    bucket_settled: int = 0
    scan_checked: int = 0
    ceiling_settled: int = 0
    max_ceiling: float = 0.0
    scan_disagreements: list = field(default_factory=list)

    @property
    def nontrivial_successes(self) -> list:
        return [s for s in self.pst_successes if s["n1"] > 1 or s["n2"] > 1]

    def merge(self, other: "SearchReport") -> None:
        self.instances_tested += other.instances_tested
        self.strongly_cospectral_pairs += other.strongly_cospectral_pairs
        self.pst_successes.extend(other.pst_successes)
        for k, v in other.failure_histogram.items():
            self.failure_histogram[k] = self.failure_histogram.get(k, 0) + v
        self.bucket_settled += other.bucket_settled
        self.scan_checked += other.scan_checked
        self.ceiling_settled += other.ceiling_settled
        self.max_ceiling = max(self.max_ceiling, other.max_ceiling)
        self.scan_disagreements.extend(other.scan_disagreements)

    def to_json(self) -> dict:
        return {
            "family": {"bridge": self.bridge, "max_n": self.max_n, "source": self.source},
            "instances_tested": self.instances_tested,
            "strongly_cospectral_pairs": self.strongly_cospectral_pairs,
            "pst_successes": self.pst_successes,
            "failure_histogram": dict(sorted(self.failure_histogram.items())),
            "scan_cross_check": {
                "instances": self.scan_checked,
                "bucket_settled": self.bucket_settled,
                "ceiling_settled": self.ceiling_settled,
                "max_ceiling": self.max_ceiling,
                "disagreements": self.scan_disagreements,
            },
        }


def _side_name(g: Graph) -> str:
    """A side as the report names it: in graph6 when it is simple and
    unweighted, as an edgelist otherwise."""
    return serialize_graph(g, "graph6" if g.is_simple_unweighted else "edgelist")


def _pair_record(y1: Graph, a: int, y2: Graph, b: int, **extra) -> dict:
    names = {"y1": _side_name(y1), "a": a, "y2": _side_name(y2), "b": b}
    return {**names, "n1": y1.n, "n2": y2.n, **extra}


# composites per stacked eigh: each chunk's pairs are finished before the
# next is built, so the search's memory does not grow with a shape
_CHUNK = 4096


def _chunks(sides) -> list:
    """The search's chunks over every unordered pair of ``sides``, as
    (first, second, lo, hi): first and second are arrays of the indices of
    the sides of orders n1 <= n2 (one array when n1 = n2), and the chunk
    covers pairs lo .. hi - 1 of that shape (``_shape_pairs``)."""
    groups: dict = {}
    for i, (g, _) in enumerate(sides):
        groups.setdefault(g.n, []).append(i)
    orders = [np.array(groups[n]) for n in sorted(groups)]
    chunks = []
    for p, first in enumerate(orders):
        for second in orders[p:]:
            if first is second:
                # one order's pairs are the triangle i <= j of its sides
                size = len(first) * (len(first) + 1) // 2
            else:
                size = len(first) * len(second)
            chunks += [(first, second, lo, min(lo + _CHUNK, size)) for lo in range(0, size, _CHUNK)]
    return chunks


def _shape_pairs(first, second, ks: np.ndarray):
    """Pairs ``ks`` (ascending) of the shape (first, second) of ``_chunks``,
    as two arrays of side indices.  Across two orders pair k is
    (first[k // len(second)], second[k % len(second)]); within one it is
    (first[i], first[j]) with k = j (j + 1) / 2 + i and i <= j."""
    if first is not second:
        i, j = np.divmod(ks, len(second))
        return first[i], second[j]
    # the columns j the chunk spans, from the integer square roots of its ends
    lo, hi = ((math.isqrt(8 * int(k) + 1) - 1) // 2 for k in (ks[0], ks[-1]))
    js = np.arange(lo, hi + 1)
    j = js[np.searchsorted(js * (js + 1) // 2, ks, side="right") - 1]
    return first[ks - j * (j + 1) // 2], first[j]


def _search_part(sides, chunks, bridge, scan_cross_check, scan_t_max, scan_steps):
    """The report over ``chunks``, some of the search's ``_chunks(sides)``.

    A pair (i, j) of two sides stands for its mirror (j, i) as well, whose
    composite is the same graph relabelled: it counts twice, and its
    success or disagreement is recorded under both orders.  The rows that
    the keys and the ceiling settle are counted as arrays.  A row whose
    keys agree, or whose ceiling reaches 1 - SCAN_THRESHOLD, is decided
    from its slice of the chunk's readings (``pst.pst_decision``), and its
    fidelity scan waits with every other scan of these chunks until the
    last is done; then the scans run as one stack per grid size
    (``pst.scan_phases``)."""
    report = SearchReport(bridge=bridge, max_n=0, source="")
    keys = [xp.walk_gf(g, v) for g, v in sides]
    # each key as a small integer, so a chunk compares its pairs' keys as arrays
    ids: dict = {}
    key_ids = np.array([ids.setdefault(key, len(ids)) for key in keys])
    # each order's side weights as one stack, read at a side's place in it
    marks = np.array([v for _, v in sides])
    place = np.zeros(len(sides), dtype=np.intp)
    by_order: dict = {}
    for i, (g, _) in enumerate(sides):
        place[i] = len(by_order.setdefault(g.n, []))
        by_order[g.n].append(g.weights)
    stacks = {n: np.stack(ws) for n, ws in by_order.items()}
    # grid steps -> [(y1, a, y2, b, mirrored, reading, t_max, pst_time or None for a failure)]
    scans: dict = {}
    for first, second, lo, hi in chunks:
        i1, i2 = _shape_pairs(first, second, np.arange(lo, hi))
        n1, n2 = sides[first[0]][0].n, sides[second[0]][0].n
        ends1, ends2 = marks[i1], marks[i2]
        w1, w2 = stacks[n1][place[i1]], stacks[n2][place[i2]]
        # one eigh for the chunk's composites, then every pair's numbers at
        # once; the second side's labels are shifted by n1
        _, vectors, _, starts, thetas = eigenspaces(compose_weights(w1, ends1, w2, ends2, bridge))
        readings = read_pairs(thetas, vectors, starts, ends1, n1 + ends2)
        ceilings = readings.ceilings
        weights = np.where(i1 == i2, 1, 2)
        same = key_ids[i1] == key_ids[i2]
        report.instances_tested += int(weights.sum())
        # a and b are not cospectral in Z: decided by the keys
        report.bucket_settled += int(weights[~same].sum())
        # 1 - C <= 2 d SUPPORT_TOL**2 on a numeric "strongly cospectral", so a
        # cross-bucket pair below the threshold cannot read one, and no t,
        # inside the scan window or beyond it, can reach the threshold
        decided = same | (ceilings >= 1.0 - SCAN_THRESHOLD)
        settled = int(weights[~decided].sum())
        if settled:
            report.max_ceiling = max(report.max_ceiling, float(ceilings[~decided].max()))
            hist = report.failure_histogram
            hist["not_strongly_cospectral"] = hist.get("not_strongly_cospectral", 0) + settled
            if scan_cross_check:
                report.scan_checked += settled
                report.ceiling_settled += settled
        for row in np.flatnonzero(decided).tolist():
            i, j, ceiling = int(i1[row]), int(i2[row]), float(ceilings[row])
            weight = int(weights[row])
            (y1, a), (y2, b) = sides[i], sides[j]
            if not same[row] and strongly_cospectral_exact(*compose(y1, a, y2, b, bridge)):
                raise RuntimeError(
                    "side keys differ but the composite is strongly cospectral: "
                    f"{_pair_record(y1, a, y2, b)}"
                )
            # the classes come from the key (None across buckets, so a
            # numeric "strongly cospectral" raises), every number from the
            # chunk's readings
            classes = xp.bridge_classes(keys[i], bridge) if same[row] else None
            reading = readings[row]
            cert = pst_decision(classes, reading, a, n1 + b)
            reason = cert.failure_reason
            pair = (y1, a, y2, b, i != j, reading)
            if reason == "not_strongly_cospectral":
                report.max_ceiling = max(report.max_ceiling, ceiling)
            else:
                report.strongly_cospectral_pairs += weight
                # strong cospectrality makes the ceiling exactly 1
                if ceiling < 1.0 - SCAN_THRESHOLD:
                    raise RuntimeError(
                        f"strongly cospectral pair has fidelity ceiling {ceiling}: "
                        f"{_pair_record(y1, a, y2, b)}"
                    )
            if cert.success:
                t_max = max(2.5 * cert.pst_time, 1.0)
                scans.setdefault(max(scan_steps, 2000), []).append((*pair, t_max, cert.pst_time))
                continue
            report.failure_histogram[reason] = report.failure_histogram.get(reason, 0) + weight
            if not scan_cross_check:
                continue
            report.scan_checked += weight
            scans.setdefault(scan_steps, []).append((*pair, scan_t_max, None))
        # this chunk's eigenvectors go before the next ones are made
        del vectors
    for steps, batch in scans.items():
        *_, readings, t_max, _ = zip(*batch)
        ts, fs = scan_phases(readings, t_max, steps)
        for (y1, a, y2, b, mirrored, *_, pst_time), t_best, f_best in zip(
            batch, ts.tolist(), fs.tolist()
        ):
            # |U_ab(t)| = |U_ba(t)|, so the mirror reads the same scan
            orders = [(y1, a, y2, b), (y2, b, y1, a)][: 1 + mirrored]
            if pst_time is not None:
                if f_best < 1.0 - SCAN_THRESHOLD:
                    raise RuntimeError(
                        f"certificate success not confirmed by scan: "
                        f"{_pair_record(y1, a, y2, b)}, max fidelity {f_best}"
                    )
                report.pst_successes += [
                    _pair_record(*names, pst_time=pst_time, scan_peak=f_best) for names in orders
                ]
            elif f_best >= 1.0 - SCAN_THRESHOLD:
                # approximate transfer can creep arbitrarily close to 1, so
                # only a violation of the certificate threshold counts
                report.scan_disagreements += [
                    _pair_record(*names, scan_peak=f_best, scan_t=t_best) for names in orders
                ]
    return report


def search_no_pst(
    bridge: int,
    max_n: int,
    graph_source=None,
    scan_cross_check: bool = True,
    scan_t_max: float = 30.0,
    scan_steps: int = 6000,
    jobs: int = 1,
) -> SearchReport:
    """Exhaustively test perfect state transfer across a bridge.

    Every ordered pair of marked graphs (connected, one representative per
    rooted isomorphism class up to ``max_n`` vertices, or the pairs yielded
    by ``graph_source``, whose sides must be connected, have integer weights,
    an integer mark in range and, for a positive ``max_n``, at most
    ``max_n`` vertices, or the search raises ``ValueError`` before any
    work) is joined over a
    bridge with ``bridge`` path vertices (2 or 3).  Joining (Y2, b) to
    (Y1, a) gives the composite of (Y1, a) and (Y2, b) relabelled, and
    everything the search reads is symmetric in a and b, so each unordered
    pair is composed, decomposed and decided once.  A pair of two sides
    stands for both orders: it adds 2 to every counter, and its success or
    disagreement is listed under both orders with the same numbers.  Each
    side (Y, v) gets one exact key, the reduced phi(Y\\v) / phi(Y); a pair
    whose sides differ in it is not even cospectral in the composite, so it
    fails as not strongly cospectral with no composite Graph and no
    polynomial (``bucket_settled``).  No list of pairs is built: the sides
    are grouped by order, the unordered pairs of each (n1, n2) shape,
    n1 <= n2 (for n1 = n2 the triangle i <= j of the sides), are read in
    chunks of at most 4096, each pair recovered from its index, and each
    chunk's composites go through one stacked ``eigh``, read once
    (``spectral.read_pairs``), which gives every pair its fidelity ceiling
    C.  Pairs with equal keys are certified (``pst.pst_decision``), their
    sigma classes taken from the key (``exactpoly.bridge_classes``) and
    every number from their slice of the chunk's readings, whose numeric
    decision ``spectral.pair_signature`` checks against the classes.  A
    numeric "strongly cospectral" forces 1 - C <= 2 d SUPPORT_TOL**2, so
    only a pair the keys settled with C >= 1 - SCAN_THRESHOLD is
    cross-checked: it is read from its slice the same way, with no
    classes, so a numeric "strongly cospectral" raises, and it is
    composed, the only composite Graph the search builds, for the exact
    decision ``spectral.strongly_cospectral_exact``, which raises when
    True.
    Certified successes are re-verified by a fidelity scan.  Failures are
    optionally cross-checked.  The scans run after a worker's last chunk,
    as one stack per grid size (``pst.scan_phases``); a ``scan_t_max``
    that is not positive and finite, a ``scan_steps`` or a ``jobs`` that
    is not an integer of at least 1, or a ``max_n`` that is not an integer
    of at least 0, raises ``ValueError`` before any work.
    The fidelity ceiling bounds the fidelity at every t, so a ceiling below
    1 - SCAN_THRESHOLD settles the failure; otherwise, as on every strongly
    cospectral pair, a bounded scan runs, and a fidelity at or above
    1 - SCAN_THRESHOLD is recorded as a disagreement (approximate transfer
    peaks below that stay silent).  A strongly cospectral pair whose
    ceiling is below 1 - SCAN_THRESHOLD raises.  ``max_ceiling`` is read
    on the order the search composes.  Successes and disagreements are
    sorted by (n1, n2, y1, a, y2, b), so ``jobs`` does not change the
    report.  The chunks are planned once; worker i of w = min(jobs, chunks,
    CPUs) processes is sent the side list and chunks i, i + w, ... of the
    plan, and a serial run reads every chunk.
    """
    xp._check_bridge(bridge)
    _check_count("max_n", max_n, 0)
    check_scan(scan_t_max, scan_steps)
    _check_count("jobs", jobs, 1)
    if graph_source is None:
        marked = list(marked_graphs(max_n))
        source = "builtin"
    else:
        marked = list(graph_source)
        for g, v in marked:
            for bad, problem in (
                (not g.integer_flag, "has non-integer weights"),
                (not g.is_connected(), "is disconnected"),
                (0 < max_n < g.n, f"has {g.n} vertices, above max_n {max_n}"),
            ):
                if bad:
                    raise ValueError(
                        "search needs integer weights, connected sides and at most max_n "
                        f"vertices; side {_side_name(g)!r} {problem}"
                    )
            g._check_vertex(v)
        source = "stream"
    chunks = _chunks(marked)
    # a fork pool starts all its workers at once, so never ask for idle ones
    workers = min(jobs, len(chunks), os.cpu_count() or 1)
    args = (bridge, scan_cross_check, scan_t_max, scan_steps)
    report = SearchReport(bridge=bridge, max_n=max_n, source=source)
    if workers <= 1:
        report.merge(_search_part(marked, chunks, *args))
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_search_part, marked, chunks[i::workers], *args)
                for i in range(workers)
            ]
            for fut in futures:
                report.merge(fut.result())
    order = operator.itemgetter("n1", "n2", "y1", "a", "y2", "b")
    report.pst_successes.sort(key=order)
    report.scan_disagreements.sort(key=order)
    return report


# ---------------------------------------------------------------------------
# randomized exact identity suites


# each edge of a random graph is drawn with this probability
_EDGE_P = 0.45


def random_connected_graph(
    rng: random.Random, n: int, weighted: bool = False, loops: bool = False
) -> Graph:
    """Random connected graph on n vertices; optional small integer edge
    weights and loops.  Edge draws repeat until the graph is connected,
    which the component labels tracked while drawing tell."""
    _check_count("n", n, 0)
    if n == 1:
        w = np.zeros((1, 1))
        if loops and rng.random() < 0.3:
            w[0, 0] = rng.choice([-1, 1, 2])
        return Graph(w)
    while True:
        w, label, parts = np.zeros((n, n)), list(range(n)), n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < _EDGE_P:
                    wt = rng.choice([-2, -1, 1, 2, 3]) if weighted else 1
                    w[i, j] = w[j, i] = wt
                    if label[i] != label[j]:
                        old, new = label[j], label[i]
                        label = [new if x == old else x for x in label]
                        parts -= 1
        if parts <= 1:
            break
    if loops:
        for v in range(n):
            if rng.random() < 0.2:
                w[v, v] = rng.choice([-1, 1, 2])
    return Graph(w)


@dataclass
class SuiteResult:
    name: str
    instances: int
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "suite": self.name,
            "instances": self.instances,
            "passed": self.passed,
            "failures": self.failures[:20],
        }


def _record(result: SuiteResult, ok: bool, detail: str) -> None:
    if not ok:
        result.failures.append(detail)


def _random_gluing(rng: random.Random) -> tuple[Graph, int, Graph, int]:
    """Two random connected sides of 1 to 4 vertices, with integer weights
    and loops, and a vertex of each to glue them at."""
    n1 = rng.randint(1, 4)
    n2 = rng.randint(1, 4)
    y1 = random_connected_graph(rng, n1, weighted=True, loops=True)
    y2 = random_connected_graph(rng, n2, weighted=True, loops=True)
    return y1, rng.randrange(n1), y2, rng.randrange(n2)


def check_onesum_instance(rng: random.Random) -> bool:
    """Exact gluing identity on a random pair of graphs."""
    y1, b1, y2, b2 = _random_gluing(rng)
    z, b = one_sum(y1, b1, y2, b2)
    lhs = xp.charpoly(z)
    rhs = xp.one_sum_charpoly(
        xp.charpoly(y1),
        xp.charpoly_deleted(y1, [b1]),
        xp.charpoly(y2),
        xp.charpoly_deleted(y2, [b2]),
    )
    return lhs == rhs


def check_pathsum_instance(rng: random.Random) -> bool:
    """Squared path sum equals the deleted-charpoly determinant combination."""
    n = rng.randint(2, 8)
    g = random_connected_graph(rng, n, weighted=rng.random() < 0.4, loops=rng.random() < 0.3)
    a, b = rng.sample(range(n), 2)
    ps = xp.path_sum_poly(g, a, b)
    lhs = ps * ps
    rhs = xp.charpoly_deleted(g, [a]) * xp.charpoly_deleted(g, [b]) - xp.charpoly(
        g
    ) * xp.charpoly_deleted(g, [a, b])
    return lhs == rhs


def check_bridge_factorization_instance(rng: random.Random) -> bool:
    """With walk-equivalent halves the bridge charpoly splits into the two
    loop-adjusted factors."""
    n = rng.randint(1, 4)
    y1 = random_connected_graph(rng, n, weighted=rng.random() < 0.3)
    a = rng.randrange(n)
    perm = list(range(n))
    rng.shuffle(perm)
    y2 = y1.relabeled(perm)
    b = perm[a]
    p1, p1d = xp.charpoly(y1), xp.charpoly_deleted(y1, [a])
    p2, p2d = xp.charpoly(y2), xp.charpoly_deleted(y2, [b])
    if not xp.walk_equivalent(p1d, p1, p2d, p2):
        return False
    z, ga, gb = compose(y1, a, y2, b, 2)
    lhs = xp.charpoly(z)
    if lhs != xp.bridge_charpoly_p2(p1, p1d, p2, p2d):
        return False
    factored = xp.loop_adjusted_charpoly(p1, p1d, -1) * xp.loop_adjusted_charpoly(
        p2, p2d, +1
    )
    # (phi1 + phi1d)(phi2 - phi2d) with signs swapped is the same product
    return lhs == factored


def check_gf_additivity_instance(rng: random.Random) -> bool:
    """Return-walk generating function is additive over vertex gluings."""
    y1, b1, y2, b2 = _random_gluing(rng)
    z, b = one_sum(y1, b1, y2, b2)
    lhs = xp.return_walk_gf(z, b)
    rhs = xp.return_walk_gf(y1, b1) + xp.return_walk_gf(y2, b2)
    return lhs == rhs


def suite_onesum(instances: int = 200, seed: int = 20240801) -> SuiteResult:
    """Exact identity checks built on the vertex-gluing recurrence: the
    gluing charpoly itself, the bridge factorization under walk
    equivalence, and generating-function additivity."""
    rng = random.Random(seed)
    result = SuiteResult("onesum", instances * 3)
    for i in range(instances):
        _record(result, check_onesum_instance(rng), f"onesum #{i}")
        _record(result, check_bridge_factorization_instance(rng), f"bridge-factorization #{i}")
        _record(result, check_gf_additivity_instance(rng), f"gf-additivity #{i}")
    return result


def suite_neutrino(instances: int = 200, seed: int = 20240802) -> SuiteResult:
    """Exact path-sum identity plus spot agreement between the polynomial
    projector entries and the numeric decomposition."""
    rng = random.Random(seed)
    result = SuiteResult("neutrino", instances)
    from .spectral import projector_entry_via_neutrino

    for i in range(instances):
        if not check_pathsum_instance(rng):
            result.failures.append(f"path-sum #{i}")
            continue
        if i % 10 == 0:
            n = rng.randint(2, 6)
            g = random_connected_graph(rng, n)
            a, b = rng.sample(range(n), 2)
            reading = decompose(g).pair(a, b)
            for th, entry in zip(reading.thetas, reading.ab):
                got = projector_entry_via_neutrino(g, a, b, th)
                if abs(got - float(entry)) > SUPPORT_TOL:
                    result.failures.append(f"projector-entry #{i} theta={th}")
    return result


def suite_interlacing(instances: int = 200, seed: int = 20240803) -> SuiteResult:
    """Cauchy interlacing on deletion isometries, Weyl and Ky Fan on random
    pairs, plus the loop-perturbation consequence on walk-module matrices."""
    rng = random.Random(seed)
    nprng = np.random.default_rng(seed)
    result = SuiteResult("interlacing", instances * 3)
    for i in range(instances):
        n = rng.randint(2, 10)
        g = random_connected_graph(rng, n, weighted=rng.random() < 0.5)
        keep = sorted(rng.sample(range(n), rng.randint(1, n - 1)))
        s = np.zeros((n, len(keep)))
        for col, v in enumerate(keep):
            s[v, col] = 1.0
        _record(result, check_cauchy(g.weights, s), f"cauchy #{i}")

        m = rng.randint(2, 8)
        a = nprng.normal(size=(m, m))
        a = a + a.T
        b = nprng.normal(size=(m, m))
        b = b + b.T
        _record(result, check_weyl(a, b), f"weyl #{i}")
        _record(result, check_kyfan(a, b), f"kyfan #{i}")

        if i % 10 == 0:
            v = rng.randrange(n)
            t = walk_module_matrix(g, v)
            e0 = np.zeros_like(t)
            e0[0, 0] = 1.0
            up = _eig_desc(t + e0)
            down = _eig_desc(t - e0)
            _record(result, bool(np.all(up >= down - GROUPING_TOL)), f"loop-shift #{i}")
    return result


def suite_quotient() -> SuiteResult:
    """Equitable quotient spectra embed in the graph spectra (exact
    divisibility of characteristic polynomials); the cone quotient algebra
    behaves as derived."""
    result = SuiteResult("quotient", 0)
    from .graphs import build_double_star, build_star

    cases = []
    for k in range(1, 6):
        g = build_star(k)
        cases.append((g, [[0], list(range(1, k + 1))]))
    for k in range(1, 4):
        g, a, b = build_double_star(k, k)
        leaves1 = list(range(1, k + 1))
        leaves2 = list(range(k + 2, 2 * k + 2))
        cases.append((g, [[a], leaves1, [b], leaves2]))
    for g, cells in cases:
        result.instances += 1
        q = equitable_quotient(g, cells)
        _record(result, _quotient_embeds(g, _cell_counts(g, q.cells)), f"embed {cells}")
    for n in range(1, 7):
        for k in range(0, n):
            if (n * k) % 2:
                continue
            result.instances += 1
            _record(
                result,
                verify_double_star_quotient_relations(k, n),
                f"cone relations n={n} k={k}",
            )
    return result


def suite_correspondence(bridge: int, max_n: int) -> SuiteResult:
    """Support correspondence across the bridge for every marked graph
    composed with an isomorphic copy of itself."""
    name = f"correspondence-p{bridge}"
    result = SuiteResult(name, 0)
    fn = verify_support_correspondence_p2 if bridge == 2 else verify_support_correspondence_p3
    for g, v in marked_graphs(max_n):
        result.instances += 1
        ok = fn(g, v, g, v)
        _record(result, ok, f"{serialize_graph(g, 'graph6')} root {v}")
    return result


# each suite's function, then each run_suite option it reads, mapped to the
# function's parameter that takes it; a correspondence suite reads
# ``instances`` as its largest side order, 4 unless given
_SIZED = {"instances": "instances", "seed": "seed"}
_SUITES = {
    "interlacing": (suite_interlacing, _SIZED),
    "neutrino": (suite_neutrino, _SIZED),
    "onesum": (suite_onesum, _SIZED),
    **{
        f"correspondence-p{bridge}": (
            partial(suite_correspondence, bridge, max_n=4),
            {"instances": "max_n"},
        )
        for bridge in (2, 3)
    },
    "quotient": (suite_quotient, {}),
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, instances: int | None = None, seed: int | None = None) -> SuiteResult:
    """Dispatch a named verification suite with its default sizing, or with
    ``instances`` (an integer of at least 1) in its place.  An option the
    suite does not read is refused: ``instances`` and ``seed`` for
    ``quotient``, ``seed`` for the correspondence suites."""
    if instances is not None:
        _check_count("instances", instances, 1)
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    fn, reads = _SUITES[name]
    kwargs = {}
    for option, value in (("instances", instances), ("seed", seed)):
        if value is not None:
            if option not in reads:
                raise ValueError(f"suite {name} takes no {option}")
            kwargs[reads[option]] = value
    return fn(**kwargs)
