"""Weighted graphs, named families, bridge compositions, and serialization.

Vertices are integers 0..n-1.  Weights live in a symmetric real matrix;
diagonal entries are loop weights.  Graphs are immutable once built, so
they can be shared freely between the exact and numeric layers.
"""

from __future__ import annotations

import itertools
import math
import numbers
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "CANONICAL_MAX_N",
    "Graph",
    "GraphParseError",
    "build_path",
    "build_cycle",
    "build_complete",
    "build_star",
    "build_regular",
    "cone",
    "build_double_star",
    "build_extended_double_star",
    "compose",
    "compose_weights",
    "one_sum",
    "iter_ab_paths",
    "parse_graph",
    "serialize_graph",
    "canonical_key",
    "automorphism_orbits",
    "connected_graphs",
    "marked_graphs",
]


class GraphParseError(ValueError):
    """Malformed graph text.  Carries the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _is_integer(x) -> bool:
    """Whether x is an integer (numpy integers too, bools not)."""
    return not isinstance(x, bool) and isinstance(x, numbers.Integral)


def _check_count(name: str, value, least: int) -> None:
    """``value`` an integer of at least ``least``, or ValueError naming it."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


def _check_vertices(n: int, vertices: Iterable[int]) -> None:
    """Every vertex an integer (``_is_integer``) in 0..n-1, or ValueError."""
    for v in vertices:
        if not _is_integer(v):
            raise ValueError(f"vertex {v!r} is not an integer")
        if not (0 <= v < n):
            raise ValueError(f"vertex {v} out of range for n={n}")


def _exact_weight(x) -> float:
    """x as a float64, or ValueError when x is not finite or is an integer
    that float64 does not hold exactly (rounding would give another graph)."""
    try:
        f = float(x)
    except OverflowError:  # an integer beyond float64's range
        f = math.inf
    if _is_integer(x) and int(x) != f:
        raise ValueError(f"integer weight {x} is not exact in float64")
    if not math.isfinite(f):
        raise ValueError("weights must be finite")
    return f


def _exact_weights(weights) -> None:
    """Every entry of the nested sequence ``weights`` through ``_exact_weight``."""
    for x in np.array(weights, dtype=object).ravel().tolist():
        _exact_weight(x)


def _loop_sum(old: float, weight) -> float:
    """The loop weight ``old`` plus ``weight``: the weight and the total,
    summed exactly between integers, go through ``_exact_weight``."""
    f = _exact_weight(weight)
    exact = old.is_integer() and f.is_integer()
    return _exact_weight(int(old) + int(f) if exact else old + f)


def _add_edge(w: np.ndarray, u, v, weight, loop: bool = False) -> None:
    """Put the edge u-v of ``weight`` (with ``loop``, the loop at u = v) into
    w, a weight matrix with NaN (never a weight) where nothing is put yet, or
    ValueError: vertices by ``_check_vertices``, the weight by
    ``_exact_weight``, no self edge outside a loop, no zero-weight edge, and
    a repeat only with the weight given before."""
    _check_vertices(len(w), (u, v))
    if u == v and not loop:
        raise ValueError("self edge; give it as a loop")
    f = _exact_weight(weight)
    if f == 0 and not loop:
        raise ValueError("zero-weight edge")
    if not (math.isnan(w[u, v]) or w[u, v] == f):
        what = f"loop {u}" if loop else f"edge {min(u, v), max(u, v)}"
        raise ValueError(f"conflicting weights for {what}")
    w[u, v] = w[v, u] = f


class Graph:
    """Symmetric weighted adjacency structure.

    ``integer_flag`` is true when every weight is exactly an integer, which
    is what the exact polynomial layer requires (``_check_integer``).
    """

    __slots__ = ("weights", "_integer", "_poly_cache")

    def __init__(self, weights):
        try:
            w = np.array(weights, dtype=float)
        except OverflowError:  # an integer beyond float64's range
            _exact_weights(weights)
            raise
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("weight matrix must be square")
        if w.shape[0] < 1:
            raise ValueError("a graph needs at least one vertex")
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        if not np.array_equal(w, w.T):
            raise ValueError("weight matrix must be symmetric")
        if not (isinstance(weights, np.ndarray) and weights.dtype.kind == "f"):
            _exact_weights(weights)
        w.setflags(write=False)
        self.weights = w
        self._integer = bool(np.all(w == np.round(w)))
        self._poly_cache: dict = {}

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple] = (),
        loops: Iterable[tuple[int, float]] = (),
    ) -> "Graph":
        """Build from ``(u, v)`` or ``(u, v, w)`` edge tuples plus loop weights."""
        _check_count("n", n, 0)
        w = np.full((n, n), np.nan)
        for e in edges:
            _add_edge(w, *(e if len(e) == 3 else (*e, 1.0)))
        for u, wt in loops:
            _add_edge(w, u, u, wt, loop=True)
        return cls(np.nan_to_num(w))

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def integer_flag(self) -> bool:
        return self._integer

    @property
    def is_simple_unweighted(self) -> bool:
        w = self.weights
        off_ok = bool(np.all((w == 0) | (w == 1)))
        return off_ok and bool(np.all(np.diag(w) == 0))

    def int_matrix(self) -> list[list[int]]:
        """Weights as exact Python integers (``_check_integer``)."""
        self._check_integer()
        return [[int(x) for x in row] for row in self.weights.tolist()]

    def neighbors(self, u: int) -> list[int]:
        return [v for v in range(self.n) if v != u and self.weights[u, v] != 0]

    def degree(self, u: int) -> int:
        return len(self.neighbors(u))

    def edges(self) -> list[tuple[int, int, float]]:
        """Off-diagonal edges as (u, v, w) with u < v."""
        out = []
        for u in range(self.n):
            for v in range(u + 1, self.n):
                if self.weights[u, v] != 0:
                    out.append((u, v, float(self.weights[u, v])))
        return out

    def loops(self) -> list[tuple[int, float]]:
        return [(u, float(self.weights[u, u])) for u in range(self.n) if self.weights[u, u] != 0]

    def with_loop(self, v: int, weight: float) -> "Graph":
        """New graph with ``weight`` added to the loop at v (``_loop_sum``)."""
        self._check_vertex(v)
        w = self.weights.copy()
        w[v, v] = _loop_sum(w[v, v], weight)
        return Graph(w)

    def delete(self, vertices: Iterable[int]) -> "Graph":
        """Induced subgraph on the complement of ``vertices`` (must be proper)."""
        gone = set(vertices)
        self._check_vertex(*gone)
        keep = [v for v in range(self.n) if v not in gone]
        if not keep:
            raise ValueError("cannot delete every vertex; the empty graph is not representable")
        return Graph(self.weights[np.ix_(keep, keep)])

    def relabeled(self, perm: Sequence[int]) -> "Graph":
        """Graph with vertex i renamed perm[i]."""
        self._check_vertex(*perm)
        if sorted(perm) != list(range(self.n)):
            raise ValueError("not a permutation")
        w = np.zeros_like(self.weights)
        p = np.asarray(perm)
        w[p[:, None], p] = self.weights
        return Graph(w)

    def is_connected(self) -> bool:
        return len(_reach(self.weights.tolist(), 0)) == self.n

    def articulation_points(self) -> set[int]:
        """Cut vertices: those whose removal splits their component, so that
        one neighbour no longer reaches all the others."""
        w = self.weights.tolist()
        return {
            v
            for v in range(self.n)
            for u in self.neighbors(v)[:1]
            if len(_reach(w, u, v)) < len(_reach(w, v)) - 1
        }

    def _check_vertex(self, *vertices: int) -> None:
        _check_vertices(self.n, vertices)

    def _check_pair(self, a: int, b: int, message: str) -> None:
        """Both vertices in range and distinct, or ValueError(message)."""
        self._check_vertex(a, b)
        if a == b:
            raise ValueError(message)

    def _check_integer(self) -> None:
        """Every weight an integer, or ValueError: the exact layer's one refusal,
        made by its readers of exact weights, ``int_matrix`` and ``exactpoly._adjacency``."""
        if not self._integer:
            raise ValueError(
                "graph has non-integer weights; the exact layer needs integer weights"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.weights, other.weights)

    def __hash__(self):
        return hash((self.n, self.weights.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()}, loops={self.loops()})"

    # immutable payload, safe to pickle by value; unpickling builds the
    # graph as the constructor does, with its checks
    def __getstate__(self):
        return np.asarray(self.weights)

    def __setstate__(self, state):
        self.__init__(state)


def _reach(w: list[list[float]], start: int, gone: int | None = None) -> set[int]:
    """Vertices reachable from ``start`` in the graph of weights w with
    ``gone`` removed, by depth-first search."""
    seen = {start, gone}
    stack = [start]
    while stack:
        new = [v for v, x in enumerate(w[stack.pop()]) if x and v not in seen]
        seen.update(new)
        stack += new
    return seen - {gone}


# ---------------------------------------------------------------------------
# named families


def build_path(n: int) -> Graph:
    """Path P_n."""
    _check_count("n", n, 1)
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def build_cycle(n: int) -> Graph:
    _check_count("n", n, 3)
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def build_complete(n: int) -> Graph:
    _check_count("n", n, 1)
    return Graph.from_edges(n, itertools.combinations(range(n), 2))


def build_star(k: int) -> Graph:
    """Star with k leaves, centre at vertex 0.  k = 0 gives a single vertex."""
    _check_count("k", k, 0)
    return Graph.from_edges(k + 1, [(0, i) for i in range(1, k + 1)])


def build_regular(n: int, k: int) -> Graph:
    """A k-regular graph on n vertices (circulant construction).

    Raises when no k-regular graph on n vertices exists.
    """
    _check_count("n", n, 1)
    _check_count("k", k, 0)
    if k >= n or (n * k) % 2 == 1:
        raise ValueError(f"no {k}-regular graph on {n} vertices")
    edges = set()
    if k % 2 == 0:
        offsets = range(1, k // 2 + 1)
    else:
        offsets = range(1, (k - 1) // 2 + 1)
        for i in range(n // 2):
            edges.add((i, i + n // 2))
    for d in offsets:
        for i in range(n):
            j = (i + d) % n
            edges.add((min(i, j), max(i, j)))
    g = Graph.from_edges(n, edges)
    if any(g.degree(v) != k for v in range(n)):
        raise ValueError(f"no {k}-regular circulant on {n} vertices")
    return g


def cone(g: Graph) -> Graph:
    """Join a new apex vertex (index 0) to every vertex of g."""
    n = g.n
    w = np.zeros((n + 1, n + 1))
    w[1:, 1:] = g.weights
    w[0, 1:] = 1.0
    w[1:, 0] = 1.0
    return Graph(w)


def build_double_star(k: int, ell: int) -> tuple[Graph, int, int]:
    """Two stars with k and ell leaves, centres joined by an edge.

    Returns (graph, a, b) with a, b the centres.
    """
    return compose(build_star(k), 0, build_star(ell), 0, 2)


def build_extended_double_star(k: int, ell: int) -> tuple[Graph, int, int]:
    """Two stars with centres joined by a path with one middle vertex."""
    return compose(build_star(k), 0, build_star(ell), 0, 3)


# ---------------------------------------------------------------------------
# compositions


def compose(
    y1: Graph, a: int, y2: Graph, b: int, bridge_path_vertices: int = 2
) -> tuple[Graph, int, int]:
    """Join y1 and y2 by a path on ``bridge_path_vertices`` vertices whose
    endpoints are a in y1 and b in y2.

    Vertex layout: y1 keeps its labels, y2 is shifted by n1, the internal
    path vertices (if any) come last.  Returns (graph, a, b) in the new
    labelling.
    """
    y1._check_vertex(a)
    y2._check_vertex(b)
    w = compose_weights(y1.weights[None], [a], y2.weights[None], [b], bridge_path_vertices)
    return Graph(w[0]), a, y1.n + b


def compose_weights(
    w1: np.ndarray, a, w2: np.ndarray, b, bridge_path_vertices: int = 2
) -> np.ndarray:
    """The weight matrices of ``compose`` for a stack of side pairs, in its
    vertex layout: w1 of shape (k, n1, n1) and w2 of shape (k, n2, n2) with
    endpoints a[i] in w1[i] and b[i] in w2[i] give shape (k, n, n), n = n1 + n2
    + bridge_path_vertices - 2."""
    _check_count("bridge_path_vertices", bridge_path_vertices, 2)
    m = bridge_path_vertices
    count, n1, n2 = len(w1), w1.shape[-1], w2.shape[-1]
    n = n1 + n2 + m - 2
    w = np.zeros((count, n, n))
    w[:, :n1, :n1] = w1
    w[:, n1 : n1 + n2, n1 : n1 + n2] = w2
    rows = np.arange(count)
    chain = [np.asarray(a)] + [n1 + n2 + i for i in range(m - 2)] + [n1 + np.asarray(b)]
    for u, v in zip(chain, chain[1:]):
        w[rows, u, v] = 1.0
        w[rows, v, u] = 1.0
    return w


def one_sum(y1: Graph, b1: int, y2: Graph, b2: int) -> tuple[Graph, int]:
    """Identify vertex b1 of y1 with vertex b2 of y2 (vertex gluing).

    Loop weights at the glued vertex add (``_loop_sum``).  Returns (graph,
    b) with b the glued vertex in the new labelling (y1 keeps its labels,
    the rest of y2 follows).
    """
    y1._check_vertex(b1)
    y2._check_vertex(b2)
    n1, n2 = y1.n, y2.n
    n = n1 + n2 - 1
    w = np.zeros((n, n))
    w[:n1, :n1] = y1.weights
    # y2's vertices in the new labelling: b2 lands on b1, the rest follow y1
    pos = np.array([*range(n1, n1 + b2), b1, *range(n1 + b2, n)])
    w[pos[:, None], pos] += y2.weights
    w[b1, b1] = _loop_sum(y1.weights[b1, b1], y2.weights[b2, b2])
    return Graph(w), b1


# ---------------------------------------------------------------------------
# path enumeration


def iter_ab_paths(g: Graph, a: int, b: int) -> Iterator[tuple[int, ...]]:
    """All simple a..b paths as vertex sequences, in DFS order with
    ascending neighbor exploration."""
    g._check_pair(a, b, "path endpoints must differ")
    path = [a]
    on_path = {a}

    def walk(u: int) -> Iterator[tuple[int, ...]]:
        if u == b:
            yield tuple(path)
            return
        for v in sorted(g.neighbors(u)):
            if v not in on_path:
                path.append(v)
                on_path.add(v)
                yield from walk(v)
                path.pop()
                on_path.remove(v)

    yield from walk(a)


# ---------------------------------------------------------------------------
# serialization


def _format_weight(w: float) -> str:
    if float(w).is_integer():
        return str(int(w))
    return repr(float(w))


def serialize_graph(g: Graph, fmt: str = "edgelist") -> str:
    """Canonical text form.  Edgelist carries weights and loops; graph6
    accepts simple unweighted graphs only."""
    if fmt == "edgelist":
        edges = g.edges()
        lines = [f"{g.n} {len(edges)}"]
        for u, v, w in edges:
            if w == 1.0:
                lines.append(f"{u} {v}")
            else:
                lines.append(f"{u} {v} {_format_weight(w)}")
        for u, w in g.loops():
            lines.append(f"loop {u} {_format_weight(w)}")
        return "\n".join(lines) + "\n"
    if fmt == "graph6":
        return _graph6_encode(g)
    raise ValueError(f"unknown format {fmt!r}")


def parse_graph(text: str, fmt: str = "edgelist") -> Graph:
    if fmt == "edgelist":
        return _parse_edgelist(text)
    if fmt == "graph6":
        return _graph6_decode(text)
    raise ValueError(f"unknown format {fmt!r}")


def _number(token: str) -> int | float:
    """An integer-literal token as an int (``_exact_weight``), any other as a float."""
    try:
        return int(token)
    except ValueError:
        return float(token)


def _parse_edgelist(text: str) -> Graph:
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(text.splitlines()) if ln.strip()]
    if not lines:
        raise GraphParseError("empty input")
    lno, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise GraphParseError("header must be 'n m'", lno)
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphParseError("header must be two integers", lno) from None
    if n < 1 or m < 0:
        raise GraphParseError("header out of range", lno)
    if len(lines) - 1 < m:
        raise GraphParseError(f"expected {m} edge lines", lno)
    w = np.full((n, n), np.nan)
    # m edge lines, then loop lines, each put by _add_edge
    for i, (lno, ln) in enumerate(lines[1:]):
        parts = ln.split()
        loop = i >= m
        if loop and (len(parts) != 3 or parts[0] != "loop"):
            raise GraphParseError("expected 'loop u w'", lno)
        if not loop and len(parts) not in (2, 3):
            raise GraphParseError("edge line must be 'u v' or 'u v w'", lno)
        u, v, wt = (parts[1], parts[1], parts[2]) if loop else (*parts, "1")[:3]
        try:
            entry = int(u), int(v), _number(wt)
        except ValueError:
            raise GraphParseError(f"malformed {'loop' if loop else 'edge'} line", lno) from None
        try:
            _add_edge(w, *entry, loop=loop)
        except ValueError as err:
            raise GraphParseError(str(err), lno) from None
    return Graph(np.nan_to_num(w))


def _graph6_encode(g: Graph) -> str:
    if not g.is_simple_unweighted:
        raise ValueError("graph6 encodes simple unweighted graphs only")
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    else:
        raise ValueError("graph too large for this encoder")
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if g.weights[i, j] != 0 else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = []
    for k in range(0, len(bits), 6):
        val = 0
        for bit in bits[k : k + 6]:
            val = (val << 1) | bit
        chars.append(chr(val + 63))
    return head + "".join(chars)


def _graph6_decode(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise GraphParseError("empty graph6 input")
    for ch in s:
        if not (63 <= ord(ch) <= 126):
            raise GraphParseError(f"invalid graph6 character {ch!r}")
    if s[0] == "~":
        if len(s) < 4 or s[1] == "~":
            raise GraphParseError("unsupported graph6 size form")
        n = ((ord(s[1]) - 63) << 12) | ((ord(s[2]) - 63) << 6) | (ord(s[3]) - 63)
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    if n < 1:
        raise GraphParseError("graph6 with zero vertices")
    need = n * (n - 1) // 2
    if len(body) != (need + 5) // 6:
        raise GraphParseError("graph6 body has wrong length")
    bits = []
    for ch in body:
        val = ord(ch) - 63
        bits.extend((val >> s6) & 1 for s6 in (5, 4, 3, 2, 1, 0))
    if any(bits[need:]):
        raise GraphParseError("graph6 padding bits must be zero")
    w = np.zeros((n, n))
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                w[i, j] = 1.0
                w[j, i] = 1.0
            k += 1
    return Graph(w)


# ---------------------------------------------------------------------------
# isomorphism and exhaustive enumeration

# The branch and bound below explores at least one leaf per automorphism
# that no twin swap accounts for.  Up to this order a key takes at most
# about 0.4 s on the symmetric graphs tried (K_n, C_n, Petersen, Q4 about
# 0.1 s, three disjoint 5-cycles 0.4 s; 2-vCPU Xeon host); Q5 takes 5 s.
CANONICAL_MAX_N = 16


def _check_order(n: int) -> None:
    if n > CANONICAL_MAX_N:
        raise ValueError(f"canonical forms are limited to n <= {CANONICAL_MAX_N}, got {n}")


def canonical_key(g: Graph, root: int | None = None) -> tuple:
    """Canonical form under relabelling: the least row-major upper triangle,
    diagonal included, over all vertex orders (with ``root`` first when
    given).  n <= CANONICAL_MAX_N."""
    _check_order(g.n)
    if root is not None:
        g._check_vertex(root)
    return (g.n, _least_order(g.weights.tolist(), root, rows=True)[0])


def automorphism_orbits(g: Graph) -> list[list[int]]:
    """Vertex orbits under the automorphism group, joined along the
    automorphisms that one canonical search meets (``_least_order``)."""
    _check_order(g.n)
    found = _least_order(g.weights.tolist(), None, rows=True)[2]
    orbits: dict[int, list[int]] = {}
    for v, low in enumerate(_orbit_minima(g.n, found)):
        orbits.setdefault(low, []).append(v)
    return list(orbits.values())


def _orbit_minima(n: int, gens: list[list[int]]) -> list[int]:
    """The least vertex of each vertex's orbit under the group that the
    permutations ``gens`` generate: each vertex not yet reached starts an
    orbit, which is closed under ``gens`` before the next vertex."""
    low = [-1] * n
    for v in range(n):
        stack = [v] if low[v] < 0 else []
        while stack:
            u = stack.pop()
            if low[u] < 0:
                low[u] = v
                stack += [p[u] for p in gens]
    return low


def _twins(w: list[list[float]]) -> list[int]:
    """The least twin of each vertex.  Twins u, v have equal loops and equal
    weights to every other vertex, so swapping them is an automorphism;
    twinship is an equivalence relation."""
    n = len(w)
    twin = list(range(n))
    for v in range(n):
        wv = w[v]
        for u in range(v):
            wu = w[u]
            if twin[u] == u and wu[u] == wv[v] and all(
                wu[x] == wv[x] for x in range(n) if x != u and x != v
            ):
                twin[v] = u
                break
    return twin


def _least_order(
    w: list[list[float]], root: int | None, rows: bool
) -> tuple[tuple, list[int], list[list[int]]]:
    """Branch and bound for the least code of a vertex order, with one
    order that reaches it and the automorphisms met on the way.

    Vertices are placed one at a time from the first cell of an ordered
    partition of the unplaced ones; placing v splits every cell by weight
    to v, in ascending order, so each cell holds the vertices with equal
    weights to every placed vertex.  With ``rows`` the code is the
    row-major upper triangle (diagonal included): placing v writes its row,
    its loop and then its weights to each cell in ascending order, and only
    the choices that tie for the least row are explored.  Without ``rows``
    the code is column-major and strictly above the diagonal: placing v
    writes its weights to the placed vertices, the same for every member
    of the first cell.  Only the first of a set of twins in a cell is
    explored, and a prefix above the best code found is cut.

    The automorphisms met, each a list p with p[u] the image of u, are the
    twin swaps and the map from the first order with the best code so far
    to each later order with that code.  Without ``root`` they generate the
    automorphism group: the search is closed under it, up to the twins cut."""
    n = len(w)
    twin = _twins(w)
    code: list[float] = []
    order: list[int] = []
    best: tuple | None = None
    best_order: list[int] = []
    found = [[{u: v, v: u}.get(x, x) for x in range(n)] for v, u in enumerate(twin) if u != v]

    def place(cells: list[list[int]]) -> None:
        nonlocal best, best_order
        if not cells:
            if best is None:
                best, best_order = tuple(code), order[:]
            else:  # every live prefix equals the best code's, so this one does
                found.append([v for _, v in sorted(zip(best_order, order))])
            return
        first = cells[0]
        options = []
        explored = set()
        for v in first:
            if twin[v] not in explored:
                explored.add(twin[v])
                split = _split(w[v], [[x for x in first if x != v], *cells[1:]])
                if rows:
                    row = [w[v][v]] + [w[v][x] for cell in split for x in cell]
                else:
                    row = [w[v][x] for x in order]
                options.append((row, v, split))
        low = min(row for row, _, _ in options)
        at = len(code)
        if best is not None:
            # every live prefix equals the best code's up to here
            old = list(best[at : at + len(low)])
            if low > old:
                return
            if low < old:
                best = None
        code.extend(low)
        for row, v, split in options:
            if row == low:
                order.append(v)
                place(split)
                order.pop()
        del code[at:]

    place([list(range(n))] if root is None else [[root], [v for v in range(n) if v != root]])
    return best, best_order, found


def _split(wv: list[float], cells: list[list[int]]) -> list[list[int]]:
    """Split every cell by weight to one vertex, in ascending order; empty
    cells go."""
    weight = wv.__getitem__
    return [
        list(part)
        for cell in cells
        for _, part in itertools.groupby(sorted(cell, key=weight), key=weight)
    ]


def connected_graphs(max_n: int) -> Iterator[Graph]:
    """All connected simple unweighted graphs with 1 <= n <= max_n <= 7, one
    per isomorphism class, sorted by edge count and then canonical key
    within each order.  ``max_n`` is checked at the call."""
    # the generator expression calls marked_graphs, which checks max_n, at once;
    # vertex 0 is the least of its orbit, so it marks each class once
    return (g for g, v in marked_graphs(max_n) if v == 0)


def marked_graphs(max_n: int) -> Iterator[tuple[Graph, int]]:
    """Connected graphs with a marked vertex, deduplicated by rooted
    isomorphism (the least vertex of each orbit).  ``max_n`` is checked at
    the call."""
    _check_count("max_n", max_n, 0)
    if max_n > 7:
        raise ValueError("exhaustive enumeration is limited to n <= 7")
    return _marked_classes(max_n)


def _marked_classes(max_n: int) -> Iterator[tuple[Graph, int]]:
    """``marked_graphs`` by canonical augmentation (McKay, J. Algorithms
    26, 1998).  Every connected graph has a vertex whose removal leaves it
    connected (a leaf of a spanning tree).  So each class on n vertices is
    one on n - 1 with a vertex added, once per orbit of nonempty
    neighbourhoods, kept only where the new vertex shares an orbit with the
    last vertex of its canonical order whose removal leaves it connected.
    Each class is given in its labelling with the least edge mask, the one
    an increasing loop over edge masks meets first, and its automorphisms
    are carried into that labelling."""
    level: list[tuple[list[list[float]], list[list[int]]]] = [([[0.0]], [])]
    for n in range(1, max_n + 1):
        if n > 1:
            kept = []
            for w, gens in level:
                on_sets = [
                    [sum(1 << p[u] for u in range(n - 1) if s >> u & 1) for s in range(1 << n - 1)]
                    for p in gens
                ]
                for hood, least in enumerate(_orbit_minima(1 << n - 1, on_sets)):
                    if not 0 < hood == least:
                        continue
                    new = [float(hood >> u & 1) for u in range(n - 1)]
                    grown = [row + [x] for row, x in zip(w, new)] + [new + [0.0]]
                    key, order, found = _least_order(grown, None, rows=True)
                    low = _orbit_minima(n, found)
                    last = next(
                        v for v in order[::-1] if len(_reach(grown, (v + 1) % n, v)) == n - 1
                    )
                    if low[last] == low[n - 1]:
                        kept.append((key, grown, found))
            # the sum of a 0/1 key with a zero diagonal is the edge count
            kept.sort(key=lambda item: (sum(item[0]), item[0]))
            level = []
            for _, w, found in kept:
                # Bit k of an edge mask is the k-th pair of combinations(range(n), 2),
                # so the highest bits are the pairs among the highest labels: the
                # least mask hands out labels from n - 1 down, each vertex with the
                # least weights to those labelled before it (the column-major code).
                order = _least_order(w, None, rows=False)[1][::-1]
                at = {v: i for i, v in enumerate(order)}
                relabel = [[w[u][v] for v in order] for u in order]
                level.append((relabel, [[at[p[v]] for v in order] for p in found]))
        for w, gens in level:
            g = Graph(np.array(w))
            for v, low in enumerate(_orbit_minima(n, gens)):
                if v == low:
                    yield g, v
