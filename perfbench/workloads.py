"""The three benchmark workloads.

Each workload makes from a seeded ``random.Random`` one set of distinct
operations.  The set has the same mix of operation kinds and sizes for
every seed; the seed only picks the members (and relabels them).  That
keeps the work per set alike across seeds.  ``run.py`` executes the whole
set in passes, each pass in a fresh seeded order, and times every
execution.

Per operation a workload supplies ``prepare`` (builds fresh ``Graph``
objects outside the timed region, so ``_poly_cache`` starts cold as in a CLI
call), ``run`` (the timed call into the package) and ``check`` (returns
``None`` or a description of the miss).  The checks use theory, numpy
directly, or a stored reference; none of them reruns the timed code path.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass
class Op:
    """One operation: ``ref`` is what its check compares against (stored
    report digest, theoretical transfer time, or numpy projector entries)."""

    index: int
    kind: str
    args: dict = field(default_factory=dict)
    ref: object = None


def _numbered(ops: list[Op]) -> list[Op]:
    for index, op in enumerate(ops):
        op.index = index
    return ops


# ---------------------------------------------------------------------------
# bridge-search


def report_digest(report) -> dict:
    """The parts of a SearchReport that the stored reference pins down."""
    return {
        "instances": report.instances_tested,
        "strongly_cospectral": report.strongly_cospectral_pairs,
        "failure_histogram": dict(sorted(report.failure_histogram.items())),
        "successes": sorted([s["y1"], s["a"], s["y2"], s["b"]] for s in report.pst_successes),
        "scan_checked": report.scan_checked,
        "scan_disagreements": len(report.scan_disagreements),
    }


class BridgeSearch:
    """``search_no_pst`` over seeded samples of ``marked_graphs(5)``.

    One op is one ``search_no_pst`` call for one bridge (P2 or P3) over a
    sample of SAMPLE marked graphs, i.e. SAMPLE**2 ordered pairs composed,
    certified and scanned at the CLI defaults (t_max 30, 6000 steps).  A
    call is the smallest unit a caller can time without reaching inside the
    search.  The samples split the 74 marked graphs (bar two with n = 5)
    between them, alternating the bridge: the seed shuffles the graphs
    within each size class (n <= 3, n = 4, n = 5) and the classes are dealt
    out in turn, so every sample has the same size mix for every seed and a
    set covers nearly every graph once, whatever the seed.

    Each sample holds its SAMPLE self-pairs (a graph joined to itself),
    which are mirror-symmetric and so always strongly cospectral: 1/SAMPLE
    of the pairs, against 74 / 74**2 in the exhaustive search.  The share
    of pairs that reach the full certificate path is higher here than in
    that search for that reason.
    """

    name = "bridge-search"
    SAMPLE = 8
    SIZE_CLASSES = ((1, 3), (4, 4), (5, 5))  # smallest and largest n; n = 5 goes last, so it loses the spare graphs
    MAX_N = 5

    def make_inputs(self, mods, rng: random.Random, seed: int) -> list[Op]:
        marked = [(g.weights, v) for g, v in mods.graphs.marked_graphs(self.MAX_N)]
        deck = []
        for lo, hi in self.SIZE_CLASSES:
            members = [m for m in marked if lo <= m[0].shape[0] <= hi]
            rng.shuffle(members)
            deck += members
        count = len(deck) // self.SAMPLE
        ops = []
        for i in range(count):
            sample = deck[i : count * self.SAMPLE : count]
            rng.shuffle(sample)
            ops.append(Op(0, "search", {"bridge": 2 + i % 2, "sample": sample}))
        ops = _numbered(ops)
        reference = self.load_reference(seed)
        if reference is not None:
            for op in ops:
                op.ref = reference[op.index]
        return ops

    @staticmethod
    def load_reference(seed: int):
        path = REFERENCE_DIR / f"bridge-search-seed{seed}.json"
        if not path.exists():
            return None
        return json.loads(path.read_text())["ops"]

    def prepare(self, mods, op: Op):
        return [(mods.graphs.Graph(w), v) for w, v in op.args["sample"]]

    def run(self, mods, op: Op, sample):
        return mods.verify.search_no_pst(
            op.args["bridge"],
            self.MAX_N,
            graph_source=sample,
            scan_cross_check=True,
            scan_t_max=30.0,
            scan_steps=6000,
        )

    def pairs(self, op: Op) -> int:
        return len(op.args["sample"]) ** 2

    def check(self, op: Op, report) -> str | None:
        k = len(op.args["sample"])
        bridge = op.args["bridge"]
        if report.instances_tested != k * k:
            return f"tested {report.instances_tested} pairs, expected {k * k}"
        if report.scan_disagreements:
            return f"{len(report.scan_disagreements)} scan disagreements"
        trivial = [s for s in report.pst_successes if s["n1"] == 1 and s["n2"] == 1]
        if len(trivial) != len(report.pst_successes):
            return "nontrivial perfect state transfer reported"
        has_k1 = any(w.shape[0] == 1 for w, _ in op.args["sample"])
        if len(trivial) != (1 if has_k1 else 0):
            return f"K1-K1 successes {len(trivial)} with K1 in sample: {has_k1}"
        # K1-K1 across the bridge is the path P2 (time pi/2) or P3 (pi/sqrt 2)
        expected = math.pi / 2 if bridge == 2 else math.pi / math.sqrt(2)
        for s in trivial:
            if abs(s["pst_time"] - expected) > 1e-9 * expected:
                return f"K1-K1 transfer time {s['pst_time']}, expected {expected}"
        if report.scan_checked != k * k - len(report.pst_successes):
            return f"scan checked {report.scan_checked} of {k * k - len(report.pst_successes)} failures"
        if op.ref is not None and report_digest(report) != op.ref:
            return f"report differs from the stored reference for op {op.index}"
        return None


# ---------------------------------------------------------------------------
# certify-large


def _adjacency(n: int, edges) -> np.ndarray:
    w = np.zeros((n, n))
    for u, v in edges:
        w[u, v] = w[v, u] = 1.0
    return w


def _relabel(rng: random.Random, w: np.ndarray, *vertices: int):
    """``w`` with its vertices permuted at random, and where ``vertices`` went."""
    perm = list(range(w.shape[0]))
    rng.shuffle(perm)
    inv = np.argsort(perm)
    return (w[np.ix_(inv, inv)], *(perm[v] for v in vertices))  # vertex v becomes perm[v]


def _path(n):
    return _adjacency(n, [(i, i + 1) for i in range(n - 1)]), 0, n - 1


def _cycle(n):
    return _adjacency(n, [(i, (i + 1) % n) for i in range(n)]), 0, n // 2


def _complete(n):
    return _adjacency(n, itertools.combinations(range(n), 2)), 0, 1


def _hypercube(d):
    n = 1 << d
    edges = [(u, u ^ (1 << i)) for u in range(n) for i in range(d) if u < u ^ (1 << i)]
    return _adjacency(n, edges), 0, n - 1


def _double_star(k, inner):
    """Two k-leaf stars whose centres are joined by a path with ``inner``
    internal vertices: S(k,k) for inner = 0, E(k,k) for inner = 1."""
    a, b = 0, k + 1
    edges = [(a, i) for i in range(1, k + 1)] + [(b, b + i) for i in range(1, k + 1)]
    chain = [a] + [2 * k + 2 + i for i in range(inner)] + [b]
    edges += list(zip(chain, chain[1:]))
    return _adjacency(2 * k + 2 + inner, edges), a, b


# (label, build function, size windows, PST time or None).  Verdicts from theory:
# P2 at pi/2, P3 at pi/sqrt2, hypercube antipodes at pi/2; no PST for P_n
# (n >= 4), C_n (n != 4), K_n (n >= 3) and the double stars S(k,k), E(k,k).
CERTIFY_FAMILIES = (
    ("P", _path, [(2, 2)], math.pi / 2),
    ("P", _path, [(3, 3)], math.pi / math.sqrt(2)),
    ("Q", _hypercube, [(4, 4), (5, 5)], math.pi / 2),
    ("P", _path, [(7, 9), (13, 15), (19, 21), (25, 27), (32, 34)], None),
    ("C", _cycle, [(10, 12), (16, 18), (22, 24), (28, 30), (33, 35)], None),
    ("K", _complete, [(9, 11), (15, 17), (21, 23), (27, 29), (33, 35)], None),
    ("S", lambda k: _double_star(k, 0), [(3, 5), (6, 8), (9, 11), (12, 14), (15, 17)], None),
    ("E", lambda k: _double_star(k, 1), [(2, 4), (5, 7), (8, 10), (11, 13), (14, 16)], None),
)


class CertifyLarge:
    """``pst_certificate`` on members of structured families with known
    verdicts, n from 2 to 36: every size of every window once, each with its
    vertices relabelled at random.  Every seed thus certifies the same
    graphs up to labels, so the cost of a set does not depend on the seed.  Five windows per family spread the op
    costs evenly, so the median op does not sit on a gap between size
    clusters."""

    name = "certify-large"

    def make_inputs(self, mods, rng: random.Random, seed: int) -> list[Op]:
        ops = []
        for label, build, windows, pst_time in CERTIFY_FAMILIES:
            for lo, hi in windows:
                for size in range(lo, hi + 1):
                    w, a, b = _relabel(rng, *build(size))
                    args = {"label": f"{label}{size}", "w": w, "a": a, "b": b}
                    ops.append(Op(0, "certificate", args, ref=pst_time))
        return _numbered(ops)

    def prepare(self, mods, op: Op):
        return mods.graphs.Graph(op.args["w"])

    def run(self, mods, op: Op, g):
        return mods.pst.pst_certificate(g, op.args["a"], op.args["b"])

    def pairs(self, op: Op) -> int:
        return 1

    def check(self, op: Op, cert) -> str | None:
        expected = op.ref
        label = op.args["label"]
        if cert.success != (expected is not None):
            return f"{label}: certificate says success={cert.success}, theory says {expected is not None}"
        if expected is not None and abs(cert.pst_time - expected) > 1e-9 * expected:
            return f"{label}: transfer time {cert.pst_time}, theory gives {expected}"
        return None


# ---------------------------------------------------------------------------
# exact-identities


def _random_connected(rng: random.Random, n: int, p: float) -> np.ndarray:
    while True:
        w = _adjacency(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
        reach = np.linalg.matrix_power(w + np.eye(n), n - 1)
        if np.all(reach[0] > 0):
            return w


def _dense(shape: random.Random, n: int, missing: int):
    """K_n minus ``missing`` edges drawn by ``shape``, and two vertices."""
    edges = list(itertools.combinations(range(n), 2))
    shape.shuffle(edges)
    a, b = shape.sample(range(n), 2)
    return _adjacency(n, edges[missing:]), a, b


def _projector_entries(w: np.ndarray, a: int, b: int):
    """Distinct eigenvalues and <b|E_theta|a> from numpy.linalg.eigh."""
    vals, vecs = np.linalg.eigh(w)
    groups: list[list[int]] = [[0]]
    for i in range(1, len(vals)):
        if vals[i] - vals[groups[-1][-1]] < 1e-8:
            groups[-1].append(i)
        else:
            groups.append([i])
    thetas = [float(np.mean(vals[g])) for g in groups]
    entries = [float(vecs[b, g] @ vecs[a, g]) for g in groups]
    return thetas, entries


IDENTITY_CHECKS = (
    "check_onesum_instance",
    "check_pathsum_instance",
    "check_bridge_factorization_instance",
    "check_gf_additivity_instance",
)


class ExactIdentities:
    """Many small exact polynomial computations.  Each of the ROUNDS rounds
    holds 8 seeded calls of each ``verify.check_*_instance`` suite step, 4
    projector-entry computations (``projector_entry_via_neutrino`` for every
    eigenvalue of a seeded random graph, n 5..8) and 2 ``path_sum_poly``
    calls on dense graphs (K9 minus 3 edges, K10 minus 12 edges), the only
    workload that enumerates paths.  The path count, hence the cost, of a
    dense graph depends on which edges are missing, and these few calls
    make the slowest ops: so round r removes the same edges for every seed,
    and the seed only relabels the vertices."""

    name = "exact-identities"
    ROUNDS = 12
    CHECKS_PER_KIND = 8
    NEUTRINO = 4
    DENSE = ((9, 3), (10, 12))

    def make_inputs(self, mods, rng: random.Random, seed: int) -> list[Op]:
        ops = []
        for r in range(self.ROUNDS):
            for fname in IDENTITY_CHECKS:
                for _ in range(self.CHECKS_PER_KIND):
                    ops.append(Op(0, "identity", {"function": fname, "seed": rng.getrandbits(64)}))
            for _ in range(self.NEUTRINO):
                n = rng.randint(5, 8)
                w = _random_connected(rng, n, 0.5)
                a, b = rng.sample(range(n), 2)
                thetas, entries = _projector_entries(w, a, b)
                ops.append(Op(0, "projector", {"w": w, "a": a, "b": b, "thetas": thetas}, ref=entries))
            for n, missing in self.DENSE:
                w, a, b = _relabel(rng, *_dense(random.Random(f"dense-{n}-{missing}-{r}"), n, missing))
                ops.append(Op(0, "pathsum", {"w": w, "a": a, "b": b}))
        return _numbered(ops)

    def prepare(self, mods, op: Op):
        if op.kind == "identity":
            return random.Random(op.args["seed"])
        return mods.graphs.Graph(op.args["w"])

    def run(self, mods, op: Op, prepared):
        if op.kind == "identity":
            return getattr(mods.verify, op.args["function"])(prepared)
        a, b = op.args["a"], op.args["b"]
        if op.kind == "projector":
            entry = mods.spectral.projector_entry_via_neutrino
            return [entry(prepared, a, b, th) for th in op.args["thetas"]]
        return mods.exactpoly.path_sum_poly(prepared, a, b)

    def pairs(self, op: Op) -> int:
        return 1

    def check(self, op: Op, out) -> str | None:
        if op.kind == "identity":
            return None if out is True else f"{op.args['function']} identity failed"
        if op.kind == "projector":
            if len(out) != len(op.ref):
                return f"{len(out)} projector entries for {len(op.ref)} eigenvalues"
            worst = max(abs(x - y) for x, y in zip(out, op.ref))
            if worst > 1e-7:
                return f"projector entries off from numpy.linalg.eigh by {worst:.3g}"
            return None
        return self._check_resolvent(op, out)

    @staticmethod
    def _check_resolvent(op: Op, poly) -> str | None:
        """On an unweighted graph the path sum equals
        phi(G, x) * [(xI - A)^-1]_ab; compare at two points off the spectrum."""
        w, a, b = op.args["w"], op.args["a"], op.args["b"]
        n = w.shape[0]
        rho = float(np.max(np.sum(np.abs(w), axis=1)))
        for x in (rho + 1.5, -rho - 2.5):
            m = x * np.eye(n) - w
            expected = np.linalg.det(m) * np.linalg.inv(m)[a, b]
            got = float(poly(x))
            if abs(got - expected) > 1e-8 * max(1.0, abs(expected)):
                return f"path sum at {x} is {got}, resolvent gives {expected}"
        return None


WORKLOADS = {wl.name: wl for wl in (BridgeSearch(), CertifyLarge(), ExactIdentities())}
