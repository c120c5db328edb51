"""Command-line front end.

Every subcommand reads graphs from files or standard input, writes one
JSON report to standard output, and prints a short human summary to
standard error.  Exit codes: 0 for a normal or expected outcome, 1 for an
unexpected mathematical outcome (a failed verification suite, a
certificate that does not survive cross-checks, an exact identity that
does not hold, a search that finds transfer where none should exist), 2
for bad input (graphs too large or weights too heavy for the exact layer
among them).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from . import exactpoly as xp
from .graphs import (
    CANONICAL_MAX_N,
    Graph,
    GraphParseError,
    automorphism_orbits,
    compose,
    parse_graph,
    serialize_graph,
)
from .pst import CONFIRM_TOL, pst_certificate
from .spectral import SUPPORT_TOL, cospectral, decompose, strongly_cospectral
from .verify import SCAN_THRESHOLD, SUITE_NAMES, run_suite, search_no_pst

SCHEMA_VERSION = "1"

__all__ = ["main"]


def _round_floats(obj):
    """12 significant digits on every float, recursively."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit(command: str, digest: str, tolerances: dict, result, started: float) -> None:
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "input_digest": digest,
        "tolerances": _round_floats(tolerances),
        "wall_time_s": float(f"{time.perf_counter() - started:.6g}"),
        "result": _round_floats(result),
    }
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _read_source(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _load_graph(path: str, fmt: str | None) -> tuple[Graph, bytes]:
    raw = _read_source(path)
    if fmt is None:
        fmt = "graph6" if path.endswith((".g6", ".graph6")) else "edgelist"
    g = parse_graph(raw.decode("utf-8"), fmt)
    return g, raw


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def _poly_json(p: xp.IntPoly) -> list[int]:
    return [int(c) for c in p.coeffs]


def cmd_charpoly(args) -> int:
    started = time.perf_counter()
    g, raw = _load_graph(args.graph, args.format)
    result = {"n": g.n, "charpoly": _poly_json(xp.charpoly(g))}
    if args.deleted:
        g._check_vertex(*args.deleted)
        if len(set(args.deleted)) != len(args.deleted):
            raise GraphParseError("repeated vertex in --deleted")
        result["deleted_vertices"] = sorted(args.deleted)
        result["deleted_charpoly"] = _poly_json(xp.charpoly_deleted(g, args.deleted))
    _emit("charpoly", _digest(raw), {}, result, started)
    shown = result.get("deleted_charpoly", result["charpoly"])
    _say(f"phi = {xp.IntPoly(tuple(shown))}")
    return 0


def cmd_spectrum(args) -> int:
    started = time.perf_counter()
    g, raw = _load_graph(args.graph, args.format)
    dec = decompose(g)
    result = {
        "n": g.n,
        "distinct_eigenvalues": list(dec.distinct_eigenvalues),
        "multiplicities": list(dec.multiplicities),
    }
    _emit("spectrum", _digest(raw), {"grouping_tol": dec.grouping_tolerance}, result, started)
    pairs = ", ".join(
        f"{th:.6g} (x{m})" for th, m in zip(dec.distinct_eigenvalues, dec.multiplicities)
    )
    _say(f"{len(dec.distinct_eigenvalues)} distinct eigenvalues: {pairs}")
    return 0


def cmd_cospectral(args) -> int:
    started = time.perf_counter()
    g, raw = _load_graph(args.graph, args.format)
    g._check_pair(args.a, args.b, "need two distinct vertices")
    result = {"a": args.a, "b": args.b, "cospectral": cospectral(g, args.a, args.b)}
    tolerances = {}
    if args.strong:
        sc, sig = strongly_cospectral(g, args.a, args.b)
        result["strongly_cospectral"] = sc
        result["signature"] = sig.to_json()
        tolerances = {
            "grouping_tol": decompose(g).grouping_tolerance,
            "support_tol": SUPPORT_TOL,
        }
    _emit("cospectral", _digest(raw), tolerances, result, started)
    line = f"cospectral: {result['cospectral']}"
    if args.strong:
        line += f", strongly cospectral: {result['strongly_cospectral']}"
    _say(line)
    return 0


def cmd_pst(args) -> int:
    started = time.perf_counter()
    g, raw = _load_graph(args.graph, args.format)
    cert = pst_certificate(g, args.a, args.b)
    result = cert.to_json()
    if cert.success:
        result["fidelity_confirmation"] = cert.fidelity_at_time
    tolerances = {"support_tol": SUPPORT_TOL}
    _emit("pst", _digest(raw), tolerances, result, started)
    if cert.success:
        _say(f"perfect state transfer at t = {cert.pst_time:.12g}")
    else:
        _say(f"no perfect state transfer: {cert.failure_reason}")
    return 0


def cmd_compose(args) -> int:
    started = time.perf_counter()
    g1, raw1 = _load_graph(args.y1, args.format)
    g2, raw2 = _load_graph(args.y2, args.format)
    z, ga, gb = compose(g1, args.a, g2, args.b, args.bridge)
    cert = pst_certificate(z, ga, gb)
    result = {
        "edgelist": serialize_graph(z, "edgelist"),
        "a": ga,
        "b": gb,
        "analysis": {
            "cospectral": cospectral(z, ga, gb),
            "strongly_cospectral": cert.failure_reason != "not_strongly_cospectral",
            "certificate": cert.to_json(),
        },
    }
    _emit("compose", _digest(raw1, raw2), {}, result, started)
    verdict = (
        f"transfer at t = {cert.pst_time:.12g}"
        if cert.success
        else f"no transfer ({cert.failure_reason})"
    )
    _say(f"composed graph on {z.n} vertices; endpoints {ga}, {gb}; {verdict}")
    return 0


def _stdin_marked_graphs(max_n: int):
    data = sys.stdin.buffer.read()
    graphs = []
    for lineno, line in enumerate(data.decode("ascii").splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        g = parse_graph(line, "graph6")
        if g.n > max_n:
            raise GraphParseError(f"stdin line {lineno}: {g.n} vertices, above --max-n {max_n}")
        if not g.is_connected():
            raise GraphParseError(f"stdin line {lineno}: graph is disconnected")
        if g.n > CANONICAL_MAX_N:
            raise GraphParseError(
                f"stdin line {lineno}: {g.n} vertices, above the orbit limit {CANONICAL_MAX_N}"
            )
        for orbit in automorphism_orbits(g):
            graphs.append((g, orbit[0]))
    return graphs, data


def cmd_search(args) -> int:
    started = time.perf_counter()
    counts = {"--max-n": args.max_n, "--jobs": args.jobs, "--scan-steps": args.scan_steps}
    for flag, value in counts.items():
        if value < 1:
            raise ValueError(f"{flag} must be at least 1, got {value}")
    if not 0 < args.scan_t_max < float("inf"):
        raise ValueError(f"--scan-t-max must be positive and finite, got {args.scan_t_max}")
    if args.stdin_graph6:
        source, raw = _stdin_marked_graphs(args.max_n)
        digest = _digest(raw)
    else:
        source = None
        digest = _digest(f"builtin:bridge={args.bridge}:max_n={args.max_n}".encode())
    report = search_no_pst(
        args.bridge,
        args.max_n,
        graph_source=source,
        scan_cross_check=not args.no_scan,
        scan_t_max=args.scan_t_max,
        scan_steps=args.scan_steps,
        jobs=args.jobs,
    )
    result = report.to_json()
    result["nontrivial_successes"] = report.nontrivial_successes
    tolerances = {"scan_threshold": SCAN_THRESHOLD, "scan_t_max": args.scan_t_max}
    _emit("search", digest, tolerances, result, started)
    _say(
        f"tested {report.instances_tested} compositions, "
        f"{report.strongly_cospectral_pairs} strongly cospectral, "
        f"{len(report.pst_successes)} with transfer "
        f"({len(report.nontrivial_successes)} nontrivial), "
        f"{len(report.scan_disagreements)} scan disagreements; "
        f"{report.bucket_settled} pairs settled by side buckets, "
        f"{report.ceiling_settled} failures settled by the fidelity ceiling "
        f"(largest ceiling without strong cospectrality {report.max_ceiling:.6g})"
    )
    if report.nontrivial_successes or report.scan_disagreements:
        return 1
    return 0


def cmd_verify(args) -> int:
    started = time.perf_counter()
    result = run_suite(args.suite, instances=args.instances, seed=args.seed)
    digest = _digest(
        f"suite:{args.suite}:instances={args.instances}:seed={args.seed}".encode()
    )
    _emit("verify", digest, {}, result.to_json(), started)
    if result.passed:
        _say(f"suite {args.suite}: {result.instances} instances, all passed")
        return 0
    _say(f"suite {args.suite}: {len(result.failures)} failures")
    return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pstwalk",
        description="Continuous-time quantum walk analysis on graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format",
            choices=("edgelist", "graph6"),
            default=None,
            help="input format (default: by file extension, else edgelist)",
        )

    p = sub.add_parser("charpoly", help="exact characteristic polynomial")
    p.add_argument("graph", help="graph file, or - for standard input")
    p.add_argument(
        "--deleted",
        type=int,
        nargs="+",
        metavar="V",
        help="also report the polynomial with these vertices deleted",
    )
    add_format(p)
    p.set_defaults(fn=cmd_charpoly)

    p = sub.add_parser("spectrum", help="eigenvalues with multiplicities")
    p.add_argument("graph")
    add_format(p)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("cospectral", help="vertex cospectrality decisions")
    p.add_argument("graph")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("--strong", action="store_true", help="also decide strong cospectrality")
    add_format(p)
    p.set_defaults(fn=cmd_cospectral)

    p = sub.add_parser(
        "pst",
        help="perfect state transfer certificate",
        description="Certify perfect state transfer from a to b.  A certified "
        "time is confirmed only if the fidelity |<b|U(t)|a>| there (the "
        f"amplitude's modulus, not its square) is at least 1 - {CONFIRM_TOL:g}.",
    )
    p.add_argument("graph")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    add_format(p)
    p.set_defaults(fn=cmd_pst)

    p = sub.add_parser("compose", help="join two graphs by a bridge path and analyze")
    p.add_argument("--y1", required=True, help="first graph file")
    p.add_argument("--a", required=True, type=int, help="attachment vertex in y1")
    p.add_argument("--y2", required=True, help="second graph file")
    p.add_argument("--b", required=True, type=int, help="attachment vertex in y2")
    p.add_argument(
        "--bridge",
        type=int,
        choices=(2, 3),
        default=2,
        help="vertices on the bridge path, endpoints included (default 2)",
    )
    add_format(p)
    p.set_defaults(fn=cmd_compose)

    p = sub.add_parser(
        "search",
        help="exhaustive transfer search across a bridge",
        description="Certify every bridge composition of marked side graphs.  "
        "Each certified failure is cross-checked.  The fidelity ceiling "
        "sum_r |(E_r)_ab| bounds |<b|U(t)|a>| (the amplitude's modulus, not its "
        f"square) at every t; below 1 - {SCAN_THRESHOLD:g} it settles the failure.  "
        "Otherwise, as on every strongly cospectral pair, a fidelity scan over "
        "[0, --scan-t-max] runs, and a scanned fidelity of at least "
        f"1 - {SCAN_THRESHOLD:g} is a scan disagreement.",
    )
    p.add_argument("--bridge", type=int, choices=(2, 3), required=True)
    p.add_argument("--max-n", type=int, default=4, help="largest side graph (default 4)")
    p.add_argument(
        "--stdin-graph6",
        action="store_true",
        help="read side graphs as graph6 lines from standard input",
    )
    p.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    p.add_argument("--no-scan", action="store_true", help="skip fidelity cross-checks")
    p.add_argument("--scan-t-max", type=float, default=30.0)
    p.add_argument("--scan-steps", type=int, default=6000)
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", choices=SUITE_NAMES, required=True)
    p.add_argument(
        "--instances",
        type=int,
        default=None,
        help="override instance count; for correspondence-p2/-p3, the largest "
        "side order instead (default 4, at most 7)",
    )
    p.add_argument("--seed", type=int, default=None, help="override the random seed")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (GraphParseError, ValueError, OSError, OverflowError) as exc:
        # caught before its base class ArithmeticError: an order or weights
        # beyond the exact layer's fixed prime list are bad input
        _say(f"input error: {exc}")
        return 2
    except (RuntimeError, ArithmeticError) as exc:
        _say(f"verification failure: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
