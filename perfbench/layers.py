"""What the traced run wraps, and the per-layer metrics it reports.

Layers are the package modules graphs, exactpoly, spectral, pst and verify;
cli is left out because it only wraps the same calls in a JSON envelope.
Metric names are ``<module>.<function>.<stat>``: ``self_s`` is span time
minus child spans, ``calls`` the number of spans (resumptions, for
generators), anything else a named count.
"""

from __future__ import annotations

import inspect

LAYERS = ("graphs", "exactpoly", "spectral", "pst", "verify")


def _span(tracer, fn, name):
    return tracer.wrap(fn, name)


def _charpoly(tracer, fn, name):
    def before(t, args, kwargs):
        g = args[0] if args else kwargs["g"]
        if ("charpoly", None) in getattr(g, "_poly_cache", {}):
            t.count("exactpoly.charpoly.hits")

    return tracer.wrap(fn, name, before=before)


def _fidelity_scan(tracer, fn, name):
    signature = inspect.signature(fn)

    def before(t, args, kwargs):
        t.count("pst.fidelity_scan.grid_points", signature.bind(*args, **kwargs).arguments["steps"] + 1)

    return tracer.wrap(fn, name, before=before)


def _search(tracer, fn, name):
    def after(t, report):
        t.count("verify.search.pairs", report.instances_tested)
        t.count("verify.search.strongly_cospectral", report.strongly_cospectral_pairs)

    return tracer.wrap(fn, name, after=after)


def _generator(yields_key):
    return lambda tracer, fn, name: tracer.wrap_generator(fn, name, yields_key)


TARGETS = {
    "graphs.marked_graphs": _generator(None),
    "graphs.compose": _span,
    "graphs.iter_ab_paths": _generator("graphs.iter_ab_paths.paths"),
    "exactpoly.charpoly": _charpoly,
    "exactpoly.bareiss_det": _span,
    "exactpoly.poly_gcd": _span,
    "exactpoly.path_sum_poly": _span,
    "spectral.decompose": _span,
    "spectral.strongly_cospectral": _span,
    "spectral.projector_entry_via_neutrino": _span,
    "pst.pst_certificate": _span,
    "pst.quadratic_integer_structure": _span,
    "pst.fidelity_scan": _fidelity_scan,
    "pst.evolve_fidelity": _span,
    "verify.search_no_pst": _search,
    "verify.check_onesum_instance": _span,
    "verify.check_pathsum_instance": _span,
    "verify.check_bridge_factorization_instance": _span,
    "verify.check_gf_additivity_instance": _span,
}

CALL_COUNTS = (
    "spectral.decompose",
    "exactpoly.charpoly",
    "exactpoly.bareiss_det",
    "exactpoly.poly_gcd",
    "exactpoly.path_sum_poly",
    "pst.fidelity_scan",
    "pst.pst_certificate",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer, traced_ops: int, traced_pairs: int, wall_s: float, overhead: float) -> dict:
    """Every per-layer metric, as {name: (value, unit)}."""
    out = {f"{name}.self_s": (tracer.self_s(name), "s") for name in TARGETS}
    for name in CALL_COUNTS:
        out[f"{name}.calls"] = (tracer.calls(name), "count")
    counts = tracer.counts
    out["spectral.decompose.calls_per_pair"] = (_ratio(tracer.calls("spectral.decompose"), traced_pairs), "calls/pair")
    out["exactpoly.charpoly.hit_ratio"] = (
        _ratio(counts.get("exactpoly.charpoly.hits", 0), tracer.calls("exactpoly.charpoly")),
        "ratio",
    )
    out["graphs.iter_ab_paths.paths"] = (counts.get("graphs.iter_ab_paths.paths", 0), "count")
    out["pst.fidelity_scan.grid_points"] = (counts.get("pst.fidelity_scan.grid_points", 0), "count")
    out["verify.search.sc_ratio"] = (
        _ratio(counts.get("verify.search.strongly_cospectral", 0), counts.get("verify.search.pairs", 0)),
        "ratio",
    )
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, (_, self_s) in tracer.stats.items():
        layer_self[name.split(".", 1)[0]] += self_s
    for layer in LAYERS:
        out[f"{layer}.all.self_s"] = (layer_self[layer], "s")
    out["bench.glue.self_s"] = (wall_s - sum(layer_self.values()), "s")
    out["bench.traced.wall_s"] = (wall_s, "s")
    out["bench.traced.ops"] = (traced_ops, "count")
    out["trace_overhead_ratio"] = (overhead, "ratio")
    return out
