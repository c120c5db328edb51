"""The benchmark's targets and stored reference agree with the package.

``perfbench/layers.py`` names its targets as ``module.function`` strings and
the tracer looks each one up with a bare ``getattr``, so a rename in
``src/pstwalk`` would otherwise break only the traced benchmark run.  Likewise
``perfbench/workloads.py`` compares the seed-0 bridge-search reports with a
stored reference, so a drift of the search report would otherwise fail only
the benchmark.  The certify-large certificates are pinned the same way, by
``golden_certificates.json``.
"""

import importlib
import importlib.util
import json
import random
import sys
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN = Path(__file__).resolve().parent / "golden_certificates.json"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    layers = load_bench_module("layers")
    assert layers.TARGETS
    missing = []
    for name in list(layers.TARGETS) + list(layers.CALL_COUNTS):
        module, function = name.split(".")
        if not callable(getattr(importlib.import_module(f"pstwalk.{module}"), function, None)):
            missing.append(name)
    assert missing == []


def test_bridge_search_matches_the_stored_reference():
    workloads = load_bench_module("workloads")
    mods = SimpleNamespace(
        graphs=importlib.import_module("pstwalk.graphs"),
        verify=importlib.import_module("pstwalk.verify"),
    )
    wl = workloads.BridgeSearch()
    assert wl.load_reference(0) is not None
    ops = wl.make_inputs(mods, random.Random(0), 0)
    assert len(ops) == 9
    misses = [wl.check(op, wl.run(mods, op, wl.prepare(mods, op))) for op in ops]
    assert misses == [None] * len(ops)


def test_certify_large_certificates_match_the_golden_file():
    """Every ``CERTIFY_FAMILIES`` member of the seed-0 certify-large inputs
    gives its stored ``to_json()``: every exact field equal, the transfer
    time within 1e-12 and the fidelity there at least 1 - CONFIRM_TOL."""
    workloads = load_bench_module("workloads")
    pst = importlib.import_module("pstwalk.pst")
    mods = SimpleNamespace(graphs=importlib.import_module("pstwalk.graphs"), pst=pst)
    wl = workloads.CertifyLarge()
    golden = json.loads(GOLDEN.read_text())
    ops = wl.make_inputs(mods, random.Random(0), 0)
    assert sorted(op.args["label"] for op in ops) == sorted(golden)
    floats = ("pst_time", "fidelity_at_time")
    for op in ops:
        got, want = wl.run(mods, op, wl.prepare(mods, op)).to_json(), golden[op.args["label"]]
        assert {k: v for k, v in got.items() if k not in floats} == {
            k: v for k, v in want.items() if k not in floats
        }, op.args["label"]
        assert ("pst_time" in got) == ("pst_time" in want)
        if "pst_time" in want:
            assert abs(got["pst_time"] - want["pst_time"]) <= 1e-12
            assert got["fidelity_at_time"] >= 1 - pst.CONFIRM_TOL
