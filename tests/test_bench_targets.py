"""Every function the traced benchmark wraps exists in the package.

``perfbench/layers.py`` names its targets as ``module.function`` strings and
the tracer looks each one up with a bare ``getattr``, so a rename in
``src/pstwalk`` would otherwise break only the traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    layers = load_layers()
    assert layers.TARGETS
    missing = []
    for name in list(layers.TARGETS) + list(layers.CALL_COUNTS):
        module, function = name.split(".")
        if not callable(getattr(importlib.import_module(f"pstwalk.{module}"), function, None)):
            missing.append(name)
    assert missing == []
