"""Write the stored bridge-search reference for the default seed, 0.

    python3 perfbench/make_reference.py

Runs every bridge-search op of seed 0 once, requires each report to pass
the theory checks, and stores the report digests in
``perfbench/reference/bridge-search-seed0.json``.  ``run.py`` then requires
the reports of that seed to equal the stored ones.
"""

from __future__ import annotations

import json
import random
import sys

import run
from workloads import REFERENCE_DIR, BridgeSearch, report_digest


SEED = 0


def main() -> int:
    mods = run.import_package()
    wl = BridgeSearch()
    path = REFERENCE_DIR / f"bridge-search-seed{SEED}.json"
    path.unlink(missing_ok=True)  # make_inputs attaches a stored reference
    digests = []
    for op in wl.make_inputs(mods, random.Random(SEED), SEED):
        report = wl.run(mods, op, wl.prepare(mods, op))
        error = wl.check(op, report)
        if error is not None:
            print(f"op {op.index}: {error}", file=sys.stderr)
            return 1
        digests.append(report_digest(report))
    REFERENCE_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps({"seed": SEED, "ops": digests}, separators=(",", ":")) + "\n")
    print(f"wrote {len(digests)} op digests to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
