"""Exhaustive no-transfer searches and the verification suites.

The search joins every pair of marked connected graphs across a short
bridge.  A pair whose sides are not walk-equivalent (different reduced
phi(Y\\v)/phi(Y)) cannot even be cospectral across the bridge, so it fails
with no composite built; the others get the certificate on the joined
endpoints.  Every verdict is cross-checked.  A failure is settled by the
fidelity ceiling sum_r |(E_r)_ab|, which bounds the fidelity at every
time, or, when the pair is strongly cospectral and the ceiling is 1, by a
fidelity scan.  At desk scale the
only composition with transfer is the trivial one: two single vertices,
which just build the bridge path itself.

Run with:  python3 demos/no_transfer_search.py
"""

import json

from pstwalk import search_no_pst
from pstwalk.verify import run_suite


def banner(text):
    print()
    print(text)
    print("-" * len(text))


for bridge in (2, 3):
    banner(f"Bridge P{bridge}: all marked graphs up to 4 vertices a side")
    report = search_no_pst(bridge, max_n=4)
    print(f"  compositions tested:        {report.instances_tested}")
    print(f"  strongly cospectral pairs:  {report.strongly_cospectral_pairs}")
    print(f"  certified transfers:        {len(report.pst_successes)}")
    for hit in report.pst_successes:
        print(f"    sides n={hit['n1']} and n={hit['n2']}: the bare bridge"
              f" path, transfer at t = {hit['pst_time']:.6f}")
    print(f"  nontrivial transfers:       {len(report.nontrivial_successes)}")
    print(f"  pairs settled by side buckets: {report.bucket_settled}")
    print(f"  failures settled by the ceiling: {report.ceiling_settled}"
          f" (largest ceiling off strong cospectrality {report.max_ceiling:.4f})")
    print(f"  scan cross-check disagreements: {len(report.scan_disagreements)}")
    print("  failure reasons:")
    for reason, count in sorted(report.failure_histogram.items()):
        print(f"    {reason:24s} {count}")

banner("Verification suites")
# Each suite draws random instances and checks an exact identity or an
# inequality family; a pass means zero failures.
for name, kwargs in [
    ("onesum", {"instances": 60}),
    ("neutrino", {"instances": 60}),
    ("interlacing", {"instances": 60}),
    ("quotient", {}),
]:
    suite = run_suite(name, **kwargs)
    status = "pass" if suite.passed else f"FAIL {suite.failures[:3]}"
    print(f"  {suite.name:12s} {suite.instances:4d} instances  {status}")

banner("Search report as JSON")
report = search_no_pst(2, max_n=2)
print(json.dumps(report.to_json(), indent=2))
