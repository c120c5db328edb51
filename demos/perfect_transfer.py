"""Perfect state transfer: certificates, scaled weights, and near misses.

A certificate is an exact decision built from integer data: eigenvalue
support in quadratic-integer form, sign pattern, and a parity condition on
the integer gaps.  Fidelity scans only confirm what the certificate already
proved, and the near-miss section shows why a scan alone cannot decide.

Run with:  python3 demos/perfect_transfer.py
"""

import math

from pstwalk import (
    Graph,
    build_cycle,
    build_double_star,
    build_extended_double_star,
    build_path,
    evolve_fidelity,
    fidelity_scan,
    pst_certificate,
)


def banner(text):
    print()
    print(text)
    print("-" * len(text))


def show(label, cert):
    if cert.success:
        print(f"  {label}: transfer at t = {cert.pst_time:.10f}"
              f"  (alpha={cert.alpha}, Delta={cert.delta}, betas={cert.betas},"
              f" g={cert.g})")
    else:
        print(f"  {label}: no transfer ({cert.failure_reason})")


banner("The graphs that do admit transfer")
p2 = build_path(2)
c = pst_certificate(p2, 0, 1)
show("P2 endpoints      ", c)
print(f"    pi/2 = {math.pi / 2:.10f}, fidelity there ="
      f" {evolve_fidelity(p2, 0, 1, c.pst_time):.12f}")

p3 = build_path(3)
c = pst_certificate(p3, 0, 2)
show("P3 end to end     ", c)
print(f"    pi/sqrt2 = {math.pi / math.sqrt(2):.10f}")

c4 = build_cycle(4)
show("C4 antipodal pair ", pst_certificate(c4, 0, 2))

banner("Every way a certificate can fail")
p4 = build_path(4)
show("P4 middle pair        ", pst_certificate(p4, 1, 2))
g, a, b = build_double_star(2, 2)
show("S(2,2) centres        ", pst_certificate(g, a, b))
g, a, b = build_double_star(2, 3)
show("S(2,3) centres        ", pst_certificate(g, a, b))
g, a, b = build_extended_double_star(1, 1)
show("extended S(1,1)       ", pst_certificate(g, a, b))

banner("Scaled weights: the same decision, a scaled time")
# Multiplying every weight by 2**k multiplies the spectrum by 2**k, so the
# transfer time shrinks by 2**k.  The certificate decides on integer
# polynomials, so the structure survives scales where rounded floats fail.
for k in (0, 20, 40):
    cert = pst_certificate(Graph(2**k * p3.weights), 0, 2)
    print(f"  P3 with weights 2^{k:<2}: {cert.status}, t * 2^{k} = "
          f"{cert.pst_time * 2**k:.10f}, betas = {cert.betas}")
# Golden-ratio support (P4 ends): no common alpha, so no time exists.
show("P4 end to end         ", pst_certificate(p4, 0, 3))

banner("Near misses: approximate transfer without the real thing")
# S(1,1) is P4 end to end through the certificate's eyes: the quadratic
# structure has no common integer alpha, so transfer is impossible.  The
# fidelity still creeps past 0.9999 if you wait long enough.
g, a, b = build_double_star(1, 1)
cert = pst_certificate(g, a, b)
print(f"  S(1,1) certificate: {cert.status} ({cert.failure_reason})")
for t_max in (10.0, 60.0, 200.0):
    t_best, f_best = fidelity_scan(g, a, b, t_max=t_max, steps=50_000)
    print(f"    best fidelity on [0, {t_max:>5.0f}]:"
          f" {f_best:.7f} at t = {t_best:.2f}")
print("  the peaks approach 1 but the certificate threshold 1 - 1e-6 is")
print("  never crossed: approximate transfer, not perfect transfer")

# S(2,2) fails on parity instead, and that failure is visible in the scan:
# the fidelity stays bounded well away from 1.
g, a, b = build_double_star(2, 2)
cert = pst_certificate(g, a, b)
t_best, f_best = fidelity_scan(g, a, b, t_max=200.0, steps=50_000)
print(f"  S(2,2) certificate: {cert.status} ({cert.failure_reason})")
print(f"    best fidelity on [0, 200]: {f_best:.7f} at t = {t_best:.2f}")
print("  a parity obstruction keeps this pair bounded away from transfer")
