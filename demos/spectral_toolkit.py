"""Spectral decompositions, cospectral vertices, and interlacing.

The decomposition is computed by LAPACK (numpy.linalg.eigh); the exact
charpoly machinery then cross-checks everything the numerics claim.

Run with:  python3 demos/spectral_toolkit.py
"""

import numpy as np

from pstwalk import (
    build_cycle,
    build_double_star,
    build_path,
    build_star,
    check_cauchy,
    cospectral,
    decompose,
    equitable_quotient,
    projector_entry_via_neutrino,
    strongly_cospectral,
    strongly_cospectral_exact,
    support,
    walk_module_matrix,
)


def banner(text):
    print()
    print(text)
    print("-" * len(text))


def projectors(dec):
    """The n x n projectors E_r = V_r V_r^T, V_r the eigenvector columns of
    eigenspace r (the library itself reads only rows of V)."""
    return [c @ c.T for c in np.split(dec.vectors, dec.starts[1:], axis=1)]


banner("Eigenvalues and projectors of C4")
c4 = build_cycle(4)
dec = decompose(c4)
print(f"  distinct eigenvalues: {[round(t, 10) for t in dec.distinct_eigenvalues]}")
print(f"  multiplicities:       {list(dec.multiplicities)}")
recon = sum(th * e for th, e in zip(dec.distinct_eigenvalues, projectors(dec)))
print(f"  sum theta_r E_r rebuilds A: {np.allclose(recon, c4.weights)}")

banner("Eigenvalue support of a vertex")
p3 = build_path(3)
d3 = decompose(p3)
print(f"  P3 spectrum: {[round(t, 10) for t in d3.distinct_eigenvalues]}")
print(f"  support of end vertex:    {[round(t, 10) for t in support(p3, 0)]}")
print(f"  support of middle vertex: {[round(t, 10) for t in support(p3, 1)]}")
print("  (the middle vertex misses eigenvalue 0: its projector column vanishes)")

banner("Cospectral vs strongly cospectral")
print(f"  P3 ends cospectral:          {cospectral(p3, 0, 2)}")
ok, sig = strongly_cospectral(p3, 0, 2)
print(f"  P3 ends strongly cospectral: {ok}")
print(f"  signs per eigenvalue: {[(round(t, 6), s) for t, _, _, s in sig.entries]}")
print(f"  C4 adjacent pair:  {strongly_cospectral_exact(c4, 0, 1)}")
print(f"  C4 antipodal pair: {strongly_cospectral_exact(c4, 0, 2)}")

banner("Projector entries from deleted charpolys")
# E_r[b, a] = phi-ratio data at theta_r, no eigenvectors involved.
g, a, b = build_double_star(2, 2)
dg = decompose(g)
print(f"  S(2,2) centres a={a}, b={b}")
for th, e in zip(dg.distinct_eigenvalues, projectors(dg)):
    exact_entry = projector_entry_via_neutrino(g, a, b, th)
    print(f"    theta = {th:+.6f}   E[b,a] numeric {e[b, a]:+.6f}"
          f"   via charpolys {exact_entry:+.6f}")

banner("Cauchy interlacing under vertex deletion")
p5 = build_path(5)
a_mat = p5.weights
keep = [0, 1, 2, 3]
s = np.eye(5)[:, keep]
print(f"  delete vertex 4 of P5: interlacing holds {check_cauchy(a_mat, s)}")

banner("Walk module compression")
star = build_star(3)
t_mat = walk_module_matrix(star, 0)
print(f"  K1,3 centre walk module:\n{np.round(t_mat, 6)}")
print("  (2x2: the centre's support has two eigenvalues, +sqrt(3), -sqrt(3))")

banner("Equitable partitions and quotients")
q = equitable_quotient(star, [[0], [1, 2, 3]])
print(f"  K1,3 cells {{centre}}, {{leaves}} quotient:\n{np.round(q.quotient, 6)}")
evals = np.linalg.eigvalsh(q.quotient)
print(f"  quotient eigenvalues {np.round(evals, 6)} embed in the star's spectrum")
