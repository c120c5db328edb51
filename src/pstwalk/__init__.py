"""Continuous-time quantum walk analysis on graphs.

Exact characteristic-polynomial machinery, spectral decompositions,
strong-cospectrality decisions, perfect-state-transfer certificates, and
verification suites for the structural identities everything rests on.
"""

from .exactpoly import (
    IntPoly,
    RationalFunction,
    bridge_charpoly_p2,
    charpoly,
    charpoly_deleted,
    one_sum_charpoly,
    path_sum_poly,
    return_walk_gf,
    squarefree_part,
    walk_equivalent,
    walk_gf,
)
from .graphs import (
    Graph,
    GraphParseError,
    build_complete,
    build_cycle,
    build_double_star,
    build_extended_double_star,
    build_path,
    build_star,
    compose,
    connected_graphs,
    iter_ab_paths,
    marked_graphs,
    one_sum,
    parse_graph,
    serialize_graph,
)
from .pst import (
    PstCertificate,
    evolve_fidelity,
    fidelity_ceiling,
    fidelity_scan,
    pst_certificate,
    quadratic_integer_structure,
)
from .spectral import (
    SpectralDecomposition,
    SupportSignature,
    cospectral,
    decompose,
    projector_entry_via_neutrino,
    strongly_cospectral,
    strongly_cospectral_exact,
    support,
    walk_module_matrix,
)
from .verify import (
    SearchReport,
    check_cauchy,
    check_kyfan,
    check_weyl,
    equitable_quotient,
    run_suite,
    search_no_pst,
    verify_support_correspondence_p2,
    verify_support_correspondence_p3,
)

__version__ = "0.1.0"
