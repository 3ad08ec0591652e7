"""Exact coherence engine for categorified non-symmetric operads.

Builds operahedron skeletons from planar trees, orients them by the two
rewrite families, certifies the Morse hypotheses, computes homology, and
produces machine-checkable homotopy certificates between parallel words.
"""

from .complexes import (
    Complex2,
    CounterexampleReport,
    HomologyReport,
    MorseCertificate,
    certify_simply_connected,
    check_morse_certificate,
    homology,
    morse_certificate,
    outgoing_link,
    validate,
)
from .coherence import (
    CoherenceVerdict,
    MorphismWord,
    check_local_confluence,
    decide_coherence,
    maclane_parse,
    normal_form,
    word_to_path,
)
from .geometry import induced_orientation, loday_point, polytope_morse_check
from .homotopy import (
    Certificate,
    HomotopyBuilder,
    Path,
    reduce_path,
    verify_certificate,
)
from .skeleton import Skeleton, build_skeleton, classify_edge, classify_flip
from .trees import (
    Composition,
    Expression,
    Generator,
    PlanarTree,
    enumerate_maximal_nestings,
    enumerate_nests,
    enumerate_ordered_trees,
    expression_to_nesting,
    nesting_to_expression,
    parse_expression,
)

__all__ = [
    "Certificate",
    "CoherenceVerdict",
    "Complex2",
    "Composition",
    "CounterexampleReport",
    "Expression",
    "Generator",
    "HomologyReport",
    "HomotopyBuilder",
    "MorphismWord",
    "MorseCertificate",
    "Path",
    "PlanarTree",
    "Skeleton",
    "build_skeleton",
    "certify_simply_connected",
    "check_local_confluence",
    "check_morse_certificate",
    "classify_edge",
    "classify_flip",
    "decide_coherence",
    "enumerate_maximal_nestings",
    "enumerate_nests",
    "enumerate_ordered_trees",
    "expression_to_nesting",
    "homology",
    "induced_orientation",
    "loday_point",
    "maclane_parse",
    "morse_certificate",
    "nesting_to_expression",
    "normal_form",
    "outgoing_link",
    "parse_expression",
    "polytope_morse_check",
    "reduce_path",
    "validate",
    "verify_certificate",
    "word_to_path",
]
