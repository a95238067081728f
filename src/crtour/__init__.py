"""crtour: exact combinatorics of tournament determinant classes.

Tournaments with their switching operation, exact skew-adjacency
determinants and D_k classes, blowup constructions and decompositions,
the L_n family with its extension calculus, the Z-matrix machinery
behind the deletion-determinant identities, and a registry of
verification suites over all of it.
"""

from .core import (
    Tournament,
    apply_permutation,
    canonical_encoding,
    enumerate_tournaments,
    format_skew,
    format_trn,
    induced,
    is_diamond,
    is_isomorphic,
    is_transitive,
    parse_tournament,
    switch,
    switching_equivalent,
    switching_isomorphic,
    theta,
    transitive_tournament,
)
from .detkit import (
    DkReport,
    det_exact,
    in_dk,
    in_dk_exactly,
    max_subtournament_det,
    skew_adjacency,
    tournament_det,
)
from .cr import (
    CrReport,
    CrWitness,
    StrongCrReport,
    all_sigmas,
    cr_associated,
    cr_normalize,
    cr_vertex_witness,
    cr_witness_table,
    count_cr_sigmas,
    extend,
    is_basic,
    is_cr_tournament,
    is_strong_cr,
    is_trivial_cr,
    sigma_from_string,
    sigma_to_string,
)
from .blowup import (
    D5Classification,
    Decomposition,
    as_transitive_blowup_of,
    classify_d5,
    contains_switching_isomorphic,
    decompose_brute_force,
    decompose_transitive_blowup,
    one_transitive_blowups,
    switching_to_transitive,
    transitive_blowup,
    xi_blowup_check,
)
from .lfamily import (
    gen_ln,
    gen_ln_minus,
    ln_extension_is_cr,
    ln_extension_is_cr_odd,
    psi,
    sigma_to_signature,
    signature_from_text,
    signature_to_sigma,
    signature_to_text,
)
from .zmatrix import (
    DiagonalVector,
    ZMatrix,
    assemble_bordered,
    b_diff_predicted,
    bordered_det,
    delta_total,
    diagonal_vector,
    ln_deletion_det_check,
    row_sums,
    transitive_inverse,
    z_matrix,
)
from .verify import SuiteReport, available_suites, d7_six_tournament, run_suite
from .errors import (
    CrtourError,
    InvalidArgumentError,
    ResourceLimitError,
    TheoremViolationError,
)

__version__ = "0.1.0"
