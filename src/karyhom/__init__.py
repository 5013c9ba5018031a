"""karyhom: exact homology of nilpotent k-ary Lie algebras.

Builds k-ary Lie algebras from integer structure constants, assembles
the shuffle-sum boundary maps on exterior powers, computes Betti numbers
by exact sparse rank over Q, identifies homology groups as Schur modules
through torus weights, and evaluates toral-rank lower bounds.
"""

__version__ = "0.1.0"

from .algebra import (
    KaryAlgebra,
    Subspace,
    algebra_from_json_dict,
    algebra_to_json_dict,
    center,
    check_jacobi,
    dump_algebra,
    is_nilpotent,
    load_algebra,
    lower_central_series,
)
from .chains import (
    ChainLayout,
    boundary_image,
    differential_matrix,
    monomial_weight,
    shuffles,
    verify_d_squared,
    wedge_basis,
    weight_blocks,
)
from .errors import ConsistencyError, InputError, LoadError, ResourceCapError
from .families import (
    FamilySpec,
    abelian,
    acj,
    current_algebra,
    free_three_step_small,
    free_two_step,
    heisenberg,
)
from .homology import (
    DEFAULT_SIZE_CAP,
    HomologyReport,
    acj_classical_betti,
    acj_homology_via_theta,
    acj_second_homology_formula,
    betti,
    betti_all,
    free3_expected_betti,
    heisenberg_betti_formula,
    heisenberg_image_formula,
    property_m_check,
    theta_kernel_dim,
    theta_matrix,
    total_homology_all_degrees,
    verify_acj,
    verify_free3,
    verify_heisenberg,
)
from .matrices import (
    SparseIntMatrix,
    is_probable_prime,
    kernel_dim,
    multiply,
    random_prime,
    rank,
    rank_mod_p,
    read_matrix_market,
    write_matrix_market,
)
from .schur import (
    asymptotic_bound,
    character_by_weights,
    decompose_character,
    decomposition_dimension,
    expand_decomposition,
    lower_bound_betti,
    pieri_dimension_check,
    schur_dim,
    schur_weight_multiplicities,
    second_homology_bound,
    second_homology_summands,
    stability_check,
)
from .toral import (
    refinement_bound,
    toral_table_rows,
    verify_toral,
)
