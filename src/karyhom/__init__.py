"""karyhom: exact homology of nilpotent k-ary Lie algebras.

Builds k-ary Lie algebras from integer structure constants, assembles
the shuffle-sum boundary maps on exterior powers, computes Betti numbers
by exact sparse rank over Q, identifies homology groups as Schur modules
through torus weights, and evaluates toral-rank lower bounds.

The package namespace is lazy (PEP 562): importing ``karyhom`` runs no
submodule, and each exported name imports its home module on first
access, so a process pays only for the modules it uses.
"""

__version__ = "0.1.0"

# submodule -> the names it exports through the package
_EXPORTS = {
    "algebra": (
        "DEFAULT_SIZE_CAP",
        "KaryAlgebra",
        "algebra_from_json_dict",
        "algebra_to_json_dict",
        "center",
        "check_jacobi",
        "is_nilpotent",
        "load_algebra",
        "lower_central_series",
    ),
    "chains": (
        "ChainLayout",
        "differential_matrix",
        "verify_d_squared",
    ),
    "errors": ("ConsistencyError", "InputError", "LoadError", "ResourceCapError"),
    "families": (
        "FamilySpec",
        "abelian",
        "acj",
        "current_algebra",
        "free_three_step_small",
        "free_two_step",
        "heisenberg",
    ),
    "homology": (
        "HomologyReport",
        "acj_classical_betti",
        "acj_second_homology_formula",
        "betti",
        "betti_all",
        "free3_expected_betti",
        "heisenberg_betti_formula",
        "heisenberg_image_formula",
        "property_m_check",
        "theta_matrix",
        "total_homology_all_degrees",
        "verify_acj",
        "verify_free3",
        "verify_heisenberg",
    ),
    "matrices": ("rank", "rank_mod_p", "write_matrix_market"),
    "schur": (
        "character_by_weights",
        "decompose_character",
        "decomposition_dimension",
        "lower_bound_betti",
        "schur_dim",
        "second_homology_bound",
        "second_homology_summands",
        "stability_check",
    ),
    "toral": ("refinement_bound", "toral_table_rows", "verify_toral"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
