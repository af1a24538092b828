"""Exact counting of permutation factorizations into transpositions.

The names of symfun and verify are loaded on first use (PEP 562), so a
process that only counts never imports the battery.
"""

import importlib

from .partitions import (enumerate_partitions, PartitionIndex, conjugate,
                         z_value, class_size, rho, hook_lengths,
                         parity_census, DEFAULT_MAX_N)
from .transition import (build_transition_matrix, build_raw_counts,
                         verify_matrix_equality, matrix_power_apply,
                         zero_multiplicity_lower_bound)
from .characters import (mn_character, enumerate_bst, bst_signed_count,
                         dimension_hook_formula, build_character_table,
                         CharacterTable)
from .counting import (count_spectral, count_matrix_method, count_goulden,
                       count_two_cycle, two_cycle_terms, series_prefix,
                       SeriesPrefix)
from .oracle import (cycle_type, count_brute, count_tuples, verify_cut_glue,
                     verify_class_invariance)

__version__ = "0.1.0"

# served by __getattr__, with the module each name is read from
_LAZY = {name: "symfun" for name in (
    "Poly", "power_sum", "expand_p", "schur_from_characters", "apply_dstar",
    "matrix_of_dstar", "omega_on_p", "schur_p_coords")}
_LAZY["run_battery"] = "verify"

__all__ = [
    "enumerate_partitions", "PartitionIndex", "conjugate", "z_value",
    "class_size", "rho", "hook_lengths", "parity_census", "DEFAULT_MAX_N",
    "build_transition_matrix", "build_raw_counts", "verify_matrix_equality",
    "matrix_power_apply", "zero_multiplicity_lower_bound",
    "mn_character", "enumerate_bst", "bst_signed_count",
    "dimension_hook_formula", "build_character_table", "CharacterTable",
    "count_spectral", "count_matrix_method", "count_goulden",
    "count_two_cycle", "two_cycle_terms", "series_prefix", "SeriesPrefix",
    "cycle_type", "count_brute", "count_tuples", "verify_cut_glue",
    "verify_class_invariance",
    *_LAZY,
]


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
