"""Exact counting of permutation factorizations into transpositions.

Importing the package loads none of its modules. Each exported name
loads the module it is read from on first use (PEP 562) and is then
bound here, as an eager import would have bound it. So a process pays
only for the modules its work reads: a count never imports the
battery, and the matrix never imports the characters.
"""

import importlib

__version__ = "0.1.0"

# each module and the names read from it, in export order
_EXPORTS = {
    "partitions": (
        "enumerate_partitions", "PartitionIndex", "conjugate", "z_value",
        "class_size", "rho", "hook_lengths", "DEFAULT_MAX_N"),
    "transition": ("build_transition_matrix", "matrix_power_apply"),
    "characters": (
        "mn_character", "dimension_hook_formula", "build_character_table",
        "CharacterTable"),
    "counting": (
        "count_spectral", "count_matrix_method", "count_goulden",
        "count_two_cycle", "two_cycle_terms", "series_prefix",
        "SeriesPrefix", "Expansion", "spectral_expansion",
        "goulden_expansion", "two_cycle_expansion"),
    "oracle": (
        "cycle_type", "count_brute", "count_tuples", "build_raw_counts",
        "enumerate_bst", "bst_signed_count", "Poly", "power_sum",
        "apply_dstar"),
    "symfun": ("dstar_rows", "pour_rows", "kostka_rows"),
    "verify": ("run_battery", "parity_census"),
}
_LAZY = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_LAZY)


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
