"""Super-strong Wilf and shift equivalence of permutations.

Permutations are tuples over 1..n in one-line notation.  The pyramid of gap
vectors is a complete invariant for super-strong Wilf equivalence; minimal
periodic-complement prefixes drive the exact class counts and the recursive
representative sets; rigid skyline shifts realize the same equivalence
geometrically.  Brute-force oracles recompute all of it by exhaustion.

Each public name, and each library submodule, loads on first access, so a
process pays only for the modules it uses.
"""
from importlib import import_module

__version__ = "0.1.0"

# submodule: the public names it provides; _SOURCE below inverts this table
_EXPORTS = {
    "counting": (
        "class_count",
        "class_count_by_exponent",
        "minimal_prefix_count",
        "noninterval_count",
        "periodic_prefix_count",
        "shift_class_count",
    ),
    "errors": ("InternalError", "UsageError", "WilfError"),
    "kernel": ("KERNEL_BACKEND",),
    "oracle": (
        "ClassPartitionReport",
        "bruteforce_minimal_prefix_row",
        "bruteforce_minimal_prefixes",
        "bruteforce_shift_partition",
        "bruteforce_ss_partition",
    ),
    "pyramid": (
        "PyramidalSequence",
        "canonical_key",
        "canonical_member",
        "class_size_exponent",
        "consecutive_differences",
        "is_ss_equivalent",
        "levels_from_key",
        "pyramidal_sequence",
        "set_from_differences",
        "validate_transition",
    ),
    "representatives": (
        "class_representatives",
        "decompositions",
        "inverse_representatives",
    ),
    "shift": (
        "RigidShiftMove",
        "apply_rigid_shift",
        "enumerate_rigid_shifts",
        "find_witness",
        "is_shift_equivalent",
        "is_strong_shift_equivalent",
        "shift_class",
        "strong_shift_class",
    ),
    "trapezoid": (
        "TrapezoidalSequence",
        "is_minimal_prefix",
        "is_non_interval",
        "is_periodic_set",
        "is_periodic_vector",
        "minimal_prefixes",
        "noninterval_to_prefix",
        "prefix_to_noninterval",
        "prefix_to_trapezoid",
        "trapezoid_to_prefix",
    ),
    "words": (
        "as_permutation",
        "as_word",
        "embedding_set",
        "format_word",
        "identity",
        "inverse",
        "parse_permutation",
        "reduced_form",
        "reversal",
        "un_reduce",
        "weight",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_RENAMED = {"KERNEL_BACKEND": "BACKEND"}  # public name: its name in the submodule

__all__ = list(_SOURCE)


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{_SOURCE[name]}")
    value = getattr(module, _RENAMED.get(name, name))
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
