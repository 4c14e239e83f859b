"""Structured infinite words: generation, abelian analysis, antipower
scanning, and certified synthesis of abelian antipower occurrences.

Submodules and the names below are imported on first access (PEP 562), so
`import antipow` alone imports none of them, and a program loads only the
layers it calls. The package needs only the standard library.
"""

from importlib import import_module

# submodule -> the public names it defines
_EXPORTS = {
    "abelian": (
        "ComplexityTable",
        "abelian_complexity",
        "complexity_table",
        "cyclic_shift_spectrum",
        "factor_complexity",
        "infinite_complexity_table",
        "is_prefix_normal",
        "parikh",
        "parikh_prefix_table",
        "phi_u",
    ),
    "calculus": (
        "AntipowerCertificate",
        "DeltaVector",
        "additivity_combine",
        "additivity_precheck",
        "alpha_sequence",
        "construct_antipower",
        "delta_interval",
        "delta_vector",
        "differing_orders",
        "epsilon",
        "find_seed_block",
        "ones_of_order_in_interval",
        "ones_upto",
        "verify_certificate",
    ),
    "orders": (
        "EVector",
        "OrderDecomposition",
        "characterize_split",
        "choose_r",
        "e_vector",
        "order_decompose",
        "order_shift_check",
    ),
    "instructions": (
        "InstructionSequence",
        "PAPERFOLDING_ALPHABET",
        "REGULAR",
        "paperfolding_letter",
    ),
    "scan": (
        "BlockSplit",
        "ClassifyResult",
        "ScanHit",
        "avoidance_scan",
        "classify_block",
        "find_first",
    ),
    "words": (
        "FiniteWord",
        "Morphism",
        "SIERPINSKI_MORPHISM",
        "THUE_MORSE_MORPHISM",
        "morphism_prefix",
        "sierpinski_prefix",
        "toeplitz_paperfolding_prefix",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli")

# a star import binds the four layer modules too, not `instructions`, `orders`
# or `cli`
__all__ = [*_ORIGIN, "abelian", "calculus", "scan", "words"]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    elif name in _ORIGIN:
        value = getattr(import_module(f".{_ORIGIN[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_ORIGIN, *_SUBMODULES})
