"""Structured infinite words: generation, abelian analysis, antipower
scanning, and certified synthesis of abelian antipower occurrences."""

from .abelian import (
    ComplexityTable,
    abelian_complexity,
    complexity_table,
    cyclic_shift_spectrum,
    factor_complexity,
    is_prefix_normal,
    parikh,
    parikh_prefix_table,
    phi_u,
)
from .calculus import (
    AntipowerCertificate,
    DeltaVector,
    EVector,
    OrderDecomposition,
    additivity_combine,
    additivity_precheck,
    alpha_sequence,
    characterize_split,
    choose_r,
    construct_antipower,
    delta_interval,
    delta_vector,
    differing_orders,
    e_vector,
    epsilon,
    find_seed_block,
    ones_of_order_in_interval,
    ones_upto,
    order_decompose,
    order_shift_check,
    verify_certificate,
)
from .scan import (
    BlockSplit,
    ClassifyResult,
    ScanHit,
    avoidance_scan,
    classify_block,
    find_first,
)
from .words import (
    FiniteWord,
    InstructionSequence,
    Morphism,
    PAPERFOLDING_ALPHABET,
    REGULAR,
    SIERPINSKI_MORPHISM,
    THUE_MORSE_MORPHISM,
    morphism_prefix,
    paperfolding_letter,
    sierpinski_prefix,
    toeplitz_paperfolding_prefix,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
