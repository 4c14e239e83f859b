"""Per-order vocabulary of the paperfolding interval calculus: the order
decomposition of a position, the per-order excess pattern of m cells, the
characterization of a split from its delta vector, the least admissible
shift exponent of an additivity step and the recurrence of letters along
their order class.

No command calls these; they state the paper's lemmas one order at a time
and serve as the reference the tests hold `calculus`'s popcount counting
and shift schedule to. Keeping them out of `calculus` spares every CLI
process their compile.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .calculus import _check_geometry, delta_vector, epsilon
from .instructions import InstructionSequence, paperfolding_letter


class OrderDecomposition(NamedTuple):
    """i = 2^order * (2*odd_index + 1)."""

    order: int
    odd_index: int

    @property
    def position(self) -> int:
        return (2 * self.odd_index + 1) << self.order


def order_decompose(i: int) -> OrderDecomposition:
    """Order (2-adic valuation) and odd index of a position i >= 1."""
    if i < 1:
        raise ValueError("positions are 1-based")
    k = (i & -i).bit_length() - 1
    return OrderDecomposition(order=k, odd_index=((i >> k) - 1) >> 1)


class EVector(NamedTuple):
    """Per-cell excess pattern of one order under a fixed bit hypothesis."""

    order: int
    bit: int
    components: tuple[int, ...]


def e_vector(b: InstructionSequence, k: int, bit: int, l: int, d: int, m: int) -> EVector:
    """Excess of order-k ones in each of the m cells (l+(t-1)d, l+td)."""
    _check_geometry(l, d, m)
    return EVector(
        order=k,
        bit=bit,
        components=tuple(epsilon(b, k, bit, l + t * d, l + (t + 1) * d) for t in range(m)),
    )


def characterize_split(b: InstructionSequence, l: int, d: int, m: int) -> str:
    """'abelian_power', 'abelian_antipower' or 'neither' for the factor of
    length d*m starting at position l+1, decided from the delta vector alone."""
    vec = delta_vector(b, l, d, m)
    if vec.all_equal():
        return "abelian_power"
    if vec.pairwise_distinct():
        return "abelian_antipower"
    return "neither"


def choose_r(b: InstructionSequence, min_exponent_bound: int, constraint_orders: Iterable[int]) -> int:
    """Smallest r with 2^r > min_exponent_bound whose shift respects the
    instruction sequence at every constrained order.

    For r >= len(b.preperiod) the test b_k = b_{k+r} depends only on
    r mod len(b.period), so one period of shifts past the preperiod decides.
    """
    start = int(min_exponent_bound).bit_length()
    limit = max(start, len(b.preperiod)) + len(b.period) - 1
    orders = sorted(constraint_orders)
    for r in range(start, limit + 1):
        if all(b.at(k) == b.at(k + r) for k in orders):
            return r
    raise ValueError(
        f"no shift exponent r <= {limit} matches the instructions on orders {orders}; "
        "a constrained order probably falls in an incompatible preperiod"
    )


def order_shift_check(b: InstructionSequence, i: int, s: int) -> bool:
    """Recurrence of letters along their order class: with k the order of i,
    the letter repeats at i + 2^{k+2+s} and flips at i + 2^{k+1}."""
    if i < 1:
        raise ValueError("positions are 1-based")
    if s < 0:
        raise ValueError("shift exponent must be >= 0")
    k = order_decompose(i).order
    here = paperfolding_letter(b, i)
    return (
        paperfolding_letter(b, i + (1 << (k + 2 + s))) == here
        and paperfolding_letter(b, i + (1 << (k + 1))) != here
    )
