"""Interval calculus for paperfolding words and constructive synthesis of
abelian antipower occurrences.

Positions are 1-based and unbounded. An interval (a, b) with a < b always
means the positions a+1 .. b. Every letter position i has a unique order k
with i = 2^k(2j+1); the ones of order k sit in a single residue class mod
2^{k+2} selected by the instruction bit b_k, so one-counts over any interval
reduce to closed-form residue counting: an interval of length L contains
floor(L / 2^{k+2}) of them plus an excess of 0 or 1. Summing excesses over
orders gives the delta of an interval. The sum over all orders collapses to
two popcounts of masked bit patterns, and `_cell_ones` counts the m
consecutive cells (l + t*d, l + (t+1)*d) from their m + 1 boundaries under
one instruction mask: every one-count, delta and delta vector, the seed
block's base vectors and certificate verification read it. The per-order
functions stay as the independent cross-check. The vector of deltas over m
consecutive cells characterizes abelian powers (all components equal) and
abelian antipowers (components pairwise distinct). The additivity law
combines two cell geometries into one whose delta vector is the sum, which
lets arbitrarily spread vectors be assembled from a small seed block.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .instructions import (
    MAX_COMBINED_BITS,
    InstructionSequence,
    _unlimited_int_digits,
    json_text,
    paperfolding_letter,
)

# candidate block centers find_seed_block tries before giving up
SEED_SCAN_BOUND = 1024


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


def _check_interval(a: int, n: int) -> None:
    if a < 0:
        raise ValueError("interval start must be >= 0")
    if a >= n:
        raise ValueError(f"empty interval ({a}, {n})")


def ones_of_order_in_interval(b: InstructionSequence, k: int, a: int, n: int) -> int:
    """Count of ones of order k among positions a+1..n, by residue counting.

    Never materializes the word, so a and n may be astronomically large.
    """
    _check_interval(a, n)
    if k < 0:
        raise ValueError("order must be >= 0")
    residue = (2 + b.at(k)) << k
    shift = k + 2
    return ((n - residue) >> shift) - ((a - residue) >> shift)


def epsilon(b: InstructionSequence, k: int, bit: int, a: int, n: int) -> int:
    """Excess (0 or 1) of order-k ones in (a, n) over the length baseline
    floor((n-a)/2^{k+2}), with the instruction at order k forced to `bit`."""
    _check_interval(a, n)
    if bit not in (1, -1):
        raise ValueError("bit must be +1 or -1")
    residue = (2 + bit) << k
    shift = k + 2
    count = ((n - residue) >> shift) - ((a - residue) >> shift)
    excess = count - ((n - a) >> shift)
    if excess not in (0, 1):
        raise ArithmeticError(f"excess {excess} outside {{0,1}}: counting bug")
    return excess


def _baseline(length: int) -> int:
    """Sum over orders k of floor(length / 2^{k+2})."""
    return length - length.bit_count() - (length >> 1)


def _cell_ones(b: InstructionSequence, l: int, d: int, m: int) -> list[int]:
    """Exact one-counts of the m cells (l + t*d, l + (t+1)*d), t = 0..m-1,
    as differences of the one-counts up to the m + 1 cell boundaries.

    The order-k ones up to n number floor((n + (2 - b_k) 2^k) / 2^{k+2}):
    the baseline floor(n / 2^{k+2}) plus one exactly when bits k and k+1 of
    n are both set (b_k = +1) or either is set (b_k = -1). Summed over all
    orders this is the baseline plus two masked popcounts, over P_b and its
    complement ~P_b, where bit k of P_b is set when b_k = +1. One P_b, as
    wide as the last boundary, serves every boundary: n | n >> 1 has no bits
    past n's bit length, so neither the higher bits of P_b nor the infinite
    two's-complement ones of ~P_b ever count. The periodic part of P_b is the
    period's bits times a repunit of period-wide digits, shifted past the
    preperiod. The geometry is the caller's to check.
    """
    pre, per = len(b.preperiod), len(b.period)
    bits = lambda vs: sum(1 << k for k, v in enumerate(vs) if v == 1)
    copies = max((l + m * d).bit_length() - pre, 0) // per + 1
    repunit = ((1 << per * copies) - 1) // ((1 << per) - 1)
    plus = bits(b.preperiod) | (bits(b.period) * repunit) << pre
    minus = ~plus

    def upto(n: int) -> int:
        half = n >> 1
        return _baseline(n) + (n & half & plus).bit_count() + ((n | half) & minus).bit_count()

    counts = [upto(l + t * d) for t in range(m + 1)]
    return [hi - lo for lo, hi in zip(counts, counts[1:])]


def ones_upto(b: InstructionSequence, n: int) -> int:
    """Exact count of ones among positions 1..n, the one cell (0, n)."""
    if n < 0:
        raise ValueError("position must be >= 0")
    return _cell_ones(b, 0, n, 1)[0]


def delta_interval(b: InstructionSequence, a: int, n: int) -> int:
    """Total excess of ones in (a, n) over the per-order baselines
    floor((n-a) / 2^{k+2}); equals the sum of epsilon over all orders."""
    _check_interval(a, n)
    return _cell_ones(b, a, n - a, 1)[0] - _baseline(n - a)


class EVector(NamedTuple):
    """Per-cell excess pattern of one order under a fixed bit hypothesis."""

    order: int
    bit: int
    components: tuple[int, ...]


class DeltaVector(NamedTuple):
    """Per-cell excess one-counts of m consecutive cells."""

    components: tuple[int, ...]

    def __add__(self, other: "DeltaVector") -> "DeltaVector":
        if len(self.components) != len(other.components):
            raise ValueError("component count mismatch")
        return DeltaVector(tuple(x + y for x, y in zip(self.components, other.components)))

    def spread(self) -> int:
        return max(self.components) - min(self.components)

    def all_equal(self) -> bool:
        return len(set(self.components)) == 1

    def pairwise_distinct(self) -> bool:
        return len(set(self.components)) == len(self.components)


def _check_geometry(l: int, d: int, m: int) -> None:
    if l < 0:
        raise ValueError("cell start must be >= 0")
    if d < 1 or m < 1:
        raise ValueError("cell width and cell count must be >= 1")


def e_vector(b: InstructionSequence, k: int, bit: int, l: int, d: int, m: int) -> EVector:
    """Excess of order-k ones in each of the m cells (l+(t-1)d, l+td)."""
    _check_geometry(l, d, m)
    return EVector(
        order=k,
        bit=bit,
        components=tuple(epsilon(b, k, bit, l + t * d, l + (t + 1) * d) for t in range(m)),
    )


def delta_vector(b: InstructionSequence, l: int, d: int, m: int) -> DeltaVector:
    """Delta of each of the m consecutive cells of width d starting after l."""
    _check_geometry(l, d, m)
    baseline = _baseline(d)
    return DeltaVector(tuple(c - baseline for c in _cell_ones(b, l, d, m)))


def characterize_split(b: InstructionSequence, l: int, d: int, m: int) -> str:
    """'abelian_power', 'abelian_antipower' or 'neither' for the factor of
    length d*m starting at position l+1, decided from the delta vector alone."""
    vec = delta_vector(b, l, d, m)
    if vec.all_equal():
        return "abelian_power"
    if vec.pairwise_distinct():
        return "abelian_antipower"
    return "neither"


def differing_orders(b: InstructionSequence, l: int, d: int, m: int) -> frozenset[int]:
    """Orders whose per-cell excess pattern on (l, d, m) depends on the
    instruction bit. The set does not depend on b.

    Up to n, the order-k ones under b_k = +1 and under b_k = -1 differ in
    count exactly when bit k of the Gray code G(n) = n ^ (n >> 1) is set, so
    a cell (a, n) tells the two bits apart at the set bits of
    G(a) ^ G(n) = G(a ^ n).
    """
    _check_geometry(l, d, m)
    mask = 0
    for t in range(m):
        x = (l + t * d) ^ (l + (t + 1) * d)
        mask |= x ^ (x >> 1)
    return frozenset(k for k, bit in enumerate(reversed(bin(mask)[2:])) if bit == "1")


class PrecheckReport(NamedTuple):
    ok: bool
    violations: tuple[str, ...]


def additivity_precheck(
    b: InstructionSequence, l: int, d: int, lp: int, dp: int, m: int, r: int
) -> PrecheckReport:
    """Check the hypotheses under which delta vectors add:

    (i)   the second geometry has even start and even cell width;
    (ii)  2^r exceeds the span l + m*d of the first geometry;
    (iii) at every order whose excess pattern on the second geometry depends
          on the instruction bit, the instructions at k and k+r agree.
    """
    _check_geometry(l, d, m)
    _check_geometry(lp, dp, m)
    if r < 0:
        raise ValueError("shift exponent must be >= 0")
    violations = []
    if lp % 2 or dp % 2:
        violations.append(f"(i) second geometry must be even: start={lp}, width={dp}")
    # 2^r > span exactly when r reaches the span's bit length; no 2^r is built
    if r < (l + m * d).bit_length():
        violations.append(f"(ii) 2^{r} does not exceed {l + m * d}")
    for k in sorted(differing_orders(b, lp, dp, m)):
        if b.at(k) != b.at(k + r):
            violations.append(f"(iii) instructions differ at orders {k} and {k + r}")
    return PrecheckReport(ok=not violations, violations=tuple(violations))


def additivity_combine(
    b: InstructionSequence, l: int, d: int, lp: int, dp: int, m: int, r: int
) -> tuple[int, int]:
    """Combined geometry (l + 2^r lp, d + 2^r dp) whose delta vector is the
    componentwise sum of the two inputs."""
    report = additivity_precheck(b, l, d, lp, dp, m, r)
    if not report.ok:
        raise ValueError("additivity precheck failed: " + "; ".join(report.violations))
    return l + (lp << r), d + (dp << r)


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


def find_seed_block(b: InstructionSequence, u: int, k: int) -> int:
    """Even start l of a seed factor for the antipower construction.

    Scans the ones of order u+k as block centers c; the factor occupies
    (l, l + 2^{u+k+2}) with l = c - 2^{u+k+1} a multiple of 2^{u+k}, and must
    satisfy: the block of length 2^{u+k+2}-1 around c has equal halves, no
    letter of order above u+k+4, and the 2^k base vectors
    Delta(l + 2^u i, 2^u, 2^k), the length-2^k windows of the 2^{k+1} - 1
    cell deltas after l, are pairwise distinct.

    With K = u+k, the halves are equal exactly when the letters at c - 2^K
    and c + 2^K are. The halves are l+i and c+i = l+i + 2^{K+1} for
    1 <= i < 2^{K+1}. When v = nu_2(i) < K, both positions have order v,
    since l is a multiple of 2^K; a letter of order v depends only on its
    position mod 2^{v+2}, which divides 2^{K+1}, so the two letters agree.
    The only i with nu_2(i) >= K is 2^K.
    """
    if k < 1:
        raise ValueError("power exponent must be >= 1")
    if u < len(b.preperiod) + 1:
        raise ValueError("block exponent must put the instruction window in the periodic tail")
    center_order = u + k
    quarter = 1 << center_order
    half = 2 * quarter
    width = 1 << u
    cells = 1 << k
    for t in range(SEED_SCAN_BOUND + 1):
        c = (2 + b.at(center_order) + 4 * t) << center_order
        l = c - half
        if l < 0:
            continue
        if paperfolding_letter(b, c - quarter) != paperfolding_letter(b, c + quarter):
            continue
        # a letter of order > u+k+4 is a multiple of 2^{u+k+5}
        if ((l + 2 * half - 1) >> (center_order + 5)) > (l >> (center_order + 5)):
            continue
        run = delta_vector(b, l, width, 2 * cells - 1).components
        if len({run[i : i + cells] for i in range(cells)}) != cells:
            continue
        return l
    raise ValueError(f"no seed block found among the first {SEED_SCAN_BOUND + 1} candidate centers")


def alpha_sequence(base: list[DeltaVector]) -> list[int]:
    """Minimal multiplicities making the weighted sum of the base vectors
    have pairwise distinct components: each multiplier strictly dominates
    the total spread the earlier terms can contribute."""
    if not base:
        raise ValueError("need at least one base vector")
    alphas: list[int] = []
    for i in range(len(base)):
        alphas.append(1 + sum(a * v.spread() for a, v in zip(alphas, base[:i])))
    return alphas


def _shift_schedule(
    b: InstructionSequence, base_starts: list[int], width: int, cells: int, weights: list[int]
) -> list[list[int]]:
    """Shift exponents of the additivity steps that add weights[i] copies of
    the geometry (base_starts[i], width, cells) to the empty geometry (0, 0),
    base by base: entry i lists base i's shifts in step order.

    Each shift is the one choose_r picks, the least r with 2^r above the span
    start + cells*d so far and b_k = b_{k+r} at every order of
    differing_orders on the base geometry. The first step has r = 0: it
    places the first base with positive weight itself. The schedule runs on
    small integers: the span before a step is below 2^r, so no carry crosses
    bit r and the span after it has bit length r + (l_i + cells*width).bit_length().
    The schedule stops, refusing the certificate, as soon as that bit length
    passes MAX_COMBINED_BITS: it never grows shorter, and printing it in
    decimal costs time quadratic in it.
    """
    pre, per = len(b.preperiod), len(b.period)
    schedule = []
    span_bits = 0
    for l, weight in zip(base_starts, weights):
        orders = differing_orders(b, l, width, cells)
        # past the preperiod b_{k+r} depends on r mod per only, so one
        # verdict per residue decides every shift; residue 0 always fits
        if min(orders) < pre:
            raise ValueError(
                f"the geometry at {l} constrains order {min(orders)}, "
                f"inside the preperiod of {b}"
            )
        fits = [all(b.at(k) == b.at(k + s) for k in orders) for s in range(per)]
        base_bits = (l + cells * width).bit_length()
        shifts = []
        for _ in range(weight):
            r = span_bits
            while not fits[r % per]:
                r += 1
            shifts.append(r)
            span_bits = r + base_bits
            if span_bits > MAX_COMBINED_BITS:
                raise ValueError(
                    f"the certificate would span {span_bits} bits after "
                    f"{sum(map(len, schedule)) + len(shifts)} of its {sum(weights)} base "
                    f"copies, over the budget of {MAX_COMBINED_BITS} bits (2^20, MAX_COMBINED_BITS)"
                )
        schedule.append(shifts)
    return schedule


class AntipowerCertificate(NamedTuple):
    """A verified abelian m-antipower occurrence: m cells of width cell_width
    starting at position start+1, with pairwise distinct one-counts.

    start and cell_width are exact integers of arbitrary size; the occurrence
    is checkable by residue counting without materializing the word.
    """

    instructions: InstructionSequence
    m: int
    k: int
    u: int
    start: int
    cell_width: int
    cell_one_counts: tuple[int, ...]
    alpha: tuple[int, ...]
    verified: bool

    def to_json(self) -> str:
        with _unlimited_int_digits():
            return json_text(
                {
                    "instructions": str(self.instructions),
                    "m": self.m,
                    "k": self.k,
                    "u": self.u,
                    "start": str(self.start),
                    "cell_width": str(self.cell_width),
                    "cell_one_counts": [str(c) for c in self.cell_one_counts],
                    "alpha": list(self.alpha),
                    "verified": self.verified,
                }
            )

    @classmethod
    def from_json(cls, text: str) -> "AntipowerCertificate":
        import json

        with _unlimited_int_digits():
            raw = json.loads(text)
            return cls(
                instructions=InstructionSequence.parse(raw["instructions"]),
                m=int(raw["m"]),
                k=int(raw["k"]),
                u=int(raw["u"]),
                start=int(raw["start"]),
                cell_width=int(raw["cell_width"]),
                cell_one_counts=tuple(int(c) for c in raw["cell_one_counts"]),
                alpha=tuple(int(a) for a in raw["alpha"]),
                verified=bool(raw["verified"]),
            )


def construct_antipower(b: InstructionSequence, m: int) -> AntipowerCertificate:
    """Build a verified abelian m-antipower occurrence in the paperfolding
    word with instructions b.

    Uses the smallest k with 2^k >= m and assembles the weighted sum of the
    2^k pairwise distinct seed base vectors through the additivity law: the
    shifts of all copies come first, from small integers, and the big
    coordinates then follow in one pass. The final 2^k-cell delta vector has
    pairwise distinct components and the certificate keeps its first m cells.
    """
    if m < 2:
        raise ValueError("order must be >= 2")
    k = (m - 1).bit_length()
    cells = 1 << k
    # every cell delta of width 2^u is 0, 1 or 2, so at most 3 of the 2^k
    # distinct base vectors are constant; each other one has spread >= 1 and
    # at least doubles the weights after it, so the weights sum to over
    # 2^(2^k - 3). Each base copy adds at least one bit to the span, so from
    # k = 5 on the span passes the budget: refuse before the seed search
    if cells - 3 >= MAX_COMBINED_BITS.bit_length():
        raise ValueError(
            f"order {m} needs at least 2^(2^{k} - 3) + 1 base copies "
            f"(2^{k} distinct base vectors, at most 3 of them constant), each adding "
            f"at least one bit to the span, over the budget of {MAX_COMBINED_BITS} bits "
            f"(2^20, MAX_COMBINED_BITS)"
        )
    u = len(b.preperiod) + 1
    width = 1 << u
    lp = find_seed_block(b, u, k)
    # lp is a multiple of 2^(u+k), so every cell boundary of the base
    # geometries is a multiple of 2^u; their constrained orders, the Gray-code
    # bits of XORs of two boundaries, are then all >= u - 1 = len(preperiod)
    base_starts = [lp + i * width for i in range(cells)]
    # base vector i is window i of the 2*cells - 1 cells after lp
    run = delta_vector(b, lp, width, 2 * cells - 1).components
    base_vectors = [DeltaVector(run[i : i + cells]) for i in range(cells)]
    alphas = alpha_sequence(base_vectors)

    # the schedule is the other refusal, of a span over MAX_COMBINED_BITS:
    # at orders 9..16 of the pinned sequences it stops after 87k to 150k of
    # the 21,523,360 copies
    # M_i = sum of 2^r over base i's shifts (every weight is >= 1), set bit
    # by bit in a byte buffer: linear in its bits, where summing the powers
    # copies the growing sum at every shift
    multipliers = []
    for rs in _shift_schedule(b, base_starts, width, cells, alphas):
        buf = bytearray(rs[-1] // 8 + 1)
        for r in rs:
            buf[r >> 3] |= 1 << (r & 7)
        multipliers.append(int.from_bytes(buf, "little"))
    start = sum(l * mult for l, mult in zip(base_starts, multipliers))
    d = width * sum(multipliers)

    total = tuple(
        sum(a * v.components[t] for a, v in zip(alphas, base_vectors)) for t in range(cells)
    )
    final = delta_vector(b, start, d, cells)
    if final.components != total:
        raise ArithmeticError("assembled delta vector does not match the weighted sum")
    if not final.pairwise_distinct():
        raise ArithmeticError("assembled delta vector is not pairwise distinct")

    # a cell's one-count is its delta plus the baseline of its width
    counts = tuple(c + _baseline(d) for c in final.components[:m])
    cert = AntipowerCertificate(
        instructions=b,
        m=m,
        k=k,
        u=u,
        start=start,
        cell_width=d,
        cell_one_counts=counts,
        alpha=tuple(alphas),
        verified=False,
    )
    return cert._replace(verified=verify_certificate(b, cert))


def verify_certificate(b: InstructionSequence, cert: AntipowerCertificate) -> bool:
    """Recompute every cell one-count by popcount counting and require the
    stored counts to match and be pairwise distinct."""
    start, d, m = cert.start, cert.cell_width, cert.m
    _check_geometry(start, d, m)
    counts = _cell_ones(b, start, d, m)
    return tuple(counts) == cert.cell_one_counts and len(set(counts)) == m


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
