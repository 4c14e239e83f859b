import random

import pytest
from hypothesis import example, given, settings, strategies as st

from antipow import (
    BlockSplit,
    DeltaVector,
    InstructionSequence,
    REGULAR,
    additivity_combine,
    additivity_precheck,
    alpha_sequence,
    characterize_split,
    choose_r,
    classify_block,
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
    paperfolding_letter,
    toeplitz_paperfolding_prefix,
)
from antipow.calculus import SEED_SCAN_BOUND, _cell_ones, _shift_schedule
from antipow.instructions import MAX_COMBINED_BITS
from conftest import (
    brute_delta,
    brute_delta_vector,
    brute_ones,
    instruction_sequences,
    materialized,
)

ALT = InstructionSequence.parse("(-+)")


def test_order_decompose_examples():
    assert order_decompose(12) == order_decompose(12).__class__(order=2, odd_index=1)
    assert (order_decompose(7).order, order_decompose(7).odd_index) == (0, 3)
    assert (order_decompose(2**40).order, order_decompose(2**40).odd_index) == (40, 0)
    assert order_decompose(12).position == 12
    with pytest.raises(ValueError):
        order_decompose(0)


def test_ones_of_order_regular_interval_to_14():
    assert ones_of_order_in_interval(REGULAR, 0, 0, 14) == 3  # positions 3, 7, 11
    assert ones_of_order_in_interval(REGULAR, 1, 0, 14) == 2  # positions 6, 14
    assert ones_of_order_in_interval(REGULAR, 2, 0, 14) == 1  # position 12


def test_ones_of_order_matches_materialized_counts():
    rng = random.Random(29)
    for b in (REGULAR, ALT, InstructionSequence.parse("+-(-)")):
        w = materialized(b, 2**12)
        for _ in range(200):
            a = rng.randint(0, 2**12 - 2)
            n = rng.randint(a + 1, 2**12)
            k = rng.randint(0, 8)
            direct = sum(
                1
                for i in range(a + 1, n + 1)
                if (i & -i).bit_length() - 1 == k and w[i - 1] == 1
            )
            assert ones_of_order_in_interval(b, k, a, n) == direct


def test_epsilon_worked_breakdown():
    assert epsilon(REGULAR, 0, 1, 0, 14) == 0
    assert epsilon(REGULAR, 1, 1, 0, 14) == 1
    assert epsilon(REGULAR, 2, 1, 0, 14) == 1


def test_epsilon_validation():
    with pytest.raises(ValueError):
        epsilon(REGULAR, 0, 0, 0, 14)
    with pytest.raises(ValueError):
        epsilon(REGULAR, 0, 1, 14, 14)
    with pytest.raises(ValueError):
        epsilon(REGULAR, 0, 1, -1, 14)


def test_delta_interval_examples():
    assert delta_interval(REGULAR, 0, 14) == 2
    assert delta_interval(REGULAR, 0, 4) == 0
    assert delta_interval(REGULAR, 2, 4) == 1


def test_counting_identity_against_materialized_prefix():
    rng = random.Random(31)
    for b in (REGULAR, ALT, InstructionSequence.parse("++(-+-)")):
        w = materialized(b, 2**12)
        # exhaustive on a small range, sampled on the full range
        for a in range(0, 64):
            for n in range(a + 1, 65):
                total = sum(
                    ones_of_order_in_interval(b, k, a, n) for k in range(n.bit_length())
                )
                assert total == brute_ones(w, a, n)
                assert delta_interval(b, a, n) == brute_delta(w, a, n)
        for _ in range(300):
            a = rng.randint(0, 2**12 - 2)
            n = rng.randint(a + 1, 2**12)
            assert delta_interval(b, a, n) == brute_delta(w, a, n)


def test_e_vector_examples():
    assert e_vector(REGULAR, 1, 1, 0, 2, 2).components == (0, 0)
    assert e_vector(REGULAR, 0, 1, 0, 2, 2).components == (0, 1)
    assert e_vector(REGULAR, 9, 1, 0, 2, 2).components == (0, 0)
    assert e_vector(ALT, 12, -1, 4, 2, 3).components == (0, 0, 0)


def test_delta_vector_examples():
    assert delta_vector(REGULAR, 0, 2, 2).components == (0, 1)
    assert delta_vector(REGULAR, 4, 2, 2).components == (1, 1)
    assert delta_vector(REGULAR, 6, 2, 2).components == (1, 0)


def test_delta_vector_matches_brute_force():
    rng = random.Random(37)
    for b in (REGULAR, ALT):
        w = materialized(b, 2**12)
        for _ in range(100):
            m = rng.randint(1, 6)
            d = rng.randint(1, 32)
            l = rng.randint(0, 2**12 - m * d)
            assert delta_vector(b, l, d, m).components == brute_delta_vector(w, l, d, m)


def test_characterize_split_examples():
    assert characterize_split(REGULAR, 0, 2, 2) == "abelian_antipower"
    assert characterize_split(REGULAR, 4, 2, 2) == "abelian_power"
    assert characterize_split(REGULAR, 0, 1, 1) == "abelian_power"


def test_characterize_split_agrees_with_classify_block():
    w = materialized(REGULAR, 1024)
    for l in range(0, 128):
        for d in (1, 2, 3, 5, 8):
            for m in range(1, 6):
                if l + m * d > len(w):
                    continue
                flags = classify_block(w, BlockSplit(l + 1, d, m))
                label = characterize_split(REGULAR, l, d, m)
                if flags.is_abelian_power:
                    assert label == "abelian_power"
                elif flags.is_abelian_antipower:
                    assert label == "abelian_antipower"
                else:
                    assert label == "neither"


def test_differing_orders_confined_to_instruction_window():
    # geometries divisible by 2^u never distinguish the bit below order u-1
    u = 3
    orders = differing_orders(REGULAR, 5 << u, 1 << u, 4)
    assert all(k >= u - 1 for k in orders)


def test_additivity_precheck_ok_and_violations():
    assert additivity_precheck(REGULAR, 0, 2, 0, 2, 2, 4).ok
    odd = additivity_precheck(REGULAR, 0, 2, 3, 2, 2, 4)
    assert not odd.ok and any("(i)" in v for v in odd.violations)
    small = additivity_precheck(REGULAR, 0, 2, 0, 2, 2, 2)
    assert not small.ok and any("(ii)" in v for v in small.violations)


def test_additivity_precheck_decides_the_span_bound_without_a_power():
    # (ii) is 2^r > l + m*d; a 10^12-bit power would not fit in memory
    assert additivity_precheck(REGULAR, 0, 2, 0, 2, 2, 10**12).ok
    for l, d, m in [(0, 2, 2), (2, 3, 2), (1, 1, 1), (5, 7, 3), (2**40 - 4, 2, 2)]:
        for r in range(50):
            report = additivity_precheck(REGULAR, l, d, 0, 2, m, r)
            span_violated = any(v.startswith("(ii)") for v in report.violations)
            assert span_violated == ((1 << r) <= l + m * d)


def test_additivity_precheck_instruction_mismatch():
    # alternating instructions: an odd shift flips the bit at every order
    bad_r = 5
    report = additivity_precheck(ALT, 0, 2, 0, 2, 2, bad_r)
    assert not report.ok
    assert any("(iii)" in v for v in report.violations)


def test_additivity_combine_worked_examples():
    assert additivity_combine(REGULAR, 0, 2, 0, 2, 2, 4) == (0, 34)
    assert delta_vector(REGULAR, 0, 34, 2).components == (0, 2)
    assert additivity_combine(REGULAR, 0, 2, 6, 2, 2, 4) == (96, 34)
    w = materialized(REGULAR, 256)
    assert brute_delta_vector(w, 0, 34, 2) == (0, 2)
    assert brute_delta_vector(w, 96, 34, 2) == tuple(
        x + y for x, y in zip((0, 1), (1, 0))
    )


def test_additivity_combine_rejects_violations():
    with pytest.raises(ValueError, match="precheck"):
        additivity_combine(REGULAR, 0, 2, 3, 2, 2, 4)
    with pytest.raises(ValueError, match="precheck"):
        additivity_combine(REGULAR, 0, 2, 0, 2, 2, 2)


def test_additivity_randomized_instances_against_brute_force():
    rng = random.Random(53)
    for b in (REGULAR, ALT):
        w = materialized(b, 2**15)
        for _ in range(60):
            m = rng.randint(1, 5)
            d = rng.randint(1, 8)
            l = rng.randint(0, 32)
            dp = 2 * rng.randint(1, 4)
            lp = 2 * rng.randint(0, 16)
            r = choose_r(b, l + m * d, differing_orders(b, lp, dp, m))
            ln, dn = additivity_combine(b, l, d, lp, dp, m, r)
            assert ln + m * dn <= len(w)
            lhs = tuple(
                x + y
                for x, y in zip(brute_delta_vector(w, l, d, m), brute_delta_vector(w, lp, dp, m))
            )
            assert brute_delta_vector(w, ln, dn, m) == lhs


def test_choose_r_examples():
    assert choose_r(REGULAR, 8, set()) == 4
    assert choose_r(REGULAR, 8, {0, 3, 5}) == 4
    assert choose_r(ALT, 8, set(range(8))) == 4
    assert choose_r(ALT, 20, set(range(8))) == 6


def test_choose_r_incompatible_preperiod():
    b = InstructionSequence.parse("+(-)")
    with pytest.raises(ValueError, match="no shift exponent"):
        choose_r(b, 4, {0})


def test_choose_r_past_a_long_preperiod():
    b = InstructionSequence.parse("+" + "-" * 20 + "(+)")
    assert choose_r(b, 1, {0}) == 21


def test_find_seed_block_regular_small_exponents():
    lp = find_seed_block(REGULAR, 1, 1)
    assert lp == 4 and lp % 2 == 0
    # the two halves around the centre really coincide as words
    half = 2**3
    assert all(
        paperfolding_letter(REGULAR, lp + i) == paperfolding_letter(REGULAR, lp + half + i)
        for i in range(1, half)
    )
    vecs = [delta_vector(REGULAR, lp + 2 * i, 2, 2).components for i in range(2)]
    assert len(set(vecs)) == 2


def test_find_seed_block_larger_exponent():
    lp = find_seed_block(REGULAR, 1, 2)
    assert lp % 2 == 0
    half = 2**4
    assert all(
        paperfolding_letter(REGULAR, lp + i) == paperfolding_letter(REGULAR, lp + half + i)
        for i in range(1, half)
    )
    vecs = [delta_vector(REGULAR, lp + 2 * i, 2, 4).components for i in range(4)]
    assert len(set(vecs)) == 4


def test_find_seed_block_alternating_instructions():
    lp = find_seed_block(ALT, 1, 1)
    assert lp % 2 == 0
    vecs = [delta_vector(ALT, lp + 2 * i, 2, 2).components for i in range(2)]
    assert len(set(vecs)) == 2


def test_find_seed_block_skips_a_center_whose_halves_differ():
    b = InstructionSequence.parse("(-)")
    assert find_seed_block(b, 1, 1) == 28
    # the earlier center 20 has its block at 12, which no letter of order
    # above 6 enters and whose base vectors are distinct, but whose halves
    # differ as words
    half = 2**3
    assert 12 >> 7 == (12 + 2 * half - 1) >> 7
    assert len({delta_vector(b, 12 + 2 * i, 2, 2).components for i in range(2)}) == 2
    assert any(
        paperfolding_letter(b, 12 + i) != paperfolding_letter(b, 12 + half + i)
        for i in range(1, half)
    )


def test_find_seed_block_validation():
    with pytest.raises(ValueError):
        find_seed_block(REGULAR, 1, 0)
    with pytest.raises(ValueError):
        find_seed_block(InstructionSequence.parse("+-(-)"), 1, 1)


def reference_seed_block(b, u, k):
    """find_seed_block by its definition, on materialized letters: both
    halves of each candidate block compared letter by letter, and the base
    vectors counted on the letters."""
    center_order = u + k
    half = 1 << (center_order + 1)
    width, cells = 1 << u, 1 << k
    for t in range(SEED_SCAN_BOUND + 1):
        c = (2 + b.at(center_order) + 4 * t) << center_order
        l = c - half
        if l < 0:
            continue
        w = materialized(b, 1 << (c + half).bit_length())
        # position p is w.data[p - 1]
        if any(w.data[l + i - 1] != w.data[c + i - 1] for i in range(1, half)):
            continue
        if ((l + 2 * half - 1) >> (center_order + 5)) > (l >> (center_order + 5)):
            continue
        run = brute_delta_vector(w, l, width, 2 * cells - 1)
        if len({run[i : i + cells] for i in range(cells)}) != cells:
            continue
        return l
    return None


@settings(max_examples=80, deadline=None)
@given(
    pre=st.lists(st.sampled_from((1, -1)), max_size=6).map(tuple),
    per=st.lists(st.sampled_from((1, -1)), min_size=1, max_size=4).map(tuple),
    extra=st.integers(1, 2),
    k=st.integers(1, 3),
)
def test_find_seed_block_matches_the_letter_by_letter_halves(pre, per, extra, k):
    b = InstructionSequence(pre, per)
    u = len(pre) + extra
    assert find_seed_block(b, u, k) == reference_seed_block(b, u, k)


@pytest.mark.parametrize("m", [4, 8])
def test_construct_reads_two_letters_per_seed_candidate(monkeypatch, m):
    # comparing the halves letter by letter reads 2^(u+k) pairs per
    # candidate, 2^27 for this preperiod at m = 8
    reads = 0

    def counting_letter(b, i):
        nonlocal reads
        reads += 1
        if reads > 64:
            raise AssertionError("over 64 letter reads")
        return paperfolding_letter(b, i)

    monkeypatch.setattr("antipow.calculus.paperfolding_letter", counting_letter)
    b = InstructionSequence.parse("+-+--+-+-++-+-+--+-+-++-(-+)")
    assert len(b.preperiod) == 24
    assert construct_antipower(b, m).verified


def test_alpha_sequence_cases():
    const = [DeltaVector((1, 1)), DeltaVector((0, 0)), DeltaVector((2, 2))]
    assert alpha_sequence(const) == [1, 1, 1]
    unit = [DeltaVector((0, 1)), DeltaVector((1, 0)), DeltaVector((0, 1)), DeltaVector((1, 0))]
    assert alpha_sequence(unit) == [1, 2, 4, 8]
    assert alpha_sequence([DeltaVector((0, 1)), DeltaVector((1, 0))]) == [1, 2]
    with pytest.raises(ValueError):
        alpha_sequence([])


def test_alpha_weighted_sum_has_distinct_components():
    base = [
        DeltaVector((0, 1, 1)),
        DeltaVector((1, 1, 0)),
        DeltaVector((1, 0, 1)),
    ]
    alphas = alpha_sequence(base)
    total = [0, 0, 0]
    for a, v in zip(alphas, base):
        total = [t + a * c for t, c in zip(total, v.components)]
    assert len(set(total)) == len(total)


def test_order_shift_check_examples():
    assert order_shift_check(REGULAR, 3, 0)  # letters 7 and 5 vs letter 3
    assert order_shift_check(REGULAR, 6, 1)  # letters 22 and 10 vs letter 6
    with pytest.raises(ValueError):
        order_shift_check(REGULAR, 0, 0)
    with pytest.raises(ValueError):
        order_shift_check(REGULAR, 3, -1)


def test_order_shift_check_random_property():
    rng = random.Random(59)
    for b in (REGULAR, ALT, InstructionSequence.parse("+-(-)")):
        for _ in range(400):
            i = rng.randint(1, 2**12)
            s = rng.randint(0, 6)
            assert order_shift_check(b, i, s)


def test_delta_vector_of_combined_geometry_is_consistent_at_scale():
    # the combined geometry should add delta vectors even when both inputs
    # already came from a previous combination
    b = REGULAR
    l1, d1 = additivity_combine(b, 0, 2, 0, 2, 2, 4)
    v1 = delta_vector(b, l1, d1, 2)
    orders = differing_orders(b, 6, 2, 2)
    r = choose_r(b, l1 + 2 * d1, orders)
    l2, d2 = additivity_combine(b, l1, d1, 6, 2, 2, r)
    assert delta_vector(b, l2, d2, 2) == v1 + delta_vector(b, 6, 2, 2)


def _per_order_ones(b, a, n):
    return sum(ones_of_order_in_interval(b, k, a, n) for k in range(n.bit_length()))


def _per_order_delta(b, a, n):
    return sum(epsilon(b, k, b.at(k), a, n) for k in range(n.bit_length()))


_signs = st.sampled_from((1, -1))


@st.composite
def big_intervals(draw, max_bits=4000):
    """(a, n) with 0 <= a < n < 2^max_bits: long intervals and short ones far out."""
    bits = draw(st.integers(1, max_bits))
    n = draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
    a = draw(st.integers(0, n - 1) | st.integers(max(0, n - 4096), n - 1))
    return a, n


def test_ones_upto_examples_and_validation():
    assert ones_upto(REGULAR, 0) == 0
    assert ones_upto(REGULAR, 14) == 6  # positions 3, 6, 7, 11, 12, 14
    assert ones_upto(ALT, 1) == 1
    with pytest.raises(ValueError):
        ones_upto(REGULAR, -1)
    with pytest.raises(ValueError):
        delta_interval(REGULAR, 5, 5)


# long preperiods and periods, so the mask's preperiod part and the last
# period copy both reach past the bits of small and medium n
wide_instruction_sequences = st.builds(
    InstructionSequence,
    st.lists(_signs, max_size=12).map(tuple),
    st.lists(_signs, min_size=1, max_size=7).map(tuple),
)
_WIDE = InstructionSequence.parse("+--+-++-+--+(-++-+--)")


@settings(max_examples=200)
@given(b=wide_instruction_sequences, interval=big_intervals())
# n's bit length below len(preperiod) = 12, equal to it, and exactly
# len(preperiod) + j * len(period) for j = 1, 2
@example(b=_WIDE, interval=(3, 0b101101))
@example(b=_WIDE, interval=(0, 0b111111111111))
@example(b=_WIDE, interval=(5, (1 << 18) | 0b1011011))
@example(b=_WIDE, interval=(1 << 24, (1 << 26) - 1))
@example(b=InstructionSequence.parse("-(+++++++)"), interval=(0, (1 << 15) - 1))
def test_closed_form_matches_per_order_sums(b, interval):
    a, n = interval
    assert ones_upto(b, n) == _per_order_ones(b, 0, n)
    assert _cell_ones(b, a, n - a, 1) == [_per_order_ones(b, a, n)]
    assert delta_interval(b, a, n) == _per_order_delta(b, a, n)


@st.composite
def wide_geometries(draw, max_bits=4000):
    """(l, d, m) with a small start and a width of up to max_bits bits, so
    the first and last cell boundaries differ by thousands of bits."""
    l = draw(st.integers(0, 2**12) | st.integers(0, 2**64))
    bits = draw(st.integers(1, max_bits))
    d = draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
    return l, d, draw(st.integers(1, 5))


@settings(max_examples=60)
@given(b=wide_instruction_sequences, geometry=wide_geometries())
# the mask is built for the last boundary: a 4000-bit one over a 2-bit start,
# the smallest cell, and a start inside the 12-bit preperiod with ends past it
@example(b=_WIDE, geometry=(3, (1 << 4000) - 1, 5))
@example(b=_WIDE, geometry=(0, 1, 1))
@example(b=_WIDE, geometry=(5, 1 << 18, 3))
def test_cell_ones_share_one_mask_across_boundaries(b, geometry):
    l, d, m = geometry
    expected = [_per_order_ones(b, l + t * d, l + (t + 1) * d) for t in range(m)]
    assert _cell_ones(b, l, d, m) == expected


@given(b=instruction_sequences, data=st.data())
def test_closed_form_matches_materialized_prefix(b, data):
    w = materialized(b, 2**12)
    n = data.draw(st.integers(1, 2**12))
    a = data.draw(st.integers(0, n - 1))
    assert ones_upto(b, n) == brute_ones(w, 0, n)
    assert _cell_ones(b, a, n - a, 1) == [brute_ones(w, a, n)]
    assert delta_interval(b, a, n) == brute_delta(w, a, n)


@settings(max_examples=300)
@given(
    b=instruction_sequences,
    l=st.integers(0, 2**12) | st.integers(0, 2**80),
    d=st.integers(1, 2**10) | st.integers(1, 2**40),
    m=st.integers(1, 9),
)
def test_differing_orders_matches_per_order_e_vectors(b, l, d, m):
    top = (l + m * d).bit_length() + 2
    expected = {
        k for k in range(top + 1)
        if e_vector(b, k, 1, l, d, m).components != e_vector(b, k, -1, l, d, m).components
    }
    assert differing_orders(b, l, d, m) == expected


@pytest.mark.parametrize("text", ["(+)", "(-+)", "+-(-)", "-(+--)"])
def test_ones_upto_every_prefix_to_4096(text):
    b = InstructionSequence.parse(text)
    w = materialized(b, 2**12)
    running = 0
    for n in range(1, 2**12 + 1):
        running += w[n - 1]
        assert ones_upto(b, n) == running


def test_ones_upto_mask_growth_matches_fresh_cache():
    # the mask is built per call to n's bit length, so a 10,000-bit count
    # leaves nothing behind that changes the small counts around it
    b = InstructionSequence.parse("+-(-+-)")
    rng = random.Random(61)
    small = [rng.randint(1, 2**40) for _ in range(20)]
    big = rng.getrandbits(10_000) | 1 << 9_999
    before = [ones_upto(b, n) for n in small]
    assert ones_upto(b, big) == _per_order_ones(b, 0, big)
    assert [ones_upto(b, n) for n in small] == before
    assert before == [_per_order_ones(b, 0, n) for n in small]


@settings(max_examples=300)
@given(
    st.builds(
        InstructionSequence,
        # a long constant run in the preperiod is what pushes r far out
        st.builds(
            lambda head, sign, run: tuple(head) + (sign,) * run,
            st.lists(_signs, max_size=4), _signs, st.integers(0, 40),
        ),
        st.lists(_signs, min_size=1, max_size=6).map(tuple),
    ),
    st.integers(0, 2**12),
    st.sets(st.integers(0, 12), max_size=4),
)
def test_choose_r_matches_brute_force(b, bound, orders):
    valid = [
        r
        for r in range(bound.bit_length(), 400)
        if all(b.at(k) == b.at(k + r) for k in orders)
    ]
    if valid:
        assert choose_r(b, bound, orders) == valid[0]
    else:
        with pytest.raises(ValueError, match="no shift exponent"):
            choose_r(b, bound, orders)


@settings(max_examples=40, deadline=None)
@given(
    b=st.builds(
        InstructionSequence,
        st.lists(_signs, max_size=3).map(tuple),
        st.lists(_signs, min_size=1, max_size=4).map(tuple),
    ),
    m=st.integers(2, 5),
)
def test_shift_schedule_matches_the_step_by_step_additivity_path(b, m):
    k = (m - 1).bit_length()
    cells, u = 1 << k, len(b.preperiod) + 1
    width = 1 << u
    lp = find_seed_block(b, u, k)
    base_starts = [lp + i * width for i in range(cells)]
    alphas = alpha_sequence([delta_vector(b, s, width, cells) for s in base_starts])
    # the schedule reads one verdict per residue of r mod len(period), which
    # holds for every r because no base geometry constrains a preperiod order
    assert all(
        min(differing_orders(b, s, width, cells)) >= len(b.preperiod) for s in base_starts
    )
    # reference: one choose_r and one checked additivity_combine per copy
    start, d = base_starts[0], width
    expected = [[0]] + [[] for _ in range(cells - 1)]
    for i, l in enumerate(base_starts):
        orders = differing_orders(b, l, width, cells)
        for _ in range(alphas[i] - (i == 0)):
            r = choose_r(b, start + cells * d, orders)
            start, d = additivity_combine(b, start, d, l, width, cells, r)
            # no carry crosses bit r
            assert (start + cells * d).bit_length() == r + (l + cells * width).bit_length()
            expected[i].append(r)
    assert _shift_schedule(b, base_starts, width, cells, alphas) == expected
    cert = construct_antipower(b, m)
    assert (cert.start, cert.cell_width) == (start, d)


def test_shift_schedule_stops_once_the_span_passes_the_bit_budget():
    # each copy adds 4 bits, so the budget is passed at copy 2^18 + 1 of
    # 10^6 + 1; without the stop the schedule takes all of them
    b = InstructionSequence.parse("(+)")
    lp = find_seed_block(b, 1, 1)
    with pytest.raises(ValueError, match="MAX_COMBINED_BITS") as info:
        _shift_schedule(b, [lp, lp + 2], 2, 2, [10**6, 1])
    assert str(MAX_COMBINED_BITS) in str(info.value)


def test_shift_schedule_refuses_a_geometry_constraining_the_preperiod():
    # boundaries 0, 2, 4 constrain orders 0 and 1, inside the preperiod "+-"
    with pytest.raises(ValueError, match="inside the preperiod"):
        _shift_schedule(InstructionSequence.parse("+-(-+)"), [0, 2], 2, 2, [1, 1])
