import random
from itertools import groupby, islice
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from antipow import (
    BlockSplit,
    FiniteWord,
    REGULAR,
    THUE_MORSE_MORPHISM,
    avoidance_scan,
    classify_block,
    find_first,
    morphism_prefix,
    sierpinski_prefix,
    toeplitz_paperfolding_prefix,
)
from antipow import scan
from antipow.scan import (
    _and_along,
    _cell_equality,
    _hit_starts,
    _one_letter_runs,
    _settled_through,
    _window_counts,
)
from conftest import brute_find_first

AB = ("a", "b")


def word(text, alphabet=AB):
    return FiniteWord.from_text(text, alphabet)


def test_classify_abelian_antipower_example():
    flags = classify_block(word("aabaaabbbabb"), BlockSplit(1, 3, 4))
    assert flags.is_abelian_antipower and flags.is_antipower
    assert not flags.is_power and not flags.is_abelian_power


def test_classify_antipower_but_not_abelian():
    # cells aab and aba share the Parikh vector (2,1)
    flags = classify_block(word("aabaaabbbaba"), BlockSplit(1, 3, 4))
    assert flags.is_antipower and not flags.is_abelian_antipower


def test_classify_power():
    flags = classify_block(word("aaaa"), BlockSplit(1, 1, 4))
    assert flags.is_power and flags.is_abelian_power
    assert not flags.is_antipower and not flags.is_abelian_antipower


def test_classify_rejects_overflowing_split():
    with pytest.raises(ValueError):
        classify_block(word("abab"), BlockSplit(2, 2, 2))


def test_block_split_validation():
    for bad in [(0, 1, 1), (1, 0, 1), (1, 1, 0)]:
        with pytest.raises(ValueError):
            BlockSplit(*bad)


def test_classify_implications_on_random_splits():
    rng = random.Random(23)
    for _ in range(300):
        text = "".join(rng.choice("ab") for _ in range(rng.randint(4, 64)))
        w = word(text)
        m = rng.randint(2, 4)
        d = rng.randint(1, max(1, len(w) // m))
        if m * d > len(w):
            continue
        start = rng.randint(1, len(w) - m * d + 1)
        flags = classify_block(w, BlockSplit(start, d, m))
        if flags.is_power:
            assert flags.is_abelian_power
        if flags.is_abelian_antipower:
            assert flags.is_antipower
        assert not (flags.is_abelian_power and flags.is_abelian_antipower)


def test_find_first_tiny():
    hit = find_first(word("0110", ("0", "1")), 2, "antipower")
    assert (hit.start, hit.cell_width) == (1, 1)


def test_find_first_none_for_eleven_antipowers_in_sierpinski():
    w = sierpinski_prefix(3**8)
    assert find_first(w, 11, "antipower", d_max=len(w) // 11) is None


def test_find_first_agrees_with_quadratic_reference():
    rng = random.Random(41)
    for _ in range(1000):
        n = rng.randint(4, 256)
        text = "".join(rng.choice("01") for _ in range(n))
        w = FiniteWord.from_text(text, ("0", "1"))
        m = rng.randint(2, 4)
        if len(w) < m:
            continue
        d_max = rng.randint(1, 16)
        hit = find_first(w, m, "abelian_antipower", d_max=d_max)
        expected = brute_find_first(w, m, "abelian_antipower", d_max=d_max)
        got = None if hit is None else (hit.start, hit.cell_width)
        assert got == expected


def test_find_first_other_kinds_match_reference():
    rng = random.Random(43)
    for kind in ("power", "abelian_power", "antipower"):
        for _ in range(100):
            n = rng.randint(4, 128)
            text = "".join(rng.choice("01") for _ in range(n))
            w = FiniteWord.from_text(text, ("0", "1"))
            m = rng.randint(2, 3)
            d_max = rng.randint(1, 12)
            hit = find_first(w, m, kind, d_max=d_max)
            expected = brute_find_first(w, m, kind, d_max=d_max)
            got = None if hit is None else (hit.start, hit.cell_width)
            assert got == expected


def test_find_first_regular_paperfolding_abelian_9_antipower():
    w = toeplitz_paperfolding_prefix(REGULAR, 2**16)
    hit = find_first(w, 9, "abelian_antipower")
    assert (hit.start, hit.cell_width) == (1, 2389)
    flags = classify_block(w, BlockSplit(hit.start, hit.cell_width, 9))
    assert flags.is_abelian_antipower and flags.is_antipower


@pytest.mark.parametrize("d", [1, 2, 3, 7])
def test_and_along_matches_a_naive_loop(d):
    rng = random.Random(53 + d)
    # mostly-set masks keep long runs of set bits through the ANDs; sparse
    # ones empty after a doubling or two
    for density in (0.9, 0.2):
        bits = [rng.random() < density for _ in range(200)]
        mask = sum(bit << p for p, bit in enumerate(bits))
        for count in range(1, 17):
            expected = [
                all(bits[p + i * d] for i in range(count))
                for p in range(len(bits) - (count - 1) * d)
            ]
            got = _and_along(mask, d, count)
            assert [bool(got >> p & 1) for p in range(len(expected))] == expected
            # no start reads a bit past the top of the mask
            assert got >> len(expected) == 0


@settings(max_examples=300)
@given(bits=st.lists(st.booleans(), max_size=150), count=st.integers(1, 40))
def test_and_along_finds_the_runs_of_ones(bits, count):
    mask = sum(bit << p for p, bit in enumerate(bits))
    expected = sum(
        1 << p for p in range(len(bits)) if bits[p : p + count] == [True] * count
    )
    assert _and_along(mask, 1, count) == expected


@settings(max_examples=200)
@given(
    letters=st.sampled_from(("0", "1", "01")),
    data=st.data(),
)
def test_window_counts_are_the_counts_of_byte_slices(letters, data):
    # texts over one letter count an empty bitset for the other
    text = data.draw(st.text(alphabet=letters, max_size=80))
    w = FiniteWord.from_text(text, ("0", "1"))
    for letter, bits in enumerate(w.letter_bits):
        for d, planes in enumerate(islice(_window_counts(bits), len(w)), 1):
            for p in range(len(w) - d + 1):
                count = sum((plane >> p & 1) << b for b, plane in enumerate(planes))
                assert count == w.data[p : p + d].count(letter)


@st.composite
def run_words(draw, max_len=200):
    """Words of one-letter runs of 1 to 40 letters, whose adjacent cells
    often repeat one letter at widths past 1."""
    runs = draw(
        st.lists(st.tuples(st.sampled_from("01"), st.integers(1, 40)), min_size=2, max_size=12)
    )
    text = "".join(letter * length for letter, length in runs)[:max_len]
    return FiniteWord.from_text(text, ("0", "1"))


def brute_runs(w):
    """(start, length) of each maximal run of at least five copies of one letter."""
    runs, start = [], 0
    for _, group in groupby(w.data):
        length = len(list(group))
        if length >= 5:
            runs.append((start, length))
        start += length
    return runs


@settings(max_examples=100)
@given(w=run_words())
def test_letter_runs_are_the_one_letter_byte_slices(w):
    runs = _one_letter_runs(w)
    assert runs == brute_runs(w)
    for start, length in runs:
        assert w.data[start : start + length] == w.data[start : start + 1] * length


def settled_widths(w, m, kind, d_max=None):
    """(d, stop) of each width `find_first` settles by one-letter runs."""
    limit = len(w) // m if d_max is None else min(d_max, len(w) // m)
    widths = []

    def record(runs, d, m, stop):
        through = _settled_through(runs, d, m, stop)
        # no width past d moves the best start, so stop falls by m a width
        widths.extend((e, min(len(w) - m * e + 1, stop)) for e in range(d, min(through, limit) + 1))
        return through

    with mock.patch.object(scan, "_settled_through", record):
        find_first(w, m, kind, d_max=d_max)
    return widths


@settings(max_examples=300)
@given(
    w=run_words(),
    m=st.integers(2, 12),
    kind=st.sampled_from(("antipower", "abelian_antipower")),
    d_max=st.none() | st.integers(1, 40),
)
# a run of 3d - 2 letters misses start 2 at d = 3: "baa", "aaa", "aab"
@example(w=word("bab" + "a" * 7 + "b"), m=3, kind="antipower", d_max=None)
def test_settled_widths_hold_two_adjacent_cells_in_one_run(w, m, kind, d_max):
    assume(len(w) >= m)
    for d, stop in settled_widths(w, m, kind, d_max):
        for p in range(stop):
            assert any(
                len(set(w.data[p + i * d : p + (i + 2) * d])) == 1 for i in range(m - 1)
            ), (d, p)


@pytest.mark.parametrize("kind", ["antipower", "abelian_antipower"])
def test_runs_settle_most_widths_of_the_sierpinski_scans(kind):
    w = sierpinski_prefix(3**9)
    assert len(settled_widths(w, 11, kind)) == 1688
    # Thue–Morse and paperfolding have no run of five letters
    assert _one_letter_runs(morphism_prefix(THUE_MORSE_MORPHISM, "0", 2**14)) == []
    assert _one_letter_runs(toeplitz_paperfolding_prefix(REGULAR, 2**14)) == []


def test_avoidance_tiny_counterexample():
    assert not avoidance_scan(word("ab"), 2, "antipower")


def test_avoidance_sierpinski_small_stage():
    w = sierpinski_prefix(3**6)
    assert avoidance_scan(w, 11, "antipower")
    assert avoidance_scan(w, 11, "abelian_antipower")


def test_scan_argument_validation():
    w = word("abab")
    with pytest.raises(ValueError):
        find_first(w, 1, "antipower")
    with pytest.raises(ValueError):
        avoidance_scan(w, 1, "antipower")
    with pytest.raises(ValueError):
        find_first(w, 2, "anti-power")
    with pytest.raises(ValueError):
        find_first(word("a"), 2, "antipower")


def test_scan_hit_json():
    hit = find_first(word("0110", ("0", "1")), 2, "antipower")
    assert hit.to_json() == '{"start": 1, "d": 1, "m": 2, "kind": "antipower"}'


def test_slow_abelian_mask_agrees_with_classifier():
    # "slow" is a per-start loop over the one-count keys of a binary word;
    # "fast" is the scanner's starts for each width in turn, from the
    # bit-sliced window counts
    rng = random.Random(47)
    for _ in range(30):
        text = "".join(rng.choice("ab") for _ in range(rng.randint(6, 40)))
        w = FiniteWord.from_text(text, ("a", "b"))
        m = rng.randint(2, 3)
        widths = _cell_equality(w, abelian=True)
        for d, same in zip(range(1, len(w) // m + 1), widths):
            keys = w.abelian_keys(d)
            starts = range(len(w) - m * d + 1)
            slow = [len({int(keys[p + i * d]) for i in range(m)}) == m for p in starts]
            fast = _hit_starts(same, len(w), d, m, "abelian_antipower")
            assert fast == sum(flag << p for p, flag in enumerate(slow))
            for p, flag in enumerate(slow):
                expected = classify_block(w, BlockSplit(p + 1, d, m)).is_abelian_antipower
                assert flag == expected


_STRUCTURED = {
    "sierpinski": sierpinski_prefix(3**5),
    "thue-morse": morphism_prefix(THUE_MORSE_MORPHISM, "0", 2**8),
    "paperfolding": toeplitz_paperfolding_prefix(REGULAR, 2**8),
}


@st.composite
def scan_words(draw, max_len=200):
    """Random binary words, some over one of the two letters only, or
    prefixes of the structured words."""
    n = draw(st.integers(2, max_len))
    if draw(st.booleans()):
        letters = draw(st.sampled_from(("0", "1", "01")))
        text = draw(st.text(alphabet=letters, min_size=n, max_size=n))
        return FiniteWord.from_text(text, ("0", "1"))
    return _STRUCTURED[draw(st.sampled_from(sorted(_STRUCTURED)))].prefix(n)


kinds = st.sampled_from(("power", "abelian_power", "antipower", "abelian_antipower"))


@settings(max_examples=300)
@given(w=scan_words(), m=st.integers(2, 12), kind=kinds, d_max=st.none() | st.integers(1, 40))
def test_find_first_matches_brute_force_property(w, m, kind, d_max):
    assume(len(w) >= m)
    hit = find_first(w, m, kind, d_max=d_max)
    got = None if hit is None else (hit.start, hit.cell_width)
    assert got == brute_find_first(w, m, kind, d_max=d_max)


@settings(max_examples=200)
@given(w=scan_words(), m=st.integers(2, 12), kind=kinds)
def test_avoidance_scan_matches_brute_force_property(w, m, kind):
    assume(len(w) >= m)
    assert avoidance_scan(w, m, kind) == (brute_find_first(w, m, kind) is None)


@settings(max_examples=300)
@given(w=run_words(), m=st.integers(2, 12), kind=kinds, d_max=st.none() | st.integers(1, 40))
def test_scans_of_run_words_match_brute_force(w, m, kind, d_max):
    assume(len(w) >= m)
    hit = find_first(w, m, kind, d_max=d_max)
    got = None if hit is None else (hit.start, hit.cell_width)
    assert got == brute_find_first(w, m, kind, d_max=d_max)
    assert avoidance_scan(w, m, kind) == (brute_find_first(w, m, kind) is None)
