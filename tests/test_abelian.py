import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from antipow import (
    ComplexityTable,
    FiniteWord,
    REGULAR,
    THUE_MORSE_MORPHISM,
    abelian_complexity,
    complexity_table,
    cyclic_shift_spectrum,
    factor_complexity,
    infinite_complexity_table,
    is_prefix_normal,
    morphism_prefix,
    parikh,
    parikh_prefix_table,
    phi_u,
    sierpinski_prefix,
    toeplitz_paperfolding_prefix,
)
from antipow.abelian import _factor_counts
from antipow.cli_words import _complexity_word_length
from conftest import instruction_sequences, thue_morse_factor_complexity

ABC = ("a", "b", "c")


def test_parikh_examples():
    assert parikh(FiniteWord.from_text("abbca", ABC)) == (2, 2, 1)
    assert parikh(FiniteWord.from_text("", ABC)) == (0, 0, 0)
    assert parikh(FiniteWord.from_text("aabaaabbbabb", ("a", "b"))) == (6, 6)


def test_parikh_prefix_table_small():
    assert parikh_prefix_table(FiniteWord.from_text("ab", ("a", "b"))) == [
        (0, 0),
        (1, 0),
        (1, 1),
    ]


def test_parikh_prefix_table_factor_difference():
    table = parikh_prefix_table(FiniteWord.from_text("abbca", ABC))
    assert tuple(x - y for x, y in zip(table[3], table[1])) == (0, 2, 0)


def test_parikh_prefix_table_last_entry():
    rng = random.Random(3)
    for _ in range(20):
        text = "".join(rng.choice("ab") for _ in range(rng.randint(0, 40)))
        w = FiniteWord.from_text(text, ("a", "b"))
        assert parikh_prefix_table(w)[-1] == parikh(w)


def _brute_abelian_complexity(w: FiniteWord, n: int) -> int:
    return len({tuple(sorted(Counter(w.data[i : i + n]).items())) for i in range(len(w) - n + 1)})


def test_abelian_complexity_sierpinski_small_lengths():
    w = sierpinski_prefix(3**5)
    assert abelian_complexity(w, 1) == 2
    assert abelian_complexity(w, 3) == 3 == _brute_abelian_complexity(w, 3)


def test_abelian_complexity_matches_brute_force():
    rng = random.Random(11)
    for _ in range(25):
        text = "".join(rng.choice("ab") for _ in range(rng.randint(2, 60)))
        w = FiniteWord.from_text(text, ("a", "b"))
        n = rng.randint(1, len(w))
        assert abelian_complexity(w, n) == _brute_abelian_complexity(w, n)
    for _ in range(10):
        text = "".join(rng.choice("abc") for _ in range(rng.randint(2, 40)))
        w = FiniteWord.from_text(text, ABC)
        n = rng.randint(1, len(w))
        assert abelian_complexity(w, n) == _brute_abelian_complexity(w, n)


def test_abelian_complexity_thue_morse_bounded():
    w = morphism_prefix(THUE_MORSE_MORPHISM, "0", 2**12)
    for n in list(range(1, 65)) + [100, 256, 512]:
        assert abelian_complexity(w, n) <= 3


def test_abelian_complexity_range_errors():
    w = sierpinski_prefix(9)
    for complexity in (abelian_complexity, factor_complexity):
        for n in (0, 10):
            with pytest.raises(ValueError, match="out of range"):
                complexity(w, n)


def test_factor_complexity_regular_word():
    w = toeplitz_paperfolding_prefix(REGULAR, 2**14)
    assert factor_complexity(w, 7) == 28
    assert factor_complexity(w, 10) == 40


def test_factor_complexity_single_letters():
    assert factor_complexity(FiniteWord.from_text("aab", ("a", "b")), 1) == 2


def test_abelian_at_most_factor_complexity():
    rng = random.Random(5)
    for _ in range(15):
        text = "".join(rng.choice("ab") for _ in range(rng.randint(2, 50)))
        w = FiniteWord.from_text(text, ("a", "b"))
        for n in range(1, len(w) + 1):
            assert abelian_complexity(w, n) <= factor_complexity(w, n)


def test_factor_parikh_dominated_by_word_parikh():
    rng = random.Random(9)
    for _ in range(20):
        text = "".join(rng.choice("abc") for _ in range(rng.randint(1, 40)))
        w = FiniteWord.from_text(text, ABC)
        total = parikh(w)
        i = rng.randint(0, len(w) - 1)
        j = rng.randint(i + 1, len(w))
        assert all(x <= y for x, y in zip(parikh(w[i:j]), total))


def test_prefix_normal_sierpinski():
    assert is_prefix_normal(sierpinski_prefix(3**6), "a")


def test_prefix_normal_small_cases():
    assert not is_prefix_normal(FiniteWord.from_text("ba", ("a", "b")), "a")
    assert is_prefix_normal(FiniteWord.from_text("aab", ("a", "b")), "a")
    with pytest.raises(ValueError):
        is_prefix_normal(FiniteWord.from_text("ab", ("a", "b")), "z")


def test_sierpinski_abelian_complexity_equals_one_plus_prefix_a_count():
    # the word is prefix normal in 'a' and has unbounded b-runs, so the
    # length-n classes are exactly the a-counts 0..(a-count of the prefix)
    big = sierpinski_prefix(3**8)
    text = str(big)
    for e in range(8):
        window = big.prefix(3 ** (e + 1))
        low = 3 ** (e - 1) + 1 if e else 1
        for n in range(low, 3**e + 1):
            assert abelian_complexity(window, n) == 1 + text[:n].count("a")


def test_sierpinski_closed_form_matches_the_prefix_table():
    # the 3^8 prefix holds every factor of length <= 3^7
    max_n = 3**7
    expected = complexity_table(sierpinski_prefix(3**8), "abelian", max_n)
    assert infinite_complexity_table("sierpinski", "abelian", max_n) == expected


def test_thue_morse_closed_form_matches_the_prefix_table():
    # the 4·2^12 prefix holds every factor of length <= 2^12
    max_n = 2**12
    expected = complexity_table(morphism_prefix(THUE_MORSE_MORPHISM, "0", 4 * max_n), "abelian",
                                max_n)
    assert infinite_complexity_table("thue-morse", "abelian", max_n) == expected


@settings(max_examples=60)
@given(b=st.none() | instruction_sequences, max_n=st.integers(1, 300))
@example(b=None, max_n=300)
@example(b=REGULAR, max_n=300)
def test_closed_form_factor_tables_equal_the_cover_prefix_tables(b, max_n):
    # None draws Thue–Morse; the cover prefix holds every factor of length
    # <= max_n, and the closed form reads none
    if b is None:
        word = "thue-morse"
        prefix = morphism_prefix(THUE_MORSE_MORPHISM, "0", _complexity_word_length(word, max_n))
    else:
        word = "paperfolding"
        prefix = toeplitz_paperfolding_prefix(b, _complexity_word_length(word, max_n))
    expected = _factor_counts(prefix, max_n)
    table = infinite_complexity_table(word, "factor", max_n)
    assert table == ComplexityTable("factor", tuple(zip(range(1, max_n + 1), expected)))


def test_infinite_complexity_table_needs_a_closed_form():
    assert infinite_complexity_table("paperfolding", "abelian", 8) is None
    assert infinite_complexity_table("sierpinski", "factor", 8) is None
    with pytest.raises(ValueError):
        infinite_complexity_table("sierpinski", "abelian", 0)
    with pytest.raises(ValueError, match="unknown complexity kind"):
        infinite_complexity_table("thue-morse", "weird", 8)


def test_phi_u_block_classes():
    assert phi_u(FiniteWord.from_text("01", ("0", "1"))) == 1
    assert phi_u(FiniteWord.from_text("11", ("0", "1"))) == 2
    assert phi_u(FiniteWord.from_text("0110", ("0", "1"))) == 2


def test_phi_u_rejects_bad_lengths():
    for text in ("0", "011", "01101"):
        with pytest.raises(ValueError):
            phi_u(FiniteWord.from_text(text, ("0", "1")))


def test_cyclic_shift_spectrum_regular_prefix():
    w = toeplitz_paperfolding_prefix(REGULAR, 8)
    assert cyclic_shift_spectrum(w, 1) == {4}


def test_cyclic_shift_spectrum_constant_blocks():
    w = FiniteWord.from_text("00000000", ("0", "1"))
    assert cyclic_shift_spectrum(w, 1) == {1, 2, 3, 4}


def test_cyclic_shift_spectrum_paperfolding_factors_only_full_rotation():
    rng = random.Random(17)
    big = toeplitz_paperfolding_prefix(REGULAR, 2**12)
    for n in range(3, 7):
        for _ in range(10):
            start = rng.randint(0, len(big) - 2**n)
            factor = big[start : start + 2**n]
            assert cyclic_shift_spectrum(factor, 1) == {2 ** (n - 1)}


def test_cyclic_shift_spectrum_validation():
    with pytest.raises(ValueError):
        cyclic_shift_spectrum(FiniteWord.from_text("010", ("0", "1")), 1)
    with pytest.raises(ValueError):
        cyclic_shift_spectrum(FiniteWord.from_text("01", ("0", "1")), 1)
    with pytest.raises(ValueError):
        cyclic_shift_spectrum(FiniteWord.from_text("01010101", ("0", "1")), 0)
    # over three letters one letter's count is not the block class: the
    # Parikh classes ab, bc, ab, bc repeat at shifts 2 and 4 only
    with pytest.raises(ValueError, match="binary"):
        cyclic_shift_spectrum(FiniteWord.from_text("abbcabbc", ABC), 1)
    with pytest.raises(ValueError, match="binary"):
        cyclic_shift_spectrum(FiniteWord.from_text("aaaaaaaa", ("a",)), 1)


def test_complexity_table_csv():
    w = sierpinski_prefix(27)
    table = complexity_table(w, "abelian", 3)
    assert table.to_csv().splitlines()[0] == "n,value"
    assert table.rows[0] == (1, 2)


def test_thue_morse_factor_table_matches_closed_form():
    # every Thue–Morse factor of length n <= 256 occurs in the 2^16 prefix
    w = morphism_prefix(THUE_MORSE_MORPHISM, "0", 2**16)
    table = complexity_table(w, "factor", 256)
    assert table.rows == tuple((n, thue_morse_factor_complexity(n)) for n in range(1, 257))


def test_complexity_table_validation():
    with pytest.raises(ValueError):
        ComplexityTable("abelian", ((2, 1), (1, 1)))
    with pytest.raises(ValueError):
        ComplexityTable("abelian", ((1, 0),))
    with pytest.raises(ValueError):
        ComplexityTable("weird", ((1, 1),))
    with pytest.raises(ValueError):
        complexity_table(sierpinski_prefix(3), "abelian", 9)


@st.composite
def words_and_lengths(draw, max_len=200):
    letters = draw(st.sampled_from(("a", "ab", "abc")))
    text = draw(st.text(alphabet=letters, min_size=1, max_size=max_len))
    n = draw(st.integers(1, len(text)))
    return FiniteWord.from_text(text, tuple(letters)), n


@settings(max_examples=300)
@given(case=words_and_lengths())
def test_complexities_match_sets_of_factors(case):
    w, n = case
    windows = [w.data[i : i + n] for i in range(len(w) - n + 1)]
    assert factor_complexity(w, n) == len(set(windows))
    assert abelian_complexity(w, n) == len({frozenset(Counter(f).items()) for f in windows})


@st.composite
def binary_words_and_table_sizes(draw):
    data = bytes(draw(st.lists(st.integers(0, 1), min_size=1, max_size=300)))
    return FiniteWord(("a", "b"), data), draw(st.integers(1, len(data)))


@settings(max_examples=200)
@given(case=binary_words_and_table_sizes())
@example(case=(FiniteWord(("a", "b"), b"\x00"), 1))
@example(case=(FiniteWord(("a", "b"), b"\x01"), 1))
@example(case=(FiniteWord(("a", "b"), b"\x01\x00"), 2))
@example(case=(FiniteWord(("a", "b"), b"\x00" * 300), 300))
@example(case=(FiniteWord(("a", "b"), b"\x01" * 300), 300))
@example(case=(FiniteWord(("a", "b"), bytes(i % 2 for i in range(300))), 300))
def test_binary_abelian_table_equals_the_per_n_complexities(case):
    # the bitset steps from n to n + 1 against one pass over the windows per
    # n, for every max_n up to len(w), including words that use one letter
    w, max_n = case
    expected = tuple((n, abelian_complexity(w, n)) for n in range(1, max_n + 1))
    assert complexity_table(w, "abelian", max_n).rows == expected


def test_abelian_table_over_three_letters_ranks_the_windows_per_n():
    # only two-letter tables take the bitset path, which reads no letter 2
    w = FiniteWord.from_text("abcacbbaccab" * 5, ABC)
    table = complexity_table(w, "abelian", len(w))
    assert table.rows == tuple((n, abelian_complexity(w, n)) for n in range(1, len(w) + 1))


@st.composite
def words_and_table_sizes(draw):
    w, n = draw(words_and_lengths(max_len=120))
    powers = [1 << j for j in range(len(w).bit_length()) if 1 << j <= len(w)]
    size = draw(st.sampled_from([1, len(w), n, *powers]))
    return w, size


@settings(max_examples=300)
@given(case=words_and_table_sizes())
# periodic words and tails, and N not a power of two
@example(case=(FiniteWord.from_text("a" * 9, ("a", "b")), 3))
@example(case=(FiniteWord.from_text("ab" * 6, ("a", "b")), 7))
@example(case=(FiniteWord.from_text("aab" * 4 + "aa", ABC), 11))
@example(case=(FiniteWord.from_text("aab" * 3 + "a", ("a", "b")), 7))
def test_factor_table_matches_sets_of_factors(case):
    # one suffix automaton gives every row, including N = 1, N = len(w) and
    # powers of two; it is built for the table, and nothing is kept on the word
    w, max_n = case
    expected = tuple(
        (n, len({w.data[i : i + n] for i in range(len(w) - n + 1)})) for n in range(1, max_n + 1)
    )
    assert complexity_table(w, "factor", max_n).rows == expected
    assert set(vars(w)) == {"alphabet", "data"}


def test_factor_table_over_256_letters():
    # one transition column per letter, every byte value a letter
    rng = random.Random(13)
    alphabet = tuple(chr(0x100 + i) for i in range(256))
    w = FiniteWord(alphabet, bytes(rng.randrange(256) for _ in range(300)) + b"\xff" * 40)
    expected = tuple(
        (n, len({w.data[i : i + n] for i in range(len(w) - n + 1)})) for n in range(1, len(w) + 1)
    )
    assert complexity_table(w, "factor", len(w)).rows == expected


@settings(max_examples=200)
@given(case=words_and_lengths())
def test_cum_counts_are_contiguous_int32_parikh_vectors(case):
    # one tuple of len + 1 counts per letter, indexed [letter][t]
    w, _ = case
    cum = w.cum_counts
    assert type(cum) is tuple and len(cum) == len(w.alphabet)
    assert all(type(counts) is tuple and len(counts) == len(w) + 1 for counts in cum)
    for t in range(len(w) + 1):
        counts = Counter(w.data[:t])
        assert tuple(column[t] for column in cum) == tuple(counts[j] for j in range(len(w.alphabet)))
