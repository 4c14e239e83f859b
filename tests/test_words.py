import random

import pytest
from hypothesis import example, given, settings, strategies as st

import antipow.abelian
from antipow import (
    FiniteWord,
    InstructionSequence,
    Morphism,
    REGULAR,
    SIERPINSKI_MORPHISM,
    THUE_MORSE_MORPHISM,
    abelian_complexity,
    factor_complexity,
    find_first,
    morphism_prefix,
    paperfolding_letter,
    sierpinski_prefix,
    toeplitz_paperfolding_prefix,
)
from antipow.abelian import _factor_counts

REGULAR_32 = "00100110001101100010011100110110"


def test_morphism_prefix_sierpinski_two_iterations():
    assert str(morphism_prefix(SIERPINSKI_MORPHISM, "a", 9)) == "ababbbaba"


def test_morphism_prefix_seed_only():
    assert str(morphism_prefix(SIERPINSKI_MORPHISM, "a", 1)) == "a"


def test_morphism_prefix_thue_morse():
    # iterating 0 -> 01 -> 0110 -> 01101001 by hand
    assert str(morphism_prefix(THUE_MORSE_MORPHISM, "0", 8)) == "01101001"


def test_morphism_prefix_rejects_non_prolongable_seed():
    swap = Morphism({"a": "ba", "b": "ab"})
    with pytest.raises(ValueError, match="prolongable"):
        morphism_prefix(swap, "a", 4)


def test_morphism_prefix_rejects_unknown_seed():
    with pytest.raises(ValueError, match="no rule"):
        morphism_prefix(SIERPINSKI_MORPHISM, "c", 4)


def test_morphism_prefix_rejects_non_expanding():
    idle = Morphism({"a": "a"})
    with pytest.raises(ValueError, match="expand"):
        morphism_prefix(idle, "a", 2)


def test_morphism_prefix_non_uniform_fibonacci():
    # images of lengths 2 and 1 take the text path
    fibonacci = Morphism({"a": "ab", "b": "a"})
    assert str(morphism_prefix(fibonacci, "a", 13)) == "abaababaabaab"


def _text_fixed_point(m: Morphism, seed: str, n: int) -> FiniteWord:
    """Reference: apply m to text until the prefix is long enough."""
    word = seed
    while len(word) < n:
        word = m.apply(word)
    return FiniteWord.from_text(word[:n], m.alphabet)


@st.composite
def uniform_morphisms(draw):
    letters = draw(st.sampled_from(("ab", "abc", "abcd")))
    r = draw(st.integers(2, 4))
    rules = {ch: draw(st.text(alphabet=letters, min_size=r, max_size=r)) for ch in letters}
    rules["a"] = "a" + rules["a"][1:]  # prolongable from a
    return Morphism(rules)


@settings(max_examples=200)
@given(
    m=st.one_of(st.just(THUE_MORSE_MORPHISM), st.just(SIERPINSKI_MORPHISM), uniform_morphisms()),
    n=st.integers(1, 3000),
)
def test_uniform_morphism_bytes_match_text_path(m, n):
    seed = m.alphabet[0]
    assert morphism_prefix(m, seed, n) == _text_fixed_point(m, seed, n)


def test_morphism_rules_validation():
    with pytest.raises(ValueError):
        Morphism({"a": "ab"})  # 'b' has no rule
    with pytest.raises(ValueError):
        Morphism({"a": ""})


def test_sierpinski_prefix_displayed():
    assert str(sierpinski_prefix(10)) == "ababbbabab"
    assert str(sierpinski_prefix(1)) == "a"


def test_sierpinski_stage_lengths_are_powers_of_three():
    # s_3 has 27 letters and is a prefix of every longer stage
    s3 = str(sierpinski_prefix(27))
    assert len(s3) == 27
    assert s3 == "ababbbaba" + "b" * 9 + "ababbbaba"


def test_sierpinski_matches_morphism_route():
    n = 3**9
    assert sierpinski_prefix(n) == morphism_prefix(SIERPINSKI_MORPHISM, "a", n)


def test_sierpinski_prefix_rejects_zero():
    with pytest.raises(ValueError):
        sierpinski_prefix(0)


def test_toeplitz_regular_prefix():
    assert str(toeplitz_paperfolding_prefix(REGULAR, 32)) == REGULAR_32
    assert str(toeplitz_paperfolding_prefix(REGULAR, 3)) == "001"


def test_toeplitz_all_minus_matches_oracle():
    b = InstructionSequence((), (-1,))
    w = toeplitz_paperfolding_prefix(b, 4)
    assert str(w) == "1101"
    assert all(paperfolding_letter(b, i + 1) == w[i] for i in range(4))


def test_paperfolding_letter_examples():
    assert paperfolding_letter(REGULAR, 3) == 1
    assert paperfolding_letter(REGULAR, 12) == 1
    assert paperfolding_letter(REGULAR, 8) == 0  # 8 = 2^3, even odd-index


def test_paperfolding_letter_rejects_zero():
    with pytest.raises(ValueError):
        paperfolding_letter(REGULAR, 0)


def test_paperfolding_letter_at_astronomical_positions():
    # ones of order k sit at positions 2^k(3+4t) in the regular word
    assert paperfolding_letter(REGULAR, 3 << 200) == 1
    assert paperfolding_letter(REGULAR, 1 << 200) == 0
    assert paperfolding_letter(REGULAR, 7 << 200) == 1
    assert paperfolding_letter(REGULAR, 5 << 200) == 0


@pytest.mark.parametrize(
    "text", ["(+)", "(-+)", "+-(-)", "(--+)", "++(-+-)"]
)
def test_toeplitz_agrees_with_letter_oracle(text):
    b = InstructionSequence.parse(text)
    n = 2**10
    w = toeplitz_paperfolding_prefix(b, n)
    assert all(paperfolding_letter(b, i + 1) == w[i] for i in range(n))


def test_regular_ones_of_each_order_sit_on_arithmetic_progression():
    for k in range(7):
        n = 2 ** (k + 4)
        w = toeplitz_paperfolding_prefix(REGULAR, n)
        found = [
            i
            for i in range(1, n + 1)
            if w[i - 1] == 1 and (i & -i).bit_length() - 1 == k
        ]
        expected = [(3 + 4 * t) << k for t in range(4)]
        assert found == [p for p in expected if p <= n]


def test_instruction_sequence_accessor():
    b = InstructionSequence.parse("+-(-)")
    assert [b.at(k) for k in range(6)] == [1, -1, -1, -1, -1, -1]
    alt = InstructionSequence.parse("(-+)")
    assert [alt.at(k) for k in range(5)] == [-1, 1, -1, 1, -1]
    with pytest.raises(ValueError):
        alt.at(-1)


def test_instruction_sequence_round_trip():
    for text in ["(+)", "(-+)", "+-(-)", "++--(-+-)"]:
        assert str(InstructionSequence.parse(text)) == text


def test_instruction_sequence_parse_errors():
    for bad in ["bad", "", "+", "(+", "+)", "()", "(a)", "(+)(+)"]:
        with pytest.raises(ValueError):
            InstructionSequence.parse(bad)


def test_instruction_sequence_accepts_unicode_minus():
    assert InstructionSequence.parse("(−+)") == InstructionSequence.parse("(-+)")


def test_instruction_sequence_validation():
    with pytest.raises(ValueError):
        InstructionSequence((), ())
    with pytest.raises(ValueError):
        InstructionSequence((2,), (1,))


def test_finite_word_basics():
    w = FiniteWord.from_text("abba", ("a", "b"))
    assert len(w) == 4
    assert str(w) == "abba"
    assert w[1] == 1
    assert str(w[1:3]) == "bb"
    assert str(w.prefix(2)) == "ab"
    with pytest.raises(ValueError):
        w.prefix(9)


def test_finite_word_validation():
    with pytest.raises(ValueError):
        FiniteWord.from_text("abc", ("a", "b"))
    with pytest.raises(ValueError, match="symbol 'z' not in alphabet"):
        FiniteWord.from_text("abz", ("a", "b"))
    with pytest.raises(ValueError):
        FiniteWord(("a", "a"), b"\x00")
    with pytest.raises(ValueError):
        FiniteWord(("a", "b"), b"\x05")
    with pytest.raises(ValueError, match="letter index out of range"):
        FiniteWord(("a", "b"), b"\x00\x02")
    with pytest.raises(ValueError):
        FiniteWord((), b"")


@pytest.mark.parametrize("method", ["abelian_keys"])
def test_key_methods_reject_widths_outside_the_word(method):
    w = morphism_prefix(THUE_MORSE_MORPHISM, "0", 16)
    keys = getattr(w, method)
    for d in (0, len(w) + 1, 2 * len(w) + 8):
        with pytest.raises(ValueError, match="out of range"):
            keys(d)
    assert len(keys(1)) == 16 and len(keys(len(w))) == 1


@settings(max_examples=200)
@given(letters=st.sampled_from(("0", "01", "abc")), data=st.data())
def test_letter_bits_set_bit_i_for_letter_i(letters, data):
    text = data.draw(st.text(alphabet=letters, max_size=120))
    w = FiniteWord.from_text(text, tuple(letters))
    bits = w.letter_bits
    assert len(bits) == len(letters)
    for letter, x in enumerate(bits):
        assert x == sum(1 << i for i, c in enumerate(w.data) if c == letter)


def test_rank_levels_are_exact_and_built_only_up_to_the_level_read(monkeypatch):
    # a factor table up to n builds the levels up to the largest 2^j <= n:
    # one doubling, at offset 2^i, from each level i < j, and one more pair
    # of level-j ranks at offset n - 2^j when n is not a power of two
    offsets, pair_keys = [], antipow.abelian._pair_keys

    def recorded(level, off):
        offsets.append(off)
        return pair_keys(level, off)

    monkeypatch.setattr(antipow.abelian, "_pair_keys", recorded)
    w = toeplitz_paperfolding_prefix(REGULAR, 300)
    for j in range(9):
        offsets.clear()
        counts = _factor_counts(w, 1 << j).tolist()
        assert offsets == [1 << i for i in range(j)]
        for i in range(j + 1):
            n = 1 << i
            assert counts[n - 1] == len({w.data[p : p + n] for p in range(len(w) - n + 1)})
    offsets.clear()
    _factor_counts(w, 300)
    assert offsets == [1 << i for i in range(8)] + [300 - 256]


def test_cached_arrays_are_read_only():
    # every later answer on the word reads the cached counts, so a caller's
    # write into them must fail instead of changing those answers; factor
    # tables build their rank levels per call and keep none on the word
    w = toeplitz_paperfolding_prefix(REGULAR, 64)
    answers = lambda: (abelian_complexity(w, 5), factor_complexity(w, 8),
                       find_first(w, 2, "antipower"), find_first(w, 3, "abelian_power"))
    before = answers()
    with pytest.raises(ValueError, match="read-only"):
        w.cum_counts[0] = 1
    assert set(vars(w)) == {"alphabet", "data", "cum_counts", "letter_bits"}
    assert answers() == before
    assert before[1] == 32


def test_rank_levels_refuse_sequences_whose_pair_keys_overflow():
    class LongWord(FiniteWord):
        # a length of 2^31 without allocating the letters
        def __len__(self):
            return 2**31

    w = LongWord(("a", "b"), b"\x00")
    for max_n in (1, 2):
        with pytest.raises(ValueError, match="at most 2147483647 letters \\(MAX_ARRAY_LENGTH\\)"):
            _factor_counts(w, max_n)


def test_array_methods_refuse_words_over_the_prefix_budget(monkeypatch):
    # each array layer reads the budget from its own module
    monkeypatch.setattr("antipow.words.MAX_ARRAY_LENGTH", 63)
    monkeypatch.setattr("antipow.abelian.MAX_ARRAY_LENGTH", 63)
    for read in (lambda w: w.cum_counts, lambda w: _factor_counts(w, 1)):
        read(toeplitz_paperfolding_prefix(REGULAR, 63))
        with pytest.raises(ValueError, match="at most 63 letters \\(MAX_ARRAY_LENGTH\\)"):
            read(toeplitz_paperfolding_prefix(REGULAR, 64))


def test_random_instruction_sequences_oracle_consistency():
    rng = random.Random(7)
    for _ in range(5):
        pre = tuple(rng.choice((1, -1)) for _ in range(rng.randint(0, 3)))
        per = tuple(rng.choice((1, -1)) for _ in range(rng.randint(1, 4)))
        b = InstructionSequence(pre, per)
        n = 2**9
        w = toeplitz_paperfolding_prefix(b, n)
        assert all(paperfolding_letter(b, i + 1) == w[i] for i in range(n))


_signs = st.sampled_from((1, -1))
instruction_sequences = st.builds(
    InstructionSequence,
    st.lists(_signs, max_size=3).map(tuple),
    st.lists(_signs, min_size=1, max_size=4).map(tuple),
)


@settings(max_examples=100)
@given(b=instruction_sequences, n=st.integers(1, 5000))
# the byte fill writes every 2^(k+2)-th position up to n, which need not be
# a power of two
@example(b=REGULAR, n=3)
@example(b=InstructionSequence.parse("-(+--)"), n=4095)
@example(b=InstructionSequence.parse("+-(-)"), n=4097)
def test_toeplitz_matches_letter_oracle_property(b, n):
    w = toeplitz_paperfolding_prefix(b, n)
    assert len(w) == n
    assert all(paperfolding_letter(b, i + 1) == w[i] for i in range(n))


def _residue_form_letter(b: InstructionSequence, i: int) -> int:
    """The letter rule restated: position i of order k is a one exactly when
    i = (2 + b_k) 2^k mod 2^{k+2}."""
    k = (i & -i).bit_length() - 1
    return 1 if (i - ((2 + b.at(k)) << k)) % (1 << (k + 2)) == 0 else 0


@pytest.mark.parametrize("text", ["(+)", "(-+)", "+-(-)", "(--+)", "-(+--)", "++(-+-)"])
def test_letter_oracle_matches_residue_form(text):
    b = InstructionSequence.parse(text)
    assert all(
        paperfolding_letter(b, i) == _residue_form_letter(b, i) for i in range(1, 2**14 + 1)
    )
    rng = random.Random(41)
    for _ in range(300):
        bits = rng.randint(1, 4096)
        dense = rng.getrandbits(bits) | 1 << (bits - 1)
        order = rng.randrange(bits)
        sparse = (rng.getrandbits(bits - order) | 1) << order
        for i in (dense, sparse):
            assert paperfolding_letter(b, i) == _residue_form_letter(b, i)
