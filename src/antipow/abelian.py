"""Parikh-vector machinery: abelian and factor complexity, prefix normality,
block classing of power-of-two factors and their cyclic-shift spectra.

Every complexity algorithm of the package is here, on top of the views of
a word that `words.FiniteWord` holds. The words are over two letters, so a
factor's Parikh vector is fixed by its length and its one-count. The
abelian complexity of the infinite Sierpinski and Thue–Morse words, and the
factor complexity of Thue–Morse and of every paperfolding word, also have
closed forms, which read no prefix. The abelian table of a prefix follows
one bitset of starts per live one-count from each n to the next, in Python
ints. A factor table reads every row from the suffix automaton of the
prefix.
"""

from __future__ import annotations

import io
from itertools import accumulate, islice
from operator import sub
from typing import NamedTuple

from .words import FiniteWord


def parikh(w: FiniteWord) -> tuple[int, ...]:
    """Occurrence count of each of the two letters, in alphabet order."""
    return tuple(map(w.data.count, b"\0\1"))


def parikh_prefix_table(w: FiniteWord) -> list[tuple[int, ...]]:
    """Entry t is the Parikh vector of the length-t prefix, t = 0..len(w);
    the Parikh vector of any factor is the difference of two entries."""
    return list(zip(*w.cum_counts))


def abelian_complexity(w: FiniteWord, n: int) -> int:
    """Number of distinct Parikh vectors among the length-n factors of w."""
    return len(set(w.abelian_keys(n)))


def factor_complexity(w: FiniteWord, n: int) -> int:
    """Number of distinct length-n factors of w: the last row of its factor
    table up to n."""
    return _factor_counts(w, n)[-1]


def is_prefix_normal(w: FiniteWord, letter: str) -> bool:
    """True iff for every n, no length-n factor of w contains more
    occurrences of `letter` than the length-n prefix does."""
    if letter not in w.alphabet:
        raise ValueError(f"letter {letter!r} not in alphabet")
    counts = w.cum_counts[w.alphabet.index(letter)]
    return all(max(map(sub, counts[n:], counts)) <= counts[n] for n in range(1, len(w) + 1))


def phi_u(block: FiniteWord) -> int:
    """Abelian class of a block of length 2^u (u >= 1): its count of ones.
    For u = 1 the classes 0/1/2 are the three abelian classes of two-letter
    blocks."""
    size = len(block)
    if size < 2 or size & (size - 1):
        raise ValueError("block length must be a power of two, at least 2")
    return parikh(block)[1]


def cyclic_shift_spectrum(f: FiniteWord, u: int) -> set[int]:
    """Shifts q in 1..2^{n-u} by which the sequence of block classes of f
    (cut into consecutive blocks of length 2^u) equals its own rotation.

    A block's class is its count of ones (`phi_u`), and f must have length
    2^n with n >= u+2. The block count is always in the spectrum; for
    paperfolding factors it is the only member.
    """
    if u < 1:
        raise ValueError("block exponent must be >= 1")
    size = len(f)
    if size == 0 or size & (size - 1):
        raise ValueError("word length must be a power of two")
    n = size.bit_length() - 1
    if n < u + 2:
        raise ValueError(f"need length >= 2^{u + 2} for block exponent {u}")
    width = 1 << u
    values = tuple(sum(f.data[i : i + width]) for i in range(0, size, width))
    return {q for q in range(1, len(values) + 1) if values == values[q:] + values[:q]}


class ComplexityTable(
    NamedTuple("ComplexityTable", [("kind", str), ("rows", tuple[tuple[int, int], ...])])
):
    """Rows (n, value) of a complexity function; kind is 'abelian' or 'factor'."""

    __slots__ = ()

    def __new__(cls, kind: str, rows: tuple[tuple[int, int], ...]) -> "ComplexityTable":
        if kind not in ("abelian", "factor"):
            raise ValueError(f"unknown complexity kind {kind!r}")
        ns = [n for n, _ in rows]
        if ns != sorted(set(ns)):
            raise ValueError("row lengths must be strictly increasing")
        if any(v < 1 for _, v in rows):
            raise ValueError("complexity values are >= 1")
        return super().__new__(cls, kind, rows)

    @classmethod
    def _make(cls, fields) -> "ComplexityTable":
        return cls(*fields)

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("n,value\n")
        for n, v in self.rows:
            out.write(f"{n},{v}\n")
        return out.getvalue()


def complexity_table(w: FiniteWord, kind: str, max_n: int) -> ComplexityTable:
    """Table of abelian or factor complexity of w for n = 1..max_n. A factor
    table comes from the suffix automaton of w, an abelian table from the
    bitsets that `_binary_abelian_counts` steps from n to n + 1."""
    if kind not in ("abelian", "factor"):
        raise ValueError(f"unknown complexity kind {kind!r}")
    if not 1 <= max_n <= len(w):
        raise ValueError(f"max_n {max_n} out of range 1..{len(w)}")
    if kind == "factor":
        values = _factor_counts(w, max_n)
    else:
        values = _binary_abelian_counts(w, max_n)
    return ComplexityTable(kind, tuple(zip(range(1, max_n + 1), values)))


def _binary_abelian_counts(w: FiniteWord, max_n: int) -> list[int]:
    """Abelian complexity a(n), n = 1..max_n, of w, with no pass per n.

    `zeros` and `ones` are the word's `letter_bits`: bit i is set when
    letter i is 0 (is 1). Level c is the bitset of the starts i whose window
    (i, n) holds c ones, and levels[0] has the smallest such c. The window
    (i, n + 1) adds letter i + n, so a start stays on its level where that
    letter is 0 and moves up one where it is 1: zeros >> n and ones >> n
    select them, and hold no start past L - n - 1, the last one of length
    n + 1, for L = len(w).
    The one-counts of the windows of one length fill an interval, since
    successive windows differ by at most one, so no empty level lies between
    live ones, and a(n) is the number of live levels. Each step costs a(n)
    word-parallel operations on L - n bits."""
    zeros, ones = w.letter_bits
    levels = [level for level in (zeros, ones) if level]
    counts = [len(levels)]
    for n in range(1, max_n):
        stay, move = zeros >> n, ones >> n
        low = levels[0]
        grown = [low & stay]
        for high in levels[1:]:
            grown.append(high & stay | low & move)
            low = high
        grown.append(low & move)
        # the lowest one-count rises by at most one, and so does the highest
        if not grown[-1]:
            grown.pop()
        if not grown[0]:
            del grown[0]
        levels = grown
        counts.append(len(levels))
    return counts


def _factor_counts(w: FiniteWord, max_n: int) -> list[int]:
    """Factor complexity p(n), n = 1..max_n, of w, from its suffix automaton
    (Blumer et al., Theoret. Comput. Sci. 40, 1985).

    Each state but the initial one is the class of the factors that end at
    the same positions of w: one factor of each length from len(link) + 1 to
    len, its suffix link's length plus one to its own. So p(n) is the number
    of states whose lengths hold n, and each state adds 1 on its lengths to
    a difference array. Letters are alphabet indices, so the transitions
    are one column per letter, in which 0 is no transition, since none
    leads to the initial state. The automaton has fewer than 2·len + 1
    states, so index -1 of the `array('i')` columns is past every state; it
    is nonzero there, and the walks up the suffix links stop at it, the
    initial state's link. `array` is a shared library, loaded here, so only
    the commands that count factors on a prefix load it."""
    from array import array

    size = len(w)
    if not 1 <= max_n <= size:
        raise ValueError(f"factor length {max_n} out of range 1..{size}")
    states = 2 * size + 1
    length = array("i", [0]) * states
    link = array("i", [0]) * states
    link[0] = -1
    columns = [array("i", [0]) * states for _ in w.alphabet]
    for column in columns:
        column[-1] = -1
    # count states are made so far; last is the one of the whole prefix read
    last, count = 0, 1
    for end, letter in enumerate(w.data, 1):
        cur, count = count, count + 1
        length[cur] = end
        column = columns[letter]
        p = last
        while not column[p]:
            column[p] = cur
            p = link[p]
        # past the initial state, cur keeps its link to it
        if p >= 0:
            q = column[p]
            if length[p] + 1 == length[q]:
                link[cur] = q
            else:
                # q also holds longer factors: split off the ones up to
                # length[p] + 1 as a clone that takes q's transitions
                clone, count = count, count + 1
                length[clone] = length[p] + 1
                link[clone] = link[q]
                for other in columns:
                    other[clone] = other[q]
                while column[p] == q:
                    column[p] = clone
                    p = link[p]
                link[q] = link[cur] = clone
        last = cur
    # entry n - 1 of the running sum counts the states with low < n <= high
    diff = [0] * (size + 1)
    for low, high in zip(map(length.__getitem__, islice(link, 1, count)), islice(length, 1, count)):
        diff[low] += 1
        diff[high] -= 1
    return list(islice(accumulate(diff), max_n))


def _sierpinski_abelian(n: int) -> int:
    """Abelian complexity a(n) of the infinite Sierpinski word, n >= 1:
    1 + |s[1..n]|_a (criterion 05). Letter i is a exactly when i - 1 has no
    base-3 digit 1, so the a-count is the number of m < n whose digits are
    all 0 or 2. Reading n's digits from the top, a nonzero digit at place j
    adds the 2^j such m that agree with n above j and have 0 at j, and only
    a 2 lets m go on agreeing with n below j."""
    digits = []
    while n:
        n, digit = divmod(n, 3)
        digits.append(digit)
    count = 0
    for j in reversed(range(len(digits))):
        if digits[j]:
            count += 1 << j
            if digits[j] == 1:
                break
    return count + 1


def _thue_morse_abelian(n: int) -> int:
    """Abelian complexity a(n) of the infinite Thue–Morse word, n >= 1: 2 for
    odd n, 3 for even n (Richomme, Saari, Zamboni, J. London Math. Soc. 2011)."""
    return 3 - n % 2


def _thue_morse_factor(n: int) -> int:
    """Factor complexity p(n) of the infinite Thue–Morse word, n >= 1 (Brlek,
    Discrete Appl. Math. 24, 1989): 2n for n <= 2; otherwise, with
    n - 1 = 2^r + q and 0 <= q < 2^r, 3·2^r + 4q while q <= 2^(r-1) and
    4·2^r + 2q after."""
    if n <= 2:
        return 2 * n
    r = (n - 1).bit_length() - 1
    q = n - 1 - (1 << r)
    return 3 * (1 << r) + 4 * q if 2 * q <= 1 << r else 4 * (1 << r) + 2 * q


def _paperfolding_factor(n: int) -> int:
    """Factor complexity p(n) of every paperfolding word, n >= 1, whatever its
    instructions: 2, 4, 8, 12, 18, 23, then 4n for n >= 7 (Allouche, Bull.
    Austral. Math. Soc. 46, 1992)."""
    return (2, 4, 8, 12, 18, 23)[n - 1] if n < 7 else 4 * n


# the complexity of each infinite word, by kind, that has a closed form
_INFINITE = {
    ("sierpinski", "abelian"): _sierpinski_abelian,
    ("thue-morse", "abelian"): _thue_morse_abelian,
    ("thue-morse", "factor"): _thue_morse_factor,
    ("paperfolding", "factor"): _paperfolding_factor,
}


def infinite_complexity_table(word: str, kind: str, max_n: int) -> ComplexityTable | None:
    """Abelian or factor complexity table of the infinite word for
    n = 1..max_n, from its closed form with no prefix; None where there is
    none here (Sierpinski factor and paperfolding abelian tables), whose
    table needs a prefix that holds every factor."""
    if kind not in ("abelian", "factor"):
        raise ValueError(f"unknown complexity kind {kind!r}")
    if max_n < 1:
        raise ValueError(f"max_n {max_n} must be >= 1")
    value = _INFINITE.get((word, kind))
    if value is None:
        return None
    return ComplexityTable(kind, tuple((n, value(n)) for n in range(1, max_n + 1)))
