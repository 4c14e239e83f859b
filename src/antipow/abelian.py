"""Parikh-vector machinery: abelian and factor complexity, prefix normality,
block classing of power-of-two factors and their cyclic-shift spectra.

The abelian complexity of the infinite Sierpinski and Thue–Morse words, and
the factor complexity of Thue–Morse and of every paperfolding word, also
have closed forms here, which read no prefix. The abelian table of a binary
prefix follows one bitset of starts per live one-count from each n to the
next, in Python ints. Like `words`, the module imports no numpy until a
`FiniteWord` array is read: factor tables, abelian tables over three or
more letters and the single-n functions (`abelian_complexity`,
`factor_complexity`) read one.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

from .words import FiniteWord


def parikh(w: FiniteWord) -> tuple[int, ...]:
    """Occurrence count of each alphabet symbol, in alphabet order."""
    return tuple(int(c) for c in w.cum_counts[len(w)])


def parikh_prefix_table(w: FiniteWord) -> list[tuple[int, ...]]:
    """Entry t is the Parikh vector of the length-t prefix, t = 0..len(w);
    the Parikh vector of any factor is the difference of two entries."""
    return [tuple(int(c) for c in row) for row in w.cum_counts]


def abelian_complexity(w: FiniteWord, n: int) -> int:
    """Number of distinct Parikh vectors among the length-n factors of w."""
    keys = w.abelian_keys(n)
    if len(w.alphabet) == 2:
        # the keys are one-counts, and those of successive windows differ by
        # at most 1, so they fill the interval between their extremes
        return int(keys.max() - keys.min()) + 1
    return int(keys.max()) + 1


def factor_complexity(w: FiniteWord, n: int) -> int:
    """Number of distinct length-n factors of w: the last row of its factor
    table up to n."""
    return int(w._factor_counts(n)[-1])


def is_prefix_normal(w: FiniteWord, letter: str) -> bool:
    """True iff for every n, no length-n factor of w contains more
    occurrences of `letter` than the length-n prefix does."""
    if letter not in w.alphabet:
        raise ValueError(f"letter {letter!r} not in alphabet")
    counts = w.cum_counts[:, w.alphabet.index(letter)]
    for n in range(1, len(w) + 1):
        if int((counts[n:] - counts[:-n]).max()) > int(counts[n]):
            return False
    return True


def phi_u(block: FiniteWord) -> int:
    """Abelian class of a block of length 2^u (u >= 1) over {0,1}: its count
    of ones. For u = 1 the classes 0/1/2 are the three abelian classes of
    two-letter binary blocks."""
    size = len(block)
    if size < 2 or size & (size - 1):
        raise ValueError("block length must be a power of two, at least 2")
    if len(block.alphabet) != 2:
        raise ValueError("block must be over a binary alphabet")
    return int(parikh(block)[1])


def cyclic_shift_spectrum(f: FiniteWord, u: int) -> set[int]:
    """Shifts q in 1..2^{n-u} by which the sequence of block classes of f
    (cut into consecutive blocks of length 2^u) equals its own rotation.

    f must be over a binary alphabet, where a block's class is its count of
    ones (`phi_u`), and have length 2^n with n >= u+2. The block count is
    always in the spectrum; for paperfolding factors it is the only member.
    """
    if len(f.alphabet) != 2:
        raise ValueError("word must be over a binary alphabet")
    if u < 1:
        raise ValueError("block exponent must be >= 1")
    size = len(f)
    if size == 0 or size & (size - 1):
        raise ValueError("word length must be a power of two")
    n = size.bit_length() - 1
    if n < u + 2:
        raise ValueError(f"need length >= 2^{u + 2} for block exponent {u}")
    width = 1 << u
    ones = f.cum_counts[:, 1]
    values = tuple(int(ones[i + width] - ones[i]) for i in range(0, size, width))
    return {q for q in range(1, len(values) + 1) if values == values[q:] + values[:q]}


@dataclass(frozen=True)
class ComplexityTable:
    """Rows (n, value) of a complexity function; kind is 'abelian' or 'factor'."""

    kind: str
    rows: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.kind not in ("abelian", "factor"):
            raise ValueError(f"unknown complexity kind {self.kind!r}")
        ns = [n for n, _ in self.rows]
        if ns != sorted(set(ns)):
            raise ValueError("row lengths must be strictly increasing")
        if any(v < 1 for _, v in self.rows):
            raise ValueError("complexity values are >= 1")

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("n,value\n")
        for n, v in self.rows:
            out.write(f"{n},{v}\n")
        return out.getvalue()


def complexity_table(w: FiniteWord, kind: str, max_n: int) -> ComplexityTable:
    """Table of abelian or factor complexity of w for n = 1..max_n. A factor
    table comes from one sort of w. An abelian table over two letters steps
    the bitsets of `_binary_abelian_counts` from n to n + 1, with no numpy;
    over other alphabets it ranks the Parikh vectors of every window, one
    pass per n."""
    if kind not in ("abelian", "factor"):
        raise ValueError(f"unknown complexity kind {kind!r}")
    if not 1 <= max_n <= len(w):
        raise ValueError(f"max_n {max_n} out of range 1..{len(w)}")
    if kind == "factor":
        values = w._factor_counts(max_n).tolist()
    elif len(w.alphabet) == 2:
        values = _binary_abelian_counts(w.data, max_n)
    else:
        values = [abelian_complexity(w, n) for n in range(1, max_n + 1)]
    return ComplexityTable(kind, tuple(zip(range(1, max_n + 1), values)))


# letter indices 0 and 1 as the base-2 digits "0" and "1"
_BINARY_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _binary_abelian_counts(data: bytes, max_n: int) -> list[int]:
    """Abelian complexity a(n), n = 1..max_n, of a word over two letters,
    given as letter indices 0 and 1, with no numpy and no pass per n.

    Bit i of `ones` (of `zeros`) is set when letter i is 1 (is 0). Level c
    is the bitset of the starts i whose window (i, n) holds c ones, and
    levels[0] has the smallest such c. The window (i, n + 1) adds letter
    i + n, so a start stays on its level where that letter is 0 and moves
    up one where it is 1: zeros >> n and ones >> n select them, and hold no
    start past L - n - 1, the last one of length n + 1, for L = len(data).
    The one-counts of the windows of one length fill an interval, since
    successive windows differ by at most one, so no empty level lies between
    live ones, and a(n) is the number of live levels. Each step costs a(n)
    word-parallel operations on L - n bits."""
    ones = int(data.translate(_BINARY_DIGITS)[::-1], 2)
    zeros = ones ^ ((1 << len(data)) - 1)
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
