"""Finite prefixes of structured infinite words.

Two independent generation mechanisms are provided for each word family so
that one can validate the other: iterated morphisms / Toeplitz hole-filling
on one side, closed-form letter oracles (`instructions.paperfolding_letter`
for paperfolding words) on the other.

Every word here is over two letters, stored as the bytes 0 and 1, and
every morphism is uniform. `FiniteWord` holds only views of a word (its two
letter bitsets, cumulative counts, abelian window keys); every complexity
algorithm is in `abelian`.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate
from operator import sub
from typing import Mapping

# REGULAR and paperfolding_letter are re-exported from here
from .instructions import (
    PAPERFOLDING_ALPHABET,
    REGULAR,
    InstructionSequence,
    paperfolding_letter,
)


def _frozen(self, name: str, *value) -> None:
    """`__setattr__` and `__delattr__` of the immutable classes below."""
    raise AttributeError(f"cannot assign to or delete field {name!r}")


# the letters 0 and 1 as the base-2 digits that `int` reads, and swapped
_DIGITS = bytes.maketrans(b"\0\1", b"01")
_SWAP = bytes.maketrans(b"\0\1", b"\1\0")


def _check_alphabet(alphabet: tuple[str, ...]) -> None:
    """Refuse all but two distinct single characters, and any not ASCII,
    which `FiniteWord.__str__` encodes."""
    if (len(alphabet) != 2 or alphabet[0] == alphabet[1]
            or any(len(s) != 1 or not s.isascii() for s in alphabet)):
        raise ValueError("alphabet must be two distinct single characters")


class FiniteWord:
    """Immutable finite word over an ordered alphabet of two ASCII letters.

    Letters are stored as alphabet indices, 0 or 1, one byte each. The
    fields are set once, here, from copies of the arguments, so a caller's
    later write into its own buffer or list changes no word; the cached
    views below live in the instance `__dict__`.
    """

    alphabet: tuple[str, str]
    data: bytes

    def __init__(self, alphabet: tuple[str, str], data: bytes) -> None:
        alphabet = tuple(alphabet)
        _check_alphabet(alphabet)
        # deleting both letters in C leaves only the out-of-range ones
        if data.translate(None, b"\0\1"):
            raise ValueError("letter index out of range for alphabet")
        # `tuple` and `bytes` return a tuple or a bytes argument itself, with no copy
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "data", bytes(data))

    __setattr__ = __delattr__ = _frozen

    def __repr__(self) -> str:
        return f"FiniteWord(alphabet={self.alphabet!r}, data={self.data!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.alphabet, self.data) == (other.alphabet, other.data)

    def __hash__(self) -> int:
        return hash((self.alphabet, self.data))

    @classmethod
    def from_text(cls, text: str, alphabet: tuple[str, str]) -> "FiniteWord":
        index = {ch: i for i, ch in enumerate(alphabet)}
        try:
            return cls(alphabet, bytes(index[ch] for ch in text))
        except KeyError as exc:
            raise ValueError(f"symbol {exc.args[0]!r} not in alphabet") from None

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return FiniteWord(self.alphabet, self.data[i])
        return self.data[i]

    def __str__(self) -> str:
        table = bytes.maketrans(b"\0\1", "".join(self.alphabet).encode("ascii"))
        return self.data.translate(table).decode("ascii")

    def prefix(self, n: int) -> "FiniteWord":
        if not 0 <= n <= len(self):
            raise ValueError(f"prefix length {n} out of range")
        return FiniteWord(self.alphabet, self.data[:n])

    @cached_property
    def letter_bits(self) -> tuple[int, int]:
        """The bitsets (zeros, ones) of the word: bit i of each is set
        exactly when letter i is that letter. `ones` is the word written in
        base 2, its first letter lowest, and `zeros` its complement on the
        word's length."""
        ones = int(self.data[::-1].translate(_DIGITS) or b"0", 2)
        return ones ^ (1 << len(self)) - 1, ones

    @cached_property
    def cum_counts(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Cumulative letter counts, one tuple per letter, in alphabet
        order: entry t of letter i's tuple is the number of i's in the prefix
        of length t, so entries t of both make its Parikh vector. The
        letters are the bytes 0 and 1, so the ones are a running sum of the
        word, and the zeros one of the word with its letters swapped.
        Tuples, so that no caller can change what every later answer on the
        word reads."""
        zeros = accumulate(self.data.translate(_SWAP), initial=0)
        return tuple(zeros), tuple(accumulate(self.data, initial=0))

    def abelian_keys(self, d: int) -> list[int]:
        """One integer per length-d factor, in order of position, equal
        exactly when the factors have the same Parikh vector: its count of
        the second letter, since the length fixes the first."""
        if not 1 <= d <= len(self):
            raise ValueError(f"factor length {d} out of range 1..{len(self)}")
        ones = self.cum_counts[1]
        return list(map(sub, ones[d:], ones))


class Morphism:
    """Substitution on a finite alphabet; the alphabet is the ordered set of
    rule keys and every rule image must stay inside it. Morphisms compare
    by identity."""

    rules: Mapping[str, str]

    def __init__(self, rules: Mapping[str, str]) -> None:
        if not rules:
            raise ValueError("morphism needs at least one rule")
        letters = set(rules)
        for sym, image in rules.items():
            if not image:
                raise ValueError(f"rule for {sym!r} is empty")
            if not set(image) <= letters:
                raise ValueError(f"rule for {sym!r} uses symbols without rules")
        object.__setattr__(self, "rules", rules)

    __setattr__ = __delattr__ = _frozen

    def __repr__(self) -> str:
        return f"Morphism(rules={self.rules!r})"

    @property
    def alphabet(self) -> tuple[str, ...]:
        return tuple(self.rules)

    def apply(self, word: str) -> str:
        return "".join(self.rules[ch] for ch in word)


SIERPINSKI_MORPHISM = Morphism({"a": "aba", "b": "bbb"})
THUE_MORSE_MORPHISM = Morphism({"0": "01", "1": "10"})


def morphism_prefix(m: Morphism, seed: str, n: int) -> FiniteWord:
    """First n letters of the fixed point of m starting from seed, for a
    uniform morphism m over two letters, whose images all have one length
    r >= 2 (Thue–Morse, Sierpinski). It is applied to letter indices in
    bytes: letter t of every image is one `bytes.translate` of the word,
    written to every r-th position from t."""
    if n < 1:
        raise ValueError("prefix length must be >= 1")
    rule = m.rules.get(seed)
    if rule is None:
        raise ValueError(f"seed {seed!r} has no rule")
    if not rule.startswith(seed):
        raise ValueError(f"seed {seed!r} is not prolongable: rule does not start with it")
    r = len(rule)
    if r < 2 or any(len(image) != r for image in m.rules.values()):
        raise ValueError("morphism is not uniform: its images need one length r >= 2")
    alphabet = m.alphabet
    _check_alphabet(alphabet)
    index = {ch: i for i, ch in enumerate(alphabet)}
    tables = [
        bytes.maketrans(b"\0\1", bytes(index[m.rules[ch][t]] for ch in alphabet))
        for t in range(r)
    ]
    data = bytearray((index[seed],))
    while len(data) < n:
        grown = bytearray(r * len(data))
        for t, table in enumerate(tables):
            grown[t::r] = data.translate(table)
        data = grown
    return FiniteWord(alphabet, data[:n])


def sierpinski_prefix(n: int) -> FiniteWord:
    """First n letters of the Sierpinski (Cantor) word, via the doubling
    recurrence s_{k+1} = s_k b^{3^k} s_k starting from s_0 = a."""
    if n < 1:
        raise ValueError("prefix length must be >= 1")
    word = b"\x00"
    while len(word) < n:
        word = word + b"\x01" * len(word) + word
    return FiniteWord(("a", "b"), word[:n])


def toeplitz_paperfolding_prefix(b: InstructionSequence, n: int) -> FiniteWord:
    """First n letters of the paperfolding word with instructions b, built by
    Toeplitz hole-filling.

    Round k writes the periodic template a?A? (a = 0 if b_k = +1 else 1,
    A = 1-a) into the remaining holes, in order. The holes left before
    round k are the positions divisible by 2^k, so the round writes a at
    positions 2^k(4q+1) and A at 2^k(4q+3); the rounds with 2^k <= n settle
    the first n positions. The buffer starts as zeros, so each round writes
    only its ones, at positions (2 + b_k) 2^k mod 2^(k+2).
    """
    if n < 1:
        raise ValueError("prefix length must be >= 1")
    buf = bytearray(n)
    ones = memoryview(b"\x01" * ((n + 3) // 4))
    k = 0
    while (1 << k) <= n:
        start, step = ((2 + b.at(k)) << k) - 1, 1 << (k + 2)
        buf[start::step] = ones[: len(range(start, n, step))]
        k += 1
    return FiniteWord(PAPERFOLDING_ALPHABET, buf)
