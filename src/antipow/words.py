"""Finite prefixes of structured infinite words.

Two independent generation mechanisms are provided for each word family so
that one can validate the other: iterated morphisms / Toeplitz hole-filling
on one side, closed-form letter oracles (`instructions.paperfolding_letter`
for paperfolding words) on the other.

`FiniteWord` holds only views of a word (letter bitsets, cumulative counts,
abelian window keys); every complexity algorithm is in `abelian`.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Mapping

# REGULAR and paperfolding_letter are re-exported from here
from .instructions import (
    MAX_ARRAY_LENGTH,
    PAPERFOLDING_ALPHABET,
    REGULAR,
    InstructionSequence,
    paperfolding_letter,
)

# only the array methods import numpy, so generating a word does not load it
if TYPE_CHECKING:
    import numpy as np


def _frozen(self, name: str, *value) -> None:
    """`__setattr__` and `__delattr__` of the immutable classes below."""
    raise AttributeError(f"cannot assign to or delete field {name!r}")


class FiniteWord:
    """Immutable finite word over a small ordered alphabet.

    Letters are stored as alphabet indices, one byte each. The cached views
    below live in the instance `__dict__`; the fields are set once, here.
    """

    alphabet: tuple[str, ...]
    data: bytes

    def __init__(self, alphabet: tuple[str, ...], data: bytes) -> None:
        if not alphabet:
            raise ValueError("alphabet must be nonempty")
        if len(set(alphabet)) != len(alphabet):
            raise ValueError("alphabet symbols must be distinct")
        if any(len(s) != 1 for s in alphabet):
            raise ValueError("alphabet symbols must be single characters")
        # deleting every valid index in C leaves only the out-of-range letters
        if data.translate(None, bytes(range(len(alphabet)))):
            raise ValueError("letter index out of range for alphabet")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "data", data)

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
    def from_text(cls, text: str, alphabet: tuple[str, ...]) -> "FiniteWord":
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
        table = bytes.maketrans(
            bytes(range(len(self.alphabet))), "".join(self.alphabet).encode("ascii")
        )
        return self.data.translate(table).decode("ascii")

    def prefix(self, n: int) -> "FiniteWord":
        if not 0 <= n <= len(self):
            raise ValueError(f"prefix length {n} out of range")
        return FiniteWord(self.alphabet, self.data[:n])

    @cached_property
    def letter_bits(self) -> tuple[int, ...]:
        """One Python int per alphabet letter, in alphabet order, with bit i
        set exactly when letter i of the word is that letter. Each is one
        `bytes.translate` of the reversed word to base-2 digits, so no numpy
        is loaded."""
        reversed_data = self.data[::-1]
        indices = bytes(range(len(self.alphabet)))
        bits = []
        for i in indices:
            # letter i to the digit "1", every other letter to "0"
            digits = bytes.maketrans(indices, bytes(b"01"[j == i] for j in indices))
            bits.append(int(reversed_data.translate(digits) or b"0", 2))
        return tuple(bits)

    @cached_property
    def cum_counts(self) -> np.ndarray:
        """(len+1, |alphabet|) cumulative letter counts; row t is the Parikh
        vector of the prefix of length t. The array is int32 in column-major
        order, so each letter's column is one contiguous array, and
        read-only, since every later answer on the word reads it."""
        import numpy as np

        n = len(self.data)
        if n > MAX_ARRAY_LENGTH:
            raise ValueError(f"cumulative counts need at most {MAX_ARRAY_LENGTH} letters (MAX_ARRAY_LENGTH)")
        arr = np.frombuffer(self.data, dtype=np.uint8)
        out = np.zeros((n + 1, len(self.alphabet)), dtype=np.int32, order="F")
        for j in range(len(self.alphabet)):
            np.cumsum(arr == j, out=out[1:, j])
        out.flags.writeable = False
        return out

    def abelian_keys(self, d: int) -> np.ndarray:
        """One integer per length-d factor, in order of position, equal
        exactly when the factors have the same Parikh vector: the count of
        the second letter over a binary alphabet (the length fixes the
        rest), otherwise the dense rank of the Parikh vector."""
        if not 1 <= d <= len(self):
            raise ValueError(f"factor length {d} out of range 1..{len(self)}")
        cum = self.cum_counts
        if len(self.alphabet) == 2:
            return cum[d:, 1] - cum[:-d, 1]
        import numpy as np

        _, ranks = np.unique(cum[d:] - cum[:-d], axis=0, return_inverse=True)
        return ranks


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
    """First n letters of the fixed point of m starting from seed.

    A uniform morphism, whose images all have one length r >= 2 (Thue–Morse,
    Sierpinski), is applied to letter indices in bytes: letter t of every
    image is one `bytes.translate` of the word, written to every r-th
    position from t. Other morphisms are applied to text."""
    if n < 1:
        raise ValueError("prefix length must be >= 1")
    rule = m.rules.get(seed)
    if rule is None:
        raise ValueError(f"seed {seed!r} has no rule")
    if not rule.startswith(seed):
        raise ValueError(f"seed {seed!r} is not prolongable: rule does not start with it")
    alphabet = m.alphabet
    r = len(rule)
    if r >= 2 and all(len(image) == r for image in m.rules.values()):
        index = {ch: i for i, ch in enumerate(alphabet)}
        letters = bytes(range(len(alphabet)))
        tables = [
            bytes.maketrans(letters, bytes(index[m.rules[ch][t]] for ch in alphabet))
            for t in range(r)
        ]
        data = bytearray((index[seed],))
        while len(data) < n:
            grown = bytearray(r * len(data))
            for t, table in enumerate(tables):
                grown[t::r] = data.translate(table)
            data = grown
        return FiniteWord(alphabet, bytes(data[:n]))
    word = seed
    while len(word) < n:
        grown = m.apply(word)
        if len(grown) == len(word):
            raise ValueError("morphism does not expand from seed; no infinite fixed point")
        word = grown
    return FiniteWord.from_text(word[:n], alphabet)


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
    return FiniteWord(PAPERFOLDING_ALPHABET, bytes(buf))
