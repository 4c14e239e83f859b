"""Finite prefixes of structured infinite words.

Two independent generation mechanisms are provided for each word family so
that one can validate the other: iterated morphisms / Toeplitz hole-filling
on one side, closed-form letter oracles on the other.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np


@dataclass(frozen=True)
class FiniteWord:
    """Immutable finite word over a small ordered alphabet.

    Letters are stored as alphabet indices, one byte each.
    """

    alphabet: tuple[str, ...]
    data: bytes

    def __post_init__(self) -> None:
        if not self.alphabet:
            raise ValueError("alphabet must be nonempty")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("alphabet symbols must be distinct")
        if any(len(s) != 1 for s in self.alphabet):
            raise ValueError("alphabet symbols must be single characters")
        if self.data and max(self.data) >= len(self.alphabet):
            raise ValueError("letter index out of range for alphabet")

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
    def cum_counts(self) -> np.ndarray:
        """(len+1, |alphabet|) cumulative letter counts; row t is the Parikh
        vector of the prefix of length t."""
        arr = np.frombuffer(self.data, dtype=np.uint8)
        out = np.zeros((len(arr) + 1, len(self.alphabet)), dtype=np.int64)
        for j in range(len(self.alphabet)):
            np.cumsum(arr == j, out=out[1:, j])
        return out


@dataclass(frozen=True, eq=False)
class Morphism:
    """Substitution on a finite alphabet; the alphabet is the ordered set of
    rule keys and every rule image must stay inside it."""

    rules: Mapping[str, str]

    def __post_init__(self) -> None:
        if not self.rules:
            raise ValueError("morphism needs at least one rule")
        letters = set(self.rules)
        for sym, image in self.rules.items():
            if not image:
                raise ValueError(f"rule for {sym!r} is empty")
            if not set(image) <= letters:
                raise ValueError(f"rule for {sym!r} uses symbols without rules")

    @property
    def alphabet(self) -> tuple[str, ...]:
        return tuple(self.rules)

    def apply(self, word: str) -> str:
        return "".join(self.rules[ch] for ch in word)


SIERPINSKI_MORPHISM = Morphism({"a": "aba", "b": "bbb"})
THUE_MORSE_MORPHISM = Morphism({"0": "01", "1": "10"})


def morphism_prefix(m: Morphism, seed: str, n: int) -> FiniteWord:
    """First n letters of the fixed point of m starting from seed."""
    if n < 1:
        raise ValueError("prefix length must be >= 1")
    rule = m.rules.get(seed)
    if rule is None:
        raise ValueError(f"seed {seed!r} has no rule")
    if not rule.startswith(seed):
        raise ValueError(f"seed {seed!r} is not prolongable: rule does not start with it")
    word = seed
    while len(word) < n:
        grown = m.apply(word)
        if len(grown) == len(word):
            raise ValueError("morphism does not expand from seed; no infinite fixed point")
        word = grown
    return FiniteWord.from_text(word[:n], m.alphabet)


def sierpinski_prefix(n: int) -> FiniteWord:
    """First n letters of the Sierpinski (Cantor) word, via the doubling
    recurrence s_{k+1} = s_k b^{3^k} s_k starting from s_0 = a."""
    if n < 1:
        raise ValueError("prefix length must be >= 1")
    word = "a"
    k = 0
    while len(word) < n:
        word = word + "b" * 3**k + word
        k += 1
    return FiniteWord.from_text(word[:n], ("a", "b"))


_INSTRUCTION_RE = re.compile(r"^([+-]*)\(([+-]+)\)$")


@dataclass(frozen=True)
class InstructionSequence:
    """Eventually periodic sequence over {+1, -1}: the folding instructions
    b_0 b_1 b_2 ... of a paperfolding word."""

    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.period:
            raise ValueError("period must be nonempty")
        if any(v not in (1, -1) for v in self.preperiod + self.period):
            raise ValueError("instructions must be +1 or -1")

    def at(self, k: int) -> int:
        """Instruction b_k (0-indexed)."""
        if k < 0:
            raise ValueError("instruction index must be >= 0")
        if k < len(self.preperiod):
            return self.preperiod[k]
        return self.period[(k - len(self.preperiod)) % len(self.period)]

    @classmethod
    def parse(cls, text: str) -> "InstructionSequence":
        """Parse the PRE(PER) grammar, e.g. '(+)', '(-+)', '+-(-)'."""
        normalized = text.replace("−", "-").strip()
        m = _INSTRUCTION_RE.match(normalized)
        if m is None:
            raise ValueError(
                f"bad instruction string {text!r}: expected PRE(PER) with PRE, PER over +/- and PER nonempty"
            )
        as_ints = lambda s: tuple(1 if ch == "+" else -1 for ch in s)
        return cls(as_ints(m.group(1)), as_ints(m.group(2)))

    def __str__(self) -> str:
        sign = lambda vs: "".join("+" if v == 1 else "-" for v in vs)
        return f"{sign(self.preperiod)}({sign(self.period)})"


REGULAR = InstructionSequence((), (1,))

PAPERFOLDING_ALPHABET = ("0", "1")


def paperfolding_letter(b: InstructionSequence, i: int) -> int:
    """Letter at position i >= 1 of the paperfolding word with instructions b.

    Write i = 2^k(2j+1); the letter is 1 exactly when (-1)^j b_k = -1.
    Positions are unbounded: i may be arbitrarily large.
    """
    if i < 1:
        raise ValueError("positions are 1-based")
    k = (i & -i).bit_length() - 1
    j = ((i >> k) - 1) >> 1
    bk = b.at(k)
    return 1 if (bk if j % 2 == 0 else -bk) == -1 else 0


def toeplitz_paperfolding_prefix(b: InstructionSequence, n: int) -> FiniteWord:
    """First n letters of the paperfolding word with instructions b, built by
    Toeplitz hole-filling.

    Round k writes the periodic template a?A? (a = 0 if b_k = +1 else 1,
    A = 1-a) into the remaining holes, in order; after round k all holes
    at positions not divisible by 2^{k+1} are gone, so ceil(log2 n)+1
    rounds settle the first n positions.
    """
    if n < 1:
        raise ValueError("prefix length must be >= 1")
    HOLE = 2
    buf = bytearray([HOLE] * n)
    holes = list(range(n))
    k = 0
    while holes:
        a = 0 if b.at(k) == 1 else 1
        remaining = []
        for t, idx in enumerate(holes, start=1):
            r = t % 4
            if r == 1:
                buf[idx] = a
            elif r == 3:
                buf[idx] = 1 - a
            else:
                remaining.append(idx)
        holes = remaining
        k += 1
    return FiniteWord(PAPERFOLDING_ALPHABET, bytes(buf))
