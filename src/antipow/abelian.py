"""Parikh-vector machinery: abelian and factor complexity, prefix normality,
block classing of power-of-two factors and their cyclic-shift spectra."""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .words import FiniteWord, _extend_rank_levels


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
    w._check_width(n)
    return int(_factor_counts(w, n)[-1])


def _factor_counts(w: FiniteWord, max_n: int) -> np.ndarray:
    """Factor complexity of w for n = 1..max_n, from one sort.

    Every position p gets the key of w[p:p+max_n] padded with a sentinel
    letter outside the alphabet, so ell_p = min(max_n, len(w) - p) of its
    letters are real. In sorted order the keys that share their first n
    letters are contiguous, so each distinct real length-n factor is counted
    once: at the first key of its run, which has ell >= n and shares fewer
    than n letters with the key before it. A key sharing lcp letters with
    its predecessor thus counts for every n in (lcp, ell]."""
    size = len(w)
    top = max_n.bit_length() - 1
    # the sentinel is added at the rank level, so it fits beside any
    # alphabet, also one of 256 letters
    letters = w.rank_level(0)
    padded = np.concatenate([letters, np.full(max_n - 1, letters.max() + 1, np.int32)])
    levels = _extend_rank_levels([padded], top)
    level, off = levels[top], max_n - (1 << top)
    keys = level[:size]
    if off:
        keys = keys.astype(np.int64) * (len(padded) + 1) + level[off : off + size]
    order = np.argsort(keys).astype(np.int32)
    # common prefix of each sorted key with the one before it, capped at
    # max_n, by descending the levels: the two 2^j-blocks after the prefix
    # found so far are equal exactly when their level-j ranks are. A block
    # past the cap may start past the level's end; clipping keeps that read
    # in range, and the cap discards it.
    first, second = order[:-1], order[1:]
    lcp = np.zeros(size, np.int32)  # the first key has no predecessor
    common = lcp[1:]
    for j in range(top, -1, -1):
        block = levels[j]
        same = block.take(first + common, mode="clip") == block.take(second + common, mode="clip")
        same &= common <= max_n - (1 << j)
        common += same.astype(np.int32) << j
    ell = np.minimum(size - order, max_n)
    starts = np.bincount(lcp + 1, minlength=max_n + 2)
    ends = np.bincount(ell + 1, minlength=max_n + 2)
    return np.cumsum(starts - ends)[1 : max_n + 1]


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

    f must have length 2^n with n >= u+2. The block count is always in the
    spectrum; for paperfolding factors it is the only member.
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
    """Table of abelian or factor complexity of w for n = 1..max_n."""
    if kind not in ("abelian", "factor"):
        raise ValueError(f"unknown complexity kind {kind!r}")
    if not 1 <= max_n <= len(w):
        raise ValueError(f"max_n {max_n} out of range 1..{len(w)}")
    if kind == "factor":
        values = _factor_counts(w, max_n).tolist()
    else:
        values = [abelian_complexity(w, n) for n in range(1, max_n + 1)]
    return ComplexityTable(kind, tuple(zip(range(1, max_n + 1), values)))
