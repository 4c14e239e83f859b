"""Exhaustive detection of powers, abelian powers, antipowers and abelian
antipowers in finite words.

The block scans work on Python ints, one bitset per width and cell distance,
with bit p for the start p. Word equality at distance
s holds where `FiniteWord.letter_bits` agree: `OR_a X_a & (X_a >> s)` over
the two letters a, so the length-d factors at p and p + s are equal where
that mask has a run of d ones, found by doubling ANDs. Abelian equality
compares the counts of the first letter in each window, held bit-sliced,
one bitset per bit of the count: the window length fixes the other
letter's. They step from d to d + 1 by a ripple-carry add, and two windows
at distance s are equal where no plane differs from its own shift by s. Equality is transitive, so a split is an m-power exactly when
its m - 1 adjacent cells are equal; as words, that is where letters d apart
agree over a run of (m - 1) d positions. An m-antipower needs cells i and
i + gap to differ for every gap. A run of r >= 3d - 1 copies of one letter
at s holds two adjacent equal cells, equal as words and as Parikh vectors,
for every start from s - (m - 2) d to s + r - 2d: its first 3d - 1 letters
hold both cells of some pair at every offset below d. So the maximal runs
of at least five letters, found once per word, settle each width whose
candidate starts they cover before any big-int work is done; for m >= 4 the
widths after a settled one stay settled until a run falls below 3d - 1
letters, so they are not checked one by one. The counts of an abelian scan
step only to the widths that compare cells.
`find_first` takes the widths in ascending order and
looks, for each width, only at starts before its best hit so far; a hit at
the first position ends the search. A hit is the first within the given
prefix: a longer prefix may hold an earlier start with a wider cell.
"""

from __future__ import annotations

from functools import partial
from itertools import count, islice
from typing import Callable, Iterator, NamedTuple

from .instructions import json_text
from .words import FiniteWord

KINDS = ("power", "abelian_power", "antipower", "abelian_antipower")


class BlockSplit(NamedTuple("BlockSplit", [("start", int), ("cell_width", int), ("order", int)])):
    """Geometry of m consecutive cells of width cell_width starting at the
    1-based position start; occupies positions start..start+m*cell_width-1."""

    __slots__ = ()

    def __new__(cls, start: int, cell_width: int, order: int) -> "BlockSplit":
        if start < 1:
            raise ValueError("start is 1-based, must be >= 1")
        if cell_width < 1 or order < 1:
            raise ValueError("cell width and order must be >= 1")
        return super().__new__(cls, start, cell_width, order)

    @classmethod
    def _make(cls, fields) -> "BlockSplit":
        return cls(*fields)

    @property
    def end(self) -> int:
        return self.start + self.cell_width * self.order - 1


class ClassifyResult(NamedTuple):
    is_power: bool
    is_abelian_power: bool
    is_antipower: bool
    is_abelian_antipower: bool


class ScanHit(NamedTuple):
    start: int
    cell_width: int
    order: int
    kind: str

    def to_json(self) -> str:
        return json_text(
            {"start": self.start, "d": self.cell_width, "m": self.order, "kind": self.kind}
        )


def classify_block(w: FiniteWord, split: BlockSplit) -> ClassifyResult:
    """Flags for one split: cells all equal / pairwise distinct, as words and
    as Parikh vectors."""
    if split.end > len(w):
        raise ValueError(f"split ends at {split.end}, beyond word length {len(w)}")
    base = split.start - 1
    d, m = split.cell_width, split.order
    cells = [w.data[base + i * d : base + (i + 1) * d] for i in range(m)]
    # over two letters a cell's Parikh vector is fixed by its one-count
    words_distinct = len(set(cells))
    vecs_distinct = len({cell.count(1) for cell in cells})
    return ClassifyResult(
        is_power=words_distinct == 1,
        is_abelian_power=vecs_distinct == 1,
        is_antipower=words_distinct == m,
        is_abelian_antipower=vecs_distinct == m,
    )


def _and_along(mask: int, stride: int, terms: int) -> int:
    """Bit p of the result is set when bits p, p + stride, ...,
    p + (terms - 1) stride of mask all are; with stride 1, where mask has a
    run of that many ones from p. Runs of 2^k terms double until
    2^k <= terms < 2^(k+1); two overlapping runs of 2^k then cover them
    all, since AND is idempotent. An empty mask stays empty, so the
    doubling stops there."""
    span = 1
    while mask and 2 * span <= terms:
        mask &= mask >> span * stride
        span *= 2
    if mask and span < terms:
        mask &= mask >> (terms - span) * stride
    return mask


def _window_counts(letter: int) -> Iterator[tuple[int, ...]]:
    """For d = 1, 2, ...: the bit planes of the number of set bits of letter
    in each length-d window, bit p of plane b being bit b of the count over
    bits p..p+d-1. A window that runs past the top set bit counts what it
    holds. The counts step from d to d + 1 by a ripple-carry add of
    letter >> d."""
    planes: list[int] = []
    for d in count():
        carry = letter >> d
        for b, plane in enumerate(planes):
            planes[b], carry = plane ^ carry, plane & carry
            if not carry:
                break
        if carry:
            planes.append(carry)
        yield tuple(planes)


def _word_same(letters: tuple[int, ...], d: int, shift: int, pairs: int = 1) -> int:
    """Starts p whose length-d factors at p, p + shift, ..., p + pairs·shift
    all fit and are equal, for shift <= d when pairs > 1: the runs of
    d + (pairs - 1) shift ones in the mask of letters that agree at that
    distance."""
    agree = 0
    for letter in letters:
        agree |= letter & letter >> shift
    return _and_along(agree, 1, d + (pairs - 1) * shift)


def _abelian_same(planes: tuple[int, ...], windows: int, shift: int, pairs: int = 1) -> int:
    """Starts p, among the first windows - pairs·shift, whose windows at p,
    p + shift, ..., p + pairs·shift have the same count in every plane."""
    differ = 0
    for plane in planes:
        differ |= plane ^ plane >> shift
    return _and_along(~differ & (1 << windows - shift) - 1, shift, pairs)


def _cell_equality(w: FiniteWord, abelian: bool) -> Iterator[Callable[..., int]]:
    """For d = 1, 2, ...: a function of a distance s, and optionally of a
    number k of pairs (s <= d when k > 1), that gives the bitset of the
    starts p whose length-d factors at p, p + s, ..., p + k s all fit and
    are equal, as words or, with abelian set, as Parikh vectors."""
    letters = w.letter_bits
    if not abelian:
        for d in count(1):
            yield partial(_word_same, letters, d)
    # the window length fixes the count of the second letter
    counts = _window_counts(letters[0])
    n = len(w)
    for d in count(1):
        yield partial(_abelian_same, next(counts), n - d + 1)


_RUN = rb"(.)\1{4,}"


def _one_letter_runs(w: FiniteWord) -> list[tuple[int, int]]:
    """(start, length) of each maximal run of at least five copies of one
    letter in w, in order of start; a cheap `in` per letter skips the search
    when there is none. `_RUN` is compiled, and `re` imported, only here, on
    first use: power scans and words without such a run never pay for it."""
    if b"\0" * 5 not in w.data and b"\1" * 5 not in w.data:
        return []
    import re

    return [(run.start(), len(run[0])) for run in re.finditer(_RUN, w.data)]


def _settled_through(runs: list[tuple[int, int]], d: int, m: int, stop: int) -> int:
    """The last width from d on whose starts below stop the runs cover with
    a pair of adjacent equal cells of an m-cell split, or d - 1 when they
    do not cover those of d. The runs, (start, length) in order of start,
    have at least 3d - 1 letters each, so a run of r letters at s covers
    the starts s - (m - 2) d .. s + r - 2d with no gap. For m >= 4 a width
    stays covered while every run keeps 3d - 1 letters: a step of d lowers
    each run's first start by m - 2 >= 2 and its last by 2, and stop by m.
    A stop set by a hit at b for a smaller width d0 does not fall, but a run
    that reaches b at d still does at e: b > s + r - 2e + 1 would put b in
    s .. s + r - 2 d0, which the run covers at d0."""
    reach = 0
    for s, r in runs:
        if s - (m - 2) * d > reach:
            return d - 1
        reach = max(reach, s + r - 2 * d + 1)
        if reach >= stop:
            return (min(r for _, r in runs) + 1) // 3 if m >= 4 else d
    return d - 1


def _hit_starts(
    same: Callable[..., int], size: int, d: int, m: int, kind: str, stop: int | None = None
) -> int:
    """Bitset of the 0-based starts below stop (all that fit when None) of
    the m-cell splits of width d of the requested kind, in a word of size
    letters whose width-d cell equality is `same`. An antipower compares
    the adjacent cells first and the farther gaps only at the starts that
    survive."""
    starts = size - m * d + 1
    if stop is not None:
        starts = min(starts, stop)
    if not kind.endswith("antipower"):
        # equality is transitive: all m cells are equal when each adjacent pair is
        run = same(d, m - 1)
        return run & (1 << starts) - 1 if run else 0
    alive = (1 << starts) - 1
    # cells i and i + gap differ for every i < m - gap; no start reads a bit
    # of the cells past starts + (m - 1) d
    cells = (1 << starts + (m - 1) * d) - 1
    for gap in range(1, m):
        if not alive:
            break
        alive &= _and_along(~same(gap * d) & cells, d, m - gap)
    return alive


def find_first(w: FiniteWord, m: int, kind: str, d_max: int | None = None) -> ScanHit | None:
    """Earliest occurrence (smallest start, ties broken by smallest cell
    width) of the requested kind with cell width at most d_max. An
    antipower width whose candidate starts all hold two adjacent cells in
    one run of a letter is settled without comparing cells, and the cell
    equality steps only to the widths that compare them."""
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
    if m < 2:
        raise ValueError("order must be >= 2")
    n = len(w)
    if n < m:
        raise ValueError("word too short for the requested order")
    if d_max is not None and d_max < 1:
        raise ValueError("d_max must be >= 1")
    limit = n // m
    if d_max is not None:
        limit = min(limit, d_max)
    best = None
    widths = _cell_equality(w, abelian=kind.startswith("abelian"))
    stepped = settled = 0
    runs = _one_letter_runs(w) if kind.endswith("antipower") else []
    # a later width can only win with a smaller start than the best so far
    for d in range(1, limit + 1):
        if d <= settled:
            continue
        stop = n - m * d + 1 if best is None else min(n - m * d + 1, best[0])
        if runs:
            runs = [run for run in runs if run[1] >= 3 * d - 1]
            settled = _settled_through(runs, d, m, stop)
            if settled >= d:
                continue
        same = next(islice(widths, d - stepped - 1, None))
        stepped = d
        alive = _hit_starts(same, n, d, m, kind, stop=stop)
        if alive:
            # the lowest set bit is the first start
            best = ((alive & -alive).bit_length() - 1, d)
            if best[0] == 0:
                break
    if best is None:
        return None
    return ScanHit(start=best[0] + 1, cell_width=best[1], order=m, kind=kind)


def avoidance_scan(w: FiniteWord, m: int, kind: str) -> bool:
    """True iff w contains no occurrence of the requested kind: with no hit,
    `find_first` has checked every start and every cell width that fits."""
    return find_first(w, m, kind) is None
