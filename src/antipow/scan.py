"""Exhaustive detection of powers, abelian powers, antipowers and abelian
antipowers in finite words.

The block scans work on Python ints, one bitset per width and cell distance,
with bit p for the start p; they import no numpy. Word equality at distance
s holds where `FiniteWord.letter_bits` agree: `OR_a X_a & (X_a >> s)` over
the letters a, so the length-d factors at p and p + s are equal where that
mask has a run of d ones, found by doubling ANDs. Abelian equality compares
window counts held bit-sliced, one bitset per bit of the count, for each
letter but the last; they step from d to d + 1 by a ripple-carry add, and
two windows at distance s are equal where no plane differs from its own
shift by s. Equality is transitive, so a split is an m-power exactly when
its m - 1 adjacent cells are equal; as words, that is where letters d apart
agree over a run of (m - 1) d positions. An m-antipower needs cells i and
i + gap to differ for every gap. Two adjacent cells that repeat the same
letter are equal as words and as Parikh vectors, so one run bitset per
letter, stepped from d to d + 1 by one AND until it is empty, drops those
antipower starts before any cells are compared; the gaps then cut only the
starts that survive, and a width with none left compares nothing.
`find_first` takes the widths in ascending order and
looks, for each width, only at starts before its best hit so far; a hit at
the first position ends the search. A hit is the first within the given
prefix: a longer prefix may hold an earlier start with a wider cell.
"""

from __future__ import annotations

from functools import partial
from itertools import count
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
    cum = w.cum_counts
    vectors = [tuple(int(c) for c in cum[base + (i + 1) * d] - cum[base + i * d]) for i in range(m)]
    words_distinct = len(set(cells))
    vecs_distinct = len(set(vectors))
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


def _letter_runs(letter: int) -> Iterator[int]:
    """For d = 1, 2, ...: the starts p of a run of d ones in letter, bits
    p..p+d-1 all set. The runs step from d to d + 1 by one AND with
    letter >> d until none is left; then the bitset stays 0."""
    run = letter
    for d in count(1):
        yield run
        if run:
            run &= letter >> d


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
    # the window length fixes the count of the last letter
    counts = [_window_counts(letter) for letter in letters[:-1]]
    n = len(w)
    for d in count(1):
        planes = ()
        for letter in counts:
            planes += next(letter)
        yield partial(_abelian_same, planes, n - d + 1)


def _hit_starts(
    same: Callable[..., int],
    size: int,
    d: int,
    m: int,
    kind: str,
    stop: int | None = None,
    repeat: int = 0,
) -> int:
    """Bitset of the 0-based starts below stop (all that fit when None) of
    the m-cell splits of width d of the requested kind, in a word of size
    letters whose width-d cell equality is `same`. Bit q of repeat marks
    equal cells at q and q + d, such as two that repeat one letter: an
    antipower start with such an adjacent pair is dropped before `same`
    compares any cells, and with no start left it is never called."""
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
    if repeat:
        alive &= _and_along(~repeat & cells, d, m - 1)
    for gap in range(1, m):
        if not alive:
            break
        alive &= _and_along(~same(gap * d) & cells, d, m - gap)
    return alive


def find_first(w: FiniteWord, m: int, kind: str, d_max: int | None = None) -> ScanHit | None:
    """Earliest occurrence (smallest start, ties broken by smallest cell
    width) of the requested kind with cell width at most d_max."""
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
    # two adjacent cells that repeat the same letter rule out an antipower
    runs = [_letter_runs(letter) for letter in w.letter_bits] if kind.endswith("antipower") else []
    # a later width can only win with a smaller start than the best so far
    for d, same in zip(range(1, limit + 1), widths):
        repeat = 0
        for letter in runs:
            run = next(letter)
            repeat |= run & run >> d
        alive = _hit_starts(
            same, n, d, m, kind, stop=None if best is None else best[0], repeat=repeat
        )
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
