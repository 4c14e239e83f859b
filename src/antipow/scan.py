"""Exhaustive detection of powers, abelian powers, antipowers and abelian
antipowers in finite words.

The block scans are vectorized per cell width d. One boolean mask says, for
every position p, whether the length-d factor at p equals the one at p+d, as
words or as Parikh vectors (`FiniteWord.next_cell_equal`: rank-doubling
classes or one-counts, exact, with no probabilistic hashing). Equality is
transitive, so a split is an m-power exactly when the mask holds at its
m-1 adjacent-cell positions; shifted ANDs that double the run length give
that for every start at once. An m-antipower needs the negated mask there
too, and only the starts that survive it are compared on the farther cell
pairs, through the exact keys `FiniteWord.factor_keys` and
`FiniteWord.abelian_keys`. `find_first` takes the widths in ascending order
and looks, for each width, only at starts before its best hit so far; a hit
at the first position ends the search. A hit is the first within the given
prefix: a longer prefix may hold an earlier start with a wider cell.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .words import FiniteWord

KINDS = ("power", "abelian_power", "antipower", "abelian_antipower")


@dataclass(frozen=True)
class BlockSplit:
    """Geometry of m consecutive cells of width cell_width starting at the
    1-based position start; occupies positions start..start+m*cell_width-1."""

    start: int
    cell_width: int
    order: int

    def __post_init__(self) -> None:
        if self.start < 1:
            raise ValueError("start is 1-based, must be >= 1")
        if self.cell_width < 1 or self.order < 1:
            raise ValueError("cell width and order must be >= 1")

    @property
    def end(self) -> int:
        return self.start + self.cell_width * self.order - 1


@dataclass(frozen=True)
class ClassifyResult:
    is_power: bool
    is_abelian_power: bool
    is_antipower: bool
    is_abelian_antipower: bool


@dataclass(frozen=True)
class ScanHit:
    start: int
    cell_width: int
    order: int
    kind: str

    def to_json(self) -> str:
        return json.dumps(
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


def _and_along(mask: np.ndarray, d: int, count: int) -> np.ndarray:
    """out[p] = mask[p] & mask[p+d] & ... & mask[p+(count-1)d] for every p
    that fits. Runs of 2^k terms double until 2^k <= count < 2^(k+1); two
    overlapping runs of 2^k then cover count terms, since AND is idempotent."""
    span = 1
    while 2 * span <= count:
        mask = mask[: len(mask) - span * d] & mask[span * d :]
        span *= 2
    if span < count:
        shift = (count - span) * d
        mask = mask[: len(mask) - shift] & mask[shift:]
    return mask


def _hit_starts(w: FiniteWord, d: int, m: int, kind: str, stop: int | None = None) -> np.ndarray:
    """Ascending 0-based starts below stop (all that fit when None) of the
    m-cell splits of width d of the requested kind."""
    starts = len(w) - m * d + 1
    if stop is not None:
        starts = min(starts, stop)
    words = kind in ("power", "antipower")
    same = w.next_cell_equal(d, abelian=not words)[: starts + (m - 2) * d]
    if not kind.endswith("antipower"):
        # equality is transitive: all m cells are equal when each adjacent pair is
        return _and_along(same, d, m - 1).nonzero()[0]
    alive = _and_along(~same, d, m - 1).nonzero()[0]
    if m > 2 and alive.size:
        values = w.factor_keys(d) if words else w.abelian_keys(d)
        for i, j in ((i, i + gap) for gap in range(2, m) for i in range(m - gap)):
            alive = alive[values[i * d :].take(alive) != values[j * d :].take(alive)]
            if not alive.size:
                break
    return alive


def find_first(w: FiniteWord, m: int, kind: str, d_max: int | None = None) -> ScanHit | None:
    """Earliest occurrence (smallest start, ties broken by smallest cell
    width) of the requested kind with cell width at most d_max."""
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
    if m < 2:
        raise ValueError("order must be >= 2")
    if len(w) < m:
        raise ValueError("word too short for the requested order")
    if d_max is not None and d_max < 1:
        raise ValueError("d_max must be >= 1")
    limit = len(w) // m
    if d_max is not None:
        limit = min(limit, d_max)
    best = None
    # a later width can only win with a smaller start than the best so far
    for d in range(1, limit + 1):
        alive = _hit_starts(w, d, m, kind, stop=None if best is None else best[0])
        if alive.size:
            best = (int(alive[0]), d)
            if best[0] == 0:
                break
    if best is None:
        return None
    return ScanHit(start=best[0] + 1, cell_width=best[1], order=m, kind=kind)


def avoidance_scan(w: FiniteWord, m: int, kind: str) -> bool:
    """True iff w contains no occurrence of the requested kind: with no hit,
    `find_first` has checked every start and every cell width that fits."""
    return find_first(w, m, kind) is None
