"""Shared oracles for cross-validating the closed-form code paths.

The brute-force ones work on materialized letters only, with no residue
arithmetic, so the two routes stay independent. The published counts are
independent of the code by construction.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import settings, strategies as st

from antipow import FiniteWord, InstructionSequence, toeplitz_paperfolding_prefix

# Host speed varies too much for per-example deadlines, and fixed examples
# keep the suite reproducible from run to run.
settings.register_profile("antipow", deadline=None, derandomize=True, database=None)
settings.load_profile("antipow")

_signs = st.sampled_from((1, -1))
# preperiod 0..3, period 1..4
instruction_sequences = st.builds(
    InstructionSequence,
    st.lists(_signs, max_size=3).map(tuple),
    st.lists(_signs, min_size=1, max_size=4).map(tuple),
)

_PREFIX_CACHE: dict[tuple[InstructionSequence, int], FiniteWord] = {}


def materialized(b: InstructionSequence, n: int) -> FiniteWord:
    key = (b, n)
    if key not in _PREFIX_CACHE:
        _PREFIX_CACHE[key] = toeplitz_paperfolding_prefix(b, n)
    return _PREFIX_CACHE[key]


def brute_ones(w: FiniteWord, a: int, n: int) -> int:
    """Ones among positions a+1..n of a materialized binary word."""
    assert n <= len(w)
    return sum(w.data[a:n])


def brute_delta(w: FiniteWord, a: int, n: int) -> int:
    """Excess ones of (a, n) over the per-order baselines, counted directly."""
    length = n - a
    baseline = sum(length >> (k + 2) for k in range(max(length.bit_length(), 2)))
    return brute_ones(w, a, n) - baseline


def brute_delta_vector(w: FiniteWord, l: int, d: int, m: int) -> tuple[int, ...]:
    return tuple(brute_delta(w, l + t * d, l + (t + 1) * d) for t in range(m))


def thue_morse_factor_complexity(n: int) -> int:
    """Number of length-n factors of the Thue–Morse word, n >= 1, by Brlek's
    closed form (Discrete Appl. Math. 24, 1989)."""
    if n <= 2:
        return 2 * n
    r = (n - 1).bit_length() - 1
    q = n - 1 - (1 << r)
    return 3 * (1 << r) + 4 * q if 2 * q <= 1 << r else 4 * (1 << r) + 2 * q


def brute_find_first(w: FiniteWord, m: int, kind: str, d_max: int | None = None):
    """Quadratic reference scan: smallest start, ties broken by smallest cell
    width, comparing cells pairwise."""
    n = len(w)
    limit = n // m if d_max is None else min(d_max, n // m)
    for start in range(1, n - m + 2):
        for d in range(1, limit + 1):
            if start - 1 + m * d > n:
                break
            cells = [w.data[start - 1 + i * d : start - 1 + (i + 1) * d] for i in range(m)]
            if kind in ("power", "antipower"):
                keys = cells
            else:
                keys = [tuple(sorted(Counter(c).items())) for c in cells]
            distinct = len(set(keys))
            ok = distinct == m if kind.endswith("antipower") else distinct == 1
            if ok:
                return start, d
    return None
