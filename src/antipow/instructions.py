"""Paperfolding instruction sequences and the closed-form letter oracle.

Every command loads this module, so it also holds the guard that lifts
the interpreter's int/str digit limit for big-integer text, the JSON writer
of the records the commands print (in place of the `json` module, which
would cost every such command its import) and the three budgets: the bit
budget of the big coordinates, the letter budget of the word commands and
the row budget of complexity tables.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import NamedTuple

# bits of the big coordinates a command builds: the span of a certificate
# and the combined geometry of the additivity precheck. It is construct's
# only budget: the order-8 certificates of the pinned sequences have at most
# 39,359 bits, and their orders from 9 on pass it
MAX_COMBINED_BITS = 2**20

# letters of the prefix a word command builds, refused before it generates
# one, for memory: the prefix takes a byte a letter and its text another, so
# `generate` peaks at 96 MB for 2^24 letters and would near 12 GB at the budget
MAX_ARRAY_LENGTH = 2**31 - 1

# rows of a `complexity` table, which is built whole in memory with the
# prefix it reads: `complexity` refuses a longer --max-n before it computes
# a cover or a prefix. At 2^20 rows the largest default table, Sierpinski's
# factor table from the suffix automaton of its 3^14-letter prefix, peaks
# at 241 MB through the CLI, and the tables from a closed form at 175-207 MB
MAX_TABLE_ROWS = 2**20


# The records are NamedTuples: a dataclass would cost every command the
# import of its module, with inspect, ast and dis, at start-up. A record
# that checks its fields subclasses the functional form, whose `__new__` it
# may override; its `_make` builds through `__new__`, so `_replace` checks
# them too
class InstructionSequence(
    NamedTuple("InstructionSequence", [("preperiod", tuple[int, ...]), ("period", tuple[int, ...])])
):
    """Eventually periodic sequence over {+1, -1}: the folding instructions
    b_0 b_1 b_2 ... of a paperfolding word."""

    __slots__ = ()

    def __new__(cls, preperiod: tuple[int, ...], period: tuple[int, ...]) -> "InstructionSequence":
        if not period:
            raise ValueError("period must be nonempty")
        if any(v not in (1, -1) for v in preperiod + period):
            raise ValueError("instructions must be +1 or -1")
        return super().__new__(cls, preperiod, period)

    @classmethod
    def _make(cls, fields) -> "InstructionSequence":
        return cls(*fields)

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
        # split at the first '(' and the first ')' after it: the text is
        # PRE(PER) when a ')' closes a nonempty PER, nothing follows it, and
        # PRE and PER are all signs, so neither holds a parenthesis
        pre, _, rest = text.replace("−", "-").strip().partition("(")
        per, closed, tail = rest.partition(")")
        if not (closed and per) or tail or pre.strip("+-") or per.strip("+-"):
            raise ValueError(
                f"bad instruction string {text!r}: expected PRE(PER) with PRE, PER over +/- and PER nonempty"
            )
        as_ints = lambda s: tuple(1 if ch == "+" else -1 for ch in s)
        return cls(as_ints(pre), as_ints(per))

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


@contextmanager
def _unlimited_int_digits():
    """Lift the interpreter's int/str conversion digit limit for the duration
    of the block, then restore the previous value. Interpreters without the
    limit have nothing to lift."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def json_text(record) -> str:
    """`record`, made of dicts with string keys, lists, tuples, ints, bools
    and strings, as `json.dumps(record)` writes it. A string `json.dumps`
    would escape (a quote, a backslash, a control or non-ASCII character)
    raises ValueError: no command prints one."""
    if isinstance(record, str):
        if not (record.isascii() and record.isprintable()) or '"' in record or "\\" in record:
            raise ValueError(f"json_text writes no string that needs escapes: {record!r}")
        return f'"{record}"'
    if isinstance(record, bool):
        return "true" if record else "false"
    if isinstance(record, int):
        return int.__repr__(record)
    if isinstance(record, (list, tuple)):
        return "[" + ", ".join(map(json_text, record)) + "]"
    if isinstance(record, dict):
        if not all(isinstance(key, str) for key in record):
            raise TypeError("json_text writes only string keys")
        return "{" + ", ".join(f"{json_text(k)}: {json_text(v)}" for k, v in record.items()) + "}"
    raise TypeError(f"json_text cannot write {type(record).__name__}")
