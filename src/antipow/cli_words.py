"""The word commands of the CLI, `generate`, `complexity` and `scan`, with
the prefix builder and the letter budget they share.

`antipow.cli` imports this module only to run one of these commands, and
passes each handler the running cli module (`__main__` under `python -m
antipow.cli`). Every library name is read as its attribute, so a command
imports only the layers it calls, and a name replaced there, by a test or
the benchmark's tracer, is the one called. This module never imports
`antipow.cli`, which under -m would compile it a second time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .instructions import MAX_ARRAY_LENGTH, MAX_TABLE_ROWS, json_text

if TYPE_CHECKING:
    from types import ModuleType

    from .instructions import InstructionSequence
    from .words import FiniteWord


def _ceil_log3(n: int) -> int:
    e = 0
    while 3**e < n:
        e += 1
    return e


def _check_array_length(length: int) -> None:
    if length > MAX_ARRAY_LENGTH:
        raise ValueError(
            f"prefix length {length} exceeds the budget of {MAX_ARRAY_LENGTH} letters (2^31 - 1)"
        )


def _build_word(
    cli: ModuleType, word: str, instructions: InstructionSequence | None, length: int
) -> FiniteWord:
    if length < 1:
        raise ValueError("length must be >= 1")
    _check_array_length(length)
    if word == "sierpinski":
        return cli.sierpinski_prefix(length)
    if word == "thue-morse":
        return cli.morphism_prefix(cli.THUE_MORSE_MORPHISM, "0", length)
    return cli.toeplitz_paperfolding_prefix(instructions, length)


def cmd_generate(cli: ModuleType, args) -> int:
    w = _build_word(cli, args.word, args.instructions, args.length)
    cli._emit(str(w), args.output)
    return 0


def _complexity_word_length(word: str, max_n: int) -> int:
    """The cover of `complexity`: a closed form per word for a prefix length
    that holds every factor of length <= max_n of the infinite word, so a
    prefix at least this long has the infinite word's table. It is the
    default prefix length, and the budget of a table from a closed form,
    which reads no prefix."""
    if word == "sierpinski":
        # copies of the 3^k-letter prefix s_k are separated by runs of b of
        # length at least 3^k, so every factor of length n <= 3^k occurs in
        # s_(k+1) = s_k b^(3^k) s_k, the prefix of length 3^(k+1)
        return 3 ** (_ceil_log3(max_n) + 1)
    # every factor has at most 2^k letters
    k = (max_n - 1).bit_length()
    if word == "thue-morse":
        # t = mu^(k-1)(t) is a run of blocks mu^(k-1)(t_i) of 2^(k-1) letters,
        # so a factor of at most 2^k letters lies in three consecutive blocks
        # and is fixed by t_i t_(i+1) t_(i+2) and its offset. All six length-3
        # factors of t start at i <= 5, so the first 8 blocks, 4·2^k letters,
        # hold them all; for k = 0, "0110" holds both letters
        return 4 << k
    # Paperfolding, for every instruction sequence: a window of n <= 2^k
    # letters holds at most one multiple q·2^k. Its start mod 2^(k+1) fixes
    # every letter of order < k and the parity of q, and the letter at q·2^k
    # takes both values for q in {1, 3} (order k) and for q in {2, 6}
    # (order k+1). So every factor occurs ending by position 6·2^k + n - 1
    return 7 << k


def cmd_complexity(cli: ModuleType, args) -> int:
    if args.max_n < 1:
        raise ValueError("--max-n must be >= 1")
    if args.max_n > MAX_TABLE_ROWS:
        raise ValueError(
            f"--max-n {args.max_n} exceeds the budget of {MAX_TABLE_ROWS} rows (2^20, MAX_TABLE_ROWS)"
        )
    cover = _complexity_word_length(args.word, args.max_n)
    length = cover if args.length is None else args.length
    if args.max_n > length:
        raise ValueError("--max-n exceeds the generated prefix length")
    _check_array_length(length)
    table = None
    # a prefix of at least `cover` letters has exactly the infinite word's
    # factors of length <= max_n, so its table is the infinite word's: a
    # closed form where there is one, else the shortest such prefix. An
    # abelian table with a given --length is still made on that prefix by
    # `complexity_table`, whose windows the benchmark's traced smoke query
    # of `tables` counts (bench/test_smoke.py)
    if length >= cover and (args.length is None or args.kind == "factor"):
        table = cli.infinite_complexity_table(args.word, args.kind, args.max_n)
        length = cover
    if table is None:
        w = _build_word(cli, args.word, args.instructions, length)
        table = cli.complexity_table(w, args.kind, args.max_n)
    if args.fmt == "json":
        cli._emit("\n".join(json_text({"n": n, "value": v}) for n, v in table.rows), args.output)
    else:
        cli._emit(table.to_csv(), args.output)
    return 0


def cmd_scan(cli: ModuleType, args) -> int:
    if args.order < 2:
        raise ValueError("--order must be >= 2")
    if args.avoidance and args.d_max is not None:
        raise ValueError("--d-max cannot be combined with --avoidance, which checks every width")
    w = _build_word(cli, args.word, args.instructions, args.length)
    # with no hit, find_first has looked at every split, which verifies avoidance
    hit = cli.find_first(w, args.order, args.kind.replace("-", "_"), d_max=args.d_max)
    if hit is None:
        text = "none found: avoidance verified" if args.avoidance else "none"
    elif args.fmt == "text":
        text = f"start={hit.start} d={hit.cell_width} m={hit.order} kind={hit.kind}"
    else:
        text = hit.to_json()
    cli._emit(text, args.output)
    return 0
