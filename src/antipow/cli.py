"""Command-line front end: word generation, complexity tables, power and
antipower scanning, delta-vector queries and certificate synthesis.

Exit codes: 0 success, 1 domain violation (failed precheck), 2 usage or
parse error, 3 internal verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys

# abelian_complexity and factor_complexity are unused here: the bench tracer wraps them as cli attributes
from .abelian import abelian_complexity, complexity_table, factor_complexity
from .calculus import (
    additivity_combine,
    additivity_precheck,
    construct_antipower,
    delta_interval,
    delta_vector,
)
from .scan import ScanHit, avoidance_scan, find_first
from .words import (
    FiniteWord,
    InstructionSequence,
    THUE_MORSE_MORPHISM,
    morphism_prefix,
    sierpinski_prefix,
    toeplitz_paperfolding_prefix,
)

WORDS = ("sierpinski", "thue-morse", "paperfolding")


def _emit(text: str, output: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _ceil_log3(n: int) -> int:
    e = 0
    while 3**e < n:
        e += 1
    return e


def _next_pow2(n: int) -> int:
    return 1 << max(n - 1, 0).bit_length()


def _build_word(word: str, instructions: InstructionSequence | None, length: int) -> FiniteWord:
    if length < 1:
        raise ValueError("length must be >= 1")
    if word == "sierpinski":
        return sierpinski_prefix(length)
    if word == "thue-morse":
        return morphism_prefix(THUE_MORSE_MORPHISM, "0", length)
    if instructions is None:
        raise ValueError("paperfolding requires an instruction string such as '(+)'")
    return toeplitz_paperfolding_prefix(instructions, length)


def _resolve_instructions(args) -> InstructionSequence | None:
    """Merge the optional positional and the --instructions flag."""
    positional = getattr(args, "instructions_pos", None)
    flagged = args.instructions
    if positional is not None and flagged is not None and positional != flagged:
        raise ValueError("instructions given twice with different values")
    text = flagged if flagged is not None else positional
    word = getattr(args, "word", None)
    if word == "paperfolding":
        if text is None:
            raise ValueError("paperfolding requires an instruction string such as '(+)'")
    elif word in ("sierpinski", "thue-morse") and text is not None:
        raise ValueError(f"{word} takes no instruction string")
    return InstructionSequence.parse(text) if text is not None else None


def cmd_generate(args) -> int:
    w = _build_word(args.word, args.instructions, args.length)
    _emit(str(w), args.output)
    return 0


def _complexity_word_length(args) -> int:
    if args.length is not None:
        return args.length
    if args.word == "sierpinski":
        # every factor of length n <= 3^k of the infinite word occurs in its
        # prefix of length 3^(k+1), so this one prefix gives exact values
        return 3 ** (_ceil_log3(args.max_n) + 1)
    if args.word == "thue-morse":
        return max(1024, _next_pow2(4 * args.max_n))
    return max(2**14, _next_pow2(4 * args.max_n))


def cmd_complexity(args) -> int:
    if args.max_n < 1:
        raise ValueError("--max-n must be >= 1")
    length = _complexity_word_length(args)
    if args.max_n > length:
        raise ValueError("--max-n exceeds the generated prefix length")
    w = _build_word(args.word, args.instructions, length)
    table = complexity_table(w, args.kind, args.max_n)
    if args.fmt == "json":
        _emit("\n".join(json.dumps({"n": n, "value": v}) for n, v in table.rows), args.output)
    else:
        _emit(table.to_csv(), args.output)
    return 0


def _format_hit(hit: ScanHit, fmt: str | None) -> str:
    if fmt == "text":
        return f"start={hit.start} d={hit.cell_width} m={hit.order} kind={hit.kind}"
    return hit.to_json()


def cmd_scan(args) -> int:
    if args.order < 2:
        raise ValueError("--order must be >= 2")
    if args.avoidance and args.d_max is not None:
        raise ValueError("--d-max cannot be combined with --avoidance, which checks every width")
    w = _build_word(args.word, args.instructions, args.length)
    kind = args.kind.replace("-", "_")
    if args.avoidance:
        if avoidance_scan(w, args.order, kind):
            _emit("none found: avoidance verified", args.output)
        else:
            hit = find_first(w, args.order, kind)
            _emit(_format_hit(hit, args.fmt), args.output)
        return 0
    hit = find_first(w, args.order, kind, d_max=args.d_max)
    _emit("none" if hit is None else _format_hit(hit, args.fmt), args.output)
    return 0


def cmd_construct(args) -> int:
    if args.order < 2:
        raise ValueError("--order must be >= 2")
    cert = construct_antipower(args.instructions, args.order)
    _emit(cert.to_json(), args.output)
    return 0 if cert.verified else 3


def cmd_delta(args) -> int:
    b = args.instructions
    l = args.l
    if args.combine:
        if args.d is None or args.m is None or args.l2 is None or args.d2 is None or args.r is None:
            raise ValueError("--combine needs --l --d --m --l2 --d2 --r")
        report = additivity_precheck(b, l, args.d, args.l2, args.d2, args.m, args.r)
        if not report.ok:
            lines = ["precheck: violation"] + [f"  {v}" for v in report.violations]
            _emit("\n".join(lines), args.output)
            return 1
        combined_l, combined_d = additivity_combine(b, l, args.d, args.l2, args.d2, args.m, args.r)
        if args.fmt == "json":
            _emit(
                json.dumps({"ok": True, "l": str(combined_l), "d": str(combined_d)}),
                args.output,
            )
        else:
            _emit(f"precheck: ok\ncombined: l={combined_l} d={combined_d}", args.output)
        return 0
    if args.n is not None:
        value = delta_interval(b, l, args.n)
        if args.fmt == "json":
            _emit(json.dumps({"l": str(l), "n": str(args.n), "delta": value}), args.output)
        else:
            _emit(str(value), args.output)
        return 0
    if args.d is None or args.m is None:
        raise ValueError("need either --n (scalar) or --d and --m (vector)")
    vec = delta_vector(b, l, args.d, args.m)
    if args.fmt == "json":
        _emit(
            json.dumps(
                {"l": str(l), "d": str(args.d), "m": args.m, "delta": list(vec.components)}
            ),
            args.output,
        )
    else:
        _emit("(" + ",".join(str(c) for c in vec.components) + ")", args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", help="write the result to this path instead of stdout")
    common.add_argument("--format", choices=("json", "csv", "text"), dest="fmt")

    parser = argparse.ArgumentParser(
        prog="antipow",
        description="Generate structured words, analyze their abelian structure, "
        "scan for (anti)powers and synthesize verified abelian antipowers.",
    )
    sub = parser.add_subparsers(required=True)

    def add_word_args(p):
        p.add_argument("word", choices=WORDS)
        p.add_argument("instructions_pos", nargs="?", metavar="INSTRUCTIONS")
        p.add_argument("--instructions", help="instruction string, e.g. '(+)' or '+-(-)'")

    p = sub.add_parser("generate", parents=[common], help="print a prefix of a word")
    p.set_defaults(handler=cmd_generate)
    add_word_args(p)
    p.add_argument("--length", type=int, required=True)

    p = sub.add_parser("complexity", parents=[common], help="emit a complexity table")
    p.set_defaults(handler=cmd_complexity)
    add_word_args(p)
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    p.add_argument("--kind", choices=("abelian", "factor"), default="abelian")
    p.add_argument("--length", type=int, help="prefix length (default chosen per word)")

    p = sub.add_parser("scan", parents=[common], help="search for (anti)power occurrences")
    p.set_defaults(handler=cmd_scan)
    add_word_args(p)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument(
        "--kind",
        choices=("power", "abelian-power", "antipower", "abelian-antipower"),
        required=True,
    )
    p.add_argument("--d-max", type=int, dest="d_max")
    p.add_argument("--avoidance", action="store_true", help="verify absence over every split")

    p = sub.add_parser("construct", parents=[common], help="synthesize an abelian antipower certificate")
    p.set_defaults(handler=cmd_construct)
    p.add_argument("--instructions", required=True)
    p.add_argument("--order", type=int, required=True)

    p = sub.add_parser("delta", parents=[common], help="delta vectors and the additivity precheck")
    p.set_defaults(handler=cmd_delta)
    p.add_argument("--instructions", required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--d", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--combine", action="store_true")
    p.add_argument("--l2", type=int)
    p.add_argument("--d2", type=int)
    p.add_argument("--r", type=int)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)

    try:
        args.instructions = _resolve_instructions(args)
        return args.handler(args)
    except ValueError as exc:
        return _fail(str(exc), 2)
    except ArithmeticError as exc:
        return _fail(str(exc), 3)


if __name__ == "__main__":
    raise SystemExit(main())
