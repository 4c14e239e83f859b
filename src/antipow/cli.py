"""Command-line front end: word generation, complexity tables, power and
antipower scanning, delta-vector queries and certificate synthesis.

`COMMANDS` maps each command to its handler, its positionals and its typed
flags, and `_parse` reads argv from it: argparse, with the `gettext` and
`locale` imports it brings, would cost every process about 6 ms before its
work. A flag's value follows it or an `=`; a value or positional that starts
with `-` and is not a negative number takes the `=` form or comes after
`--`. Flags are never abbreviated. `-h` or `--help` prints a usage made
from the table. JSON is written by `instructions.json_text`, so no command
imports `json` either.

Exit codes: 0 success, 1 domain violation (failed precheck), 2 usage,
parse or output-file error, or an input over a budget, 3 internal
verification failure.
"""

from __future__ import annotations

import sys
from importlib import import_module
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

from .instructions import (
    MAX_ARRAY_LENGTH,
    MAX_COMBINED_BITS,
    MAX_TABLE_ROWS,
    _unlimited_int_digits,
    json_text,
)

if TYPE_CHECKING:
    from .instructions import InstructionSequence
    from .words import FiniteWord

# the commands read library names as attributes of this module, so each
# command imports only the layers it calls, and a name set here (a test's or
# the bench tracer's replacement) is the one called
_cli = sys.modules[__name__]


def __getattr__(name: str):
    """Bind a public name of the package here on first read, through the
    package's lazy loader."""
    package = import_module(__package__)
    if name not in package.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(package, name)
    return value


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


def _check_array_length(length: int) -> None:
    if length > MAX_ARRAY_LENGTH:
        raise ValueError(
            f"prefix length {length} exceeds the budget of {MAX_ARRAY_LENGTH} letters (2^31 - 1)"
        )


def _build_word(word: str, instructions: InstructionSequence | None, length: int) -> FiniteWord:
    if length < 1:
        raise ValueError("length must be >= 1")
    _check_array_length(length)
    if word == "sierpinski":
        return _cli.sierpinski_prefix(length)
    if word == "thue-morse":
        return _cli.morphism_prefix(_cli.THUE_MORSE_MORPHISM, "0", length)
    return _cli.toeplitz_paperfolding_prefix(instructions, length)


def _resolve_instructions(args) -> InstructionSequence | None:
    """Parse the instruction string: paperfolding needs one, the other words take none."""
    text = args.instructions
    word = getattr(args, "word", None)
    if word == "paperfolding":
        if text is None:
            raise ValueError("paperfolding requires an instruction string such as '(+)'")
    elif word is not None and text is not None:
        raise ValueError(f"{word} takes no instruction string")
    return _cli.InstructionSequence.parse(text) if text is not None else None


def cmd_generate(args) -> int:
    w = _build_word(args.word, args.instructions, args.length)
    _emit(str(w), args.output)
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


def cmd_complexity(args) -> int:
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
        table = _cli.infinite_complexity_table(args.word, args.kind, args.max_n)
        length = cover
    if table is None:
        w = _build_word(args.word, args.instructions, length)
        table = _cli.complexity_table(w, args.kind, args.max_n)
    if args.fmt == "json":
        _emit("\n".join(json_text({"n": n, "value": v}) for n, v in table.rows), args.output)
    else:
        _emit(table.to_csv(), args.output)
    return 0


def cmd_scan(args) -> int:
    if args.order < 2:
        raise ValueError("--order must be >= 2")
    if args.avoidance and args.d_max is not None:
        raise ValueError("--d-max cannot be combined with --avoidance, which checks every width")
    w = _build_word(args.word, args.instructions, args.length)
    # with no hit, find_first has looked at every split, which verifies avoidance
    hit = _cli.find_first(w, args.order, args.kind.replace("-", "_"), d_max=args.d_max)
    if hit is None:
        text = "none found: avoidance verified" if args.avoidance else "none"
    elif args.fmt == "text":
        text = f"start={hit.start} d={hit.cell_width} m={hit.order} kind={hit.kind}"
    else:
        text = hit.to_json()
    _emit(text, args.output)
    return 0


def cmd_construct(args) -> int:
    cert = _cli.construct_antipower(args.instructions, args.order)
    _emit(cert.to_json(), args.output)
    return 0 if cert.verified else 3


DELTA_FLAGS = ("d", "m", "n", "l2", "d2", "r")


def _delta_mode(args) -> str:
    """The query the given flags select: --l2 --d2 --r the additivity
    precheck, --n the scalar delta, otherwise the vector. It must be given
    every flag it reads, and no other."""
    given = {f for f in DELTA_FLAGS if getattr(args, f) is not None}
    if given & {"l2", "d2", "r"}:
        mode, needs = "precheck", {"d", "m", "l2", "d2", "r"}
    elif "n" in given:
        mode, needs = "scalar", {"n"}
    else:
        mode, needs = "vector", {"d", "m"}
    if given != needs:
        flags = lambda names: " ".join(f"--{f}" for f in DELTA_FLAGS if f in names)
        problems = [f"{what} {flags(names)}" for what, names in
                    (("missing", needs - given), ("unused", given - needs)) if names]
        raise ValueError(f"the {mode} delta query takes {flags(needs)}; " + ", ".join(problems))
    return mode


def _check_cell_budget(l: int, d: int, m: int) -> None:
    """Refuse m cells after l of width d whose m + 1 boundary counts would
    hold over 64 * MAX_COMBINED_BITS bits, counting at least one 64-bit word
    per boundary, before any cell is counted."""
    bits = (m + 1) * max(64, (l + m * d).bit_length())
    if bits > 64 * MAX_COMBINED_BITS:
        raise ValueError(
            f"{m} cells would need {bits} bits of boundary counts, "
            f"over the budget of {64 * MAX_COMBINED_BITS} bits (64 * 2^20, 64 * MAX_COMBINED_BITS)"
        )


def cmd_delta(args) -> int:
    mode = _delta_mode(args)
    b, l, code = args.instructions, args.l, 0
    if mode != "scalar":
        _check_cell_budget(l, args.d, args.m)
    if mode == "precheck":
        _check_cell_budget(args.l2, args.d2, args.m)
        # the combined geometry (l + 2^r l2, d + 2^r d2) has at least this
        # many bits; refuse before the precheck or the combination shifts
        bits = max(l.bit_length(), args.d.bit_length(), args.r + max(args.l2, args.d2).bit_length())
        if bits > MAX_COMBINED_BITS:
            raise ValueError(
                f"the combined geometry would have at least {bits} bits, over the budget "
                f"of {MAX_COMBINED_BITS} bits (2^20, MAX_COMBINED_BITS)"
            )
        report = _cli.additivity_precheck(b, l, args.d, args.l2, args.d2, args.m, args.r)
        if report.ok:
            # the combination additivity_combine returns, without its second precheck
            cl, cd = l + (args.l2 << args.r), args.d + (args.d2 << args.r)
            record = {"ok": True, "l": str(cl), "d": str(cd)}
            text = f"precheck: ok\ncombined: l={cl} d={cd}"
        else:
            code = 1
            record = {"ok": False, "violations": list(report.violations)}
            text = "\n".join(["precheck: violation"] + [f"  {v}" for v in report.violations])
    elif mode == "scalar":
        value = _cli.delta_interval(b, l, args.n)
        record, text = {"l": str(l), "n": str(args.n), "delta": value}, str(value)
    else:
        vec = _cli.delta_vector(b, l, args.d, args.m).components
        record = {"l": str(l), "d": str(args.d), "m": args.m, "delta": list(vec)}
        text = "(" + ",".join(map(str, vec)) + ")"
    _emit(json_text(record) if args.fmt == "json" else text, args.output)
    return code


SCAN_KINDS = ("power", "abelian-power", "antipower", "abelian-antipower")


class Command(NamedTuple):
    """One command: its handler, whether it takes WORD [INSTRUCTIONS] and
    its flags, each typed int, str, a tuple of choices or bool (a switch).
    A flag not in `required` defaults to its first choice, False for a
    switch, and None otherwise."""

    handler: Callable[[SimpleNamespace], int]
    summary: str
    takes_word: bool
    flags: dict[str, Any]
    required: tuple[str, ...]


COMMANDS = {
    "generate": Command(cmd_generate, "print a prefix of a word", True,
                        {"length": int}, ("length",)),
    "complexity": Command(cmd_complexity, "emit a complexity table", True,
                          {"format": ("csv", "json"), "max-n": int, "kind": ("abelian", "factor"),
                           "length": int}, ("max-n",)),
    "scan": Command(cmd_scan, "search for (anti)power occurrences", True,
                    {"format": ("json", "text"), "length": int, "order": int, "kind": SCAN_KINDS,
                     "d-max": int, "avoidance": bool}, ("length", "order", "kind")),
    "construct": Command(cmd_construct, "synthesize an abelian antipower certificate", False,
                         {"instructions": str, "order": int}, ("instructions", "order")),
    "delta": Command(cmd_delta, "delta vectors and the additivity precheck", False,
                     {"format": ("text", "json"), "instructions": str, "l": int,
                      **dict.fromkeys(DELTA_FLAGS, int)}, ("instructions", "l")),
}

HELP = ("-h", "--help")


def _flag_usage(flag: str, kind, required: bool) -> str:
    if kind is bool:
        return f"[--{flag}]"
    value = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else kind.__name__.upper()
    return f"--{flag} {value}" if required else f"[--{flag} {value}]"


def _usage(name: str | None) -> str:
    """The help text of a command, or of the program when name is None."""
    if name is None:
        width = max(map(len, COMMANDS))
        lines = [
            "usage: antipow COMMAND ...",
            "",
            "Generate structured words, analyze their abelian structure, "
            "scan for (anti)powers and synthesize verified abelian antipowers.",
            "",
            "commands:",
            *(f"  {cmd:<{width}}  {c.summary}" for cmd, c in COMMANDS.items()),
            "",
            "Run 'antipow COMMAND --help' for the flags of a command.",
        ]
        return "\n".join(lines) + "\n"
    command = COMMANDS[name]
    words = ["{" + ",".join(WORDS) + "}", "[INSTRUCTIONS]"] if command.takes_word else []
    flags = [_flag_usage(f, kind, f in command.required) for f, kind in command.flags.items()]
    lines = [f"usage: antipow {name} " + " ".join(words + flags + ["[--output PATH]"]), "",
             command.summary.capitalize() + "."]
    if command.takes_word:
        lines += ["", "INSTRUCTIONS is the paperfolding instruction string, e.g. '(+)' or '+-(-)';",
                  "one that starts with '-' goes after '--'."]
    defaults = [f"--{f} {kind[0]}" for f, kind in command.flags.items()
                if isinstance(kind, tuple) and f not in command.required]
    if defaults:
        lines += ["", "defaults: " + ", ".join(defaults)]
    return "\n".join(lines) + "\n"


def _help(name: str | None) -> SimpleNamespace:
    """The parse of a help request: its handler prints the usage."""
    def print_usage(args) -> int:
        sys.stdout.write(_usage(name))
        return 0

    return SimpleNamespace(handler=print_usage, instructions=None)


def _is_flag(token: str) -> bool:
    """A token that starts with '-' names a flag, unless it is a negative number."""
    return token.startswith("-") and not token[1:].isdecimal()


def _value(flag: str, kind, text: str):
    if kind is int:
        try:
            return int(text)
        except ValueError:
            raise ValueError(f"{flag} takes an integer, not {text!r}") from None
    if isinstance(kind, tuple) and text not in kind:
        raise ValueError(f"{flag} takes one of {', '.join(kind)}, not {text!r}")
    return text


def _parse(argv: list[str]) -> SimpleNamespace:
    """The command and flag values argv gives, as the handler reads them;
    -h or --help gives a namespace whose handler prints the usage. A usage
    error raises ValueError. A flag's value is the next token or follows
    '=' in the same token; a value or positional that starts with '-' and is
    not a negative number must use the '=' form or come after '--'."""
    if not argv:
        raise ValueError(f"a command is required: {', '.join(COMMANDS)}")
    name, tokens = argv[0], iter(argv[1:])
    if name in HELP:
        return _help(None)
    if name not in COMMANDS:
        raise ValueError(f"unknown command {name!r}: choose from {', '.join(COMMANDS)}")
    command = COMMANDS[name]
    # every command also writes its result to --output PATH instead of stdout
    flags = {**command.flags, "output": str}
    values: dict[str, Any] = {}
    positionals: list[str] = []
    for token in tokens:
        if token == "--":
            positionals += tokens
            break
        if not _is_flag(token):
            positionals.append(token)
            continue
        if token in HELP:
            return _help(name)
        flag, eq, text = token.partition("=")
        kind = flags.get(flag[2:]) if flag.startswith("--") else None
        if kind is None:
            raise ValueError(f"{name} takes no flag {flag}")
        if kind is bool:
            if eq:
                raise ValueError(f"{flag} is a switch and takes no value")
            values[flag[2:]] = True
            continue
        if not eq:
            text = next(tokens, None)
            if text is None or _is_flag(text):
                raise ValueError(f"{flag} needs a value")
        values[flag[2:]] = _value(flag, kind, text)
    missing = [f"--{f}" for f in command.required if f not in values]
    if command.takes_word:
        if not positionals:
            missing.insert(0, "WORD")
        elif positionals[0] not in WORDS:
            raise ValueError(f"unknown word {positionals[0]!r}: choose from {', '.join(WORDS)}")
    if missing:
        raise ValueError(f"{name} requires {' '.join(missing)}")
    extra = positionals[2 if command.takes_word else 0:]
    if extra:
        raise ValueError(f"{name} takes no argument {extra[0]!r}")
    args = SimpleNamespace(handler=command.handler)
    for flag, kind in flags.items():
        default = False if kind is bool else None
        if isinstance(kind, tuple) and flag not in command.required:
            default = kind[0]
        setattr(args, "fmt" if flag == "format" else flag.replace("-", "_"), values.get(flag, default))
    if command.takes_word:
        args.word, args.instructions = (positionals + [None])[:2]
    return args


def main(argv: list[str] | None = None) -> int:
    # big-integer flags and results (delta coordinates up to
    # MAX_COMBINED_BITS) pass through decimal text both ways
    with _unlimited_int_digits():
        try:
            args = _parse(sys.argv[1:] if argv is None else argv)
            args.instructions = _resolve_instructions(args)
            return args.handler(args)
        except (ValueError, OSError) as exc:
            return _fail(str(exc), 2)
        except ArithmeticError as exc:
            return _fail(str(exc), 3)


if __name__ == "__main__":
    raise SystemExit(main())
