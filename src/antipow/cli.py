"""Command-line front end: word generation, complexity tables, power and
antipower scanning, delta-vector queries and certificate synthesis.

This module is the command table, the parser and the dispatch. `COMMANDS`
maps each command to its handler, its positionals and its typed flags, and
`_parse` reads argv from it: argparse, with the `gettext` and `locale`
imports it brings, would cost every process about 6 ms before its work. A
flag's value follows it or an `=`; a value or positional that starts with
`-` and is not a negative number takes the `=` form or comes after `--`.
Flags are never abbreviated. `-h` or `--help` prints a usage made from the
table. JSON is written by `instructions.json_text`, so no command imports
`json` either.

A handler is named by module and function, and `main` imports only the
running command's module: `cli_words` for `generate`, `complexity` and
`scan`, `cli_delta` for `delta`, `cli_help` for `-h` and `--help`;
`construct`'s handler is here. A process with no bytecode cache compiles
every module it imports, so none compiles another command's code.

`run` is the process entry, of `python -m antipow.cli` and of the
`antipow` script: it calls `main`, freezes the heap with `gc.freeze()` and
raises SystemExit with main's code. At exit the interpreter runs a full
collection over every object still alive, whose memory the OS takes back
anyway; frozen objects are skipped, which cuts the teardown of a
`construct` process from 8-14 ms to 3-4 ms (2 CPUs, Python 3.10-3.13).
`atexit` handlers, the flush of stdout and stderr and the exit code are
kept, which `os._exit` would skip. `run` also flushes stdout itself: a
buffered stdout may take the result and fail only at that flush, which
would otherwise end the process with exit 120 and a traceback instead of
exit 2 and the OS error. `main` leaves the collector and stdout as it found
them, for tests and callers in the same process.

Exit codes: 0 success, 1 domain violation (failed precheck), 2 usage,
parse or output-file error, or an input over a budget, 3 internal
verification failure.
"""

from __future__ import annotations

import gc
import os
import sys
from importlib import import_module
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, NamedTuple, NoReturn

from .instructions import _unlimited_int_digits

if TYPE_CHECKING:
    from types import ModuleType

    from .instructions import InstructionSequence

# the running cli module (`__main__` under `python -m antipow.cli`), which
# main passes to every handler: the handlers read library names as its
# attributes, so each command imports only the layers it calls, and a name
# set here (a test's or the bench tracer's replacement) is the one called.
# No other module imports `antipow.cli`, which under -m would compile it twice
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


def cmd_construct(cli: ModuleType, args) -> int:
    cert = cli.construct_antipower(args.instructions, args.order)
    _emit(cert.to_json(), args.output)
    return 0 if cert.verified else 3


DELTA_FLAGS = ("d", "m", "n", "l2", "d2", "r")
SCAN_KINDS = ("power", "abelian-power", "antipower", "abelian-antipower")


class Command(NamedTuple):
    """One command: its handler, as `module.function` for a module of the
    package or a bare function name for one of this module, called with the
    running cli module and the parsed arguments; whether it takes WORD
    [INSTRUCTIONS]; and its flags, each typed int, str, a tuple of choices or
    bool (a switch). A flag not in `required` defaults to its first choice,
    False for a switch, and None otherwise."""

    handler: str
    summary: str
    takes_word: bool
    flags: dict[str, Any]
    required: tuple[str, ...]


COMMANDS = {
    "generate": Command("cli_words.cmd_generate", "print a prefix of a word", True,
                        {"length": int}, ("length",)),
    "complexity": Command("cli_words.cmd_complexity", "emit a complexity table", True,
                          {"format": ("csv", "json"), "max-n": int, "kind": ("abelian", "factor"),
                           "length": int}, ("max-n",)),
    "scan": Command("cli_words.cmd_scan", "search for (anti)power occurrences", True,
                    {"format": ("json", "text"), "length": int, "order": int, "kind": SCAN_KINDS,
                     "d-max": int, "avoidance": bool}, ("length", "order", "kind")),
    "construct": Command("cmd_construct", "synthesize an abelian antipower certificate", False,
                         {"instructions": str, "order": int}, ("instructions", "order")),
    "delta": Command("cli_delta.cmd_delta", "delta vectors and the additivity precheck", False,
                     {"format": ("text", "json"), "instructions": str, "l": int,
                      **dict.fromkeys(DELTA_FLAGS, int)}, ("instructions", "l")),
}

HELP = ("-h", "--help")


def _help(name: str | None) -> SimpleNamespace:
    """The parse of a help request: its handler prints the usage of the
    command, or of the program when name is None."""
    return SimpleNamespace(handler="cli_help.print_usage", command=name, instructions=None)


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
            module, _, function = args.handler.rpartition(".")
            owner = import_module(f".{module}", __package__) if module else _cli
            return getattr(owner, function)(_cli, args)
        except (ValueError, OSError) as exc:
            return _fail(str(exc), 2)
        except ArithmeticError as exc:
            return _fail(str(exc), 3)


def run() -> NoReturn:
    """The process entry, of `python -m antipow.cli` and the `antipow`
    script: exit with main's code once the heap is frozen, so the
    interpreter's final collection skips every object left alive. A result
    that stdout cannot take exits 2, like one whose write fails in main."""
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:
        # a command that already failed has reported why
        code = code or _fail(str(exc), 2)
        # the bytes stay in the buffer, so point its descriptor at /dev/null
        # for the interpreter's own flush at exit
        with open(os.devnull, "wb") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    run()
