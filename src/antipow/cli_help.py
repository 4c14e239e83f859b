"""The CLI's help text, made from its command table.

`antipow.cli` imports this module only for `-h` or `--help`, and passes the
running cli module (`__main__` under `python -m antipow.cli`), whose
`COMMANDS` and `WORDS` the text is made from. This module never imports
`antipow.cli`, which under -m would compile it a second time.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from types import ModuleType


def _flag_usage(flag: str, kind, required: bool) -> str:
    if kind is bool:
        return f"[--{flag}]"
    value = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else kind.__name__.upper()
    return f"--{flag} {value}" if required else f"[--{flag} {value}]"


def _usage(cli: ModuleType, name: str | None) -> str:
    """The help text of a command, or of the program when name is None."""
    if name is None:
        width = max(map(len, cli.COMMANDS))
        lines = [
            "usage: antipow COMMAND ...",
            "",
            "Generate structured words, analyze their abelian structure, "
            "scan for (anti)powers and synthesize verified abelian antipowers.",
            "",
            "commands:",
            *(f"  {cmd:<{width}}  {c.summary}" for cmd, c in cli.COMMANDS.items()),
            "",
            "Run 'antipow COMMAND --help' for the flags of a command.",
        ]
        return "\n".join(lines) + "\n"
    command = cli.COMMANDS[name]
    words = ["{" + ",".join(cli.WORDS) + "}", "[INSTRUCTIONS]"] if command.takes_word else []
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


def print_usage(cli: ModuleType, args) -> int:
    """Print the usage of `args.command`, or of the program when it is None."""
    sys.stdout.write(_usage(cli, args.command))
    return 0
