"""The CLI's `delta` command: delta vectors, the scalar delta of an
interval and the additivity precheck, with the budgets checked before any
cell is counted.

`antipow.cli` imports this module only to run `delta`, and passes its
handler the running cli module (`__main__` under `python -m antipow.cli`).
Every library name is read as its attribute, so the command imports only
the layers it calls, and a name replaced there, by a test or the
benchmark's tracer, is the one called. This module never imports
`antipow.cli`, which under -m would compile it a second time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .instructions import MAX_COMBINED_BITS, json_text

if TYPE_CHECKING:
    from types import ModuleType


def _delta_mode(cli: ModuleType, args) -> str:
    """The query the given flags select: --l2 --d2 --r the additivity
    precheck, --n the scalar delta, otherwise the vector. It must be given
    every flag it reads, and no other."""
    given = {f for f in cli.DELTA_FLAGS if getattr(args, f) is not None}
    if given & {"l2", "d2", "r"}:
        mode, needs = "precheck", {"d", "m", "l2", "d2", "r"}
    elif "n" in given:
        mode, needs = "scalar", {"n"}
    else:
        mode, needs = "vector", {"d", "m"}
    if given != needs:
        flags = lambda names: " ".join(f"--{f}" for f in cli.DELTA_FLAGS if f in names)
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


def cmd_delta(cli: ModuleType, args) -> int:
    mode = _delta_mode(cli, args)
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
        report = cli.additivity_precheck(b, l, args.d, args.l2, args.d2, args.m, args.r)
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
        value = cli.delta_interval(b, l, args.n)
        record, text = {"l": str(l), "n": str(args.n), "delta": value}, str(value)
    else:
        vec = cli.delta_vector(b, l, args.d, args.m).components
        record = {"l": str(l), "d": str(args.d), "m": args.m, "delta": list(vec)}
        text = "(" + ",".join(map(str, vec)) + ")"
    cli._emit(json_text(record) if args.fmt == "json" else text, args.output)
    return code
