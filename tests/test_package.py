"""The package's public names load on first use, and `antipow.cli` reads
them through the package's loader, so each command imports only the layers
it calls. Each command of `LOADED` runs twice, through in-process `main` and
as `python -m antipow.cli`, each time in a fresh interpreter where `import
numpy` fails, as no module of the package imports it. It must exit 0 having
loaded exactly its own `antipow` modules: the big-integer commands
(`construct`, `delta`) load no word layer, no command loads another's layer
or `calculus`, each loads its own handler module and no other command's,
none loads the per-order vocabulary of `orders`, and `--help` loads no
layer. No command, nor `import antipow` or `import antipow.cli`, imports
`dataclasses` or `inspect`, nor `argparse` (with `gettext` and `locale`) or
`json`: the CLI parses argv from one command table and writes JSON with
`instructions.json_text`. `python -m antipow.cli` and the `antipow` script
run `cli.run`, which freezes the heap before it exits, and exits 2 when
stdout cannot take the result; `main` does neither."""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

import antipow

SRC = Path(__file__).resolve().parents[1] / "src"
ENV = {**os.environ, "PYTHONPATH": str(SRC)}

DELTA = ["delta", "--instructions", "(+)", "--l", "0", "--n", "14"]
CONSTRUCT = ["construct", "--instructions", "(+)", "--order", "4"]
GENERATE = ["generate", "sierpinski", "--length", "8"]
GENERATE_THUE_MORSE = ["generate", "thue-morse", "--length", "8"]
GENERATE_PAPERFOLDING = ["generate", "paperfolding", "(+)", "--length", "8"]
COMPLEXITY = ["complexity", "sierpinski", "--max-n", "3"]
COMPLEXITY_THUE_MORSE = ["complexity", "thue-morse", "--max-n", "3"]
COMPLEXITY_PAPERFOLDING = ["complexity", "paperfolding", "(+)", "--max-n", "3"]
# 8 letters are below the 9-letter prefix that holds every factor of length <= 3
COMPLEXITY_PREFIX = ["complexity", "sierpinski", "--max-n", "3", "--length", "8"]
COMPLEXITY_FACTOR = ["complexity", "sierpinski", "--max-n", "3", "--kind", "factor"]
COMPLEXITY_FACTOR_THUE_MORSE = ["complexity", "thue-morse", "--kind", "factor", "--max-n", "256",
                                "--length", "65536"]
COMPLEXITY_FACTOR_PAPERFOLDING = ["complexity", "paperfolding", "(+)", "--kind", "factor",
                                  "--max-n", "64"]
# the benchmark's abelian table on a 2^14-letter prefix
COMPLEXITY_LENGTH_THUE_MORSE = ["complexity", "thue-morse", "--max-n", "10000", "--length", "16384"]
SCAN = ["scan", "sierpinski", "--length", "27", "--order", "3", "--kind", "antipower"]
# Thue–Morse is cube-free, so this scan prints no hit
SCAN_AVOIDANCE = ["scan", "thue-morse", "--length", "64", "--order", "3", "--kind", "power",
                  "--avoidance"]
# the benchmark's first-hit search, an abelian kind over 2^14 letters
SCAN_PAPERFOLDING = ["scan", "paperfolding", "(+)", "--length", "16384", "--order", "4",
                     "--kind", "abelian-antipower"]

# what `from antipow import *` bound when every layer was imported eagerly
PUBLIC_NAMES = [
    "AntipowerCertificate", "BlockSplit", "ClassifyResult", "ComplexityTable",
    "DeltaVector", "EVector", "FiniteWord", "InstructionSequence", "Morphism",
    "OrderDecomposition", "PAPERFOLDING_ALPHABET", "REGULAR", "SIERPINSKI_MORPHISM",
    "ScanHit", "THUE_MORSE_MORPHISM", "abelian", "abelian_complexity",
    "additivity_combine", "additivity_precheck", "alpha_sequence", "avoidance_scan",
    "calculus", "characterize_split", "choose_r", "classify_block", "complexity_table",
    "construct_antipower", "cyclic_shift_spectrum", "delta_interval", "delta_vector",
    "differing_orders", "e_vector", "epsilon", "factor_complexity", "find_first",
    "find_seed_block", "infinite_complexity_table", "is_prefix_normal", "morphism_prefix",
    "ones_of_order_in_interval", "ones_upto", "order_decompose", "order_shift_check",
    "paperfolding_letter", "parikh", "parikh_prefix_table", "phi_u", "scan", "sierpinski_prefix",
    "toeplitz_paperfolding_prefix", "verify_certificate", "words",
]


# run first in a fresh interpreter, it makes every `import numpy` raise
# ImportError, as where numpy is not installed
NO_NUMPY = "import sys\nsys.modules['numpy'] = None\n"

# standard modules that neither the package nor a command imports
UNUSED = {"dataclasses", "inspect", "argparse", "gettext", "locale", "json"}


def imported_by(code: str) -> set[str]:
    """Run code in a fresh interpreter; every module it imported."""
    script = f"{code}\nimport sys\nprint(*sys.modules)"
    proc = subprocess.run([sys.executable, "-c", script], env=ENV, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def antipow_modules(modules: set[str]) -> set[str]:
    return {m for m in modules if m.split(".")[0] == "antipow"}


def entry_point(argv: list[str], at_exit: str, before: str = "") -> subprocess.CompletedProcess:
    """Run `python -m antipow.cli argv` in a fresh interpreter, after the
    code `before` and with the expression `at_exit` registered as the first
    `atexit` handler, so it runs after any other. `alter_sys` makes the
    module `__main__` while it runs, as `-m` does, which `cli._cli` reads.
    Output is kept as bytes."""
    script = (
        f"{before}import atexit, gc, runpy, sys\n"
        f"atexit.register(lambda: {at_exit})\n"
        f"sys.argv[1:] = {argv!r}\n"
        "runpy.run_module('antipow.cli', run_name='__main__', alter_sys=True)"
    )
    return subprocess.run([sys.executable, "-c", script], env=ENV, capture_output=True)


def imported_by_entry_point(argv: list[str], before: str) -> set[str]:
    """Every module in `sys.modules` at the exit of `python -m antipow.cli
    argv` run after the code `before`, the layers loaded by
    `importlib.import_module` included."""
    proc = entry_point(argv, "print(*sys.modules)", before)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.decode().splitlines()[-1].split())


def main_code(argv: list[str]) -> str:
    return f"from antipow.cli import main\nif main({argv!r}) != 0: raise SystemExit(1)"


@pytest.mark.parametrize(
    "code, loaded",
    [
        ("import antipow", set()),
        ("import antipow.cli", {"cli", "instructions"}),
        ("import antipow\nantipow.InstructionSequence.parse('(+)')", {"instructions"}),
    ],
    ids=["import", "import cli", "instructions"],
)
def test_imports_load_only_the_modules_they_name(code, loaded):
    modules = imported_by(NO_NUMPY + code)
    assert antipow_modules(modules) == {"antipow", *(f"antipow.{name}" for name in loaded)}
    assert not modules & UNUSED


# what each command loads besides `antipow`, `antipow.instructions` and, in
# process, `antipow.cli`: its layers and its handler module, `cli_words`,
# `cli_delta` or `cli_help`; `construct`'s handler is in `cli` itself. No
# command loads another command's handler module or `orders`
LOADED = [
    (GENERATE, {"words", "cli_words"}),
    (GENERATE_THUE_MORSE, {"words", "cli_words"}),
    (GENERATE_PAPERFOLDING, {"words", "cli_words"}),
    (COMPLEXITY, {"words", "abelian", "cli_words"}),
    (COMPLEXITY_THUE_MORSE, {"words", "abelian", "cli_words"}),
    (COMPLEXITY_PREFIX, {"words", "abelian", "cli_words"}),
    ([*COMPLEXITY_PREFIX, "--format", "json"], {"words", "abelian", "cli_words"}),
    (COMPLEXITY_PAPERFOLDING, {"words", "abelian", "cli_words"}),
    (COMPLEXITY_LENGTH_THUE_MORSE, {"words", "abelian", "cli_words"}),
    (COMPLEXITY_FACTOR, {"words", "abelian", "cli_words"}),
    (COMPLEXITY_FACTOR_THUE_MORSE, {"words", "abelian", "cli_words"}),
    (COMPLEXITY_FACTOR_PAPERFOLDING, {"words", "abelian", "cli_words"}),
    (SCAN, {"words", "scan", "cli_words"}),
    ([*SCAN, "--format", "text"], {"words", "scan", "cli_words"}),
    (SCAN_AVOIDANCE, {"words", "scan", "cli_words"}),
    (SCAN_PAPERFOLDING, {"words", "scan", "cli_words"}),
    (CONSTRUCT, {"calculus"}),
    (DELTA, {"calculus", "cli_delta"}),
    ([*DELTA, "--format", "json"], {"calculus", "cli_delta"}),
    (["--help"], {"cli_help"}),
    (["scan", "--help"], {"cli_help"}),
]
LOADED_IDS = ["generate sierpinski", "generate thue-morse", "generate", "complexity",
              "complexity thue-morse", "complexity prefix", "complexity prefix json",
              "complexity paperfolding", "complexity thue-morse length", "complexity factor",
              "complexity factor thue-morse", "complexity factor paperfolding", "scan",
              "scan text", "scan avoidance", "scan paperfolding", "construct", "delta",
              "delta json", "help", "scan help"]


def check_loaded(modules: set[str], layers: set[str], *extra: str) -> None:
    """The `antipow` modules are exactly `antipow`, `antipow.instructions`,
    the command's layers and `extra`, and none of `UNUSED` is loaded."""
    expected = {"antipow", "antipow.instructions", *extra}
    assert antipow_modules(modules) == expected | {f"antipow.{name}" for name in layers}
    assert not modules & UNUSED


@pytest.mark.parametrize("argv, layers", LOADED, ids=LOADED_IDS)
def test_each_command_imports_only_the_layers_it_calls(argv, layers):
    check_loaded(imported_by(NO_NUMPY + main_code(argv)), layers, "antipow.cli")


@pytest.mark.parametrize("argv, layers", LOADED, ids=LOADED_IDS)
def test_entry_point_imports_only_the_layers_each_command_calls(argv, layers):
    """As `python -m antipow.cli`, which runs cli as `__main__`, so the
    package never imports `antipow.cli` itself."""
    check_loaded(imported_by_entry_point(argv, NO_NUMPY), layers)


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from antipow import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(PUBLIC_NAMES)
    assert sorted(antipow.__all__) == sorted(PUBLIC_NAMES)


def test_every_listed_name_resolves():
    for name in [*antipow.__all__, *dir(antipow)]:
        getattr(antipow, name)
    assert {"cli", "instructions"} <= set(dir(antipow))
    assert antipow.words.InstructionSequence is antipow.instructions.InstructionSequence
    assert antipow.calculus.paperfolding_letter is antipow.words.paperfolding_letter
    with pytest.raises(AttributeError):
        antipow.no_such_name


def test_the_per_order_vocabulary_is_exported_from_orders_only():
    for name in antipow._EXPORTS["orders"]:
        assert getattr(antipow, name) is getattr(antipow.orders, name)
        assert not hasattr(antipow.calculus, name)


def test_cli_binds_only_public_names_on_first_read():
    import antipow.cli

    assert antipow.cli.find_first is antipow.find_first
    assert antipow.cli.construct_antipower is antipow.calculus.construct_antipower
    for name in ("no_such_name", "cli", "instructions", "_ORIGIN"):
        with pytest.raises(AttributeError, match="antipow.cli"):
            getattr(antipow.cli, name)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["construct", "--instructions=(+)", "--order", "3"], 0),
        # the additivity precheck fails: a domain violation
        (["delta", "--instructions", "(+)", "--l", "0", "--d", "2", "--m", "2", "--l2", "6",
          "--d2", "2", "--r", "1"], 1),
        # the certificate is over the bit budget
        (["construct", "--instructions", "(+)", "--order", "9"], 2),
    ],
    ids=["construct", "delta precheck fails", "construct over budget"],
)
def test_process_entry_freezes_the_heap_and_keeps_exit_code_and_stdout(capsys, argv, code):
    """`cli.run`, the entry of `-m` and of the `antipow` script, exits with
    main's code after `gc.freeze()`, so the final collection skips the heap;
    `atexit` handlers still run and see it frozen, and stdout is what
    in-process `main` prints. In-process `main` freezes nothing."""
    from antipow.cli import main

    # 0 on most interpreters, but 3.12 starts with a few hundred objects frozen
    unfrozen = gc.get_freeze_count()
    proc = entry_point(argv, "print('frozen', gc.get_freeze_count(), file=sys.stderr)")
    assert proc.returncode == code
    label, frozen = proc.stderr.decode().splitlines()[-1].split()
    assert label == "frozen" and int(frozen) > unfrozen
    assert main(argv) == code
    assert gc.get_freeze_count() == unfrozen
    assert proc.stdout == capsys.readouterr().out.encode()


def test_console_script_names_the_process_entry():
    # read as text: Python 3.10 has no tomllib
    text = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    scripts = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert scripts.strip() == 'antipow = "antipow.cli:run"'


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("length", [100, 2**20])
def test_a_failed_write_through_a_buffered_stdout_exits_2(length):
    """With stdout buffered, a short result fails only when `run` flushes
    it, a long one already in main's write; either way the process exits 2
    with one line naming the OS error, and the interpreter's own flush at
    exit finds nothing left to fail on."""
    env = {key: value for key, value in ENV.items() if key != "PYTHONUNBUFFERED"}
    argv = ["generate", "sierpinski", "--length", str(length)]
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-m", "antipow.cli", *argv], env=env,
                              stdout=full, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 2
    assert proc.stderr == "error: [Errno 28] No space left on device\n"
