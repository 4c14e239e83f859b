"""The package's public names load on first use, and `antipow.cli` reads
them through the package's loader, so each command imports only the layers
it calls. The big-integer commands (`construct`, `delta`) load no word
layer, no command loads another's layer or `calculus`, and none loads
numpy, which no module of the package imports. Each command loads its own
handler module and no other command's, and none loads the per-order
vocabulary of `orders`; `--help` loads no layer. No command imports
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


def imported_by(code: str) -> set[str]:
    """Run code in a fresh interpreter; every module it imported."""
    script = f"{code}\nimport sys\nprint(*sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", script], env=ENV, capture_output=True, text=True, check=True
    )
    return set(proc.stdout.splitlines()[-1].split())


def modules_after(code: str) -> set[str]:
    """Run code in a fresh interpreter; the antipow submodules and numpy it imported."""
    return {m for m in imported_by(code) if m == "numpy" or m.startswith("antipow.")}


# run first in a fresh interpreter, it makes every `import numpy` raise
# ImportError, as where numpy is not installed
NO_NUMPY = "import sys\nsys.modules['numpy'] = None\n"


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


def imported_by_entry_point(argv: list[str]) -> set[str]:
    """Every module in `sys.modules` at the exit of `python -m antipow.cli
    argv`, the layers loaded by `importlib.import_module` included."""
    proc = entry_point(argv, "print(*sys.modules)")
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.decode().splitlines()[-1].split())


def main_code(argv: list[str]) -> str:
    return f"from antipow.cli import main\nif main({argv!r}) != 0: raise SystemExit(1)"


@pytest.mark.parametrize(
    "code",
    [
        "import antipow",
        "import antipow.cli",
        "import antipow\nantipow.InstructionSequence.parse('(+)')",
        main_code(DELTA),
        main_code(CONSTRUCT),
        main_code(GENERATE),
        main_code(COMPLEXITY_THUE_MORSE),
        main_code(COMPLEXITY_PAPERFOLDING),
        main_code(COMPLEXITY_LENGTH_THUE_MORSE),
        main_code(COMPLEXITY_FACTOR),
        main_code(SCAN),
        main_code(SCAN_PAPERFOLDING),
    ],
    ids=["import", "import cli", "instructions", "main delta", "main construct", "main generate",
         "main complexity", "main complexity paperfolding", "main complexity thue-morse length",
         "main complexity factor", "main scan", "main scan paperfolding"],
)
def test_numpy_is_imported_only_by_the_word_layers(code):
    """No layer imports numpy, the word layers included: the imports and
    commands run to the end where `import numpy` fails."""
    proc = subprocess.run([sys.executable, "-c", NO_NUMPY + code], env=ENV, capture_output=True)
    assert proc.returncode == 0, proc.stderr


# what each command loads besides `antipow` (or `antipow.cli`) and
# `antipow.instructions`: its layers and its handler module, `cli_words`,
# `cli_delta` or `cli_help`; `construct`'s handler is in `cli` itself. No
# command loads another command's handler module or `orders`
LOADED = [
    (GENERATE, {"words", "cli_words"}),
    (GENERATE_THUE_MORSE, {"words", "cli_words"}),
    (GENERATE_PAPERFOLDING, {"words", "cli_words"}),
    (COMPLEXITY, {"words", "abelian", "cli_words"}),
    (COMPLEXITY_PREFIX, {"words", "abelian", "cli_words"}),
    (COMPLEXITY_PAPERFOLDING, {"words", "abelian", "cli_words"}),
    (COMPLEXITY_LENGTH_THUE_MORSE, {"words", "abelian", "cli_words"}),
    (COMPLEXITY_FACTOR, {"words", "abelian", "cli_words"}),
    (COMPLEXITY_FACTOR_THUE_MORSE, {"words", "abelian", "cli_words"}),
    (COMPLEXITY_FACTOR_PAPERFOLDING, {"words", "abelian", "cli_words"}),
    (SCAN, {"words", "scan", "cli_words"}),
    (SCAN_AVOIDANCE, {"words", "scan", "cli_words"}),
    (SCAN_PAPERFOLDING, {"words", "scan", "cli_words"}),
    (CONSTRUCT, {"calculus"}),
    (DELTA, {"calculus", "cli_delta"}),
    (["--help"], {"cli_help"}),
    (["scan", "--help"], {"cli_help"}),
]
LOADED_IDS = ["generate sierpinski", "generate thue-morse", "generate", "complexity",
              "complexity prefix", "complexity paperfolding", "complexity thue-morse length",
              "complexity factor", "complexity factor thue-morse", "complexity factor paperfolding",
              "scan", "scan avoidance", "scan paperfolding", "construct", "delta", "help",
              "scan help"]


@pytest.mark.parametrize("argv, layers", LOADED, ids=LOADED_IDS)
def test_each_command_imports_only_the_layers_it_calls(argv, layers):
    expected = {"antipow.cli", "antipow.instructions"}
    expected |= {f"antipow.{name}" for name in layers}
    assert modules_after(main_code(argv)) == expected


@pytest.mark.parametrize("argv, layers", LOADED, ids=LOADED_IDS)
def test_entry_point_imports_only_the_layers_each_command_calls(argv, layers):
    """As `python -m antipow.cli`, which runs cli as `__main__`, so the
    package never imports `antipow.cli` itself."""
    expected = {"antipow", "antipow.instructions"}
    expected |= {f"antipow.{name}" for name in layers}
    modules = imported_by_entry_point(argv)
    assert {m for m in modules if m == "numpy" or m.split(".")[0] == "antipow"} == expected


@pytest.mark.parametrize(
    "argv",
    [
        DELTA, CONSTRUCT, GENERATE, GENERATE_THUE_MORSE, GENERATE_PAPERFOLDING, COMPLEXITY,
        COMPLEXITY_THUE_MORSE, COMPLEXITY_PAPERFOLDING, COMPLEXITY_PREFIX,
        COMPLEXITY_LENGTH_THUE_MORSE, COMPLEXITY_FACTOR, COMPLEXITY_FACTOR_THUE_MORSE,
        COMPLEXITY_FACTOR_PAPERFOLDING, SCAN, SCAN_PAPERFOLDING,
    ],
    ids=["delta", "construct", "generate", "generate thue-morse", "generate paperfolding",
         "complexity", "complexity thue-morse", "complexity paperfolding", "complexity prefix",
         "complexity thue-morse length", "complexity factor", "complexity factor thue-morse",
         "complexity factor paperfolding", "scan", "scan paperfolding"],
)
def test_module_entry_point_imports_numpy_only_for_word_commands(argv):
    """No command imports numpy, the word commands included: each runs to
    the end through `python -m antipow.cli` where `import numpy` fails."""
    proc = entry_point(argv, "None", NO_NUMPY)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        CONSTRUCT, DELTA, [*DELTA, "--format", "json"], GENERATE, SCAN, [*SCAN, "--format", "text"],
        SCAN_AVOIDANCE, COMPLEXITY, COMPLEXITY_PREFIX, [*COMPLEXITY_PREFIX, "--format", "json"],
        ["--help"], ["scan", "--help"],
    ],
    ids=["construct", "delta", "delta json", "generate", "scan", "scan text", "scan avoidance",
         "complexity", "complexity prefix", "complexity prefix json", "help", "scan help"],
)
@pytest.mark.parametrize("form", ["main", "entry point"])
def test_commands_import_no_dataclasses_and_json_only_to_print_it(argv, form):
    """No command imports `dataclasses`, `inspect`, `argparse` (with `gettext` and
    `locale`) or `json`, not even one that prints JSON."""
    if form == "main":
        modules = imported_by(main_code(argv))
    else:
        modules = imported_by_entry_point(argv)
    assert not modules & {"dataclasses", "inspect", "argparse", "gettext", "locale", "json"}


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
