"""The package's public names load on first use, and `antipow.cli` reads
them through the package's loader, so each command imports only the layers
it calls. The big-integer commands (`construct`, `delta`) load no word
layer. `generate`, `scan` (its masks are Python-int bitsets), every abelian
`complexity` table of a binary word (from a closed form, or on a prefix,
with or without `--length`) and the factor tables read from a closed form
(Thue–Morse and paperfolding without `--length` or with one that holds
every factor) load no numpy. Only factor tables on a prefix load numpy, and
no command loads another's layer or `calculus`. No command imports
`dataclasses` or `inspect`, nor `argparse` (with `gettext` and `locale`) or
`json`: the CLI parses argv from one command table and writes JSON with
`instructions.json_text`."""

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


def imported_by_entry_point(argv: list[str]) -> set[str]:
    """Run `python -X importtime -m antipow.cli argv`; every module it imported."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "antipow.cli", *argv],
        env=ENV, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}


def main_code(argv: list[str]) -> str:
    return f"from antipow.cli import main\nif main({argv!r}) != 0: raise SystemExit(1)"


@pytest.mark.parametrize(
    "code, imported",
    [
        ("import antipow", False),
        ("import antipow.cli", False),
        ("import antipow\nantipow.InstructionSequence.parse('(+)')", False),
        (main_code(DELTA), False),
        (main_code(CONSTRUCT), False),
        (main_code(GENERATE), False),
        (main_code(COMPLEXITY_THUE_MORSE), False),
        (main_code(COMPLEXITY_PAPERFOLDING), False),
        (main_code(COMPLEXITY_LENGTH_THUE_MORSE), False),
        (main_code(COMPLEXITY_FACTOR), True),
        (main_code(SCAN), False),
        (main_code(SCAN_PAPERFOLDING), False),
    ],
    ids=["import", "import cli", "instructions", "main delta", "main construct", "main generate",
         "main complexity", "main complexity paperfolding", "main complexity thue-morse length",
         "main complexity factor", "main scan", "main scan paperfolding"],
)
def test_numpy_is_imported_only_by_the_word_layers(code, imported):
    assert ("numpy" in modules_after(code)) is imported


@pytest.mark.parametrize(
    "argv, layers",
    [
        (GENERATE_PAPERFOLDING, {"words"}),
        (COMPLEXITY, {"words", "abelian"}),
        (COMPLEXITY_PAPERFOLDING, {"words", "abelian"}),
        (COMPLEXITY_LENGTH_THUE_MORSE, {"words", "abelian"}),
        (COMPLEXITY_FACTOR, {"words", "abelian", "numpy"}),
        (COMPLEXITY_FACTOR_THUE_MORSE, {"words", "abelian"}),
        (COMPLEXITY_FACTOR_PAPERFOLDING, {"words", "abelian"}),
        (SCAN, {"words", "scan"}),
        (SCAN_PAPERFOLDING, {"words", "scan"}),
        (CONSTRUCT, {"calculus"}),
        (DELTA, {"calculus"}),
    ],
    ids=["generate", "complexity", "complexity paperfolding", "complexity thue-morse length",
         "complexity factor", "complexity factor thue-morse", "complexity factor paperfolding",
         "scan", "scan paperfolding", "construct", "delta"],
)
def test_each_command_imports_only_the_layers_it_calls(argv, layers):
    expected = {"antipow.cli", "antipow.instructions"}
    expected |= {name if name == "numpy" else f"antipow.{name}" for name in layers}
    assert modules_after(main_code(argv)) == expected


@pytest.mark.parametrize(
    "argv, imported",
    [
        (DELTA, False), (CONSTRUCT, False), (GENERATE, False), (GENERATE_THUE_MORSE, False),
        (GENERATE_PAPERFOLDING, False), (COMPLEXITY, False), (COMPLEXITY_THUE_MORSE, False),
        (COMPLEXITY_PAPERFOLDING, False), (COMPLEXITY_PREFIX, False),
        (COMPLEXITY_LENGTH_THUE_MORSE, False), (COMPLEXITY_FACTOR, True),
        (COMPLEXITY_FACTOR_THUE_MORSE, False), (COMPLEXITY_FACTOR_PAPERFOLDING, False), (SCAN, False),
        (SCAN_PAPERFOLDING, False),
    ],
    ids=["delta", "construct", "generate", "generate thue-morse", "generate paperfolding",
         "complexity", "complexity thue-morse", "complexity paperfolding", "complexity prefix",
         "complexity thue-morse length", "complexity factor", "complexity factor thue-morse",
         "complexity factor paperfolding", "scan", "scan paperfolding"],
)
def test_module_entry_point_imports_numpy_only_for_word_commands(argv, imported):
    assert ("numpy" in imported_by_entry_point(argv)) is imported


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


def test_cli_binds_only_public_names_on_first_read():
    import antipow.cli

    assert antipow.cli.find_first is antipow.find_first
    assert antipow.cli.construct_antipower is antipow.calculus.construct_antipower
    for name in ("no_such_name", "cli", "instructions", "_ORIGIN"):
        with pytest.raises(AttributeError, match="antipow.cli"):
            getattr(antipow.cli, name)
