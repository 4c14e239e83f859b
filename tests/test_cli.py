import hashlib
import io
import json
import shlex
import sys
from contextlib import redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import antipow.abelian
import antipow.calculus
import antipow.cli
import antipow.cli_words
from antipow import (
    REGULAR,
    THUE_MORSE_MORPHISM,
    AntipowerCertificate,
    DeltaVector,
    InstructionSequence,
    abelian_complexity,
    complexity_table,
    construct_antipower,
    factor_complexity,
    morphism_prefix,
    sierpinski_prefix,
    toeplitz_paperfolding_prefix,
    verify_certificate,
)
from antipow.abelian import _factor_counts
from antipow.cli import COMMANDS, main
from antipow.cli_words import _build_word, _ceil_log3, _complexity_word_length
from antipow.instructions import MAX_TABLE_ROWS, _unlimited_int_digits
from conftest import instruction_sequences, thue_morse_factor_complexity

REGULAR_32 = "00100110001101100010011100110110"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate_sierpinski(capsys):
    code, out, _ = run(capsys, "generate", "sierpinski", "--length", "10")
    assert code == 0 and out == "ababbbabab\n"


def test_generate_paperfolding_positional(capsys):
    code, out, _ = run(capsys, "generate", "paperfolding", "(+)", "--length", "32")
    assert code == 0 and out == REGULAR_32 + "\n"


def test_generate_thue_morse(capsys):
    code, out, _ = run(capsys, "generate", "thue-morse", "--length", "8")
    assert code == 0 and out == "01101001\n"


def test_generate_parse_failure_exits_2(capsys):
    code, _, err = run(capsys, "generate", "paperfolding", "bad", "--length", "4")
    assert code == 2 and "bad" in err


def test_generate_missing_instructions_exits_2(capsys):
    code, _, err = run(capsys, "generate", "paperfolding", "--length", "4")
    assert code == 2 and "instruction" in err


def test_generate_rejects_instructions_for_sierpinski(capsys):
    code, _, err = run(capsys, "generate", "sierpinski", "(+)", "--length", "4")
    assert code == 2


def test_complexity_sierpinski_small(capsys):
    code, out, _ = run(capsys, "complexity", "sierpinski", "--max-n", "3")
    assert code == 0
    assert out.splitlines() == ["n,value", "1,2", "2,2", "3,3"]


@pytest.mark.parametrize("kind", ["abelian", "factor"])
def test_complexity_sierpinski_matches_per_n_prefixes(capsys, kind):
    # one table on the 3^(k+1) prefix equals, for each n, the value on the
    # shortest canonical prefix 3^(ceil_log3(n) + 1)
    fn = abelian_complexity if kind == "abelian" else factor_complexity
    for max_n in (1, 2, 3, 4, 9, 10, 27, 28, 243, 244):
        code, out, _ = run(capsys, "complexity", "sierpinski", "--kind", kind, "--max-n", str(max_n))
        assert code == 0
        expected = [
            f"{n},{fn(sierpinski_prefix(3 ** (_ceil_log3(n) + 1)), n)}" for n in range(1, max_n + 1)
        ]
        assert out.splitlines() == ["n,value"] + expected


def test_complexity_thue_morse_bounded(capsys):
    code, out, _ = run(capsys, "complexity", "thue-morse", "--max-n", "100")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 100
    assert all(int(v) <= 3 for _, v in rows)


def test_complexity_paperfolding_factor_kind(capsys):
    code, out, _ = run(
        capsys, "complexity", "paperfolding", "(+)", "--kind", "factor", "--max-n", "10",
    )
    assert code == 0
    rows = dict(tuple(map(int, line.split(","))) for line in out.splitlines()[1:])
    assert rows[7] == 28 and rows[10] == 40


def _rows(out: str) -> dict[int, int]:
    return dict(tuple(map(int, line.split(","))) for line in out.splitlines()[1:])


def test_complexity_default_paperfolding_prefix_holds_every_factor(capsys):
    # the factor table is Allouche's closed form; the abelian one is made on
    # the default prefix of 7·2^12 = 28,672 letters. 16,384 letters miss
    # factors from n = 2,143 on: at n = 2,434 they gave 8,964 factors and 8
    # abelian classes
    max_n = 2434
    big = toeplitz_paperfolding_prefix(REGULAR, 2**20)
    code, out, _ = run(capsys, "complexity", "paperfolding", "(+)", "--kind", "factor",
                       "--max-n", str(max_n))
    factors = _rows(out)
    assert code == 0 and len(factors) == max_n
    assert all(factors[n] == 4 * n for n in range(7, max_n + 1))
    code, out, _ = run(capsys, "complexity", "paperfolding", "(+)", "--max-n", str(max_n))
    classes = _rows(out)
    assert code == 0 and len(classes) == max_n
    near = range(max_n - 40, max_n + 1)
    assert [classes[n] for n in near] == [abelian_complexity(big, n) for n in near]


def test_complexity_default_sierpinski_factor_table_is_2n_minus_1(capsys):
    # the one default table counted on a prefix, the 3^8-letter cover: p(1)
    # = 2 and p(n) = 2n - 1 after, the data behind a Sierpinski closed form
    code, out, _ = run(capsys, "complexity", "sierpinski", "--kind", "factor", "--max-n", "2187")
    assert code == 0
    assert _rows(out) == {n: 2 * n - (n > 1) for n in range(1, 2188)}


def test_complexity_default_thue_morse_prefix_holds_every_factor(capsys):
    code, out, _ = run(capsys, "complexity", "thue-morse", "--kind", "factor", "--max-n", "600")
    assert code == 0
    assert _rows(out) == {n: thue_morse_factor_complexity(n) for n in range(1, 601)}


PINNED_SEQUENCES = ("(+)", "(-+)", "+-(-)", "-(+--)", "(-)", "++(+-)", "-+-(+-+-)")


def _assert_default_prefixes_cover(word, generate, top):
    """For k = 0..top, the default prefix for max_n = 2^k has the factor
    table, up to n = 2^k, of a prefix 16 times longer than the longest one;
    returns that reference table, which the callers hold to the published
    count, so it holds every factor of length <= 2^top."""
    # rows up to n do not depend on how far the table goes
    reference = _factor_counts(generate(16 << top), 2**top)
    for k in range(top + 1):
        prefix = generate(_complexity_word_length(word, 2**k))
        assert _factor_counts(prefix, 2**k) == reference[: 2**k], k
    return reference


def test_default_thue_morse_prefixes_hold_every_factor():
    generate = lambda length: morphism_prefix(THUE_MORSE_MORPHISM, "0", length)
    reference = _assert_default_prefixes_cover("thue-morse", generate, 14)
    assert reference == [thue_morse_factor_complexity(n) for n in range(1, 2**14 + 1)]


def _assert_default_paperfolding_prefixes_cover(b):
    generate = lambda length: toeplitz_paperfolding_prefix(b, length)
    reference = _assert_default_prefixes_cover("paperfolding", generate, 12)
    # 4n factors of each length n >= 7 (Allouche, Bull. Austral. Math. Soc. 1992)
    assert reference[6:] == [4 * n for n in range(7, 2**12 + 1)]


@pytest.mark.parametrize("text", PINNED_SEQUENCES)
def test_default_paperfolding_prefixes_hold_every_factor(text):
    _assert_default_paperfolding_prefixes_cover(InstructionSequence.parse(text))


@settings(max_examples=30)
@given(instruction_sequences)
def test_default_paperfolding_prefixes_hold_every_factor_for_drawn_sequences(b):
    _assert_default_paperfolding_prefixes_cover(b)


class _ClosedForm(Exception):
    pass


def test_complexity_default_prefix_over_the_budget_is_refused(capsys, monkeypatch, no_generation):
    # one row over the row budget (2^20) is refused for every word and kind
    # before a cover, a closed form or a prefix is computed. At the budget
    # every default prefix fits the letter budget: a closed-form table is
    # reached without writing its 2^20 rows, and a Sierpinski factor or a
    # paperfolding abelian table, which has none, reaches the generator
    infinite_table = antipow.cli.infinite_complexity_table

    def intercepted(word, kind, max_n):
        if infinite_table(word, kind, 1) is not None:
            raise _ClosedForm(word, kind, max_n)
        return None

    def no_cover(word, max_n):
        raise AssertionError(f"the cover of {word} was computed")

    monkeypatch.setattr("antipow.cli.infinite_complexity_table", intercepted)
    assert MAX_TABLE_ROWS == 2**20
    for argv, fits in ((("sierpinski",), 3**14), (("thue-morse",), 4 << 20),
                       (("paperfolding", "(+)"), 7 << 20)):
        for kind in ("abelian", "factor"):
            with monkeypatch.context() as patch:
                patch.setattr("antipow.cli_words._complexity_word_length", no_cover)
                code, out, err = run(capsys, "complexity", *argv, "--kind", kind,
                                     "--max-n", str(MAX_TABLE_ROWS + 1))
            assert code == 2 and out == ""
            assert "--max-n 1048577 exceeds the budget of 1048576 rows" in err
            generated = (argv[0], kind) in {("sierpinski", "factor"), ("paperfolding", "abelian")}
            reached = _Generated if generated else _ClosedForm
            with pytest.raises(reached) as exc:
                run(capsys, "complexity", *argv, "--kind", kind, "--max-n", str(MAX_TABLE_ROWS))
            assert exc.value.args == ((fits,) if generated else (argv[0], kind, MAX_TABLE_ROWS))
            assert fits <= 2**31 - 1


@pytest.mark.parametrize("word", ["sierpinski", "thue-morse"])
def test_complexity_default_abelian_table_generates_no_word(capsys, no_generation, word):
    code, out, _ = run(capsys, "complexity", word, "--max-n", "100")
    assert code == 0 and len(_rows(out)) == 100


@pytest.mark.parametrize("kind", ["factor", "abelian"])
def test_complexity_default_prefix_gets_one_factor_pass_each(capsys, monkeypatch, kind):
    # a Sierpinski factor query counts its one cover prefix once; a
    # paperfolding one reads its closed form, and an abelian query builds no
    # factor table
    lengths = []
    def counted(w, max_n):
        lengths.append(len(w))
        return _factor_counts(w, max_n)

    monkeypatch.setattr(antipow.abelian, "_factor_counts", counted)
    for argv, max_n, passes in ((("paperfolding", "(+)"), 2434, []),
                                (("sierpinski",), 729, [3**7])):
        code, out, _ = run(capsys, "complexity", *argv, "--kind", kind, "--max-n", str(max_n))
        assert code == 0 and len(_rows(out)) == max_n
        assert lengths == (passes if kind == "factor" else []), argv
        lengths.clear()


def _formatted(table, fmt: str) -> str:
    """What `complexity --format fmt` prints for the table."""
    if fmt == "csv":
        return table.to_csv()
    return "".join(json.dumps({"n": n, "value": v}) + "\n" for n, v in table.rows)


@pytest.mark.parametrize("word", ["sierpinski", "thue-morse"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_complexity_default_abelian_table_equals_the_prefix_table(capsys, word, fmt):
    # the default table reads no prefix; it equals the table made on the
    # default prefix, which holds every factor of length <= max_n
    for max_n in (1, 2, 3, 4, 27, 28, 243, 244, 64, 65, 512, 513):
        code, out, _ = run(capsys, "complexity", word, "--max-n", str(max_n), "--format", fmt)
        prefix = _build_word(antipow.cli, word, None, _complexity_word_length(word, max_n))
        assert code == 0 and len(out.splitlines()) == max_n + (fmt == "csv")
        assert out == _formatted(complexity_table(prefix, "abelian", max_n), fmt), max_n


@settings(max_examples=60)
@given(
    word=st.sampled_from(("sierpinski", "thue-morse", "paperfolding")),
    b=instruction_sequences,
    kind=st.sampled_from(("abelian", "factor")),
    fmt=st.sampled_from(("csv", "json")),
    max_n=st.integers(1, 200),
    extra=st.integers(0, 2000),
)
def test_complexity_from_a_prefix_that_holds_every_factor_equals_its_table(
    word, b, kind, fmt, max_n, extra
):
    # from L >= cover letters on, a factor table is the infinite word's: a
    # closed form with no prefix, else the table of the cover prefix alone.
    # An abelian table with --length is counted on the L-letter prefix
    cover = _complexity_word_length(word, max_n)
    length = cover + extra
    # after "--", an instruction string that starts with "-" is positional
    argv = ["complexity", "--kind", kind, "--max-n", str(max_n), "--length", str(length),
            "--format", fmt, "--", word, *([str(b)] if word == "paperfolding" else [])]
    build = mock.patch.object(antipow.cli_words, "_build_word", wraps=antipow.cli_words._build_word)
    with build as built, redirect_stdout(io.StringIO()) as out:
        assert main(argv) == 0
    expected = complexity_table(_build_word(antipow.cli, word, b, length), kind, max_n)
    assert out.getvalue() == _formatted(expected, fmt)
    lengths = [call.args[3] for call in built.call_args_list]
    if kind == "abelian":
        assert lengths == [length]
    else:
        closed_form = antipow.cli.infinite_complexity_table(word, kind, 1) is not None
        assert lengths == ([] if closed_form else [cover])


def test_complexity_thue_morse_length_table_matches_the_benchmark_pin(capsys):
    # the benchmark's abelian --length query of `tables`, with its stdout pin
    code, out, _ = run(capsys, "complexity", "thue-morse", "--max-n", "10000", "--length", "16384")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9f13bbd65e59f9f9e46ca9b9301af8d541d231ca86cfce9a39ff06ff45b6a1b1"
    )


@pytest.mark.parametrize(
    "argv, pin",
    [
        ("sierpinski --kind factor --max-n 2187",
         "ff3f1995cc91270e149499b94aa6adbea6f74ec8d51f15b09ca87c132eb886a5"),
        ("thue-morse --kind factor --max-n 256 --length 1000",
         "2d56ec42bf31c68956c07223d988940345f703e569d3ab09030f09347d8303df"),
        ("paperfolding (+) --kind factor --max-n 4096 --length 20000",
         "5303ff5638716bcb0df9189ccd3088998c833c6dbb26eef73a9748e035777613"),
    ],
    ids=["sierpinski cover", "thue-morse length", "paperfolding length"],
)
def test_prefix_factor_tables_match_their_pins(capsys, argv, pin):
    # factor tables counted on a prefix: the Sierpinski cover, which has no
    # closed form, and two --length prefixes below the cover; the pins were
    # recorded from the numpy rank-level sort that the suffix automaton replaced
    code, out, _ = run(capsys, "complexity", *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == pin


_AVOIDED = "c9a38d7374b7a6dc23772831be68256f4f925bce24dafe42a86035cba3c6c6ab"


@pytest.mark.parametrize(
    "argv, pin",
    [
        ("sierpinski --length 19683 --order 11 --kind antipower --avoidance", _AVOIDED),
        ("sierpinski --length 19683 --order 11 --kind abelian-antipower --avoidance", _AVOIDED),
        ("thue-morse --length 16384 --order 3 --kind power --avoidance", _AVOIDED),
        ("paperfolding (+) --length 16384 --order 4 --kind abelian-antipower",
         "77ed938e0af45214d16b1440f24707873c756cad568d494003d0d191bdd9182e"),
    ],
    ids=["sierpinski antipower", "sierpinski abelian-antipower", "thue-morse cubes",
         "paperfolding abelian 4-antipower"],
)
def test_scan_matches_the_benchmark_pin(capsys, argv, pin):
    # the benchmark's `scan` queries, with their stdout pins
    code, out, _ = run(capsys, "scan", *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == pin


def test_complexity_json_format(capsys):
    code, out, _ = run(capsys, "complexity", "sierpinski", "--max-n", "2", "--format", "json")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows == [{"n": 1, "value": 2}, {"n": 2, "value": 2}]


def test_scan_rejects_small_order(capsys):
    code, _, _ = run(
        capsys, "scan", "sierpinski", "--length", "100", "--order", "1",
        "--kind", "antipower",
    )
    assert code == 2


def test_scan_finds_hit_json(capsys):
    code, out, _ = run(
        capsys, "scan", "paperfolding", "(+)", "--length", "1024", "--order", "4",
        "--kind", "abelian-antipower",
    )
    assert code == 0
    hit = json.loads(out)
    assert hit["m"] == 4 and hit["kind"] == "abelian_antipower"


def test_scan_avoidance_verified(capsys, monkeypatch):
    def second_scan(*args):
        raise AssertionError("avoidance_scan was called")

    # the one find_first pass verifies avoidance
    monkeypatch.setattr("antipow.cli.avoidance_scan", second_scan)
    code, out, _ = run(
        capsys, "scan", "sierpinski", "--length", str(3**7), "--order", "11",
        "--kind", "antipower", "--avoidance",
    )
    assert code == 0 and out == "none found: avoidance verified\n"


def test_scan_avoidance_failure_prints_witness(capsys):
    code, out, _ = run(
        capsys, "scan", "paperfolding", "(+)", "--length", "64", "--order", "2",
        "--kind", "antipower", "--avoidance",
    )
    assert code == 0
    assert json.loads(out)["kind"] == "antipower"


def test_scan_text_format(capsys):
    code, out, _ = run(
        capsys, "scan", "paperfolding", "(+)", "--length", "64", "--order", "2",
        "--kind", "antipower", "--format", "text",
    )
    assert code == 0 and out == "start=1 d=2 m=2 kind=antipower\n"


def test_scan_none_result(capsys):
    code, out, _ = run(
        capsys, "scan", "sierpinski", "--length", "200", "--order", "11",
        "--kind", "antipower",
    )
    assert code == 0 and out == "none\n"


def test_no_command_takes_threads(capsys):
    code, out, _ = run(capsys, "generate", "sierpinski", "--length", "4", "--threads", "2")
    assert code == 2 and out == ""
    code, out, _ = run(
        capsys, "scan", "sierpinski", "--length", "100", "--order", "3",
        "--kind", "antipower", "--threads", "2",
    )
    assert code == 2 and out == ""


def test_replaced_word_layer_name_wins(capsys, monkeypatch):
    calls = []

    def no_hit(w, m, kind, d_max=None):
        calls.append(len(w))

    monkeypatch.setattr("antipow.cli.find_first", no_hit)
    code, out, _ = run(capsys, "scan", "sierpinski", "--length", "100", "--order", "3",
                       "--kind", "antipower")
    assert code == 0 and out == "none\n" and calls == [100]


def test_scan_rejects_d_max_with_avoidance(capsys, monkeypatch):
    def no_word(*args):
        raise AssertionError("a word was built")

    monkeypatch.setattr("antipow.cli_words._build_word", no_word)
    code, out, err = run(
        capsys, "scan", "sierpinski", "--length", "100", "--order", "3",
        "--kind", "antipower", "--avoidance", "--d-max", "2",
    )
    assert code == 2 and out == "" and "--d-max" in err


class _Generated(Exception):
    pass


@pytest.fixture
def no_generation(monkeypatch):
    """Every word generator the CLI calls raises _Generated with the length."""
    def generate(*args):
        raise _Generated(args[-1])

    for name in ("sierpinski_prefix", "morphism_prefix", "toeplitz_paperfolding_prefix"):
        monkeypatch.setattr(f"antipow.cli.{name}", generate)


@pytest.mark.parametrize("argv", [
    ("scan", "paperfolding", "(+)", "--length", str(2**31), "--order", "2", "--kind", "antipower"),
    ("scan", "thue-morse", "--length", str(10**12), "--order", "3", "--kind", "power"),
    ("complexity", "thue-morse", "--max-n", "64", "--length", str(2**31)),
    # a --max-n whose default prefix would be over the budget is refused by
    # the row budget first (test_complexity_default_prefix_over_the_budget_is_refused)
    ("complexity", "sierpinski", "--max-n", "3", "--length", str(3**20)),
    ("complexity", "thue-morse", "--kind", "factor", "--max-n", "256", "--length", str(10**12)),
    ("complexity", "paperfolding", "(+)", "--kind", "factor", "--max-n", "64", "--length", str(2**31)),
    ("generate", "sierpinski", "--length", str(2**31)),
    ("generate", "thue-morse", "--length", str(10**12)),
    ("generate", "paperfolding", "(+)", "--length", str(2**31)),
])
def test_array_commands_refuse_prefixes_over_the_int32_budget(capsys, no_generation, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "exceeds the budget of 2147483647 letters" in err


def test_array_budget_admits_the_longest_int32_prefix(capsys, no_generation):
    with pytest.raises(_Generated) as exc:
        run(capsys, "scan", "sierpinski", "--length", str(2**31 - 1), "--order", "2",
            "--kind", "antipower")
    assert exc.value.args == (2**31 - 1,)


def test_construct_verified(capsys):
    code, out, _ = run(capsys, "construct", "--instructions", "(+)", "--order", "2")
    assert code == 0
    cert = json.loads(out)
    assert cert["verified"] is True and cert["m"] == 2
    assert cert["start"] == "100" and cert["cell_width"] == "34"


def test_construct_preperiodic_sequence(capsys):
    code, out, _ = run(capsys, "construct", "--instructions", "(-+)", "--order", "3")
    assert code == 0 and json.loads(out)["verified"] is True


def test_construct_order_eight_prints_and_round_trips(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, "construct", "--instructions=(+)", "--order", "8")
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    cert = AntipowerCertificate.from_json(out)
    assert sys.get_int_max_str_digits() == limit
    assert cert.verified and cert.m == 8 and cert.start.bit_length() == 19_679
    assert verify_certificate(cert.instructions, cert)
    assert cert.to_json() + "\n" == out


@pytest.mark.parametrize("order", ["17", "1000"])
def test_construct_refuses_orders_from_17_before_the_seed_search(capsys, monkeypatch, order):
    def no_seed(*args, **kwargs):
        raise AssertionError("the seed block search ran")

    monkeypatch.setattr("antipow.calculus.find_seed_block", no_seed)
    code, out, err = run(capsys, "construct", "--instructions", "(+)", "--order", order)
    assert code == 2 and out == ""
    assert "2^(2^" in err and "MAX_COMBINED_BITS" in err


@pytest.mark.parametrize("instructions, order", [
    pytest.param("+-" * 200 + "(-+)", "8", id="order8-preperiod400"),
    # the paper weights of orders 9..16 have 21,523,360 copies
    pytest.param("(+)", "9", id="order9"),
    pytest.param("(+)", "16", id="order16"),
])
def test_construct_refuses_a_certificate_over_the_bit_budget(capsys, monkeypatch, instructions, order):
    real = antipow.calculus._shift_schedule
    refusals = []

    def schedule(*args):
        try:
            return real(*args)
        except ValueError as exc:
            refusals.append(str(exc))
            raise

    # the refusal comes from the shift schedule, before any big coordinate
    monkeypatch.setattr("antipow.calculus._shift_schedule", schedule)
    code, out, err = run(capsys, "construct", "--instructions=" + instructions, "--order", order)
    assert code == 2 and out == ""
    assert len(refusals) == 1 and refusals[0] in err
    assert "MAX_COMBINED_BITS" in err and str(2**20) in err


def test_construct_rejects_order_one(capsys):
    code, _, _ = run(capsys, "construct", "--instructions", "(+)", "--order", "1")
    assert code == 2


def test_construct_exits_3_when_the_assembled_vector_is_not_the_weighted_sum(capsys, monkeypatch):
    real = antipow.calculus.delta_vector

    def skewed(b, l, d, m):
        # the seed's base vectors have width 2; only the assembled geometry is wider
        vec = real(b, l, d, m)
        return vec + DeltaVector((1,) * m) if d > 2 else vec

    monkeypatch.setattr(antipow.calculus, "delta_vector", skewed)
    code, out, err = run(capsys, "construct", "--instructions", "(+)", "--order", "4")
    assert code == 3 and out == ""
    assert "does not match the weighted sum" in err


def test_construct_exits_3_on_an_unverified_certificate(capsys, monkeypatch):
    def unverified(b, m):
        return construct_antipower(b, m)._replace(verified=False)

    monkeypatch.setattr("antipow.cli.construct_antipower", unverified)
    code, out, _ = run(capsys, "construct", "--instructions", "(+)", "--order", "2")
    assert code == 3 and '"verified": false' in out
    assert AntipowerCertificate.from_json(out).start == 100


def test_delta_vector_output(capsys):
    code, out, _ = run(capsys, "delta", "--instructions", "(+)", "--l", "0", "--d", "2", "--m", "2")
    assert code == 0 and out == "(0,1)\n"


def test_delta_scalar_output(capsys):
    code, out, _ = run(capsys, "delta", "--instructions", "(+)", "--l", "0", "--n", "14")
    assert code == 0 and out == "2\n"
    # the interval is (l, n), not (l, l + n)
    code, out, _ = run(capsys, "delta", "--instructions", "(+)", "--l", "4", "--n", "14",
                       "--format", "json")
    assert code == 0 and json.loads(out) == {"l": "4", "n": "14", "delta": 2}


@pytest.mark.parametrize("l, d, l2, d2", [(0, 2, 0, 2), (10**4400, 2, 6, 2)],
                         ids=["zero l", "l of 4401 digits"])
def test_delta_precheck_passes_big_integers_past_the_digit_limit(capsys, l, d, l2, d2):
    # the combined coordinates have about 20,000 bits, over 6,000 digits;
    # the second l alone has 4,401 digits
    limit = sys.get_int_max_str_digits()
    with _unlimited_int_digits():
        argv = [str(v) for v in (l, d, l2, d2)]
    code, out, _ = run(capsys, "delta", "--instructions", "(+)", "--l", argv[0], "--d", argv[1],
                       "--m", "2", "--l2", argv[2], "--d2", argv[3], "--r", "20000",
                       "--format", "json")
    assert code == 0 and sys.get_int_max_str_digits() == limit
    with _unlimited_int_digits():
        record = json.loads(out)
        combined = int(record["l"]), int(record["d"])
    assert record["ok"] is True and combined == (l + (l2 << 20000), d + (d2 << 20000))


def test_delta_combine_violation_exits_1(capsys):
    code, out, _ = run(
        capsys, "delta", "--instructions", "(+)", "--l", "0", "--d", "2",
        "--m", "2", "--l2", "0", "--d2", "2", "--r", "2",
    )
    assert code == 1 and "(ii)" in out


def test_delta_json_violation_exits_1(capsys):
    code, out, _ = run(
        capsys, "delta", "--instructions", "(+)", "--l", "0", "--d", "2",
        "--m", "2", "--l2", "0", "--d2", "2", "--r", "2", "--format", "json",
    )
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False and len(report["violations"]) == 1
    assert report["violations"][0].startswith("(ii)")


def test_delta_combine_ok(capsys):
    code, out, _ = run(
        capsys, "delta", "--instructions", "(+)", "--l", "0", "--d", "2",
        "--m", "2", "--l2", "0", "--d2", "2", "--r", "4",
    )
    assert code == 0
    assert out == "precheck: ok\ncombined: l=0 d=34\n"


def test_delta_precheck_runs_the_precheck_once(capsys, monkeypatch):
    real = antipow.calculus.differing_orders
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr("antipow.calculus.differing_orders", counted)
    code, out, _ = run(
        capsys, "delta", "--instructions", "(+)", "--l", "0", "--d", "2",
        "--m", "2", "--l2", "6", "--d2", "2", "--r", "4",
    )
    assert code == 0 and out == "precheck: ok\ncombined: l=96 d=34\n"
    assert calls == [(REGULAR, 6, 2, 2)]


def test_delta_refuses_a_combined_geometry_over_the_bit_budget(capsys):
    code, out, err = run(
        capsys, "delta", "--instructions", "(+)", "--l", "0", "--d", "2",
        "--m", "2", "--l2", "0", "--d2", "2", "--r", "100000000000",
    )
    assert code == 2 and out == ""
    assert "MAX_COMBINED_BITS" in err and str(2**20) in err


CELLS_OVER_BUDGET = {
    "vector": ("--d", "2", "--m", "1048576"),
    "precheck": ("--d", "2", "--m", "1048576", "--l2", "0", "--d2", "2", "--r", "30"),
    # 2^19 cells of width 2 fit the budget; the 201-bit second geometry does not
    "precheck second geometry": ("--d", "2", "--m", str(2**19), "--l2", str(2**200), "--d2", "2",
                                 "--r", "0"),
}


@pytest.mark.parametrize("flags", CELLS_OVER_BUDGET.values(), ids=CELLS_OVER_BUDGET)
def test_delta_refuses_cells_over_the_budget_before_counting(capsys, monkeypatch, flags):
    def no_count(*args, **kwargs):
        raise AssertionError("a cell was counted")

    monkeypatch.setattr("antipow.calculus._cell_ones", no_count)
    monkeypatch.setattr("antipow.calculus.differing_orders", no_count)
    code, out, err = run(capsys, "delta", "--instructions", "(+)", "--l", "0", *flags)
    assert code == 2 and out == ""
    assert "64 * MAX_COMBINED_BITS" in err and str(64 * 2**20) in err


def test_delta_missing_geometry_exits_2(capsys):
    code, _, _ = run(capsys, "delta", "--instructions", "(+)", "--l", "0")
    assert code == 2


def test_delta_mode_errors_name_the_flags(capsys):
    code, _, err = run(capsys, "delta", "--instructions", "(+)", "--l", "0", "--n", "14", "--d", "2")
    assert code == 2 and "unused --d" in err
    code, _, err = run(
        capsys, "delta", "--instructions", "(+)", "--l", "0", "--m", "2", "--l2", "6", "--d2", "2"
    )
    assert code == 2 and "missing --d --r" in err


def test_output_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "word.txt"
    code, out, _ = run(capsys, "generate", "sierpinski", "--length", "10", "--output", str(path))
    assert code == 0 and out == ""
    assert path.read_text() == "ababbbabab\n"


def test_unwritable_output_exits_2(tmp_path, capsys):
    path = tmp_path / "no-such-directory" / "word.txt"
    code, out, err = run(capsys, "generate", "sierpinski", "--length", "5", "--output", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(path) in err
    assert not path.exists()


def test_byte_identical_reruns(capsys):
    args = ("scan", "paperfolding", "(+)", "--length", "256", "--order", "2",
            "--kind", "abelian-antipower")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_usage_error_unknown_command(capsys):
    assert main(["frobnicate"]) == 2


def test_no_command_exits_2(capsys):
    code, out, err = run(capsys)
    assert code == 2 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("command", [None, *COMMANDS])
def test_help_prints_the_usage_from_the_command_table(capsys, command, flag):
    code, out, err = run(capsys, *([flag] if command is None else [command, flag]))
    assert code == 0 and err == ""
    if command is None:
        assert out.startswith("usage: antipow COMMAND")
        assert all(f"  {name}  " in out for name in COMMANDS)
    else:
        assert out.startswith(f"usage: antipow {command} ")
        assert all(f"--{name}" in out for name in [*COMMANDS[command].flags, "output"])


HELP_SHA256 = {
    "program": "d823ca50e502f9aa731a6b6d4be3779452295010f1907ea5636aa2169caf0c88",
    "generate": "dcf6ed52bb2fe84bac8fd48623f48ace38cb231bb0f3a58e0c402c1d5f32c6e2",
    "complexity": "784adcca1ba3e3189443236c4fe8ae6a7b0ee34dc6d2295bb8fff0577fa32059",
    "scan": "9c981e5e7ecad6fb15093a10098ebd49568595a84230dc3a5e92fbbcfbe713d3",
    "construct": "c9c2db4e0ecc66d939fec8e853612af6e032633c00130ea3378d7ce80a37f7a4",
    "delta": "6ab2a3f78ca612af363d5184077346f82a75025191907b9c6100b9019e22f302",
}


@pytest.mark.parametrize("command", HELP_SHA256)
def test_help_text_is_pinned(capsys, command):
    code, out, _ = run(capsys, *([] if command == "program" else [command]), "--help")
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == HELP_SHA256[command]


def _equals_form(argv: tuple[str, ...]) -> list[str]:
    """argv with each `--flag value` pair written `--flag=value`."""
    joined, tokens = [], iter(argv)
    for token in tokens:
        joined.append(f"{token}={next(tokens)}" if token.startswith("--") and token != "--avoidance"
                      else token)
    return joined


@pytest.mark.parametrize("argv", [
    ("construct", "--instructions", "(+)", "--order", "3"),
    ("scan", "sierpinski", "--length", "100", "--order", "3", "--kind", "antipower", "--avoidance",
     "--format", "text"),
    ("scan", "paperfolding", "(+)", "--length", "64", "--order", "2", "--kind", "abelian-antipower",
     "--d-max", "4"),
    ("complexity", "paperfolding", "(-+)", "--max-n", "10", "--kind", "factor", "--format", "json"),
    ("delta", "--instructions", "(+)", "--l", "0", "--d", "2", "--m", "2", "--format", "json"),
], ids=" ".join)
def test_flag_value_forms_give_the_same_output(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out
    assert run(capsys, *_equals_form(argv)) == (0, out, "")


def test_double_dash_ends_the_flags(capsys):
    expected = str(toeplitz_paperfolding_prefix(InstructionSequence.parse("-(+)"), 16)) + "\n"
    assert run(capsys, "generate", "--length", "16", "--", "paperfolding", "-(+)") == (0, expected, "")
    code, out, err = run(capsys, "generate", "paperfolding", "-(+)", "--length", "16")
    assert code == 2 and out == "" and "-(+)" in err


def test_negative_numbers_are_values(capsys):
    # they reach the command, which refuses them, rather than read as flags
    code, out, err = run(capsys, "construct", "--instructions", "(+)", "--order", "-3")
    assert code == 2 and out == "" and "order must be >= 2" in err


USAGE_ERRORS = [
    (("construct", "--instructions", "(+)"), "--order"),
    (("construct", "--instructions", "(+)", "--order", "two"), "--order"),
    (("construct", "--instructions", "-(+)", "--order", "3"), "--instructions"),
    (("scan", "sierpinski", "--length", "100", "--order", "3", "--kind", "cube"), "--kind"),
    (("scan", "cantor", "--length", "100", "--order", "3", "--kind", "power"), "cantor"),
    (("generate", "sierpinski", "--length", "4", "--order", "2"), "--order"),
    (("construct", "--instructions", "(+)", "--order", "2", "extra"), "extra"),
    (("generate", "sierpinski", "(+)", "extra", "--length", "4"), "extra"),
    (("generate", "sierpinski", "--length"), "--length"),
    (("scan", "sierpinski", "--length", "100", "--order", "3", "--kind", "antipower",
      "--avoidance=1"), "--avoidance"),
]


@pytest.mark.parametrize("argv, named", USAGE_ERRORS, ids=[" ".join(a) for a, _ in USAGE_ERRORS])
def test_usage_errors_exit_2_naming_the_flag_or_token(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and named in err


SCAN = ("scan", "sierpinski", "--length", "100", "--order", "3", "--kind", "antipower")
DELTA = ("delta", "--instructions", "(+)", "--l", "0")


@pytest.mark.parametrize(
    "argv",
    [
        ("generate", "sierpinski", "--length", "4", "--format", "json"),
        ("construct", "--instructions", "(+)", "--order", "2", "--format", "csv"),
        SCAN + ("--format", "csv"),
        ("complexity", "sierpinski", "--max-n", "3", "--format", "text"),
        DELTA + ("--d", "2", "--m", "2", "--format", "csv"),
        ("generate", "paperfolding", "--instructions", "(+)", "--length", "4"),
        DELTA + ("--combine", "--d", "2", "--m", "2", "--l2", "6", "--d2", "2", "--r", "4"),
        DELTA + ("--n", "14", "--d", "2", "--m", "2"),
        DELTA + ("--d", "2", "--m", "2", "--l2", "6"),
    ],
    ids=" ".join,
)
def test_unread_option_exits_2(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 2 and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("complexity", "sierpinski", "--max-n", "2", "--form", "json"),
        ("construct", "--instr", "(+)", "--order", "2"),
        ("scan", "paperfolding", "(+)", "--length", "64", "--order", "2", "--kind", "antipower",
         "--d", "1"),
    ],
    ids=" ".join,
)
def test_abbreviated_option_exits_2(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 2 and out == ""


OUT_OF_RANGE = [
    (("generate", "thue-morse", "--length", "0"), "length must be >= 1"),
    (("complexity", "thue-morse", "--max-n", "0"), "--max-n must be >= 1"),
    (("complexity", "paperfolding", "(+)", "--max-n", "5", "--length", "3"),
     "--max-n exceeds the generated prefix length"),
    (("delta", "--instructions", "(+)", "--l", "20", "--n", "14"), "empty interval (20, 14)"),
    (("scan", "sierpinski", "--length", "100", "--order", "3", "--kind", "antipower",
      "--d-max", "0"), "d_max must be >= 1"),
    (("delta", "--instructions", "(+)", "--l", "0", "--d", "2", "--m", "4000000"),
     "over the budget of 67108864 bits (64 * 2^20, 64 * MAX_COMBINED_BITS)"),
    (("delta", "--instructions", "(+)", "--l", "0", "--d", "2", "--m", "4000000",
      "--l2", "0", "--d2", "2", "--r", "30"),
     "over the budget of 67108864 bits (64 * 2^20, 64 * MAX_COMBINED_BITS)"),
]


@pytest.mark.parametrize("argv, message", OUT_OF_RANGE,
                         ids=[" ".join(argv) for argv, _ in OUT_OF_RANGE])
def test_out_of_range_values_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and message in err


def test_readme_cli_examples_run(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0].splitlines()
    assert lines and all(line.startswith("antipow ") for line in lines)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
