import hashlib
import sys

import pytest

from antipow import (
    AntipowerCertificate,
    InstructionSequence,
    REGULAR,
    construct_antipower,
    delta_vector,
    ones_of_order_in_interval,
    verify_certificate,
)
from conftest import materialized

ALT = InstructionSequence.parse("(-+)")


def test_construct_regular_order_two():
    cert = construct_antipower(REGULAR, 2)
    assert cert.verified
    assert (cert.start, cert.cell_width) == (100, 34)
    assert cert.cell_one_counts == (17, 16)
    assert cert.alpha == (1, 1)
    # independent count on the materialized word
    w = materialized(REGULAR, cert.start + 2 * cert.cell_width)
    for t, expected in enumerate(cert.cell_one_counts):
        cell = w.data[cert.start + t * cert.cell_width : cert.start + (t + 1) * cert.cell_width]
        assert sum(cell) == expected


def test_construct_rejects_order_below_two():
    with pytest.raises(ValueError):
        construct_antipower(REGULAR, 1)


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("text", ["(+)", "(-+)", "+-(-)"])
def test_construct_small_orders_all_sequences(text, m):
    b = InstructionSequence.parse(text)
    cert = construct_antipower(b, m)
    assert cert.verified
    assert cert.m == m
    assert 2**cert.k >= m > 2 ** (cert.k - 1)
    assert cert.u == len(b.preperiod) + 1
    assert len(set(cert.cell_one_counts)) == m
    # cell counts recomputed independently of the certificate fields
    for t, stored in enumerate(cert.cell_one_counts):
        a = cert.start + t * cert.cell_width
        n = cert.start + (t + 1) * cert.cell_width
        recomputed = sum(
            ones_of_order_in_interval(b, k, a, n) for k in range(n.bit_length())
        )
        assert recomputed == stored


def test_certificate_counts_follow_delta_decomposition():
    cert = construct_antipower(REGULAR, 3)
    baseline = sum(cert.cell_width >> (k + 2) for k in range(cert.cell_width.bit_length()))
    deltas = delta_vector(REGULAR, cert.start, cert.cell_width, cert.m).components
    assert cert.cell_one_counts == tuple(baseline + x for x in deltas)


def test_verify_rejects_mutated_cell_width():
    cert = construct_antipower(REGULAR, 2)
    mutated = cert._replace(cell_width=cert.cell_width + 1)
    assert not verify_certificate(REGULAR, mutated)
    # the mutation provably breaks the stored counts on the materialized word
    w = materialized(REGULAR, mutated.start + 2 * mutated.cell_width)
    actual = tuple(
        sum(w.data[mutated.start + t * mutated.cell_width : mutated.start + (t + 1) * mutated.cell_width])
        for t in range(2)
    )
    assert actual != mutated.cell_one_counts


def test_verify_rejects_mutated_counts():
    cert = construct_antipower(ALT, 2)
    counts = (cert.cell_one_counts[0], cert.cell_one_counts[0])
    assert not verify_certificate(ALT, cert._replace(cell_one_counts=counts))


@pytest.mark.parametrize("field, value", [("start", -1), ("cell_width", 0)])
def test_verify_rejects_impossible_geometry(field, value):
    cert = construct_antipower(REGULAR, 2)
    with pytest.raises(ValueError):
        verify_certificate(REGULAR, cert._replace(**{field: value}))


def test_verify_single_cell_certificate_is_vacuous():
    cert = construct_antipower(REGULAR, 2)
    single = cert._replace(m=1, cell_one_counts=cert.cell_one_counts[:1])
    assert verify_certificate(REGULAR, single)


def test_certificate_json_round_trip():
    cert = construct_antipower(ALT, 3)
    again = AntipowerCertificate.from_json(cert.to_json())
    assert again == cert


def test_certificate_json_round_trip_without_digit_limit(monkeypatch):
    # interpreters before 3.10.7 have no digit limit and no setter for it
    monkeypatch.delattr(sys, "set_int_max_str_digits")
    cert = construct_antipower(REGULAR, 4)
    assert AntipowerCertificate.from_json(cert.to_json()) == cert


def test_certificate_json_uses_decimal_strings():
    import json

    cert = construct_antipower(REGULAR, 4)
    raw = json.loads(cert.to_json())
    assert isinstance(raw["start"], str) and isinstance(raw["cell_width"], str)
    assert all(isinstance(c, str) for c in raw["cell_one_counts"])
    assert raw["verified"] is True


def test_construct_succeeds_for_random_instruction_sequences():
    import random

    rng = random.Random(1234)
    for _ in range(5):
        pre = tuple(rng.choice((1, -1)) for _ in range(rng.randint(0, 3)))
        per = tuple(rng.choice((1, -1)) for _ in range(rng.randint(1, 4)))
        b = InstructionSequence(pre, per)
        for m in (2, 3):
            cert = construct_antipower(b, m)
            assert cert.verified, (str(b), m)
            assert not verify_certificate(
                b, cert._replace(cell_width=cert.cell_width + 2)
            )


PINNED = ("(+)", "(-+)", "+-(-)", "-(+--)", "(-)", "++(+-)", "-+-(+-+-)")


def test_certificates_of_seven_sequences_at_orders_2_to_8_are_pinned():
    digest = hashlib.sha256()
    for text in PINNED:
        for m in range(2, 9):
            digest.update(construct_antipower(InstructionSequence.parse(text), m).to_json().encode())
    assert digest.hexdigest() == "801677e7af07082f01a49dadd1e2bd7ed23999ff12138f32046cf548841a8b58"


@pytest.mark.parametrize("text", PINNED)
def test_the_bit_budget_admits_a_span_of_exactly_its_bits(monkeypatch, text):
    b = InstructionSequence.parse(text)
    for m in range(2, 9):
        cert = construct_antipower(b, m)
        span = (cert.start + (cert.cell_width << cert.k)).bit_length()
        monkeypatch.setattr("antipow.calculus.MAX_COMBINED_BITS", span)
        assert construct_antipower(b, m) == cert
        monkeypatch.setattr("antipow.calculus.MAX_COMBINED_BITS", span - 1)
        with pytest.raises(ValueError, match="MAX_COMBINED_BITS") as info:
            construct_antipower(b, m)
        assert info.traceback[-1].name == "_shift_schedule"
        monkeypatch.undo()
