"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Criterion 5 bounds the Sierpinski abelian complexity a(n) through the
prefix a-count: (n/2)^log3(2) <= a(n) - 1 <= n^log3(2), with the upper side
met exactly at n = 3^k and the lower side exactly at n = 2 * 3^k. The bound
applies to a(n) - 1 = |s[1..n]|_a because the word is prefix normal in 'a'
(criterion 6) and holds arbitrarily long runs of 'b': the a-counts of its
length-n factors fill the whole range 0..|s[1..n]|_a.
"""

import math
import random

from antipow import (
    InstructionSequence,
    REGULAR,
    abelian_complexity,
    additivity_combine,
    avoidance_scan,
    characterize_split,
    choose_r,
    classify_block,
    construct_antipower,
    cyclic_shift_spectrum,
    delta_interval,
    delta_vector,
    differing_orders,
    epsilon,
    factor_complexity,
    find_first,
    is_prefix_normal,
    morphism_prefix,
    ones_of_order_in_interval,
    order_shift_check,
    paperfolding_letter,
    sierpinski_prefix,
    toeplitz_paperfolding_prefix,
    THUE_MORSE_MORPHISM,
)
from antipow.abelian import _sierpinski_abelian
from antipow.scan import BlockSplit
from antipow.cli import main
from conftest import brute_delta_vector, materialized

ALT = InstructionSequence.parse("(-+)")
PREPERIODIC = InstructionSequence.parse("+-(-)")


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {number:02d} {status}: {description}"
    if detail and not ok:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def test_criterion_01_exact_prefixes(capsys):
    code_s = main(["generate", "sierpinski", "--length", "10"])
    out_s = capsys.readouterr().out
    code_p = main(["generate", "paperfolding", "(+)", "--length", "32"])
    out_p = capsys.readouterr().out
    ok = (
        code_s == 0
        and out_s == "ababbbabab\n"
        and code_p == 0
        and out_p == "00100110001101100010011100110110\n"
    )
    with capsys.disabled():
        report(1, "displayed prefixes are byte-exact via the CLI", ok)


def test_criterion_02_toeplitz_vs_letter_oracle():
    rng = random.Random(2024)
    n = 2**16
    mismatches = 0
    for _ in range(20):
        pre = tuple(rng.choice((1, -1)) for _ in range(rng.randint(0, 4)))
        per = tuple(rng.choice((1, -1)) for _ in range(rng.randint(1, 5)))
        b = InstructionSequence(pre, per)
        w = toeplitz_paperfolding_prefix(b, n)
        data = w.data
        mismatches += sum(
            1 for i in range(n) if paperfolding_letter(b, i + 1) != data[i]
        )
    report(2, "Toeplitz filling and letter oracle agree on 20 random sequences x 2^16 letters",
           mismatches == 0, f"{mismatches} mismatches")


def test_criterion_03_worked_delta_example():
    breakdown = tuple(epsilon(REGULAR, k, 1, 0, 14) for k in range(3))
    total = delta_interval(REGULAR, 0, 14)
    report(3, "delta(0,14) = 2 with excess breakdown (0,1,1) on the regular word",
           breakdown == (0, 1, 1) and total == 2, f"got {breakdown}, {total}")


def test_criterion_04_sierpinski_avoidance():
    w = sierpinski_prefix(3**9)
    plain = avoidance_scan(w, 11, "antipower")
    abelian = avoidance_scan(w, 11, "abelian_antipower")
    report(4, "no 11-antipower (hence no abelian one) in the Sierpinski prefix 3^9",
           plain and abelian)


def _sierpinski_complexity(n: int, big) -> int:
    e = 0
    while 3**e < n:
        e += 1
    return abelian_complexity(big.prefix(3 ** (e + 1)), n)


def test_criterion_05_sierpinski_complexity_extremes():
    big = sierpinski_prefix(3**8)
    ok = all(
        _sierpinski_complexity(3**k, big) == 2**k + 1 for k in range(8)
    )
    report(5, "Sierpinski abelian complexity hits 2^k + 1 at n = 3^k, k = 0..7", ok)


def test_criterion_05_sierpinski_bounds_as_stated():
    # The two-sided bound describes the a-count of the prefix, a(n) - 1, not
    # a(n) itself: a(n) = 1 + |s[1..n]|_a because the word is prefix normal in
    # 'a' and holds arbitrarily long runs of 'b'. Applied to a(n) the bound is
    # false already at n = 1, where a(1) = 2 > 1. Both sides are tight: the
    # upper one is met exactly at n = 3^k and the lower one exactly at
    # n = 2 * 3^k, where the prefix a-count is 2^k.
    big = sierpinski_prefix(3**8)
    exponent = math.log(2) / math.log(3)
    tol = 1e-9
    violations = []
    upper_hits = set()
    lower_hits = set()
    for n in range(1, 3**7 + 1):
        value = _sierpinski_complexity(n, big) - 1
        upper = n**exponent
        lower = upper / 2**exponent
        if not (lower * (1 - tol) <= value <= upper * (1 + tol)):
            violations.append((n, value, lower, upper))
        if abs(value - upper) <= tol * upper:
            upper_hits.add(n)
        if abs(value - lower) <= tol * lower:
            lower_hits.add(n)
    expected_upper = {3**k for k in range(8)}
    expected_lower = {2 * 3**k for k in range(7)}
    if violations:
        detail = (f"{len(violations)} violations, first: n={violations[0][0]} "
                  f"a(n)-1={violations[0][1]} "
                  f"bounds=({violations[0][2]:.6f}, {violations[0][3]:.6f})")
    else:
        detail = (f"upper equality at {sorted(upper_hits)}, "
                  f"lower equality at {sorted(lower_hits)}")
    report(5, "(n/2)^log3(2) <= a(n) - 1 <= n^log3(2) for n <= 3^7, with equality "
              "exactly at n = 3^k (upper) and n = 2*3^k (lower)",
           not violations and upper_hits == expected_upper and lower_hits == expected_lower,
           detail)


def test_criterion_05_sierpinski_bounds_at_scale():
    # the closed form of a(n) = 1 + |s[1..n]|_a reads no prefix, so the
    # equality cases n = 3^k (upper side) and n = 2 * 3^k (lower side) are
    # checked up to k = 40, where a prefix holding them would have 3^41 letters
    exponent = math.log(2) / math.log(3)
    tol = 1e-9
    bad = []
    for k in range(41):
        for n in (3**k, 2 * 3**k):
            value = _sierpinski_abelian(n) - 1
            lower, upper = (n / 2) ** exponent, n**exponent
            if value != 2**k or not lower * (1 - tol) <= value <= upper * (1 + tol):
                bad.append((n, value))
    report(5, "a(n) - 1 = 2^k at n = 3^k and n = 2*3^k for k <= 40, inside "
              "(n/2)^log3(2) <= a(n) - 1 <= n^log3(2)",
           not bad, f"first: n={bad[0][0]} a(n)-1={bad[0][1]}" if bad else "")


def test_criterion_06_prefix_normality():
    report(6, "Sierpinski prefix 3^8 is prefix normal with respect to 'a'",
           is_prefix_normal(sierpinski_prefix(3**8), "a"))


def test_criterion_07_thue_morse_complexity_bounded():
    w = morphism_prefix(THUE_MORSE_MORPHISM, "0", 2**14)
    worst = max(abelian_complexity(w, n) for n in range(1, 10**4 + 1))
    report(7, "Thue-Morse abelian complexity stays <= 3 for all n <= 10^4",
           worst <= 3, f"max value {worst}")


def test_criterion_08_factor_complexity_linear():
    w = toeplitz_paperfolding_prefix(REGULAR, 2**16)
    bad = [n for n in range(7, 65) if factor_complexity(w, n) != 4 * n]
    report(8, "regular word factor complexity equals 4n for n = 7..64", not bad,
           f"off at n in {bad[:5]}")


def test_criterion_09_additivity_randomized():
    rng = random.Random(909)
    failures = 0
    for b in (REGULAR, ALT):
        w = materialized(b, 2**15)
        for _ in range(100):
            m = rng.randint(1, 5)
            d = rng.randint(1, 8)
            l = rng.randint(0, 32)
            lp = 2 * rng.randint(0, 16)
            dp = 2 * rng.randint(1, 4)
            r = choose_r(b, l + m * d, differing_orders(b, lp, dp, m))
            ln, dn = additivity_combine(b, l, d, lp, dp, m, r)
            closed = delta_vector(b, ln, dn, m)
            expected = delta_vector(b, l, d, m) + delta_vector(b, lp, dp, m)
            brute = brute_delta_vector(w, ln, dn, m)
            if closed != expected or brute != expected.components:
                failures += 1
    report(9, "delta vectors add under the combined geometry (100 instances x 2 sequences, "
              "closed form and brute force)", failures == 0, f"{failures} failures")


def test_criterion_10_characterization_agreement():
    w = toeplitz_paperfolding_prefix(REGULAR, 1024)
    disagreements = 0
    for l in range(0, 513):
        for d in range(1, 17):
            for m in range(1, 9):
                flags = classify_block(w, BlockSplit(l + 1, d, m))
                label = characterize_split(REGULAR, l, d, m)
                if flags.is_abelian_power:
                    expected = "abelian_power"
                elif flags.is_abelian_antipower:
                    expected = "abelian_antipower"
                else:
                    expected = "neither"
                if label != expected:
                    disagreements += 1
    report(10, "delta characterization agrees with block classification for "
               "l <= 512, d <= 16, m <= 8", disagreements == 0, f"{disagreements} disagreements")


def test_criterion_11_cyclic_shift_spectra():
    rng = random.Random(1111)
    big = toeplitz_paperfolding_prefix(REGULAR, 2**13)
    ok = True
    for u, ns in ((1, range(3, 7)), (2, range(5, 8))):
        for n in ns:
            for _ in range(50):
                start = rng.randint(0, len(big) - 2**n)
                spectrum = cyclic_shift_spectrum(big[start : start + 2**n], u)
                if spectrum != {2 ** (n - u)}:
                    ok = False
    report(11, "random regular-word factors admit only the full block rotation "
               "(u = 1, n = 3..6 and u = 2, n = 5..7)", ok)


def test_criterion_12_order_shift_recurrence():
    rng = random.Random(1212)
    ok = True
    for b in (REGULAR, ALT, PREPERIODIC):
        for _ in range(10**4):
            i = rng.randint(1, 2**12)
            s = rng.randint(0, 6)
            if not order_shift_check(b, i, s):
                ok = False
    report(12, "letter recurrence along order classes holds for 10^4 random "
               "(i, s) pairs on three instruction sequences", ok)


def test_criterion_13_end_to_end_synthesis():
    cases = [(REGULAR, m) for m in (2, 3, 4, 5, 8)]
    cases += [(b, m) for b in (ALT, PREPERIODIC) for m in (2, 3, 4)]
    ok = True
    for b, m in cases:
        cert = construct_antipower(b, m)
        counts = [
            sum(
                ones_of_order_in_interval(
                    b, k, cert.start + t * cert.cell_width, cert.start + (t + 1) * cert.cell_width
                )
                for k in range((cert.start + (t + 1) * cert.cell_width).bit_length())
            )
            for t in range(m)
        ]
        if not cert.verified or tuple(counts) != cert.cell_one_counts or len(set(counts)) != m:
            ok = False
    report(13, "constructed certificates verify with pairwise distinct recomputed "
               "cell one-counts for all required sequences and orders", ok)


def test_criterion_14_existence_witness():
    w = toeplitz_paperfolding_prefix(REGULAR, 2**14)
    hit = find_first(w, 4, "abelian_antipower")
    ok = hit is not None
    if ok:
        flags = classify_block(w, BlockSplit(hit.start, hit.cell_width, 4))
        ok = flags.is_abelian_antipower
    report(14, "brute-force scan finds an abelian 4-antipower in the regular "
               "word prefix 2^14", ok)
