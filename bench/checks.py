"""Answer checks for benchmark queries, run in the harness process only.

A query's answer is wrong when its stdout differs from the pinned sha256, or
when its content fails a check that does not trust the code path that made
it: certificates are re-verified by per-order residue counting and, when
small enough, against a materialized Toeplitz prefix; scan hits are
re-classified on a materialized prefix with `classify_block`.
"""

from __future__ import annotations

import hashlib
import json
import sys
from contextlib import contextmanager

from antipow import (
    AntipowerCertificate,
    BlockSplit,
    InstructionSequence,
    THUE_MORSE_MORPHISM,
    classify_block,
    morphism_prefix,
    ones_of_order_in_interval,
    sierpinski_prefix,
    toeplitz_paperfolding_prefix,
    verify_certificate,
)

# Certificates ending at or below this position are also checked letter by letter.
MATERIALIZE_LIMIT = 1 << 20


@contextmanager
def int_digit_limit(limit: int):
    """Set Python's integer-to-string digit limit (0: none) for this process
    within the block.

    Certificates carry coordinates of thousands of digits, so the checks
    lift the limit; the measured CLI keeps the interpreter's default.
    """
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _option(argv: tuple[str, ...], name: str) -> str | None:
    for i, arg in enumerate(argv):
        if arg == name:
            return argv[i + 1]
        if arg.startswith(name + "="):
            return arg[len(name) + 1 :]
    return None


def check_answer(argv: tuple[str, ...], pin: str | None, stdout: bytes) -> str | None:
    """Why the stdout of a query that exited 0 is wrong, or None if it is right."""
    if pin is not None and sha256(stdout) != pin:
        return "stdout differs from its pinned sha256"
    if argv[0] == "construct":
        return _check_certificate(argv, stdout)
    if argv[0] == "scan":
        return _check_scan_hit(argv, stdout)
    return None


def _check_certificate(argv: tuple[str, ...], stdout: bytes) -> str | None:
    b = InstructionSequence.parse(_option(argv, "--instructions"))
    m = int(_option(argv, "--order"))
    with int_digit_limit(0):
        try:
            cert = AntipowerCertificate.from_json(stdout.decode())
        except (ValueError, KeyError, TypeError) as exc:
            return f"unparsable certificate: {exc}"
        if cert.instructions != b or cert.m != m or not cert.verified:
            return "certificate does not answer the query"
        d = cert.cell_width
        cells = [(cert.start + t * d, cert.start + (t + 1) * d) for t in range(m)]
        try:
            if not verify_certificate(b, cert):
                return "verify_certificate rejects the certificate"
            recount = tuple(
                sum(ones_of_order_in_interval(b, k, a, n) for k in range(n.bit_length()))
                for a, n in cells
            )
        except ValueError as exc:  # a negative start or an empty cell
            return f"certificate has no valid cells: {exc}"
        if recount != cert.cell_one_counts or len(set(recount)) != m:
            return "per-order recount disagrees with the certificate"
        end = cells[-1][1]
        if end <= MATERIALIZE_LIMIT:
            w = toeplitz_paperfolding_prefix(b, end)
            flags = classify_block(w, BlockSplit(cert.start + 1, d, m))
            if not flags.is_abelian_antipower or tuple(sum(w.data[a:n]) for a, n in cells) != recount:
                return "materialized prefix disagrees with the certificate"
    return None


def _word(argv: tuple[str, ...]):
    length = int(_option(argv, "--length"))
    if argv[1] == "sierpinski":
        return sierpinski_prefix(length)
    if argv[1] == "thue-morse":
        return morphism_prefix(THUE_MORSE_MORPHISM, "0", length)
    instructions = _option(argv, "--instructions") or argv[2]
    return toeplitz_paperfolding_prefix(InstructionSequence.parse(instructions), length)


def _check_scan_hit(argv: tuple[str, ...], stdout: bytes) -> str | None:
    text = stdout.decode()
    if text in ("none\n", "none found: avoidance verified\n"):
        return None  # absence is covered by the pin alone
    kind = _option(argv, "--kind").replace("-", "_")
    m = int(_option(argv, "--order"))
    try:
        hit = json.loads(text)
        if hit["kind"] != kind or hit["m"] != m:
            return "scan hit does not answer the query"
        split = BlockSplit(hit["start"], hit["d"], m)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparsable scan hit: {exc!r}"
    w = _word(argv)
    if split.end > len(w):
        return "scan hit runs past the scanned prefix"
    if not getattr(classify_block(w, split), "is_" + kind):
        return f"classify_block finds no {kind} at the reported split"
    return None
