"""The benchmark's workloads: fixed lists of `antipow` CLI queries.

Each query is an argv for `python -m antipow.cli`. `pin` is the sha256 of
the query's stdout as recorded when the benchmark was defined; a query whose
stdout depends on the seed, or that had no stdout then, carries no pin and is
checked by `checks.check_answer` alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Query:
    argv: tuple[str, ...]
    pin: str | None = None

    def __str__(self) -> str:
        return " ".join(self.argv)


def _construct(instructions: str, order: int) -> tuple[str, ...]:
    # the `=` form keeps argparse from reading a leading '-' as an option
    return ("construct", f"--instructions={instructions}", "--order", str(order))


# A CLI call that does no work: interpreter start, `import antipow` and argparse.
PROBE = ("delta", "--instructions", "(+)", "--l", "0", "--n", "14")

FIXED: dict[str, tuple[tuple[str, ...], ...]] = {
    "synth": (
        _construct("(+)", 2),
        _construct("(+)", 3),
        _construct("(+)", 4),
        _construct("(+)", 8),
        _construct("(-+)", 3),
        _construct("(-+)", 4),
        _construct("(-+)", 8),
        _construct("+-(-)", 4),
        _construct("-(+--)", 4),
    ),
    "scan": (
        ("scan", "sierpinski", "--length", "19683", "--order", "11", "--kind", "antipower", "--avoidance"),
        ("scan", "sierpinski", "--length", "19683", "--order", "11", "--kind", "abelian-antipower", "--avoidance"),
        ("scan", "thue-morse", "--length", "16384", "--order", "3", "--kind", "power", "--avoidance"),
        ("scan", "paperfolding", "(+)", "--length", "16384", "--order", "4", "--kind", "abelian-antipower"),
    ),
    "tables": (
        ("complexity", "thue-morse", "--max-n", "10000", "--length", "16384"),
        ("complexity", "paperfolding", "(+)", "--kind", "factor", "--max-n", "64", "--length", "65536"),
        ("complexity", "thue-morse", "--kind", "factor", "--max-n", "256", "--length", "65536"),
        ("complexity", "sierpinski", "--max-n", "2187"),
        ("generate", "paperfolding", "(+)", "--length", "2097152"),
    ),
}

# sha256 of stdout per query. The two m = 8 `construct` queries have none: at
# the commit that defined the benchmark they exit 2 without output, because
# the 19,679-bit start exceeds Python's default integer-to-string digit limit.
PINS: dict[str, str] = {
    "delta --instructions (+) --l 0 --n 14": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "construct --instructions=(+) --order 2": "3c05a435a4c4b22df1e3477824c5be45f916632357c32fd8c52fa5ef3a5fb2d2",
    "construct --instructions=(+) --order 3": "d45d665464eeb03b6fdbb0572bfabd9d5c0925bc466bc9fc2d7fe5c825ede50d",
    "construct --instructions=(+) --order 4": "2cbb6380b7bb165facaba30ad9129dd47bf63bcefab01fcc95f5d01412b06d5a",
    "construct --instructions=(-+) --order 3": "a5c061154c238c37cf563fbdadeccc068f9efd06f597da6aa882daf76e007980",
    "construct --instructions=(-+) --order 4": "c972f5d8ccabeb9260eea66abf8a454f414c2b0dafcb8d8793efad3c646fbe6d",
    "construct --instructions=+-(-) --order 4": "f34a83374697242b2b1386f25d5028464724896d0c9b36ade2d28255b07d6a0f",
    "construct --instructions=-(+--) --order 4": "1c3d0eab4a18402a1ef67f850ed829c2f1ab124c75ef1c246b00f912788f96f1",
    "scan sierpinski --length 19683 --order 11 --kind antipower --avoidance": "c9a38d7374b7a6dc23772831be68256f4f925bce24dafe42a86035cba3c6c6ab",
    "scan sierpinski --length 19683 --order 11 --kind abelian-antipower --avoidance": "c9a38d7374b7a6dc23772831be68256f4f925bce24dafe42a86035cba3c6c6ab",
    "scan thue-morse --length 16384 --order 3 --kind power --avoidance": "c9a38d7374b7a6dc23772831be68256f4f925bce24dafe42a86035cba3c6c6ab",
    "scan paperfolding (+) --length 16384 --order 4 --kind abelian-antipower": "77ed938e0af45214d16b1440f24707873c756cad568d494003d0d191bdd9182e",
    "complexity thue-morse --max-n 10000 --length 16384": "9f13bbd65e59f9f9e46ca9b9301af8d541d231ca86cfce9a39ff06ff45b6a1b1",
    "complexity paperfolding (+) --kind factor --max-n 64 --length 65536": "630dd37ef651a4548d52c9e03a5a7a2029df9dca972486952f721d386eb9c19a",
    "complexity thue-morse --kind factor --max-n 256 --length 65536": "e998e0566955361c28de3e53e2b01ef593d43d781c7cf911797bc9e0aeaf9bae",
    "complexity sierpinski --max-n 2187": "aaaaade2d79a822d02613f0d39c1264e7b03fe42a99692f1a1e1cf19526a1723",
    "generate paperfolding (+) --length 2097152": "a3c3bbcd5fa3755200f9bbfdd980004a05295c1de37e9235d2e1a7564b2a9f34",
}


def random_instructions(rng: random.Random) -> str:
    """An instruction string with preperiod length 0..3 and period length 1..4."""
    signs = lambda n: "".join(rng.choice("+-") for _ in range(n))
    return f"{signs(rng.randint(0, 3))}({signs(rng.randint(1, 4))})"


def queries(workload: str, rng: random.Random) -> list[Query]:
    """The workload's queries; `synth` adds two seeded instruction sequences."""
    argvs = list(FIXED[workload])
    if workload == "synth":
        argvs += [_construct(random_instructions(rng), 3), _construct(random_instructions(rng), 4)]
    return [Query(argv, PINS.get(" ".join(argv))) for argv in argvs]


def probe() -> Query:
    return Query(PROBE, PINS.get(" ".join(PROBE)))
