"""In-memory spans and counters around the calls between antipow's layers.

`Tracer.install()` replaces module attributes of `antipow` with timing and
counting wrappers: the names `antipow.cli` imports from the layers below,
the module-level helpers `construct_antipower` looks up in
`antipow.calculus`, and the `FiniteWord.cum_counts` cached property.
`Tracer.uninstall()` puts the originals back. No file of the package
changes.

A span is (name, start, end, parent span index, query id). A layer's self
time is the time its spans cover minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter

import antipow.calculus
import antipow.cli
from antipow import FiniteWord

# span name -> per-layer metric holding its self time
SPAN_METRICS = {
    "cli.main": "cli.self_s",
    "words.prefix": "words.prefix_s",
    "words.cum_counts": "words.cum_counts_s",
    "abelian.table": "abelian.table_s",
    "abelian.window": "abelian.window_s",
    "scan.avoidance": "scan.avoidance_s",
    "scan.find_first": "scan.find_first_s",
    "calculus.seed": "calculus.seed_s",
    "calculus.delta_vector": "calculus.delta_vector_s",
    "calculus.additivity": "calculus.additivity_s",
    "calculus.verify": "calculus.verify_s",
    "calculus.construct": "calculus.construct_self_s",
}

# counter -> unit
COUNT_UNITS = {
    "cli.out_bytes": "bytes",
    "words.letters": "count",
    "words.letter_oracle_calls": "count",
    "abelian.windows": "count",
    "scan.widths": "count",
    "scan.splits": "count",
    "calculus.delta_vector_calls": "count",
    "calculus.additivity_steps": "count",
    "calculus.epsilon_calls": "count",
    "calculus.residue_calls": "count",
    "calculus.max_start_bits": "bits",
}


def _splits(length: int, m: int, widths: int) -> int:
    """Sum over d = 1..widths of the length - m*d + 1 split starts."""
    return widths * (length + 1) - m * widths * (widths + 1) // 2


def _count_words(counts, args, kwargs, word) -> None:
    counts["words.letters"] += len(word)


def _count_windows(counts, args, kwargs, result) -> None:
    w, n = args[0], args[1]
    counts["abelian.windows"] += len(w) - n + 1


def _count_table(counts, args, kwargs, result) -> None:
    w, max_n = args[0], args[2]
    counts["abelian.windows"] += max_n * (len(w) + 1) - max_n * (max_n + 1) // 2


def _count_find_first(counts, args, kwargs, result) -> None:
    w, m = args[0], args[1]
    widths = len(w) // m
    if kwargs.get("d_max") is not None:
        widths = min(widths, kwargs["d_max"])
    counts["scan.widths"] += widths
    counts["scan.splits"] += _splits(len(w), m, widths)


def _count_avoidance(counts, args, kwargs, result) -> None:
    w, m = args[0], args[1]
    counts["scan.widths"] += len(w) // m
    counts["scan.splits"] += _splits(len(w), m, len(w) // m)


def _count_delta_vector(counts, args, kwargs, result) -> None:
    counts["calculus.delta_vector_calls"] += 1


def _count_additivity(counts, args, kwargs, result) -> None:
    counts["calculus.additivity_steps"] += 1


def _count_construct(counts, args, kwargs, cert) -> None:
    bits = cert.start.bit_length()
    counts["calculus.max_start_bits"] = max(counts["calculus.max_start_bits"], bits)


# (module, attribute, span name, counter update or None)
TIMED = (
    (antipow.cli, "sierpinski_prefix", "words.prefix", _count_words),
    (antipow.cli, "morphism_prefix", "words.prefix", _count_words),
    (antipow.cli, "toeplitz_paperfolding_prefix", "words.prefix", _count_words),
    (antipow.cli, "abelian_complexity", "abelian.window", _count_windows),
    (antipow.cli, "factor_complexity", "abelian.window", _count_windows),
    (antipow.cli, "complexity_table", "abelian.table", _count_table),
    (antipow.cli, "find_first", "scan.find_first", _count_find_first),
    (antipow.cli, "avoidance_scan", "scan.avoidance", _count_avoidance),
    (antipow.cli, "construct_antipower", "calculus.construct", _count_construct),
    (antipow.calculus, "find_seed_block", "calculus.seed", None),
    (antipow.calculus, "delta_vector", "calculus.delta_vector", _count_delta_vector),
    (antipow.calculus, "additivity_combine", "calculus.additivity", _count_additivity),
    (antipow.calculus, "verify_certificate", "calculus.verify", None),
)

# (module, attribute, counter): call counts only, for functions called
# hundreds of thousands of times
COUNTED = (
    (antipow.calculus, "epsilon", "calculus.epsilon_calls"),
    (antipow.calculus, "ones_of_order_in_interval", "calculus.residue_calls"),
    (antipow.calculus, "paperfolding_letter", "words.letter_oracle_calls"),
)


class Tracer:
    """Spans of a whole run, and counts since the last `install()`."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, query]
        self.counts: Counter = Counter()
        self._cells: dict[str, list[int]] = {}
        self.query: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name and return its result."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, perf_counter(), None, parent, self.query]
        self.spans.append(record)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def _timed(self, name: str, fn, update):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if update is not None:
                update(self.counts, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        cell = self._cells.setdefault(name, [0])  # cheaper than a Counter update

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap the layer boundaries and start counting from zero."""
        self.counts = Counter()
        self._cells = {}
        for module, attr, name, update in TIMED:
            self._replace(module, attr, self._timed(name, getattr(module, attr), update))
        for module, attr, name in COUNTED:
            self._replace(module, attr, self._counted(name, getattr(module, attr)))
        cum_counts = functools.cached_property(
            self._timed("words.cum_counts", FiniteWord.__dict__["cum_counts"].func, None)
        )
        cum_counts.__set_name__(FiniteWord, "cum_counts")
        self._replace(FiniteWord, "cum_counts", cum_counts)

    def uninstall(self) -> None:
        """Put the originals back; `counts` then holds everything counted."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        for name, cell in self._cells.items():
            self.counts[name] += cell[0]
        self._cells = {}

    def write(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, query in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "query": query}) + "\n")


def self_times(spans: list[dict], queries: set[int]) -> dict[str, float]:
    """Self time per span name, summed over the spans of the given queries."""
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out = defaultdict(float)
    for i, s in enumerate(spans):
        if s["query"] in queries:
            out[s["name"]] += s["end"] - s["start"] - child_time[i]
    return out


def read_spans(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]
