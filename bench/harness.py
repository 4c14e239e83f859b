"""Measurement loops of the antipow benchmark; README.md describes the
workloads and metrics.

`measure` times passes of CLI processes with tracing off and gives the
end-to-end metrics. `trace` runs the same queries through `antipow.cli.main`
in this process, alternating plain and traced passes, and gives the
per-layer metrics. Both run one query at a time: a closed loop with one
client.
"""

from __future__ import annotations

import gc
import io
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from random import Random
from time import perf_counter

import numpy as np

import antipow
import antipow.cli
from checks import check_answer, int_digit_limit, sha256
from tracing import COUNT_UNITS, SPAN_METRICS, Tracer, read_spans, self_times
from workloads import Query

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

QUERY_TIMEOUT_S = 60
SETUP_SAMPLES_PER_PASS = 4
# sizes of the reference work, about 80 ms for each of its two parts
REFERENCE_LOOP = 1_250_000
REFERENCE_ARRAY = 4_000_000
REFERENCE_ROUNDS = 10


@dataclass
class Outcome:
    query: Query
    wall_s: float
    exit_code: int | None  # None when the query timed out
    stdout: bytes
    maxrss_kb: int = 0
    failure: str | None = None  # why the query failed; None when it passed
    wrong: bool = False  # it exited 0 but its answer failed a check


class Judge:
    """Decides whether each outcome failed; answer checks are cached by stdout."""

    def __init__(self) -> None:
        self._verdicts: dict[tuple[tuple[str, ...], str], str | None] = {}

    def judge(self, o: Outcome) -> None:
        if o.exit_code != 0:
            o.failure = "timed out" if o.exit_code is None else f"exit code {o.exit_code}"
            return
        key = (o.query.argv, sha256(o.stdout))
        if key not in self._verdicts:
            self._verdicts[key] = check_answer(o.query.argv, o.query.pin, o.stdout)
        o.failure = self._verdicts[key]
        o.wrong = o.failure is not None


def child_env() -> dict[str, str]:
    """The harness environment with antipow's source first on the path and
    the interpreter's default integer digit limit."""
    env = dict(os.environ)
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_cli(query: Query, env: dict[str, str], out_path: Path) -> Outcome:
    """One `python -m antipow.cli` process, timed from spawn to reaping."""
    with open(out_path, "wb") as out:
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "antipow.cli", *query.argv],
            stdout=out,
            stderr=subprocess.DEVNULL,
            cwd=ROOT,
            env=env,
        )
        timer = threading.Timer(QUERY_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code == -9 and wall >= QUERY_TIMEOUT_S:
        code = None
    return Outcome(query, wall, code, out_path.read_bytes(), maxrss_kb=usage.ru_maxrss)


def _pass_order(queries: list[Query], rng: Random) -> list[Query]:
    return rng.sample(queries, len(queries))


def _more_passes(elapsed: list[float], seconds: float, minimum: int) -> bool:
    """Start another pass while the last one, with everything done around
    it, would still fit in the time."""
    return len(elapsed) < minimum or sum(elapsed) + elapsed[-1] <= seconds


def reference_s() -> float:
    """Seconds this process takes for a fixed piece of work: a pure-Python
    integer loop, then rounds of numpy passes over a fresh 32 MB array.

    The host's speed drifts by a fifth and more over minutes, which moves
    every query's wall time with it. Taken before each query, this work
    slows and speeds up with the host but never with antipow, so a pass's
    wall time divided by it is steady from run to run. The two parts take
    about the same time, as the workloads mix interpreted code with numpy.
    """
    start = perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i
    for _ in range(REFERENCE_ROUNDS):
        a = np.ones(REFERENCE_ARRAY)
        a += 1
        np.argsort(a[: REFERENCE_ARRAY // 8], kind="stable")
    return perf_counter() - start


def measure(queries: list[Query], probe: Query, seconds: float, rng: Random) -> tuple[dict, list]:
    """End-to-end metrics from passes of CLI processes, tracing off."""
    OUT.mkdir(exist_ok=True)
    env = child_env()
    judge = Judge()
    probes: list[Outcome] = []
    passes: list[list[Outcome]] = []
    walls: list[float] = []
    refs: list[float] = []
    elapsed: list[float] = []
    while _more_passes(elapsed, seconds, 1):
        start = perf_counter()
        # set-up samples are spread over the run so that they see its whole load
        probes += [run_cli(probe, env, OUT / "probe.out") for _ in range(SETUP_SAMPLES_PER_PASS)]
        outcomes = []
        for i, q in enumerate(_pass_order(queries, rng)):
            refs.append(reference_s())
            outcomes.append(run_cli(q, env, OUT / f"q{i}.out"))
        walls.append(sum(o.wall_s for o in outcomes))
        for o in probes[-SETUP_SAMPLES_PER_PASS:] + outcomes:
            judge.judge(o)
        passes.append(outcomes)
        elapsed.append(perf_counter() - start)
    # printed, not in the result: raw times follow the host's drift, and one
    # query's time swings too much between runs on a shared machine
    print(f"wall_s {statistics.median(walls):.4f} s")
    print(f"query_max_s {statistics.median(max(o.wall_s for o in p) for p in passes):.4f} s")
    print(f"reference_s {statistics.median(refs):.4f} s")
    metrics = {
        # means, not medians: a run has two to four passes, and the drift
        # cancels when both sides average over the same minutes
        "wall_ref": (statistics.mean(walls) / statistics.mean(refs), "ref"),
        "setup_s": (statistics.median(o.wall_s for o in probes), "s"),
        "peak_rss_mb": (statistics.median(max(o.maxrss_kb for o in p) / 1024 for p in passes), "MB"),
    }
    return _result(passes, walls, probes, metrics)


def _clear_caches() -> None:
    """Empty the package's memo caches, as a fresh process would have them."""
    for module in (antipow.words, antipow.abelian, antipow.scan, antipow.calculus, antipow.cli):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def run_in_process(query: Query, tracer: Tracer | None) -> Outcome:
    """One query through `antipow.cli.main`, inside a `cli.main` span when traced."""
    _clear_caches()
    gc.collect()
    out = io.StringIO()
    argv = list(query.argv)
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        with int_digit_limit(sys.int_info.default_max_str_digits):
            start = perf_counter()
            try:
                if tracer is None:
                    code = antipow.cli.main(argv)
                else:
                    code = tracer.span("cli.main", antipow.cli.main, argv)
            except Exception as exc:  # a crash fails the query, as it would the process
                print(f"{query}: {exc!r}", file=sys.__stderr__)
                code = 1
            wall = perf_counter() - start
    stdout = out.getvalue().encode()
    if tracer is not None:
        tracer.counts["cli.out_bytes"] += len(stdout)
    return Outcome(query, wall, code, stdout)


def trace(queries: list[Query], seconds: float, rng: Random, spans_path: Path) -> tuple[dict, list]:
    """Per-layer metrics from in-process passes, alternating plain and traced."""
    OUT.mkdir(exist_ok=True)
    tracer = Tracer()
    judge = Judge()
    passes: list[list[Outcome]] = []
    walls: list[float] = []
    traced_ids: list[set[int]] = []
    traced_counts: list[Counter] = []
    elapsed: list[float] = []
    query_ids = itertools.count()
    while _more_passes(elapsed, seconds, 2):
        start = perf_counter()
        traced = len(passes) % 2 == 1
        ids = set()
        outcomes = []
        if traced:
            tracer.install()
        try:
            for q in _pass_order(queries, rng):
                tracer.query = next(query_ids)
                ids.add(tracer.query)
                outcomes.append(run_in_process(q, tracer if traced else None))
        finally:
            tracer.uninstall()
        walls.append(sum(o.wall_s for o in outcomes))
        if traced:
            traced_ids.append(ids)
            traced_counts.append(tracer.counts)
        for o in outcomes:
            judge.judge(o)
        passes.append(outcomes)
        elapsed.append(perf_counter() - start)
    tracer.write(spans_path)
    spans = read_spans(spans_path)
    per_pass = [self_times(spans, ids) for ids in traced_ids]
    metrics = {
        metric: (statistics.median(p[name] for p in per_pass), "s") for name, metric in SPAN_METRICS.items()
    }
    if any(c != traced_counts[0] for c in traced_counts):
        print("warning: counts differ between traced passes", file=sys.stderr)
    metrics.update({name: (traced_counts[0][name], unit) for name, unit in COUNT_UNITS.items()})
    overhead = statistics.median(walls[1::2]) - statistics.median(walls[0::2])
    metrics["trace.overhead_s"] = (overhead, "s")
    return _result(passes, walls, [], metrics)


def _result(passes, walls, probes, metrics) -> tuple[dict, list]:
    """The result line, and every query's wall time, exit code and peak RSS
    for the report."""
    outcomes = [o for p in passes for o in p]
    for i, (p, wall) in enumerate(zip(passes, walls), start=1):
        failed = sum(o.failure is not None for o in p)
        print(f"pass {i}: {wall:.3f} s, slowest query {max(o.wall_s for o in p):.3f} s, {failed}/{len(p)} failed")
    for o in probes + outcomes:
        if o.failure is not None:
            print(f"failed: {o.query}: {o.failure}")
    failed = sum(o.failure is not None for o in outcomes)
    print(f"fail_ratio {failed / len(outcomes):.4f} ({failed}/{len(outcomes)})")
    details = [[(str(o.query), o.wall_s, o.exit_code, o.maxrss_kb) for o in p] for p in [probes, *passes]]
    result = {
        "correct": not any(o.wrong for o in probes + outcomes) and all(o.failure is None for o in probes),
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, details


def _git_sha() -> str | None:
    """HEAD's commit read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    """Where and on what code a result was measured."""
    source = b"".join(p.read_bytes() for p in sorted((SRC / "antipow").glob("*.py")))
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "source_sha256": sha256(source),
        "loadavg_start": os.getloadavg(),
    }


def write_report(path: Path, env: dict, result: dict, details: list) -> None:
    """Print the environment record and write it with the result and the
    per-query details (the set-up probes first, then each pass)."""
    env["loadavg_end"] = os.getloadavg()
    print("env " + json.dumps(env))
    report = {"environment": env, "result": result, "queries": details}
    path.write_text(json.dumps(report, indent=1) + "\n")
