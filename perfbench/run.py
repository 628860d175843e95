"""circres benchmark runner: one workload, one process, one thread.

    python3 perfbench/run.py --workload php_pipeline --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; circres is imported from ``src/``.
Workloads, their op mixes and the known-answer gate are in ``workloads.py``.

Set-up is done five times, each time with a fresh import of circres, input
generation for the passes the run measures and one warm-up op that does the
same work in every run; ``setup_s`` is the median of the seconds spent in
the import, in circres while making inputs and in the warm-up op.  The
benchmark's own work on inputs (oracles, writing files) is left out.  Then
``round(seconds / PASS_SECONDS)`` whole passes of the workload's op mix run,
so every run of a workload at one ``--seconds`` times the same number of ops.
Each op is timed alone, after a garbage collection, between two speed
probes, and judged by the gate outside its timing.  Seconds are reported
scaled to nominal machine speed (see ``reference_work``).  With ``--trace 0`` the last
line reports the end-to-end metrics; with ``--trace 1`` each pass runs once
untraced and once traced, and the last line reports the per-layer metrics of
``tracing.py``.  Spans are written to ``.perfbench/`` at the end.  The exit
code is 0 only when every op gave the expected verdict.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import types
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_ROUNDS = 5
# Seconds the reference work takes at nominal speed; see reference_work.
REF_SECONDS = 0.02
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "peak_rss_mb": "MB",
}

sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import PASS_SECONDS, WORKLOADS, Workspace  # noqa: E402


class Tally:
    """Verdicts and speed probes of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.probes: list[float] = []

    def speed_scale(self) -> float:
        """Factor that turns this run's seconds into seconds at nominal speed."""
        return REF_SECONDS / statistics.fmean(self.probes)


def scaled(elapsed: float, probe: float) -> float:
    """An op's seconds at nominal speed, given the mean of the probes just
    before and just after it: the machine's speed drifts over seconds."""
    return elapsed * REF_SECONDS / probe


def reference_work() -> float:
    """Time a fixed piece of pure-Python work, without circres, that mixes
    what circres spends its time on: hashing small frozensets, dict updates
    and exact rational arithmetic.  It takes about REF_SECONDS on a quiet
    2-CPU x86-64 machine.  On a shared one, whose speed drifts by up to
    70% over seconds, it runs just before and just after every op; their
    mean tracks how fast the machine ran then, and the op's seconds are
    scaled by it."""
    start = time.perf_counter()
    acc = Fraction(0)
    seen: dict[frozenset, int] = {}
    for i in range(12_000):
        key = frozenset((i % 101, -(i % 89), i % 13))
        seen[key] = seen.get(key, 0) + i * i
        if i % 8 == 0:
            acc += Fraction(i, 1 + i % 7)
    sorted(seen.values())
    return time.perf_counter() - start


def circres_api():
    """The circres entry points the workloads need, imported from ``src/``."""
    mods = {m: importlib.import_module(f"circres.{m}")
            for m in ("core", "cli", "formats", "generators", "search", "sheraliadams")}
    if Path(mods["cli"].__file__).resolve().parent != SRC / "circres":
        raise ImportError(f"circres was imported from {mods['cli'].__file__}, not {SRC}")
    return types.SimpleNamespace(
        generators=mods["generators"],
        CnfFormula=mods["core"].CnfFormula,
        Clause=mods["core"].Clause,
        parse_sap=mods["formats"].parse_sap,
        check_sa=mods["sheraliadams"].check_sa,
    )


def fresh_import():
    """Forget every circres module, then import circres again."""
    for name in [n for n in sys.modules if n == "circres" or n.startswith("circres.")]:
        del sys.modules[name]
    return circres_api()


def run_op(op, tally: Tally) -> tuple[float, float]:
    """Time one op and judge its verdict; returns the op's seconds and the
    mean of the speed probes just before and just after it."""
    gc.collect()
    before = reference_work()
    buf = io.StringIO()
    with redirect_stdout(buf), redirect_stderr(buf):
        start = time.perf_counter()
        try:
            value = op.call()
        except SystemExit as exc:
            value = exc.code
        except Exception as exc:  # a crash is a failed op, not a crashed run
            value = exc
        elapsed = time.perf_counter() - start
    after = reference_work()
    tally.probes += [before, after]
    tally.attempted += 1
    try:
        problem = (f"raised {value!r}" if isinstance(value, Exception)
                   else op.verdict(value, buf.getvalue()))
    except Exception as exc:
        problem = f"verdict check raised {exc!r}"
    if problem:
        tally.failed += 1
        tally.problems.append(f"{op.label}: {problem}")
    return elapsed, (before + after) / 2


def set_up(workload: str, seed: int, count: int, workdir: Path, tally: Tally):
    """Import, make the inputs of ``count`` passes and run the warm-up op.
    Returns the seconds of the import, of circres's calls while making the
    inputs and of the warm-up op, with the warm-up op's probe, and the
    passes."""
    start = time.perf_counter()
    ws = Workspace(fresh_import(), workdir, seed, workload)
    imported = time.perf_counter() - start
    passes, warm_up = WORKLOADS[workload](ws, count)
    elapsed, probe = run_op(warm_up, tally)
    return (imported + ws.setup_seconds + elapsed, probe), passes


def run_pass(ops, tally: Tally, tracer=None) -> list[tuple[float, float]]:
    """Run ``ops``; returns each op's seconds and probe."""
    times = []
    if tracer is not None:
        tracer.install()
    try:
        for op in ops:
            if tracer is not None:
                tracer.op += 1
            times.append(run_op(op, tally))
        return times
    finally:
        if tracer is not None:
            tracer.restore()


def measure(passes, tally: Tally, tracer=None):
    """Run every pass.  With a tracer every pass also runs traced,
    alternating which comes first.  Returns the untraced ops' (seconds,
    probe) and the traced op time in total."""
    times: list[tuple[float, float]] = []
    traced = 0.0
    for k, ops in enumerate(passes):
        if tracer is not None and k % 2:
            traced += sum(t for t, _ in run_pass(ops, tally, tracer))
        times += run_pass(ops, tally)
        if tracer is not None and not k % 2:
            traced += sum(t for t, _ in run_pass(ops, tally, tracer))
    return times, traced


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (percentile, seconds): the eleventh-largest sample.  Below twenty samples
    that would fall under the median, so the median is reported instead."""
    n = len(times)
    if n < 20:
        return 50.0, statistics.median(times)
    return 100 * (n - 10) / n, sorted(times)[n - 11]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "circres" / "__init__.py").is_file():
        print(f"error: no circres sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    tally = Tally()
    try:
        count = max(1, round(args.seconds / PASS_SECONDS[args.workload] / (1 + args.trace)))
        setups = []
        for _ in range(SETUP_ROUNDS):
            setup, passes = set_up(args.workload, args.seed, count, workdir, tally)
            setups.append(setup)
        tracer = tracing.Tracer() if args.trace else None
        times, traced = measure(passes, tally, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in tally.problems:
        print(f"FAIL {problem}")
    scale = tally.speed_scale()
    print(f"{args.workload}: reference work took {REF_SECONDS / scale:.4f} s on average; "
          f"seconds below are scaled to its nominal {REF_SECONDS} s, layer times by "
          f"{scale:.4f}, set-up and op times by the probes on either side of each op")
    raw = [t for t, _ in times]
    if tracer is None:
        op_s = [scaled(t, probe) for t, probe in times]
        pct, tail_s = tail(op_s)
        values = {
            "setup_s": statistics.median(scaled(t, probe) for t, probe in setups),
            "ops_per_s": len(op_s) / sum(op_s),
            "op_s.p50": statistics.median(op_s),
            "op_s.tail": tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        print(f"{args.workload}: {len(raw)} timed ops; op_s.tail is p{pct:.1f} "
              f"of {len(raw)} samples; unscaled: {len(raw) / sum(raw):.4f} ops/s, "
              f"p50 {statistics.median(raw):.4f} s, "
              f"setup {statistics.median(t for t, _ in setups):.4f} s")
    else:
        ops, untraced = tracer.op + 1, sum(raw)
        values = tracer.per_layer(ops, traced / untraced, scale)
        units = dict(tracing.PER_LAYER)
        self_total = sum(tracer.self_times().values()) / ops
        print(f"{args.workload}: {ops} traced ops; layer self times sum to "
              f"{self_total:.4f} s/op against {untraced / ops:.4f} s/op untraced, "
              f"ratio {self_total * ops / untraced:.4f} (unscaled)")
        tracer.dump(OUT / f"spans-{args.workload}-{args.seed}.json")
    for name, value in values.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    print(f"  {'fail_ratio':40s} {tally.failed / tally.attempted:14.6g} "
          f"({tally.failed} of {tally.attempted} ops)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
