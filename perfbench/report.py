"""Run every workload and print one row of end-to-end metrics per workload.

    python3 perfbench/report.py                     # seed 1, as BENCHMARK.json says
    python3 perfbench/report.py --seeds 1-10        # medians and spreads over seeds
    python3 perfbench/report.py --trace 1           # per-layer metrics instead

Each run is ``run.py`` in its own process, one after another.  With several
seeds the report adds, per workload and metric, the median and the spread:
the distance between the first and third quartile as a share of the median,
next to a third of the metric's bound.  The exit code is non-zero when any
run fails its verdicts or exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict | None, float]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or result is None:
        sys.stderr.write(proc.stdout + proc.stderr)
        result = None
    return result, time.perf_counter() - start


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=[1])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    metrics = spec["per_layer" if args.trace else "end_to_end"]

    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        rows = []
        for seed in args.seeds:
            result, wall = run(workload, seed, spec["run_seconds"], args.trace)
            if result is None:
                print(f"{workload} seed {seed}: FAILED after {wall:.1f} s")
                ok = False
                continue
            rows.append(result)
            ratio = result["failed"] / result["attempted"]
            cells = "  ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.4g}"
                              f"{m['unit']}" for m in metrics)
            print(f"{workload} seed {seed}: {cells}  fail_ratio={ratio:g}  "
                  f"({wall:.1f} s wall)", flush=True)
        if len(rows) < 2:
            continue
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in rows]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            limit = f"  (a third of the bound: {m['bound'] / 3:.3f})" if "bound" in m else ""
            print(f"  {workload} {m['name']}: median {med:.6g} {m['unit']}, "
                  f"spread {spread:.3f}{limit}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
