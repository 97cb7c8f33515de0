"""Repeat bench/run.py over several seeds and summarise each metric's spread.

    python3 bench/spread.py [--seeds 1-10]

Every workload named in BENCHMARK.json runs once per seed, for the
`run_seconds` given there. For every workload it prints each run's result,
then per metric the median, the quartiles from statistics.quantiles(values,
n=4) and the distance between them as a share of the median, and the failed
share of attempted states.
These are the reference figures in bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    args = p.parse_args(argv)
    for workload in (w["name"] for w in SPEC["workloads"]):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        shares = []
        for seed in _seeds(args.seeds):
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            shares.append(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"{workload} seed {seed} ({time.monotonic() - start:.0f} s): "
                  f"correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} "
                  + " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
                  flush=True)
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"{workload} {name} [{units[name]}]: median {med:.6g} "
                  f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f}")
        print(f"{workload} failed share: {sorted(set(shares))}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
