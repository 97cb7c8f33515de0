"""qcorr benchmark: one workload per call, printed as one JSON line.

    python3 bench/run.py --workload qubit_pairs|qutrit_qubit|multiqubit_seq
                         --seed N --seconds S --trace 0|1

The library is imported from the `src/` next to this `bench/` directory.
Each workload runs in its own process (bench/worker.py) as a closed loop:
one client, one state at a time, the default OptimizerConfig.

--trace 0 prints the end-to-end metrics: states_per_s, peak_rss_mb and
setup_s, the median set-up time of SETUP_SAMPLES processes: the measuring
one, and the others, which stop after set-up, half started before it and
half after, so that the samples span the run. --trace 1 prints the
per-layer metrics of one traced round. The last line of standard output is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

The whole command ends within DEADLINE_S seconds: the measuring process
starts no round that would end less than RESERVE_S before it, and a
process still running at the deadline is stopped and the command exits 1.
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
SRC = BENCH_DIR.parent / "src"
SETUP_SAMPLES = 15
DEADLINE_S = 170
# time kept after the timed loop for the checks and the later set-up samples
RESERVE_S = 30


def _worker(args, deadline: float, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--round-budget", repr(deadline - RESERVE_S - time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    spawned_at = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)],
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - spawned_at, 0))
    if proc.returncode != 0:
        raise SystemExit(f"workload process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    deadline = time.monotonic() + DEADLINE_S
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("qubit_pairs", "qutrit_qubit", "multiqubit_seq"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "qcorr" / "__init__.py").is_file():
        print(f"no qcorr sources at {SRC}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            result = _worker(args, deadline)
        else:
            others = SETUP_SAMPLES - 1
            setups = [_worker(args, deadline, setup_only=True)["setup_s"]
                      for _ in range(others // 2)]
            result = _worker(args, deadline)
            setups.append(result["setup_s"])
            setups += [_worker(args, deadline, setup_only=True)["setup_s"]
                       for _ in range(others - others // 2)]
            result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    except subprocess.TimeoutExpired:
        print(f"stopped at the {DEADLINE_S} s deadline", file=sys.stderr)
        return 1
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
