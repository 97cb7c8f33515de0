"""One workload process of the benchmark; run.py starts it and reads its last line.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                            --spawned-at T --round-budget B [--setup-only]

`--spawned-at` is the `time.monotonic()` reading taken just before the
process was started. Set-up ends once numpy and qcorr (cli included) are
imported, the seeded inputs are built and validated, and one warm-up
`optimize_measurement` on the paper example has run. With `--setup-only`
the process stops there.

Untraced, the process analyses whole rounds of the workload's states, one
state at a time, until `--seconds` have passed, while a `PaceProbe` times
its fixed kernel every 50 ms; each state's time is taken at the probe's
reference pace (pace.py). It starts no round after the first that, at the
pace of its slowest round so far, would end more than `--round-budget`
seconds after the loop began, so a slower program still gives figures. Traced, it
times one round untraced and then the same round under the tracer. Either
way it checks every distinct state's output with the independent checks
and prints one JSON object as its last line.
"""
import os

# BLAS and OpenMP pools are sized when numpy loads: one thread per process,
# so a run measures the same single-core work whatever the machine's load.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from pace import PaceProbe  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "bench" / "out"


def _args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--round-budget", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def _import_qcorr():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import qcorr
    import qcorr.cli  # noqa: F401  (no workload calls it; its import is part of set-up)
    if not Path(qcorr.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"qcorr was imported from {qcorr.__file__}, not from {src}")
    return qcorr


def _validate(case):
    """The benchmark's own check of its inputs: Hermitian, unit trace, PSD."""
    m = case.matrix
    ok = (m.shape == (int(np.prod(case.dims)),) * 2
          and np.abs(m - m.conj().T).max() < 1e-12
          and abs(np.trace(m).real - 1) < 1e-12
          and np.linalg.eigvalsh(m)[0] > -1e-12)
    if not ok:
        raise SystemExit(f"input {case.label} is not a density matrix")


def _analyse_round(qcorr, name, rhos, spans, outputs, errors, wrap=None):
    """Analyse every state once; each state's (start, end) goes to `spans`."""
    for i, rho in enumerate(rhos):
        start = time.perf_counter()
        try:
            if wrap is None:
                result = workloads.analyse(qcorr, name, rho)
            else:
                with wrap(i):
                    result = workloads.analyse(qcorr, name, rho)
        except Exception:  # a failed state is counted and the run goes on
            result = None
            if errors[i] is None:
                errors[i] = traceback.format_exc()
        spans[i].append((start, time.perf_counter()))
        if result is not None:
            outputs[i].append(workloads.output_data(name, result))


def _fingerprint(data) -> tuple:
    seq = data.get("sequential", data)
    return data.get("per_subsystem"), seq["step_discords"], seq["q"], seq["c"]


def _check_all(name, seed, cases, outputs, errors):
    """Slots whose state failed: raised, gave differing outputs, or failed a check."""
    failed = []
    for i, case in enumerate(cases):
        if errors[i] is not None:
            problems = [errors[i].strip().splitlines()[-1]]
        elif len({_fingerprint(o) for o in outputs[i]}) > 1:
            problems = ["outputs differ between rounds"]
        else:
            rng = np.random.default_rng([seed, 100 + i])
            problems = workloads.check(name, case, outputs[i][0], rng)
        if problems:
            failed.append(i)
            for msg in problems:
                print(f"{name} seed {seed} {case.label}: {msg}", file=sys.stderr)
    return failed


def _timed(qcorr, args, cases, rhos):
    n = len(cases)
    spans, outputs, errors = [[] for _ in cases], [[] for _ in cases], [None] * n
    rounds, slowest = 0, 0.0
    with PaceProbe() as pace:
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            _analyse_round(qcorr, args.workload, rhos, spans, outputs, errors)
            rounds += 1
            slowest = max(slowest, time.perf_counter() - round_start)
            elapsed = time.perf_counter() - start
            if elapsed >= args.seconds or elapsed + slowest > args.round_budget:
                break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    failed = _check_all(args.workload, args.seed, cases, outputs, errors)
    # one round made of each state's median time across the rounds, in
    # seconds at the reference pace, so the machine's speed phases cancel
    round_s = sum(statistics.median(pace.normalised_s(a, b) for a, b in s) for s in spans)
    wall_s = sum(statistics.median(b - a for a, b in s) for s in spans)
    print(f"{args.workload} seed {args.seed}: {rounds} rounds, {n / wall_s:.4g} states/s "
          f"by the wall clock, probe median {pace.median_s() * 1e3:.3f} ms", file=sys.stderr)
    return {"attempted": rounds * n, "failed": rounds * len(failed), "correct": not failed,
            "metrics": {"states_per_s": {"value": n / round_s, "unit": "1/s"},
                        "peak_rss_mb": {"value": peak_mb, "unit": "MB"}}}


def _traced(qcorr, args, cases, rhos):
    n = len(cases)
    spans, outputs, errors = [[] for _ in cases], [[] for _ in cases], [None] * n
    start = time.perf_counter()
    _analyse_round(qcorr, args.workload, rhos, spans, outputs, errors)
    untraced_s = time.perf_counter() - start

    tracer = Tracer()
    tracer.install(qcorr)
    try:
        start = time.perf_counter()
        _analyse_round(qcorr, args.workload, rhos, spans, outputs, errors,
                       wrap=lambda i: tracer.request(i, cases[i].label))
        traced_s = time.perf_counter() - start
    finally:
        tracer.remove()
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json.gz")
    failed = _check_all(args.workload, args.seed, cases, outputs, errors)

    layers = tracer.layer_totals()
    counts = tracer.counts
    per_state = {
        "optimizer.grid_search_qubit.s": (layers["optimizer.grid_search_qubit"]["s"], "s"),
        "optimizer.refine_local.s": (layers["optimizer.refine_local"]["s"], "s"),
        "optimizer.refine_local.evals": (counts["optimizer.refine_local.evals"], "count"),
        "optimizer.j_evals": (counts["optimizer.j_evals"], "count"),
        "optimizer.optimize_measurement.calls":
            (layers["optimizer.optimize_measurement"]["calls"], "count"),
        "states.from_dense.calls": (layers["states.from_dense"]["calls"], "count"),
        "states.from_dense.s": (layers["states.from_dense"]["s"], "s"),
        "linalg.partial_trace.calls": (layers["linalg.partial_trace"]["calls"], "count"),
        "infotheory.mutual_information.s": (layers["infotheory.mutual_information"]["s"], "s"),
        "measurement.apply_nonselective.s":
            (layers["measurement.apply_nonselective"]["s"], "s"),
        "correlations.sequential_measure.self_s":
            (layers["correlations.sequential_measure"]["self_s"], "s"),
        "correlations.full_report.self_s": (layers["correlations.full_report"]["self_s"], "s"),
        "kernel.eig.calls": (counts["kernel.eig.calls"], "count"),
        "kernel.eig.matrices": (counts["kernel.eig.matrices"], "count"),
        "kernel.eig.flops_computed": (counts["kernel.eig.flops_computed"], "flop"),
        "kernel.eig.s": (counts["kernel.eig.ns"] / 1e9, "s"),
        "kernel.einsum.calls": (counts["kernel.einsum.calls"], "count"),
        "kernel.einsum.s": (counts["kernel.einsum.ns"] / 1e9, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
    }
    metrics = {k: {"value": v / n, "unit": u} for k, (v, u) in per_state.items()}
    metrics["kernel.einsum.max_out_mb"] = {"value": tracer.max_einsum_bytes / 1e6,
                                           "unit": "MB"}
    return {"attempted": n, "failed": len(failed), "correct": not failed,
            "metrics": metrics}


def main(argv=None):
    args = _args(argv)
    qcorr = _import_qcorr()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    cases = workloads.WORKLOADS[args.workload](args.seed)
    for case in cases:
        _validate(case)
    rhos = [qcorr.from_dense(case.matrix, case.dims) for case in cases]
    qcorr.optimize_measurement(qcorr.named("paper_example"), 0)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        result = {}
    elif args.trace:
        result = _traced(qcorr, args, cases, rhos)
    else:
        result = _timed(qcorr, args, cases, rhos)
    result["setup_s"] = setup_s
    print(json.dumps(result))


if __name__ == "__main__":
    main()
