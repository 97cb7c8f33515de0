"""Command-line front end: qcorr info|discord|overall|sweep|verify.

State files are JSON documents with fields `dims`, `kind` (dense | pure |
named) and a payload: `matrix` as nested [re, im] pairs (row-major),
`amplitudes` as an array of [re, im], or `family` + `params`. Complex
numbers are always [re, im] pairs.

Werner convention: werner(p) = p |psi-><psi-| + (1-p) I/4.
Exit codes: 0 success, 1 verification failure, 2 input error.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys

import numpy as np

from . import correlations, infotheory, linalg, measurement, optimizer, states
from .errors import (BadOrder, DimensionMismatch, ParamOutOfRange, ParseError,
                     QcorrError)

SCHEMA_VERSION = "1"


# ---------------------------------------------------------------- state files

def _complex_from_pair(x, where: str) -> complex:
    if (not isinstance(x, (list, tuple)) or len(x) != 2
            or not all(isinstance(v, (int, float)) for v in x)
            or not all(math.isfinite(v) for v in x)):
        raise ParseError(f"{where}: expected a finite [re, im] pair, got {x!r}")
    return complex(x[0], x[1])


def parse_state_spec(doc: dict) -> states.DensityMatrix:
    if not isinstance(doc, dict):
        raise ParseError("state file must be a JSON object")
    kind = doc.get("kind")
    if kind == "named":
        family = doc.get("family")
        if not isinstance(family, str):
            raise ParseError("named state needs a string `family` field")
        params = doc.get("params", {})
        if not isinstance(params, dict):
            raise ParseError("`params` must be an object")
        return states.named(family, **params)
    dims = doc.get("dims")
    if (not isinstance(dims, list) or not dims
            or not all(isinstance(d, int) and d >= 2 for d in dims)):
        raise ParseError("`dims` must be a nonempty list of integers >= 2")
    if kind == "dense":
        rows = doc.get("matrix")
        if not isinstance(rows, list):
            raise ParseError("dense state needs a `matrix` field")
        m = [[_complex_from_pair(x, f"matrix[{i}][{j}]")
              for j, x in enumerate(row)] for i, row in enumerate(rows)]
        return states.from_dense(m, dims)
    if kind == "pure":
        amps = doc.get("amplitudes")
        if not isinstance(amps, list):
            raise ParseError("pure state needs an `amplitudes` field")
        psi = [_complex_from_pair(x, f"amplitudes[{i}]") for i, x in enumerate(amps)]
        return states.from_pure(psi, dims)
    raise ParseError(f"unknown kind {kind!r}; expected dense, pure or named")


def load_state(path: str) -> states.DensityMatrix:
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: line {e.lineno}: {e.msg}") from e
    return parse_state_spec(doc)


# ------------------------------------------------------------------ rendering

def _pairs(m: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m)]


def _measurement_doc(m: measurement.ProjectiveMeasurement,
                     params) -> dict:
    doc = {"subsystem_dim": m.subsystem_dim,
           "projectors": [_pairs(p) for p in m.projectors]}
    if params is not None and len(params) == 2:
        doc["theta"], doc["phi"] = float(params[0]), float(params[1])
    elif params is not None:
        doc["generator_params"] = [float(x) for x in params]
    return doc


def _config_doc(config: optimizer.OptimizerConfig) -> dict:
    return {"grid_theta": config.grid_theta, "grid_phi": config.grid_phi,
            "restarts": config.restarts,
            "refine_tolerance": config.refine_tolerance,
            "max_refine_steps": config.max_refine_steps, "seed": config.seed}


def _sequential_doc(seq: correlations.SequentialReport) -> dict:
    return {
        "order": list(seq.order),
        "step_discords": [float(d) for d in seq.step_discords],
        "step_measurements": [
            _measurement_doc(m, p)
            for m, p in zip(seq.step_measurements, seq.step_params)],
        "q_total": seq.q_total,
        "c_total": seq.c_total,
        "mutual_info": seq.mutual_info,
        "classical_table": {"dims": list(seq.classical_table.dims),
                            "probs": [float(p) for p in seq.classical_table.probs]},
        "identity_residuals": {"q_plus_c_minus_i": seq.identity_residuals[0],
                               "q_minus_i_minus_icl": seq.identity_residuals[1]},
    }


def emit(doc: dict, as_json: bool, lines: list[str]):
    if as_json:
        doc = {"schema_version": SCHEMA_VERSION, **doc}
        print(json.dumps(doc, indent=2))
    else:
        print("\n".join(lines))


# ------------------------------------------------------------------- commands

def _make_config(args) -> optimizer.OptimizerConfig:
    seed = args.seed
    if seed is None:
        env = os.environ.get("QCORR_SEED", "0")
        try:
            seed = int(env)
        except ValueError:
            raise ParseError(f"QCORR_SEED must be an integer, got {env!r}") from None
    if seed < 0:
        raise ParamOutOfRange(f"seed must be >= 0, got {seed}")
    for flag in ("grid", "restarts"):
        value = getattr(args, flag)
        if value is not None and value <= 0:
            raise ParamOutOfRange(f"--{flag} must be positive, got {value}")
    kwargs = {"seed": seed}
    if args.grid is not None:
        kwargs["grid_theta"] = kwargs["grid_phi"] = args.grid
    if args.restarts is not None:
        kwargs["restarts"] = args.restarts
    return optimizer.OptimizerConfig(**kwargs)


def cmd_info(args) -> int:
    rho = load_state(args.statefile)
    ens = measurement.CQEnsemble.of(rho)
    marginals, joint = list(ens.marginal_entropies), ens.joint_entropy
    info = ens.mutual_information()
    doc = {"dims": list(rho.dims), "marginal_entropies": marginals,
           "joint_entropy": joint, "mutual_info": info}
    lines = [f"dims: {list(rho.dims)}",
             *(f"S(rho_{k}) = {s:.12g}" for k, s in enumerate(marginals)),
             f"S(rho)   = {joint:.12g}",
             f"I        = {info:.12g}"]
    emit(doc, args.json, lines)
    return 0


def cmd_discord(args) -> int:
    rho = load_state(args.statefile)
    config = _make_config(args)
    if not 0 <= args.subsystem < rho.n_subsystems:
        raise DimensionMismatch(f"--subsystem {args.subsystem} is out of range "
                                f"for {rho.n_subsystems} subsystems")
    res = optimizer.optimize_measurement(rho, args.subsystem, config)
    doc = {"subsystem": args.subsystem, "discord": res.discord,
           "classical_hv": res.j_value,
           "measurement": _measurement_doc(res.measurement, res.params),
           "oracle_gap": res.oracle_gap, "iterations": res.iterations,
           "optimizer_config": _config_doc(config)}
    lines = [f"D_{args.subsystem} = {res.discord:.12g}",
             f"C_{args.subsystem} = {res.j_value:.12g}"]
    if res.params is not None and len(res.params) == 2:
        lines.append(f"optimal (theta, phi) = ({res.params[0]:.12g}, {res.params[1]:.12g})")
    if res.oracle_gap is not None:
        lines.append(f"oracle gap = {res.oracle_gap:.3e}")
    emit(doc, args.json, lines)
    return 0


def _order_lines(seq: correlations.SequentialReport) -> list[str]:
    return [
        f"order {list(seq.order)}: step discords "
        + ", ".join(f"{d:.12g}" for d in seq.step_discords),
        f"Q = {seq.q_total:.12g}",
        f"C = {seq.c_total:.12g}",
        f"I = {seq.mutual_info:.12g}",
        "p~ = " + ", ".join(f"{p:.12g}" for p in seq.classical_table.probs),
        f"|Q + C - I| = {seq.identity_residuals[0]:.3e}",
        f"|Q - (I - I_cl)| = {seq.identity_residuals[1]:.3e}",
    ]


def cmd_overall(args) -> int:
    rho = load_state(args.statefile)
    config = _make_config(args)
    m = rho.n_subsystems
    if args.all_orders:
        if m > 4:
            raise BadOrder("--all-orders supports at most 4 subsystems")
        # step 0 depends only on the first subsystem: one search per subsystem
        firsts = [optimizer.optimize_measurement(rho, k, config) for k in range(m)]
        ens = measurement.CQEnsemble.of(rho)
        reports = [correlations._sequential_measure(ens, order, config,
                                                    first=firsts[order[0]])
                   for order in itertools.permutations(range(m))]
        qs = [r.q_total for r in reports]
        doc = {"orders": [_sequential_doc(r) for r in reports],
               "q_discrepancy": max(qs) - min(qs)}
        lines = []
        for r in reports:
            lines.extend(_order_lines(r))
        lines.append(f"max Q discrepancy across orders = {max(qs) - min(qs):.3e}")
        emit(doc, args.json, lines)
        return 0
    try:
        order = range(m) if args.order is None else [int(x) for x in args.order.split(",")]
    except ValueError:
        raise BadOrder(f"--order must be comma-separated integers, "
                       f"got {args.order!r}") from None
    seq = correlations.sequential_measure(rho, order, config)
    emit(_sequential_doc(seq), args.json, _order_lines(seq))
    return 0


def cmd_sweep(args) -> int:
    if args.family != "werner":
        raise QcorrError(f"sweep supports the werner family, not {args.family!r}")
    if not (math.isfinite(args.start) and math.isfinite(args.stop)
            and math.isfinite(args.step) and args.step > 0):
        raise ParamOutOfRange("--start and --stop must be finite and --step positive")
    config = _make_config(args)
    rows = ["param,I,D0,D1,Q,C"]
    n = int(round((args.stop - args.start) / args.step))
    for i in range(n + 1):
        p = args.start + i * args.step
        rho = states.named("werner", p=min(max(p, 0.0), 1.0))
        rep = correlations.full_report(rho, config)
        (d0, _), (d1, _) = rep.per_subsystem
        rows.append(f"{p:.12g},{rep.mutual_info:.12g},{d0:.12g},{d1:.12g},"
                    f"{rep.sequential.q_total:.12g},{rep.sequential.c_total:.12g}")
    text = "\n".join(rows) + "\n"
    if args.csv:
        with open(args.csv, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ------------------------------------------------------------------- verify

def _check(name: str, residual: float, tol: float, failures: list[str]):
    ok = residual <= tol
    print(f"{'PASS' if ok else 'FAIL'} {name}: residual {residual:.3e} (tol {tol:.0e})")
    if not ok:
        failures.append(name)


def _verify_paper_example(config, failures):
    rho = states.named("paper_example")
    d_a = 0.6008760366928562
    d_b = 0.2017520733857121
    q_ref = d_a + d_b
    seq = correlations.sequential_measure(rho, (0, 1), config)
    step_a, step_b = seq.step_discords
    _check("paper-example step-1 discord", abs(step_a - d_a), 5e-4, failures)
    _check("paper-example step-2 discord", abs(step_b - d_b), 5e-4, failures)
    _check("paper-example Q", abs(seq.q_total - q_ref), 1e-3, failures)


def _verify_bounds(config, failures):
    rng = np.random.default_rng(config.seed + 1)
    worst_chain, worst_c = 0.0, 0.0
    for _ in range(20):
        rho = states.random_density((2, 2), rng)
        info = infotheory.mutual_information(rho)
        res = optimizer.optimize_measurement(rho, 0, config)
        seq = correlations._sequential_measure(measurement.CQEnsemble.of(rho), (0, 1),
                                               config, first=res)
        worst_chain = max(worst_chain, -res.discord,
                          res.discord - seq.q_total, seq.q_total - info)
        worst_c = max(worst_c, seq.c_total - res.j_value)
    _check("bounds 0 <= D_A <= Q <= I", worst_chain, 1e-6, failures)
    _check("bounds C <= C_A", worst_c, 1e-6, failures)


def _verify_oracle(config, failures):
    rng = np.random.default_rng(config.seed + 2)
    worst = 0.0
    for _ in range(5):
        rho = states.random_density((2, 2), rng)
        res = optimizer.optimize_measurement(rho, 0, config)
        _, _, j_grid = optimizer.grid_search_qubit(rho, 0, 512, 512)
        worst = max(worst, abs(res.j_value - j_grid))
    _check("oracle 512x512 grid agreement", worst, 1e-4, failures)
    # qudit search: a pure state's discord is its marginal entropy
    psi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    rho = states.from_pure(psi / np.linalg.norm(psi), (3, 2))
    res = optimizer.optimize_measurement(rho, 0, config)
    s0 = infotheory.von_neumann_entropy(states.reduced(rho, {0}))
    _check("oracle pure 3x2 D_0 = S(rho_0)", abs(res.discord - s0), 1e-6, failures)


def _verify_identities(config, failures):
    rng = np.random.default_rng(config.seed + 3)
    worst_qc, worst_rel = 0.0, 0.0
    for _ in range(10):
        rho = states.random_density((2, 2), rng)
        seq = correlations.sequential_measure(rho, (0, 1), config)
        worst_qc = max(worst_qc, seq.identity_residuals[0])
        prod = states.tensor(states.reduced(rho, {0}), states.reduced(rho, {1}))
        worst_rel = max(worst_rel, abs(infotheory.mutual_information(rho)
                                       - infotheory.relative_entropy(rho, prod)))
    _check("identity Q + C = I", worst_qc, 1e-6, failures)
    _check("identity I = S(rho || rho_A x rho_B)", worst_rel, 1e-8, failures)


def cmd_verify(args) -> int:
    config = _make_config(args)
    suites = {"paper-example": _verify_paper_example, "bounds": _verify_bounds,
              "oracle": _verify_oracle, "identities": _verify_identities}
    if args.suite == "all":
        chosen = list(suites.values())
    elif args.suite in suites:
        chosen = [suites[args.suite]]
    else:
        raise QcorrError(f"unknown suite {args.suite!r}; "
                         f"choose from {sorted(suites)} or all")
    failures: list[str] = []
    for run in chosen:
        run(config, failures)
    if failures:
        print(f"{len(failures)} check(s) failed")
        return 1
    print("all checks passed")
    return 0


# --------------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcorr",
        description="Quantum and classical correlation measures for density matrices.",
        epilog="Werner convention: werner(p) = p |psi-><psi-| + (1-p) I/4.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None,
                       help="optimizer seed (default: QCORR_SEED env or 0)")
        p.add_argument("--grid", type=int, default=None,
                       help="qubit grid resolution per angle")
        p.add_argument("--restarts", type=int, default=None,
                       help="random restarts for subsystem dim > 2")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("info", help="entropies and mutual information")
    p.add_argument("statefile")
    common(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("discord", help="discord and classical correlation for one subsystem")
    p.add_argument("statefile")
    p.add_argument("--subsystem", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_discord)

    p = sub.add_parser("overall", help="sequential overall Q and C")
    p.add_argument("statefile")
    p.add_argument("--order", default=None,
                   help="comma-separated measurement order, e.g. 1,0")
    p.add_argument("--all-orders", action="store_true",
                   help="report every measurement order (up to 4 subsystems)")
    common(p)
    p.set_defaults(func=cmd_overall)

    p = sub.add_parser("sweep", help="sweep a one-parameter family to CSV")
    p.add_argument("family")
    p.add_argument("--start", type=float, default=0.0)
    p.add_argument("--stop", type=float, default=1.0)
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--csv", default=None, help="output path (default: stdout)")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run built-in verification suites")
    p.add_argument("--suite", default="all",
                   help="paper-example | bounds | oracle | identities | all")
    common(p)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except QcorrError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
