"""Command-line front end: qcorr info|discord|overall|sweep|verify.

State files are JSON documents with fields `dims`, `kind` (dense | pure |
named) and a payload: `matrix` as nested [re, im] pairs (row-major),
`amplitudes` as an array of [re, im], or `family` + `params`. Complex
numbers are always [re, im] pairs.

Werner convention: werner(p) = p |psi-><psi-| + (1-p) I/4.
Exit codes: 0 success, 1 verification failure or a standard output that is
closed (e.g. `qcorr overall ... | head -3`, quietly) or cannot be written
(with an `error:` line), 2 input error.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import math
import os
import sys

import numpy as np

from . import correlations, infotheory, measurement, optimizer, states
from .errors import BadOrder, ParamOutOfRange, ParseError, QcorrError

SCHEMA_VERSION = "4"
MAX_SWEEP_ROWS = 100_000  # a sweep with more rows is an input error, not a run without end


# ---------------------------------------------------------------- state files

def _complex_from_pair(x, where: str) -> complex:
    # JSON true and false load as bools, which are ints to isinstance
    if (not isinstance(x, (list, tuple)) or len(x) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in x)
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
        for i, row in enumerate(rows):
            if not isinstance(row, list):
                raise ParseError(f"matrix[{i}]: expected a list of [re, im] pairs, "
                                 f"got {row!r}")
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
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: line {e.lineno}: {e.msg}") from e
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text: byte {e.start}: {e.reason}") from e
    except RecursionError as e:
        raise ParseError(f"{path}: JSON nested too deeply") from e
    return parse_state_spec(doc)


# ------------------------------------------------------------------ rendering

def _pairs(m: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m)]


def _measurement_doc(m: measurement.ProjectiveMeasurement,
                     params) -> dict:
    doc = {"subsystem_dim": m.subsystem_dim,
           "projectors": [_pairs(p) for p in m.projectors]}
    if params is not None:
        doc["theta"], doc["phi"] = params
    return doc


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
    kwargs = {"seed": seed}
    if args.restarts is not None:
        kwargs["restarts"] = args.restarts
    return optimizer.OptimizerConfig(**kwargs)


def cmd_info(args) -> int:
    rho = load_state(args.statefile)
    doc = {"dims": list(rho.dims), "marginal_entropies": infotheory.marginal_entropies(rho),
           "joint_entropy": infotheory.von_neumann_entropy(rho),
           "mutual_info": infotheory.mutual_information(rho)}
    lines = [f"dims: {doc['dims']}",
             *(f"S(rho_{k}) = {s:.12g}" for k, s in enumerate(doc["marginal_entropies"])),
             f"S(rho)   = {doc['joint_entropy']:.12g}",
             f"I        = {doc['mutual_info']:.12g}"]
    emit(doc, args.json, lines)
    return 0


def cmd_discord(args) -> int:
    rho = load_state(args.statefile)
    config = _make_config(args)
    res = optimizer.optimize_measurement(rho, args.subsystem, config)
    doc = {"subsystem": args.subsystem, "discord": res.discord,
           "classical_hv": res.j_value,
           "measurement": _measurement_doc(res.measurement, res.params),
           "oracle_gap": res.oracle_gap, "iterations": res.iterations,
           "optimizer_config": dataclasses.asdict(config)}
    lines = [f"D_{args.subsystem} = {res.discord:.12g}",
             f"C_{args.subsystem} = {res.j_value:.12g}"]
    if res.params is not None:
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
        reports, _ = correlations._sequential_reports(
            measurement.CQEnsemble.of(rho), itertools.permutations(range(m)), config)
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
    if not (0.0 <= args.start <= args.stop <= 1.0
            and math.isfinite(args.step) and args.step > 0):
        raise ParamOutOfRange("--start and --stop must satisfy 0 <= start <= stop <= 1 "
                              "and --step be finite and positive")
    # the rows up to --stop: the tolerance and the clamp absorb float drift only
    n = (args.stop - args.start) / args.step * (1 + 1e-9)
    if not n < MAX_SWEEP_ROWS:
        raise ParamOutOfRange(f"--step {args.step!r} gives more than {MAX_SWEEP_ROWS} rows")
    config = _make_config(args)
    # open --csv before the sweep, so that a path it cannot write costs no rows
    try:
        out = open(args.csv, "w") if args.csv else contextlib.nullcontext(sys.stdout)
    except OSError as e:
        raise QcorrError(f"cannot write {args.csv}: {e}") from e
    try:
        with out as f:
            rows = ["param,I,D0,D1,Q,C"]
            for i in range(math.floor(n) + 1):
                p = min(args.start + i * args.step, args.stop)
                rho = states.named("werner", p=p)
                rep = correlations.full_report(rho, config)
                (d0, _), (d1, _) = rep.per_subsystem
                rows.append(f"{p:.12g},{rep.mutual_info:.12g},{d0:.12g},{d1:.12g},"
                            f"{rep.sequential.q_total:.12g},{rep.sequential.c_total:.12g}")
            f.write("\n".join(rows) + "\n")
    except OSError as e:
        # a failed write to standard output is main's to report
        if not args.csv:
            raise
        raise QcorrError(f"cannot write {args.csv}: {e}") from e
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
        seq = correlations.sequential_measure(rho, (0, 1), config)
        res = seq.steps[0]  # the search on subsystem 0 of rho
        # 0 <= D_A is read as J <= I, as the reported discord is floored at 0
        worst_chain = max(worst_chain, res.j_value - seq.mutual_info,
                          res.discord - seq.q_total, seq.q_total - seq.mutual_info)
        worst_c = max(worst_c, seq.c_total - res.j_value)
    _check("bounds 0 <= D_A <= Q <= I", worst_chain, 1e-6, failures)
    _check("bounds C <= C_A", worst_c, 1e-6, failures)


def _verify_oracle(config, failures):
    rng = np.random.default_rng(config.seed + 2)
    worst = 0.0
    for _ in range(5):
        rho = states.random_density((2, 2), rng)
        res = optimizer.optimize_measurement(rho, 0, config)
        _, _, j_grid = optimizer.grid_search_qubit(rho, 0, 512)
        worst = max(worst, abs(res.j_value - j_grid))
    _check("oracle 512x512 grid agreement", worst, 1e-4, failures)
    # qudit search: a pure state's discord is its marginal entropy
    psi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    rho = states.from_pure(psi / np.linalg.norm(psi), (3, 2))
    res = optimizer.optimize_measurement(rho, 0, config)
    s0 = infotheory.von_neumann_entropy(states.reduced(rho, {0}))
    _check("oracle pure 3x2 D_0 = S(rho_0)", abs(res.discord - s0), 1e-6, failures)
    # qudit waves stop once two restarts agree; ascending every start is the oracle
    worst = 0.0
    for rho in (states.random_density((4, 2), rng),
                states.random_density((5, 2), np.random.default_rng([91, 350]), rank=3)):
        res = optimizer.optimize_measurement(rho, 0, config)
        ev = measurement._JEvaluator.of(measurement.CQEnsemble.of(rho), 0)
        starts = optimizer._starts(rho.dims[0], config)
        on = np.zeros(len(starts), dtype=int)
        _, js = optimizer._ascend(ev, starts, ev.j_bases(starts, on), on)
        worst = max(worst, abs(res.j_value - js.max()))
    _check("oracle mixed 4x2 waves (and rank-3 5x2) against every restart", worst, 1e-11, failures)
    # full_report ascends its searches on the unmeasured state in one batch,
    # and each must equal that search alone
    rho = states.random_density((2, 2, 2), rng)
    per = correlations.full_report(rho, config).per_subsystem
    solo = [optimizer.optimize_measurement(rho, k, config) for k in range(3)]
    _check("oracle batched searches against solo searches",
           max(max(abs(d - res.discord), abs(c - res.j_value)) for (d, c), res in zip(per, solo)),
           0.0, failures)
    # step 1 of a pure state searches the channel output of step 0, whose
    # small J has ridges narrower than a Newton step: a failed round retries
    worst = 0.0
    for _ in range(5):
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        rho = states.from_pure(psi / np.linalg.norm(psi), (2, 2))
        seq = correlations.sequential_measure(rho, (0, 1), config)
        after = measurement.apply_nonselective(rho, 0, seq.step_measurements[0])
        worst = max(worst, abs(seq.steps[1].j_value
                               - optimizer.grid_search_qubit(after, 1, 512)[2]))
    _check("oracle pure 2x2 step-1 512x512 grid agreement", worst, 1e-4, failures)
    # a rank-2 d x 2 state's sup J over POVMs on the d side has a closed form;
    # from d = 4 on a projective measurement attains it, below it bounds J
    worst, above = 0.0, 0.0
    for dims in [(4, 2), (5, 2), (2, 2), (3, 2)]:
        for _ in range(2):
            rho = states.random_density(dims, rng, rank=2)
            gap = _koashi_winter_j(rho) - optimizer.optimize_measurement(rho, 0, config).j_value
            above = max(above, -gap)
            if dims[0] >= 4:
                worst = max(worst, abs(gap))
    _check("oracle rank-2 4x2, 5x2 J = Koashi-Winter closed form", worst, 1e-9, failures)
    _check("oracle rank-2 d x 2 J <= Koashi-Winter closed form", above, 1e-12, failures)
    # classical on the 4-dim side in a Haar basis: the search takes the
    # marginal's eigenbasis, where the discord is zero
    q = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    p = rng.dirichlet(np.ones(4))
    m = sum(p[i] * np.kron(np.outer(q[:, i], q[:, i].conj()),
                           states.random_density([2], rng).matrix) for i in range(4))
    res = optimizer.optimize_measurement(states.from_dense(m, (4, 2)), 0, config)
    _check("oracle Haar-basis classical-quantum 4x2 D_0 = 0", res.discord, 1e-12, failures)


_SIGMA_YY = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])


def _koashi_winter_j(rho) -> float:
    """sup J over POVMs on subsystem 0 of a rank-2 d x 2 state, in closed form.

    Purify rho by a qubit E, psi = sum_i sqrt(w_i) |u_i> |i>_E over its two
    eigenpairs. By Koashi & Winter (PRA 69:022309, 2004) the sup is
    S(rho_A) - E_F(rho_AE), with A the unmeasured qubit. The two-qubit
    rho_AE = sum_a |x_a><x_a|, |x_a> = <a|psi, has Wootters' E_F (PRL
    80:2245, 1998), whose concurrence takes the singular values of the
    complex symmetric [x_a^T (sigma_y x sigma_y) x_b]. Shares no code with
    the search.
    """
    d = rho.dims[0]
    w, u = np.linalg.eigh(rho.matrix)
    x = (u[:, -2:] * np.sqrt(w[-2:] / w[-2:].sum())).reshape(d, 4)  # row a: x_a over (A, E)
    rho_a = np.einsum('abe,ace->bc', x.reshape(d, 2, 2), x.reshape(d, 2, 2).conj())
    lam = np.concatenate([np.linalg.svd(x @ _SIGMA_YY @ x.T, compute_uv=False), np.zeros(4)])
    c = max(0.0, lam[0] - lam[1:4].sum())
    p = (1 + math.sqrt(max(0.0, 1 - c * c))) / 2
    return (infotheory.entropy_of_spectrum(np.linalg.eigvalsh(rho_a))
            - infotheory.shannon_entropy([p, 1 - p]))


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

    # each subcommand takes only the options it reads
    def search_options(p):
        p.add_argument("--seed", type=int, default=None,
                       help="optimizer seed (default: QCORR_SEED env or 0)")
        p.add_argument("--restarts", type=int, default=None,
                       help="subsystem dim > 2: at most this many Haar starts "
                            f"(1..{optimizer.MAX_RESTARTS}), ascended in waves of 4 "
                            "until one ended start reaches the mutual information I "
                            "or two ended starts agree on the best J, checked every round; "
                            "none if the marginal's eigenbasis is already at I (a "
                            "degenerate marginal's may miss)")

    def json_option(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("info", help="entropies and mutual information")
    p.add_argument("statefile")
    json_option(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("discord", help="discord and classical correlation for one subsystem")
    p.add_argument("statefile")
    p.add_argument("--subsystem", type=int, default=0)
    search_options(p)
    json_option(p)
    p.set_defaults(func=cmd_discord)

    p = sub.add_parser("overall", help="sequential overall Q and C")
    p.add_argument("statefile")
    orders = p.add_mutually_exclusive_group()
    orders.add_argument("--order", default=None,
                        help="comma-separated measurement order, e.g. 1,0")
    orders.add_argument("--all-orders", action="store_true",
                        help="report every measurement order (up to 4 subsystems)")
    search_options(p)
    json_option(p)
    p.set_defaults(func=cmd_overall)

    p = sub.add_parser("sweep", help="sweep a one-parameter family to CSV")
    p.add_argument("family")
    p.add_argument("--start", type=float, default=0.0)
    p.add_argument("--stop", type=float, default=1.0)
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--csv", default=None, help="output path (default: stdout)")
    search_options(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run built-in verification suites")
    p.add_argument("--suite", default="all",
                   help="paper-example | bounds | oracle | identities | all")
    search_options(p)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except QcorrError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        # stdout was closed by its reader or could not be written (a full
        # disk, say); point it at devnull so that the flush at interpreter
        # exit does not raise again
        if not isinstance(e, BrokenPipeError):
            print(f"error: cannot write standard output: {e}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
