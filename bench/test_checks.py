"""Tests of the benchmark's own checks, tracer and pace probe.

    python3 -m pytest bench/test_checks.py -q

The checks must accept known-correct results, such as the Werner closed
form, and flag a result perturbed by 1e-3.
"""
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import workloads

ROOT = Path(__file__).resolve().parents[1]

# werner(p) = p |psi-><psi-| + (1 - p) I/4 at p = 1/2: its spectrum is
# (5/8, 1/8, 1/8, 1/8), so I = 2 - H = 0.4512050593..., and every measurement
# gives J = C = [(1/2) log2(1/2) + (3/2) log2(3/2)] / 2 = 0.1887218755...
WERNER_P = 0.5
WERNER_I = 2 - (5 / 8 * math.log2(8 / 5) + 9 / 8)
WERNER_C = (0.5 * math.log2(0.5) + 1.5 * math.log2(1.5)) / 2
WERNER_D = WERNER_I - WERNER_C


def werner(p=WERNER_P):
    psi = np.array([0, 1, -1, 0]) / math.sqrt(2)
    return p * np.outer(psi, psi) + (1 - p) * np.eye(4) / 4 + 0j


def werner_sequential():
    """The exact sequential result: both parties measured in the computational basis."""
    p = WERNER_P
    z = np.array([np.diag([1.0, 0]), np.diag([0, 1.0])]) + 0j
    table = np.array([[1 - p, 1 + p], [1 + p, 1 - p]]) / 4
    return {"order": (0, 1), "step_discords": (WERNER_D, 0.0),
            "step_projectors": [z, z.copy()], "q": WERNER_D,
            "c": WERNER_I - WERNER_D, "info": WERNER_I, "table": table}


def werner_report():
    lam = np.array([5, 1, 1, 1]) / 8
    return {"marginal_entropies": (1.0, 1.0),
            "joint_entropy": float(-(lam * np.log2(lam)).sum()),
            "info": WERNER_I,
            "per_subsystem": ((WERNER_D, WERNER_C), (WERNER_D, WERNER_C)),
            "sequential": werner_sequential()}


def rng():
    return np.random.default_rng(7)


def test_luo_matches_the_werner_closed_form():
    d, c = checks.luo_bell_diagonal(checks.bell_correlations(werner()))
    assert abs(c - WERNER_C) < 1e-12 and abs(d - WERNER_D) < 1e-12


def test_werner_j_is_the_same_for_every_measurement():
    for _ in range(5):
        basis = checks.haar_unitary(2, rng()).T
        j = checks.j_value(werner(), (2, 2), 0, checks.projectors(basis))
        assert abs(j - WERNER_C) < 1e-12


def test_born_table_and_dephasing_match_kronecker_products():
    g = np.random.default_rng(3)
    dims = (2, 3, 2)
    m = workloads._ginibre(12, 12, g)
    bases = [checks.haar_unitary(d, g).T for d in dims]
    projs = [checks.projectors(b) for b in bases]
    want = np.empty(dims)
    for idx in np.ndindex(*dims):
        op = np.kron(np.kron(projs[0][idx[0]], projs[1][idx[1]]), projs[2][idx[2]])
        want[idx] = np.trace(op @ m).real
    assert np.abs(checks.born_table(m, dims, projs) - want).max() < 1e-14
    full = [np.kron(np.kron(np.eye(2), p), np.eye(2)) for p in projs[1]]
    want_dephased = sum(p @ m @ p for p in full)
    assert np.abs(checks.dephase(m, dims, 1, projs[1]) - want_dephased).max() < 1e-14


def test_checks_accept_the_exact_werner_results():
    assert checks.check_sequential(werner(), (2, 2), werner_sequential(),
                                   "bell_diagonal", rng()) == []
    assert checks.check_full_report(werner(), (2, 2), werner_report(),
                                    "bell_diagonal", rng()) == []


def _perturbed_sequential():
    for key in ("q", "c", "info"):
        seq = werner_sequential()
        seq[key] += 1e-3
        yield key, seq
    seq = werner_sequential()
    seq["step_discords"] = (WERNER_D + 1e-3, 0.0)
    yield "step 0 discord", seq
    seq = werner_sequential()
    seq["step_discords"] = (WERNER_D, 1e-3)
    yield "step 1 discord", seq
    seq = werner_sequential()
    seq["table"] = seq["table"] + np.array([[1e-3, -1e-3], [0, 0]])
    yield "table", seq


@pytest.mark.parametrize("what,seq", list(_perturbed_sequential()))
def test_checks_flag_a_sequential_result_off_by_1e_3(what, seq):
    assert checks.check_sequential(werner(), (2, 2), seq, "bell_diagonal", rng())


@pytest.mark.parametrize("k,field", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_checks_flag_a_per_subsystem_value_off_by_1e_3(k, field):
    rep = werner_report()
    per = [list(x) for x in rep["per_subsystem"]]
    per[k][field] += 1e-3
    rep["per_subsystem"] = tuple(tuple(x) for x in per)
    assert checks.check_full_report(werner(), (2, 2), rep, "bell_diagonal", rng())


def test_bloch_sphere_search_finds_luo_classical_correlation():
    m = workloads._bell_diagonal(np.random.default_rng(5))
    _, c = checks.luo_bell_diagonal(checks.bell_correlations(m))
    for k in (0, 1):
        assert abs(checks.best_qubit_j(m, (2, 2), k) - c) < 1e-9


def test_batched_j_matches_the_plain_channel():
    m = workloads._ginibre(4, 4, np.random.default_rng(4))
    bloch = np.array([[0.3, -0.5, 0.8]]) / math.sqrt(0.98)
    plus = (np.eye(2) + sum(x * s for x, s in zip(bloch[0], checks.PAULI))) / 2
    for k in (0, 1):
        want = checks.j_value(m, (2, 2), k, np.array([plus, np.eye(2) - plus]))
        assert abs(checks.j_values_qubit(m, (2, 2), k, bloch)[0] - want) < 1e-12


def test_checks_flag_entropies_off_by_1e_3():
    rep = werner_report()
    rep["joint_entropy"] += 1e-3
    assert checks.check_full_report(werner(), (2, 2), rep, "bell_diagonal", rng())


def test_closed_forms_flag_consistent_but_wrong_values():
    # a self-consistent sequential result with the discord moved by 1e-3
    # passes the identities but not the closed form
    seq = werner_sequential()
    seq["step_discords"] = (WERNER_D + 1e-3, 0.0)
    seq["q"] += 1e-3
    seq["c"] -= 1e-3
    fails = checks.check_sequential(werner(), (2, 2), seq, "bell_diagonal", rng())
    assert any("Luo" in f for f in fails)


def test_sampled_measurements_flag_a_missed_optimum():
    # the paper example measured on the qubit in the +/- basis instead of
    # the computational one: its J is lower than random measurements give
    s = 1 / math.sqrt(2)
    m = workloads._pure(np.array([s, 0, 0.5, 0.5], dtype=complex))
    x = checks.projectors(np.array([[s, s], [s, -s]], dtype=complex))
    info = checks.mutual_info(m, (2, 2))
    d0 = info - checks.j_value(m, (2, 2), 0, x)
    after = checks.dephase(m, (2, 2), 0, x)
    z = checks.projectors(np.eye(2, dtype=complex))
    d1 = max(checks.mutual_info(after, (2, 2)) - checks.j_value(after, (2, 2), 1, z), 0)
    table = checks.born_table(m, (2, 2), [x, z])
    seq = {"order": (0, 1), "step_discords": (d0, d1), "step_projectors": [x, z],
           "q": d0 + d1, "c": info - d0 - d1, "info": info, "table": table}
    fails = checks.check_sequential(m, (2, 2), seq, "generic", rng())
    assert any("random measurement" in f for f in fails)


@pytest.fixture(scope="module")
def qcorr():
    sys.path.insert(0, str(ROOT / "src"))
    import qcorr
    import qcorr.cli  # noqa: F401  (the tracer wraps every layer, cli included)
    return qcorr


def test_qcorr_outputs_pass_on_a_round_of_qubit_pairs(qcorr):
    for i, case in enumerate(workloads.qubit_pairs(0)[:5]):
        result = workloads.analyse(qcorr, "qubit_pairs", qcorr.from_dense(case.matrix, case.dims))
        data = workloads.output_data("qubit_pairs", result)
        assert workloads.check("qubit_pairs", case, data, np.random.default_rng(i)) == []


def test_tracer_counts_repeat_and_it_restores_every_binding(qcorr):
    from tracing import Tracer
    original = qcorr.correlations.optimize_measurement
    eigvalsh = np.linalg.eigvalsh
    rho = qcorr.named("paper_example")
    runs = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install(qcorr)
        try:
            with tracer.request(0, "paper_example"):
                qcorr.sequential_measure(rho, (0, 1))
        finally:
            tracer.remove()
        calls = {k: v["calls"] for k, v in tracer.layer_totals().items()}
        counts = {k: v for k, v in tracer.counts.items() if not k.endswith(".ns")}
        runs.append((calls, counts, tracer.max_einsum_bytes))
    assert runs[0] == runs[1]
    calls, counts, _ = runs[0]
    # correlations binds optimize_measurement by name; its calls are traced
    assert calls["optimizer.optimize_measurement"] == 2
    assert counts["optimizer.j_evals"] > 2 * 128 * 128
    assert counts["kernel.eig.calls"] > 0 and counts["kernel.einsum.calls"] > 0
    assert qcorr.correlations.optimize_measurement is original
    assert np.linalg.eigvalsh is eigvalsh



def test_pace_takes_out_probe_time_and_scales_each_stretch_by_its_probes():
    from pace import REFERENCE_S as r, PaceProbe
    probe = PaceProbe()
    # probes of r at t = 0 and 1, then of 2r at t = 2 and 3
    probe.starts = [0.0, 1.0, 2.0, 3.0]
    probe.ends = [t + d for t, d in zip(probe.starts, (r, r, 2 * r, 2 * r))]
    # 0.5 s between the probes at 0 and 1, at pace r, then 0.5 - r after
    # the one at 1, paced by it and the next one, (r + 2r) / 2
    assert probe.normalised_s(0.5, 1.5) == pytest.approx(0.5 + (0.5 - r) / 1.5)
    # 0.5 s between probes of r and 2r, then 0.5 - 2r after the one at 2
    assert probe.normalised_s(1.5, 2.5) == pytest.approx(0.5 / 1.5 + (0.5 - 2 * r) / 2)
    # past the last probe, its pace holds
    assert probe.normalised_s(2.5, 3.5) == pytest.approx(0.5 - r)


def test_pace_probe_fires_during_the_loop_and_restores_the_handler():
    import signal
    import time
    from pace import PaceProbe
    handler = signal.getsignal(signal.SIGALRM)
    with PaceProbe() as probe:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            pass
    assert len(probe.starts) >= 4  # one each at entry and exit, and timed ones
    assert probe.normalised_s(start, start + 0.3) > 0
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


@pytest.mark.parametrize("shift", [1e-3, -1e-3])
def test_checks_flag_a_generic_c_1_moved_with_d_1(qcorr, shift):
    # D_1 = I - C_1 still holds and D_0 still matches the sequential part,
    # so only the bound on C_1 from the Bloch-sphere search can catch this
    case = workloads.qubit_pairs(0)[1]
    assert case.kind == "generic"
    rep = workloads.output_data(
        "qubit_pairs", qcorr.full_report(qcorr.from_dense(case.matrix, case.dims)))
    (d0, c0), (d1, c1) = rep["per_subsystem"]
    rep["per_subsystem"] = ((d0, c0), (d1 - shift, c1 + shift))
    fails = checks.check_full_report(case.matrix, case.dims, rep, case.kind, rng())
    assert fails and all("C_1" in f for f in fails)
