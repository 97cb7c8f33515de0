"""Acceptance suite: one test per criterion, each printing a pass/fail line."""
import math
import time

import numpy as np
import pytest

from conftest import random_bell_diagonal
from qcorr import (OptimizerConfig, correlations, infotheory, linalg,
                   measurement, optimizer, states)

PAPER_DA = 0.6008760366928562
PAPER_DB_STEP2 = 0.2017520733857121
PAPER_Q = PAPER_DA + PAPER_DB_STEP2
PAPER_I = 2 * PAPER_DA

DEFAULT = OptimizerConfig()


def report(name, ok, detail=""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name} {detail}")
    assert ok, f"{name}: {detail}"


def random_qubit_measurement(rng):
    theta = math.acos(rng.uniform(-1, 1))
    phi = rng.uniform(0, 2 * math.pi)
    return measurement.qubit_measurement(theta, phi)


def test_criterion_1_paper_example_step_one():
    rho = states.named("paper_example")
    start = time.monotonic()
    res = optimizer.optimize_measurement(rho, 0, DEFAULT)
    elapsed = time.monotonic() - start
    value_err = abs(res.discord - PAPER_DA)
    comp = (np.diag([1.0, 0]), np.diag([0, 1.0]))
    proj_dist = min(
        max(np.abs(res.measurement.projectors[0] - comp[i]).max(),
            np.abs(res.measurement.projectors[1] - comp[1 - i]).max())
        for i in (0, 1))
    report("criterion 1: step-1 discord = 0.600876 +- 5e-4, computational basis",
           value_err <= 5e-4 and proj_dist <= 1e-3 and elapsed < 5.0,
           f"(|dD|={value_err:.2e}, proj dist={proj_dist:.2e}, {elapsed:.2f}s)")


def test_criterion_2_paper_example_step_two():
    rho = states.named("paper_example")
    res_a = optimizer.optimize_measurement(rho, 0, DEFAULT)
    after = measurement.apply_nonselective(rho, 0, res_a.measurement)
    res_b = optimizer.optimize_measurement(after, 1, DEFAULT)
    value_err = abs(res_b.discord - PAPER_DB_STEP2)
    target = np.array([math.sin(math.pi / 8), math.cos(math.pi / 8)])
    angles = []
    for p in res_b.measurement.projectors:
        overlap = float((target @ p @ target).real)
        angles.append(math.acos(min(math.sqrt(max(overlap, 0.0)), 1.0)))
    angle_err = min(angles)
    report("criterion 2: step-2 discord = 0.201752 +- 5e-4, basis at pi/8",
           value_err <= 5e-4 and angle_err <= 1e-2,
           f"(|dD|={value_err:.2e}, angle err={angle_err:.2e} rad)")


def test_criterion_3_paper_example_overall():
    seq = correlations.sequential_measure(states.named("paper_example"),
                                          (0, 1), DEFAULT)
    q_err = abs(seq.q_total - PAPER_Q)
    r1, r2 = seq.identity_residuals
    report("criterion 3: Q = 0.802628 +- 1e-3 with Q + C = I identities",
           q_err <= 1e-3 and r1 <= 1e-6 and r2 <= 1e-6,
           f"(|dQ|={q_err:.2e}, |Q+C-I|={r1:.2e}, |Q-(I-Icl)|={r2:.2e})")


def test_criterion_4_derived_fixtures():
    bell = states.named("bell", which="phi+")
    res = optimizer.optimize_measurement(bell, 0, DEFAULT)
    seq = correlations.sequential_measure(bell, (0, 1), DEFAULT)
    bell_errs = [abs(infotheory.mutual_information(bell) - 2),
                 abs(res.discord - 1), abs(res.j_value - 1),
                 abs(seq.q_total - 1), abs(seq.c_total - 1)]
    ghz = states.named("ghz", n=3)
    gseq = correlations.sequential_measure(ghz, (0, 1, 2), DEFAULT)
    ghz_errs = [abs(infotheory.mutual_information(ghz) - 3),
                abs(gseq.step_discords[0] - 1),
                abs(gseq.q_total - 1), abs(gseq.c_total - 2)]
    worst = max(bell_errs + ghz_errs)
    report("criterion 4: Bell and GHZ(3) fixture values within 1e-4",
           worst <= 1e-4, f"(worst err={worst:.2e})")


def test_criterion_5_property_suite_200_states():
    rng = np.random.default_rng(2026)
    start = time.monotonic()
    worst_chain = worst_c = worst_mono = worst_residual = 0.0
    for _ in range(200):
        rho = states.random_density((2, 2), rng)
        info = infotheory.mutual_information(rho)
        res = optimizer.optimize_measurement(rho, 0, DEFAULT)
        seq = correlations.sequential_measure(rho, (0, 1), DEFAULT)
        # 0 <= D_A as J <= I, the unfloored discord, against the I of Q and C
        worst_chain = max(worst_chain, res.j_value - seq.mutual_info,
                          res.discord - seq.q_total, seq.q_total - info)
        worst_c = max(worst_c, seq.c_total - res.j_value)
        out = measurement.apply_nonselective(rho, 0, random_qubit_measurement(rng))
        worst_mono = max(worst_mono, infotheory.mutual_information(out) - info)
        measured = measurement.apply_nonselective(rho, 0, res.measurement)
        again = optimizer.optimize_measurement(measured, 0, DEFAULT)
        worst_residual = max(worst_residual, again.discord)
    elapsed = time.monotonic() - start
    report("criterion 5: bound chain / monotonicity / residual discord on 200 states",
           (worst_chain <= 1e-6 and worst_c <= 1e-6 and worst_mono <= 1e-9
            and worst_residual <= 1e-3 and elapsed < 120),
           f"(chain={worst_chain:.2e}, C-C_A={worst_c:.2e}, mono={worst_mono:.2e}, "
           f"residual D={worst_residual:.2e}, {elapsed:.1f}s)")


def test_criterion_6_bell_diagonal_corollary():
    rng = np.random.default_rng(606)
    worst_gap = worst_comm = 0.0
    for _ in range(50):
        rho = random_bell_diagonal(rng)
        res = optimizer.optimize_measurement(rho, 0, DEFAULT)
        seq = correlations.sequential_measure(rho, (0, 1), DEFAULT)
        worst_gap = max(worst_gap, abs(seq.q_total - res.discord))
        ens = measurement.conditionals(rho, 0, res.measurement)
        present = [s.matrix for s in ens.states if s is not None]
        for i, a in enumerate(present):
            for b in present[i + 1:]:
                worst_comm = max(worst_comm, float(np.abs(a @ b - b @ a).max()))
    report("criterion 6: Bell-diagonal states have Q = D_A and commuting conditionals",
           worst_gap <= 1e-3 and worst_comm <= 1e-6,
           f"(|Q-D_A|={worst_gap:.2e}, commutator={worst_comm:.2e})")


def test_criterion_7_oracle_equivalence():
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(50):
        rho = states.random_density((2, 2), rng)
        res = optimizer.optimize_measurement(rho, 0, DEFAULT)
        _, _, j_grid = optimizer.grid_search_qubit(rho, 0, 512)
        worst = max(worst, abs(res.j_value - j_grid))
    report("criterion 7: optimizer J matches 512x512 grid within 1e-4 on 50 states",
           worst <= 1e-4, f"(worst gap={worst:.2e})")


def test_criterion_8_relative_entropy_identity():
    rng = np.random.default_rng(808)
    worst = 0.0
    for i in range(100):
        dims = [(2, 2), (2, 3), (3, 2), (3, 3)][i % 4]
        rho = states.random_density(dims, rng)
        prod = states.tensor(states.reduced(rho, {0}), states.reduced(rho, {1}))
        gap = abs(infotheory.mutual_information(rho)
                  - infotheory.relative_entropy(rho, prod))
        worst = max(worst, gap)
    report("criterion 8: I = S(rho || rho_A x rho_B) within 1e-8 on 100 states",
           worst <= 1e-8, f"(worst gap={worst:.2e})")
