"""The benchmark's workloads: seeded input states and the public call each one times.

A workload is a round of states. The timed loop analyses the round again
and again, one state at a time, so every round does the same work and the
per-layer counts of one round repeat exactly.

Inputs are plain numpy matrices built here from the seed; the program only
receives them through `qcorr.from_dense`.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from checks import check_full_report, check_sequential, haar_unitary

# The qutrit-side problems of `qutrit_qubit` come from this fixed stream and
# the seed only turns the qubit's frame. The qudit compass search costs
# between 5 s and 27 s on fully random 3x2 mixed states, so a random draw
# per seed would make states/s follow the seed rather than the code. A
# unitary on the qubit leaves every qutrit measurement's J, and so the
# qutrit search and its J-evaluation count, unchanged.
CATALOG_SEED = 2011


class Case(NamedTuple):
    label: str
    dims: tuple[int, ...]
    matrix: np.ndarray
    kind: str  # closed form that applies; see checks.check_sequential


def _ginibre(d: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _pure(psi: np.ndarray) -> np.ndarray:
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def _random_pure(d: int, rng: np.random.Generator) -> np.ndarray:
    return _pure(rng.standard_normal(d) + 1j * rng.standard_normal(d))


def _bell_diagonal(rng: np.random.Generator) -> np.ndarray:
    s = 1 / math.sqrt(2)
    bells = ([s, 0, 0, s], [s, 0, 0, -s], [0, s, s, 0], [0, s, -s, 0])
    w = rng.random(4)
    w /= w.sum()
    return sum(wi * _pure(np.array(v, dtype=complex)) for wi, v in zip(w, bells))


def qubit_pairs(seed: int) -> list[Case]:
    """Two-qubit states for `full_report`: the paper example plus two of each family."""
    rng = np.random.default_rng([seed, 1])
    s = 1 / math.sqrt(2)
    cases = [Case("paper_example", (2, 2), _pure(np.array([s, 0, 0.5, 0.5], dtype=complex)),
                  "paper")]
    for i in range(2):
        cases += [Case(f"ginibre_{i}", (2, 2), _ginibre(4, 4, rng), "generic"),
                  Case(f"rank2_{i}", (2, 2), _ginibre(4, 2, rng), "generic"),
                  Case(f"pure_{i}", (2, 2), _random_pure(4, rng), "pure"),
                  Case(f"bell_diagonal_{i}", (2, 2), _bell_diagonal(rng), "bell_diagonal")]
    return cases


def qutrit_qubit(seed: int) -> list[Case]:
    """3x2 states for `sequential_measure(rho, (0, 1))`: pure, classical-quantum, mixed."""
    rng = np.random.default_rng([seed, 2])
    catalog = np.random.default_rng(CATALOG_SEED)
    p = catalog.dirichlet(np.ones(3))
    cq = sum(p[i] * np.kron(np.diag(np.eye(3)[i]), _ginibre(2, 2, catalog))
             for i in range(3))
    mixed = _ginibre(6, 6, catalog)
    frame = np.kron(np.eye(3), haar_unitary(2, rng))
    turn = lambda m: frame @ m @ frame.conj().T
    return [Case("pure", (3, 2), _random_pure(6, rng), "pure"),
            Case("classical_quantum", (3, 2), turn(cq), "cq"),
            Case("mixed", (3, 2), turn(mixed), "generic")]


def multiqubit_seq(seed: int) -> list[Case]:
    """GHZ-n for n = 4, 5, 6 and random mixed n-qubit states for n = 4, 5.

    A random mixed 6-qubit state takes about 25 s, longer than a whole run,
    so the 6-qubit size is covered by GHZ-6 alone.
    """
    rng = np.random.default_rng([seed, 3])
    cases = []
    for n in (4, 5, 6):
        ghz = np.zeros(2 ** n, dtype=complex)
        ghz[0] = ghz[-1] = 1
        cases.append(Case(f"ghz_{n}", (2,) * n, _pure(ghz), "ghz"))
        if n < 6:
            cases.append(Case(f"random_{n}", (2,) * n, _ginibre(2 ** n, 2 ** n, rng),
                              "generic"))
    return cases


WORKLOADS = {"qubit_pairs": qubit_pairs, "qutrit_qubit": qutrit_qubit,
             "multiqubit_seq": multiqubit_seq}


def analyse(qcorr, workload: str, rho):
    """The one public-API call the workload times for each state."""
    if workload == "qubit_pairs":
        return qcorr.full_report(rho)
    return qcorr.sequential_measure(rho, range(rho.n_subsystems))


def sequential_data(seq) -> dict:
    """Plain-data copy of a SequentialReport for the independent checks."""
    return {"order": tuple(seq.order),
            "step_discords": tuple(float(d) for d in seq.step_discords),
            "step_projectors": [np.array(m.projectors) for m in seq.step_measurements],
            "q": float(seq.q_total), "c": float(seq.c_total),
            "info": float(seq.mutual_info),
            "table": np.array(seq.classical_table.probs, dtype=float)}


def output_data(workload: str, result) -> dict:
    """Plain-data copy of one analysis result."""
    if workload != "qubit_pairs":
        return sequential_data(result)
    return {"marginal_entropies": tuple(result.marginal_entropies),
            "joint_entropy": float(result.joint_entropy),
            "info": float(result.mutual_info),
            "per_subsystem": tuple(result.per_subsystem),
            "sequential": sequential_data(result.sequential)}


def check(workload: str, case: Case, data: dict, rng: np.random.Generator) -> list[str]:
    if workload == "qubit_pairs":
        return check_full_report(case.matrix, case.dims, data, case.kind, rng)
    return check_sequential(case.matrix, case.dims, data, case.kind, rng)
