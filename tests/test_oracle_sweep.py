"""The oracle sweep: the qubit searches of two benchmark workloads, seed by
seed, against fine grids.

Marked `slow` and deselected by default; run it with `pytest -m slow`. It
takes about two minutes on one core. Every search must end within 1e-9 bits
of its grid's best J:

- qubit_pairs, seeds 1-300: each state's `full_report` searches, subsystems
  0 and 1 of the state and step 1 of the sequential run, against 256 x 256
  grids (8,100 searches);
- multiqubit_seq, seeds 1-30: every step of the random 4- and 5-qubit
  states' sequential runs against 128 x 128 grids (270 searches).
"""
import pytest

from conftest import multiqubit_random_states, oracle_j, qubit_pairs_states, sequential_shortfalls
from qcorr import correlations, measurement

pytestmark = pytest.mark.slow


@pytest.mark.parametrize("first", range(1, 301, 50))
def test_qubit_pairs_searches_reach_the_256_grid(first):
    misses, searches = [], 0
    for seed in range(first, first + 50):
        for label, rho in qubit_pairs_states(seed).items():
            report = correlations.full_report(rho)
            ens = measurement.CQEnsemble.of(rho)
            after = ens.split(0, report.sequential.steps[0].measurement.basis)
            found = {"k=0": (ens, 0, report.per_subsystem[0][1]),
                     "k=1": (ens, 1, report.per_subsystem[1][1]),
                     "step 1": (after, 1, report.sequential.steps[1].j_value)}
            for search, (e, k, j) in found.items():
                searches += 1
                short = oracle_j(e, k, 256) - j
                if short > 1e-9:
                    misses.append((seed, label, search, short))
    assert searches == 50 * 9 * 3
    assert not misses


@pytest.mark.parametrize("first", range(1, 31, 10))
def test_multiqubit_steps_reach_the_128_grid(first):
    misses, searches = [], 0
    for seed in range(first, first + 10):
        for label, rho in multiqubit_random_states(seed).items():
            for step, short in enumerate(sequential_shortfalls(rho, 128)):
                searches += 1
                if short > 1e-9:
                    misses.append((seed, label, step, short))
    assert searches == 10 * (4 + 5)
    assert not misses
