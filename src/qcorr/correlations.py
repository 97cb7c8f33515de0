"""Correlation measures assembled from the layers below.

Per-subsystem discord D_k and Henderson-Vedral classical correlation C_k,
plus the sequential overall quantum measure Q and overall classical
measure C obtained by measuring every subsystem in turn with its optimal
projective measurement. The sequential run carries the classical-quantum
ensemble of its leaves, not a dense state.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadOrder, ParamOutOfRange
from .infotheory import (ProbabilityTable, classical_mutual_information,
                         probability_table)
from .linalg import as_tuple, is_integer
from .measurement import CQEnsemble, ProjectiveMeasurement
from .optimizer import (OptimalMeasurementResult, OptimizerConfig, _optimize,
                        optimize_measurement)
from .states import DensityMatrix, _number

CLASSIFY_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class SequentialReport:
    """The result of measuring every subsystem in turn, in `order`.

    `q_total` is the overall quantum correlation Q, the sum of the step
    discords, and `c_total` the overall classical correlation C, the
    classical mutual information of the joint outcome table
    `classical_table`. `mutual_info` is the state's I, and
    `identity_residuals` how far Q + C = I and Q = I - I_cl miss (bits).
    """
    order: tuple[int, ...]
    steps: tuple[OptimalMeasurementResult, ...]  # the search of each step, in order
    q_total: float
    c_total: float
    mutual_info: float
    classical_table: ProbabilityTable
    identity_residuals: tuple[float, float]  # |Q + C - I|, |Q - (I - I_cl)|

    @property
    def step_discords(self) -> tuple[float, ...]:
        return tuple(step.discord for step in self.steps)

    @property
    def step_measurements(self) -> tuple[ProjectiveMeasurement, ...]:
        return tuple(step.measurement for step in self.steps)

    @property
    def step_params(self) -> tuple[tuple[float, ...] | None, ...]:
        return tuple(step.params for step in self.steps)


@dataclass(frozen=True, eq=False)
class CorrelationReport:
    """Every correlation of one state: its entropies and mutual information,
    (D_k, C_k) for each subsystem k, and the sequential run in the identity
    order. Entropies and correlations are in bits.
    """
    dims: tuple[int, ...]
    marginal_entropies: tuple[float, ...]
    joint_entropy: float
    mutual_info: float
    per_subsystem: tuple[tuple[float, float], ...]  # (D_k, C_k)
    sequential: SequentialReport


def discord(rho: DensityMatrix, k: int,
            config: OptimizerConfig = OptimizerConfig()) -> float:
    """Quantum discord with respect to a measurement on subsystem k, in bits."""
    return optimize_measurement(rho, k, config).discord


def classical_hv(rho: DensityMatrix, k: int,
                 config: OptimizerConfig = OptimizerConfig()) -> float:
    """Henderson-Vedral classical correlation: sup J over measurements on k."""
    return optimize_measurement(rho, k, config).j_value


def sequential_measure(rho: DensityMatrix, order,
                       config: OptimizerConfig = OptimizerConfig()) -> SequentialReport:
    """Measure every subsystem in `order` with its step-optimal measurement.

    Each step optimizes the measurement on the current (already partially
    measured) state, records the step discord, and replaces the state by
    the non-selective channel output. The state after t steps is
    sum_i p_i |i><i| x rho_i over the leaves i (joint outcomes so far), so a
    step only splits each block rho_i on the unmeasured subsystems. The
    final leaf probabilities are the joint outcome distribution, which gives
    the overall classical correlations.
    """
    return _sequential_reports(CQEnsemble.of(rho), [order], config)[0][0]


def _sequential_reports(ens: CQEnsemble, orders, config: OptimizerConfig,
                        first=()) -> tuple[list[SequentialReport], dict]:
    """sequential_measure on `ens` = CQEnsemble.of(rho) for every order in `orders`.

    A step's search and the ensemble it leaves depend only on the measured
    prefix of the order, so each prefix is searched and split once and the
    orders that share it share its steps: every order of 4 subsystems takes
    64 searches, not 4 x 4! = 96. The walk is breadth-first: the prefixes
    of one length are one `_optimize` batch, whose searches ascend
    together, and only the ensembles of the current length are kept. Each
    subsystem of `first` is searched on `ens` in the first batch too.
    Sharing `ens` shares its entropies. Returns the reports, in the order
    of `orders`, and the search of every prefix searched.
    """
    n = len(ens.dims)
    info = ens.mutual_information()
    checked = []
    for order in orders:
        order = as_tuple(order, "order", BadOrder)
        if (not all(is_integer(k) for k in order)
                or sorted(order) != list(range(n))):
            raise BadOrder(f"{order} is not a permutation of 0..{n - 1}")
        checked.append(tuple(int(k) for k in order))
    searches = {}  # measured prefix -> its last step's search
    level = {(): ens}  # measured prefix of the current length -> the ensemble after it
    for t in range(1, n + 1):
        walked = list(dict.fromkeys(order[:t] for order in checked))
        batch = walked + ([(k,) for k in first if (k,) not in walked] if t == 1 else [])
        for prefix, result in zip(batch, _optimize([(level[prefix[:-1]], prefix[-1])
                                                    for prefix in batch], config)):
            searches[prefix] = result
        level = {prefix: level[prefix[:-1]].split(prefix[-1], searches[prefix].measurement.basis)
                 for prefix in walked}
    reports = []
    for order in checked:
        steps = tuple(searches[order[:t]] for t in range(1, n + 1))
        table = probability_table(level[order].outcome_table(), ens.dims)
        q = float(sum(step.discord for step in steps))
        c = classical_mutual_information(table)
        residuals = (abs(q + c - info), abs(q - (info - c)))
        reports.append(SequentialReport(order, steps, q, c, info, table, residuals))
    return reports, searches


def overall_q(rho: DensityMatrix, config: OptimizerConfig = OptimizerConfig()) -> float:
    """Overall quantum correlations Q for the identity measurement order."""
    return sequential_measure(rho, range(rho.n_subsystems), config).q_total


def overall_c(rho: DensityMatrix, config: OptimizerConfig = OptimizerConfig()) -> float:
    """Overall classical correlations C for the identity measurement order."""
    return sequential_measure(rho, range(rho.n_subsystems), config).c_total


def full_report(rho: DensityMatrix,
                config: OptimizerConfig = OptimizerConfig()) -> CorrelationReport:
    """Entropies, mutual information, per-subsystem discord and classical
    correlation, and the sequential Q and C in the identity order.

    D_0 is step 0 of the sequential run, and the other subsystems are
    searched in step 0's batch, so each search runs once.
    """
    ens = CQEnsemble.of(rho)
    n = rho.n_subsystems
    # step 0 is the search on subsystem 0 of the unmeasured state; the
    # others join its batch
    (seq,), searches = _sequential_reports(ens, [range(n)], config, first=range(1, n))
    per = tuple((searches[k,].discord, searches[k,].j_value) for k in range(n))
    return CorrelationReport(rho.dims, ens.marginal_entropies, ens.joint_entropy,
                             seq.mutual_info, per, seq)


def classify(rho: DensityMatrix, config: OptimizerConfig = OptimizerConfig(),
             tol: float = CLASSIFY_TOL) -> str:
    """Classify a bipartite state.

    Returns one of 'product', 'classical_classical', 'classical_quantum(k)'
    or 'discordant'. Zero-discord detection uses the soft threshold `tol`,
    a finite real >= 0 and not a bool (else ParamOutOfRange).
    """
    if _number("classify tol", tol) < 0:
        raise ParamOutOfRange(f"classify tol must be >= 0, got {tol!r}")
    if rho.n_subsystems != 2:
        raise BadOrder("classification is defined for bipartite states")
    ens = CQEnsemble.of(rho)
    if ens.mutual_information() <= tol:
        return "product"
    results = _optimize([(ens, 0), (ens, 1)], config)
    zero = [r.discord <= tol for r in results]
    if all(zero):
        # the conditional states on subsystem 1 of the outcomes that occur
        split = ens.split(0, results[0].measurement.basis)
        present = split.blocks / split.probs[:, None, None]
        commuting = all(
            np.abs(a @ b - b @ a).max() <= tol
            for i, a in enumerate(present) for b in present[i + 1:])
        if commuting:
            return "classical_classical"
    for k in (0, 1):
        if zero[k]:
            return f"classical_quantum({k})"
    return "discordant"
