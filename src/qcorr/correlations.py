"""Correlation measures assembled from the layers below.

Per-subsystem discord D_k and Henderson-Vedral classical correlation C_k,
plus the sequential overall quantum measure Q and overall classical
measure C obtained by measuring every subsystem in turn with its optimal
projective measurement.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import measurement as msr
from .errors import BadOrder
from .infotheory import (ProbabilityTable, classical_mutual_information,
                         mutual_information, probability_table,
                         von_neumann_entropy)
from .measurement import ProjectiveMeasurement, apply_nonselective
from .optimizer import (OptimalMeasurementResult, OptimizerConfig,
                        optimize_measurement)
from .states import DensityMatrix, reduced

CLASSIFY_TOL = 1e-6


@dataclass(frozen=True)
class SequentialReport:
    order: tuple[int, ...]
    step_discords: tuple[float, ...]
    step_measurements: tuple[ProjectiveMeasurement, ...]
    step_params: tuple[tuple[float, ...] | None, ...]
    q_total: float
    c_total: float
    mutual_info: float
    classical_table: ProbabilityTable
    identity_residuals: tuple[float, float]  # |Q + C - I|, |Q - (I - I_cl)|


@dataclass(frozen=True)
class CorrelationReport:
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


def _joint_outcome_table(rho: DensityMatrix,
                         measurements: dict[int, ProjectiveMeasurement]) -> ProbabilityTable:
    """p[i_1 ... i_m] = Tr[(P_{i_1} x ... x P_{i_m}) rho]."""
    dims = rho.dims
    probs = np.empty(tuple(dims))
    for outcome in itertools.product(*(range(d) for d in dims)):
        full = np.eye(1)
        for k, i in enumerate(outcome):
            full = np.kron(full, measurements[k].projectors[i])
        probs[outcome] = float(np.trace(full @ rho.matrix).real)
    return probability_table(probs, dims)


def sequential_measure(rho: DensityMatrix, order,
                       config: OptimizerConfig = OptimizerConfig()) -> SequentialReport:
    """Measure every subsystem in `order` with its step-optimal measurement.

    Each step optimizes the measurement on the current (already partially
    measured) state, records the step discord, and replaces the state by
    the non-selective channel output. The final state is classical; its
    joint outcome distribution gives the overall classical correlations.
    """
    return _sequential_measure(rho, order, config)


def _sequential_measure(rho: DensityMatrix, order, config: OptimizerConfig,
                        first: OptimalMeasurementResult | None = None) -> SequentialReport:
    """sequential_measure, taking `first` as the step-0 result when given.

    `first` must be optimize_measurement(rho, order[0], config); callers that
    already hold it skip optimizing the same subsystem of the same state twice.
    """
    order = tuple(int(k) for k in order)
    if sorted(order) != list(range(rho.n_subsystems)):
        raise BadOrder(f"{order} is not a permutation of 0..{rho.n_subsystems - 1}")
    info = mutual_information(rho)
    current = rho
    step_discords, step_measurements, step_params = [], [], []
    for step, k in enumerate(order):
        if step == 0 and first is not None:
            result = first
        else:
            result = optimize_measurement(current, k, config)
        step_discords.append(result.discord)
        step_measurements.append(result.measurement)
        step_params.append(result.params)
        current = apply_nonselective(current, k, result.measurement)
    by_subsystem = dict(zip(order, step_measurements))
    table = _joint_outcome_table(rho, by_subsystem)
    q = float(sum(step_discords))
    c = classical_mutual_information(table)
    residuals = (abs(q + c - info), abs(q - (info - c)))
    return SequentialReport(order, tuple(step_discords), tuple(step_measurements),
                            tuple(step_params), q, c, info, table, residuals)


def overall_q(rho: DensityMatrix, config: OptimizerConfig = OptimizerConfig()) -> float:
    """Overall quantum correlations Q for the identity measurement order."""
    return sequential_measure(rho, range(rho.n_subsystems), config).q_total


def overall_c(rho: DensityMatrix, config: OptimizerConfig = OptimizerConfig()) -> float:
    """Overall classical correlations C for the identity measurement order."""
    return sequential_measure(rho, range(rho.n_subsystems), config).c_total


def full_report(rho: DensityMatrix,
                config: OptimizerConfig = OptimizerConfig()) -> CorrelationReport:
    marginals = tuple(von_neumann_entropy(reduced(rho, {k}))
                      for k in range(rho.n_subsystems))
    joint = von_neumann_entropy(rho)
    info = mutual_information(rho)
    results = [optimize_measurement(rho, k, config) for k in range(rho.n_subsystems)]
    per = tuple((res.discord, res.j_value) for res in results)
    seq = _sequential_measure(rho, range(rho.n_subsystems), config, first=results[0])
    return CorrelationReport(rho.dims, marginals, joint, info, per, seq)


def classify(rho: DensityMatrix, config: OptimizerConfig = OptimizerConfig(),
             tol: float = CLASSIFY_TOL) -> str:
    """Classify a bipartite state.

    Returns one of 'product', 'classical_classical', 'classical_quantum(k)'
    or 'discordant'. Zero-discord detection uses the soft threshold `tol`.
    """
    if rho.n_subsystems != 2:
        raise BadOrder("classification is defined for bipartite states")
    info = mutual_information(rho)
    if info <= tol:
        return "product"
    results = [optimize_measurement(rho, k, config) for k in (0, 1)]
    zero = [r.discord <= tol for r in results]
    if all(zero):
        ens = msr.conditionals(rho, 0, results[0].measurement)
        present = [s.matrix for s in ens.states if s is not None]
        commuting = all(
            np.abs(a @ b - b @ a).max() <= tol
            for i, a in enumerate(present) for b in present[i + 1:])
        if commuting:
            return "classical_classical"
    for k in (0, 1):
        if zero[k]:
            return f"classical_quantum({k})"
    return "discordant"
