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

from . import measurement as msr
from .errors import BadOrder
from .infotheory import (ProbabilityTable, classical_mutual_information,
                         probability_table)
from .measurement import CQEnsemble, ProjectiveMeasurement
from .optimizer import (OptimalMeasurementResult, OptimizerConfig, _optimize,
                        optimize_measurement)
from .states import DensityMatrix

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
    return _sequential_measure(CQEnsemble.of(rho), order, config)


def _sequential_measure(ens: CQEnsemble, order, config: OptimizerConfig,
                        first: OptimalMeasurementResult | None = None) -> SequentialReport:
    """sequential_measure on `ens` = CQEnsemble.of(rho), taking `first` as step 0.

    `first`, when given, must be optimize_measurement(rho, order[0], config);
    callers that already hold it skip optimizing the same subsystem of the
    same state twice. Sharing `ens` shares its entropies.
    """
    n = len(ens.dims)
    order = tuple(int(k) for k in order)
    if sorted(order) != list(range(n)):
        raise BadOrder(f"{order} is not a permutation of 0..{n - 1}")
    info = ens.mutual_information()
    step_discords, step_measurements, step_params = [], [], []
    for step, k in enumerate(order):
        result = first if step == 0 and first is not None else _optimize(ens, k, config)
        step_discords.append(result.discord)
        step_measurements.append(result.measurement)
        step_params.append(result.params)
        ens = ens.split(k, result.measurement.basis)
    table = probability_table(ens.outcome_table(), ens.dims)
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
    ens = CQEnsemble.of(rho)
    results = [_optimize(ens, k, config) for k in range(rho.n_subsystems)]
    per = tuple((res.discord, res.j_value) for res in results)
    seq = _sequential_measure(ens, range(rho.n_subsystems), config, first=results[0])
    return CorrelationReport(rho.dims, ens.marginal_entropies, ens.joint_entropy,
                             seq.mutual_info, per, seq)


def classify(rho: DensityMatrix, config: OptimizerConfig = OptimizerConfig(),
             tol: float = CLASSIFY_TOL) -> str:
    """Classify a bipartite state.

    Returns one of 'product', 'classical_classical', 'classical_quantum(k)'
    or 'discordant'. Zero-discord detection uses the soft threshold `tol`.
    """
    if rho.n_subsystems != 2:
        raise BadOrder("classification is defined for bipartite states")
    ens = CQEnsemble.of(rho)
    if ens.mutual_information() <= tol:
        return "product"
    results = [_optimize(ens, k, config) for k in (0, 1)]
    zero = [r.discord <= tol for r in results]
    if all(zero):
        cond = msr.conditionals(rho, 0, results[0].measurement)
        present = [s.matrix for s in cond.states if s is not None]
        commuting = all(
            np.abs(a @ b - b @ a).max() <= tol
            for i, a in enumerate(present) for b in present[i + 1:])
        if commuting:
            return "classical_classical"
    for k in (0, 1):
        if zero[k]:
            return f"classical_quantum({k})"
    return "discordant"
