"""Quantum and classical correlation measures for finite-dimensional states."""

from .correlations import (CorrelationReport, SequentialReport, classical_hv,
                           classify, discord, full_report, overall_c,
                           overall_q, sequential_measure)
from .infotheory import (ProbabilityTable, classical_mutual_information,
                         mutual_information, probability_table,
                         relative_entropy, shannon_entropy,
                         von_neumann_entropy)
from .measurement import (ConditionalEnsemble, ProjectiveMeasurement,
                          apply_nonselective, conditionals, induced_J,
                          measurement_from_unitary, qubit_measurement)
from .optimizer import (OptimalMeasurementResult, OptimizerConfig,
                        grid_search_qubit, optimize_measurement)
from .states import DensityMatrix, from_dense, from_pure, named, reduced, tensor

__all__ = [
    "CorrelationReport", "SequentialReport", "classical_hv", "classify",
    "discord", "full_report", "overall_c", "overall_q", "sequential_measure",
    "ProbabilityTable", "classical_mutual_information", "mutual_information",
    "probability_table", "relative_entropy", "shannon_entropy",
    "von_neumann_entropy",
    "ConditionalEnsemble", "ProjectiveMeasurement", "apply_nonselective",
    "conditionals", "induced_J", "measurement_from_unitary",
    "qubit_measurement",
    "OptimalMeasurementResult", "OptimizerConfig", "grid_search_qubit",
    "optimize_measurement",
    "DensityMatrix", "from_dense", "from_pure", "named", "reduced", "tensor",
]

__version__ = "0.1.0"
