import dataclasses

import qcorr

PUBLIC_NAMES = [
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


def test_all_is_the_public_surface_and_every_name_resolves():
    assert sorted(qcorr.__all__) == sorted(PUBLIC_NAMES)
    for name in qcorr.__all__:
        assert getattr(qcorr, name).__module__.startswith("qcorr.")


def test_every_public_name_has_its_own_docstring():
    # a dataclass without one gets its generated signature, "Name(field: type, ...)"
    missing = []
    for name in qcorr.__all__:
        obj = getattr(qcorr, name)
        doc = (obj.__doc__ or "").strip()
        if not doc or (dataclasses.is_dataclass(obj) and doc.startswith(f"{name}(")):
            missing.append(name)
    assert missing == []
