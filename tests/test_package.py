import dataclasses
import re
from pathlib import Path

import qcorr

README = Path(__file__).resolve().parent.parent / "README.md"

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


def test_the_readme_library_example_prints_what_it_documents():
    # each value a comment documents, "# 1.2017..." or "# 0.802628..., 0.399123...",
    # must be a prefix of the repr of what its line evaluates to
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace, checked = {}, 0
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        documented = re.findall(r"(-?\d+\.\d+)\.\.\.", comment)
        if not documented:
            exec(code.strip(), namespace)
            continue
        values = eval(code.strip(), namespace)
        values = values if isinstance(values, tuple) else (values,)
        assert len(values) == len(documented), line
        for value, prefix in zip(values, documented):
            assert repr(float(value)).startswith(prefix), (line, value)
        checked += len(documented)
    assert checked > 0
