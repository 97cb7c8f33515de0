import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
import textwrap
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


def _init_attributes(cls) -> set[str]:
    """The attributes a class's own, hand-written `__init__` assigns on self."""
    init = vars(cls).get("__init__")
    if init is None or dataclasses.is_dataclass(cls):
        return set()
    tree = ast.parse(textwrap.dedent(inspect.getsource(init)))
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self"}


def test_every_private_name_the_readme_names_exists():
    # a backticked `_name` must be an attribute of a qcorr module or a member
    # of one of its classes, and a `_Class.attr` a member of that class: a
    # class attribute or method, a dataclass field, or set by its __init__
    modules = [importlib.import_module(f"qcorr.{info.name}")
               for info in pkgutil.iter_modules(qcorr.__path__)]
    classes = {cls for module in modules for _, cls in inspect.getmembers(module, inspect.isclass)
               if cls.__module__.startswith("qcorr.")}
    members = {cls: set(dir(cls)) | set(getattr(cls, "__dataclass_fields__", ()))
               | _init_attributes(cls) for cls in classes}
    names = set(re.findall(r"`(_[A-Za-z]\w*(?:\.\w+)?)`", README.read_text(encoding="utf-8")))
    missing = []
    for name in sorted(names):
        owner, _, attr = name.partition(".")
        if attr:
            found = any(cls.__name__ == owner and attr in members[cls] for cls in classes)
        else:
            found = (any(hasattr(module, name) for module in modules)
                     or any(name in members[cls] for cls in classes))
        if not found:
            missing.append(name)
    assert names
    assert missing == []
