"""The package namespace: every public name, resolved from its module on use."""

import json
import subprocess
import sys

# The public names of ``relaqm``, by the module that defines them.
EXPORTS = {
    "errors": [
        "DescriptionUnavailable", "DimensionMismatch", "FamilyMismatch",
        "IndexOutOfRange", "InvalidDimension", "MissingUnitary",
        "NormalizationError", "NotAPartition", "NotDoublyStochastic",
        "NotHermitian", "ParseError", "PreconditionViolated", "RelaqmError",
        "TooLarge", "ValidationError", "ZeroBranch",
    ],
    "hilbert": [
        "ATOL", "OPT_ATOL", "RANK_TOL", "Operator", "StateVector", "apply",
        "basis_state", "born_probabilities", "conditional_state", "haar_unitary",
        "identity", "projector_onto", "random_hermitian", "random_state",
        "sample_outcome", "tensor",
    ],
    "measurement": [
        "MeasurementSetup", "collapse_description", "completion_probability",
        "consistency_check", "correlation_operator", "entangling_description",
        "premeasurement_unitary", "standard_setup",
    ],
    "questions": [
        "AnswerString", "CompleteFamily", "Question", "ask_sequence",
        "boolean_algebra", "complete_questions", "implies", "info_capacity", "join",
        "meet", "negate", "orthogonal", "orthomodular_check", "redundant_flags",
        "same_question",
    ],
    "kernels": [
        "TransitionKernel", "UnistochasticResult", "classical_composite_probability",
        "compose", "composite_probability", "interference_gap",
        "kernel_from_families", "phase_fix", "triangle_criterion_3x3",
        "unistochastic_search", "verify_double_stochastic",
    ],
    "dynamics": ["Propagator", "heisenberg_evolve", "propagator", "schrodinger_evolve"],
    "scenario": [
        "Report", "Scenario", "emit_report", "fixture_path", "lint_report",
        "load_scenario", "parse_scenario", "run",
    ],
}
NAMES = {name for names in EXPORTS.values() for name in names}


def fresh(code: str):
    """Run ``code`` in a new interpreter and read the JSON it prints."""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_every_name_resolves_to_its_modules_object():
    code = f"""
import importlib, json, relaqm
exports = {EXPORTS!r}
print(json.dumps([f"{{module}}.{{name}}" for module, names in exports.items()
                  for name in names
                  if getattr(relaqm, name) is not
                  getattr(importlib.import_module("relaqm." + module), name)]))
"""
    assert fresh(code) == []


def test_star_import_and_dir_give_the_public_names():
    code = """
import json, relaqm
listed = [n for n in dir(relaqm) if not n.startswith("_")]
namespace = {}
exec("from relaqm import *", namespace)
star = [n for n in namespace if not n.startswith("__")]
print(json.dumps({"dir": listed, "all": relaqm.__all__, "star": star}))
"""
    seen = fresh(code)
    assert set(seen["dir"]) == set(seen["all"]) == set(seen["star"]) == NAMES
    assert len(seen["all"]) == len(NAMES)


def test_importing_the_package_loads_no_layer():
    code = """
import json, sys, relaqm
print(json.dumps(sorted(m for m in sys.modules if m.startswith("relaqm."))))
"""
    assert fresh(code) == []


def test_layers_are_attributes_of_the_package():
    code = f"""
import json, relaqm
print(json.dumps([m for m in {list(EXPORTS)!r}
                  if getattr(relaqm, m).__name__ != "relaqm." + m]))
"""
    assert fresh(code) == []


def test_unknown_names_raise_attribute_error():
    code = """
import json, relaqm
try:
    relaqm.no_such_name
except AttributeError as exc:
    print(json.dumps(str(exc)))
"""
    assert "no_such_name" in fresh(code)
