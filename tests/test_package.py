"""The package namespace: every public name, resolved from its module on use."""

import ast
import inspect
import io
import json
import subprocess
import sys
import tokenize
from pathlib import Path

import relaqm

# The public names of ``relaqm``, by the module that defines them.
EXPORTS = {
    "errors": [
        "DescriptionUnavailable", "DimensionMismatch", "FamilyMismatch",
        "IndexOutOfRange", "InvalidDimension", "NormalizationError",
        "NotAPartition", "NotDoublyStochastic", "NotHermitian", "ParseError",
        "PreconditionViolated", "RelaqmError", "TooLarge", "ValidationError",
        "ZeroBranch",
    ],
    "hilbert": [
        "ATOL", "OPT_ATOL", "RANK_TOL", "Operator", "StateVector", "apply",
        "basis_state", "born_probabilities", "conditional_state", "haar_unitary",
        "identity", "projector_onto", "tensor",
    ],
    "measurement": [
        "MeasurementSetup", "collapse_description", "completion_probability",
        "consistency_check", "correlation_operator", "entangling_description",
        "premeasurement_unitary", "standard_setup",
    ],
    "questions": [
        "AnswerString", "CompleteFamily", "Question", "ask_sequence",
        "boolean_algebra", "complete_questions", "implies", "info_capacity", "join",
        "meet", "negate", "orthomodular_check", "same_question",
    ],
    "kernels": [
        "TransitionKernel", "UnistochasticDecision", "classical_composite_probability", "compose", "composite_probability",
        "decide_unistochastic", "interference_gap",
        "kernel_from_families", "phase_fix", "triangle_criterion_3x3",
        "unistochastic_search", "verify_double_stochastic",
    ],
    "dynamics": ["heisenberg_evolve", "propagator", "schrodinger_evolve"],
    "scenario": [
        "Report", "Scenario", "emit_report", "fixture_path", "lint_report",
        "load_scenario", "parse_scenario", "run",
    ],
}
NAMES = {name for names in EXPORTS.values() for name in names}
# Settable public parameters over ``relaqm.__all__``; a new one is an edit here.
SETTABLE_PARAMETERS = 121
# Code lines of ``src/relaqm``, counted by ``code_lines``; a change in size is
# an edit here.
CODE_LINES = 2047
SOURCES = Path(__file__).resolve().parents[1] / "src" / "relaqm"


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


def settable_parameters(value) -> int:
    """A function's parameters; a class's constructor parameters (an InitVar
    counts, an ``init=False`` field does not) plus those of each public
    method, classmethod and staticmethod, without ``self`` or ``cls``; an
    exception or a constant, none."""
    if not inspect.isclass(value):
        return len(inspect.signature(value).parameters) if callable(value) else 0
    if issubclass(value, BaseException):
        return 0
    count = len(inspect.signature(value).parameters)
    for name, member in vars(value).items():
        if name.startswith("_"):
            continue
        if isinstance(member, (classmethod, staticmethod)):
            count += len(inspect.signature(getattr(value, name)).parameters)
        elif inspect.isfunction(member):
            count += len(inspect.signature(member).parameters) - 1
    return count


def test_the_public_parameters_are_counted():
    """The export rule covers options: each settable parameter needs two
    non-test callers that set it differently, so a new one shows here."""
    assert sum(settable_parameters(getattr(relaqm, name))
               for name in relaqm.__all__) == SETTABLE_PARAMETERS


NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The lines of ``source`` that hold a token, not counting blank lines,
    comments and the docstrings of the module, its classes and functions."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def test_the_code_lines_are_counted():
    """The package's size, so that a change that grows or shrinks it says by
    how much."""
    assert sum(code_lines(path.read_text(encoding="utf-8"))
               for path in SOURCES.glob("*.py")) == CODE_LINES

