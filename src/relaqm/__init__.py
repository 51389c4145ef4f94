"""relaqm: observer-relative finite-dimensional quantum mechanics.

Every state assignment in this package is relative to a named observer;
nothing is ever described "from nowhere".  The library covers the full
chain from elementary Hilbert-space numerics to declarative multi-observer
scenarios:

* :mod:`relaqm.hilbert` -- tagged states, verified operators, tensor
  products, Born probabilities, seeded sampling;
* :mod:`relaqm.measurement` -- the collapse and entangling descriptions of
  one measurement, the pointer-correlation projector and its expectation;
* :mod:`relaqm.questions` -- yes/no questions as subspaces, the orthomodular
  lattice, complete families and their Boolean algebras;
* :mod:`relaqm.kernels` -- doubly stochastic transition matrices, their
  unitary realizations, composite-question interference, and the
  unistochasticity decision;
* :mod:`relaqm.dynamics` -- Heisenberg-picture propagators and picture
  duality;
* :mod:`relaqm.scenario` -- the declarative scenario runner and report
  emitter behind the ``relaqm`` command-line tool.
"""

from importlib import import_module as _import_module

# Each public name and the module that defines it.  A name is imported on
# first access (PEP 562), so a command pays only for the modules it uses.
_EXPORTS = {
    "errors": (
        "DescriptionUnavailable", "DimensionMismatch", "FamilyMismatch",
        "IndexOutOfRange", "InvalidDimension", "NormalizationError",
        "NotAPartition", "NotDoublyStochastic", "NotHermitian", "ParseError",
        "PreconditionViolated", "RelaqmError", "TooLarge", "ValidationError",
        "ZeroBranch",
    ),
    "hilbert": (
        "ATOL", "OPT_ATOL", "RANK_TOL", "Operator", "StateVector", "apply",
        "basis_state", "born_probabilities", "conditional_state",
        "haar_unitary", "identity", "projector_onto", "tensor",
    ),
    "measurement": (
        "MeasurementSetup", "collapse_description", "completion_probability",
        "consistency_check", "correlation_operator", "entangling_description",
        "premeasurement_unitary", "standard_setup",
    ),
    "questions": (
        "AnswerString", "CompleteFamily", "Question", "ask_sequence",
        "boolean_algebra", "complete_questions", "implies", "info_capacity",
        "join", "meet", "negate", "orthogonal", "orthomodular_check",
        "same_question",
    ),
    "kernels": (
        "TransitionKernel", "UnistochasticDecision", "classical_composite_probability",
        "compose", "composite_probability", "decide_unistochastic",
        "interference_gap", "kernel_from_families", "phase_fix",
        "triangle_criterion_3x3", "unistochastic_search",
        "verify_double_stochastic",
    ),
    "dynamics": ("heisenberg_evolve", "propagator", "schrodinger_evolve"),
    "scenario": (
        "Report", "Scenario", "emit_report", "fixture_path", "lint_report",
        "load_scenario", "parse_scenario", "run",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:  # a layer, as ``relaqm.questions`` after ``import relaqm``
        return _import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
