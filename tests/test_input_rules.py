"""Every input rule of `relaqm run` and `relaqm kernel`, one minimal document each.

A rule the parser names (`ValidationError`) exits 2 with ``error: <Rule>:``;
malformed structure (`ParseError`) exits 2 with ``error:`` and the field.
Either way nothing is printed on stdout.
The table below covers every rule name raised in the parsing sources, and
README's table of parse-time rules names each of them.
"""

import argparse
import re
import tracemalloc
from pathlib import Path

import pytest

import relaqm
from relaqm import cli, kernels, parsing
from relaqm.cli import main
from relaqm.errors import ValidationError
from relaqm.kernels import UnistochasticDecision, verify_double_stochastic
from relaqm.scenario import RUN_ARRAYS, parse_scenario, run

ROOT = Path(__file__).resolve().parents[1]
PARSER_SOURCES = [ROOT / "src" / "relaqm" / name for name in ("scenario.py", "parsing.py")]

QUBITS = "[{name: S, dim: 2}, {name: O, dim: 2}]"
READY = "{S: [1.0, 0.0], O: [1.0, 0.0]}"
TWO = "[[1, 0], [0, 1]]"


def scenario(systems=QUBITS, observers="[O]", preparations=READY, events="[]", extra=""):
    """A scenario of S and O (both qubits, O the observer), one field replaced."""
    return (f"{extra}systems: {systems}\nobservers: {observers}\n"
            f"preparations: {preparations}\nevents: {events}\n")


def measure(observer="O", target="S", family="computational"):
    return f"[{{measure: {{observer: {observer}, target: {target}, family: {family}}}}}]"


def evolve(target="S", hamiltonian="pauli_x", t="1.0"):
    return f"[{{evolve: {{target: {target}, hamiltonian: {hamiltonian}, t: {t}}}}}]"


def query(body):
    return f"[{{query: {{{body}}}}}]"


def many_qubits(n: int, observers: int) -> str:
    """A valid document of n qubits in |0>, the first ``observers`` of them observers."""
    names = [f"Q{i}" for i in range(n)]
    return ("systems: [" + ", ".join(f"{{name: {q}, dim: 2}}" for q in names) + "]\n"
            f"observers: [{', '.join(names[:observers])}]\n"
            "preparations: {" + ", ".join(f"{q}: [1.0, 0.0]" for q in names) + "}\n")


QUTRIT_S = "[{name: S, dim: 3}, {name: O, dim: 3}]"
QUTRIT_READY = "{S: [1.0, 0.0, 0.0], O: [1.0, 0.0, 0.0]}"
BIG_O = "[{name: S, dim: 2}, {name: O, dim: 513}]"
BIG_READY = "{S: [1.0, 0.0], O: [1.0" + ", 0.0" * 512 + "]}"

# id: (command, document, what the error line starts with: "Rule" for a
# ValidationError, "error: <field>..." for a ParseError)
CASES = {
    # scenario structure
    "negative_seed": ("run", scenario(extra="seed: -1\n"), "error: seed must be"),
    # an optional field that is null keeps its default; any other value has
    # the field's type, falsy or not
    "seed_false": ("run", scenario(extra="seed: false\n"), "error: seed must be"),
    "seed_empty_string": ("run", scenario(extra="seed: ''\n"), "error: seed must be"),
    "name_empty_string": ("run", scenario(extra="name: ''\n"),
                          "error: name: a name must be a non-empty string"),
    "name_false": ("run", scenario(extra="name: false\n"),
                   "error: name: a name must be a non-empty string"),
    "measure_family_false": ("run", scenario(events=measure(family="false")),
                             "error: events[0].measure: a name must be a non-empty string"),
    "marginal_family_empty": ("run", scenario(
        events=query("kind: marginal, target: S, family: '', relative_to: O")),
        "error: events[0].query: a name must be a non-empty string"),
    # a value the loader cannot build
    "float_tag_not_a_number": ("kernel", "dim: 2\nextra: !!float abc\n",
                               "error: not a well-formed document: a value cannot be read"),
    "bool_tag_not_a_bool": ("run", scenario(extra="extra: !!bool maybe\n"),
                            "error: not a well-formed document: a value cannot be read"),
    "empty_systems": ("run", scenario(systems="[]"), "error: systems must be"),
    "non_positive_dim": ("run", scenario(systems="[{name: S, dim: 0}, {name: O, dim: 2}]"),
                         "error: systems[0]: dim must be"),
    "duplicate_system": ("run", scenario(systems="[{name: S, dim: 2}, {name: S, dim: 2}, "
                                                 "{name: O, dim: 2}]"), "DuplicateSystem"),
    "empty_observers": ("run", scenario(observers="[]"), "error: observers must be"),
    "observer_not_declared": ("run", scenario(observers="[X]"), "ObserverNotDeclared"),
    "observer_too_small": ("run", scenario(systems="[{name: S, dim: 2}, {name: O, dim: 1}]",
                                           preparations="{S: [1.0, 0.0], O: [1.0]}"),
                           "ObserverTooSmall"),
    "duplicate_observer": ("run", scenario(observers="[O, O]"), "DuplicateObserver"),
    "accounts_too_large": ("run", scenario(systems="[{name: A, dim: 8193}, {name: B, dim: 8192}, "
                                                   "{name: O, dim: 2}]", preparations="{}"),
                           "TooLarge"),
    # 2**26 account amplitudes, which the accounts rule once admitted; a run
    # peaks at several times that
    "accounts_27_qubits_one_observer": ("run", many_qubits(27, 1), "TooLarge"),
    # families
    "family_rows_differ": ("run", scenario(extra="families: {f: [[1, 0], [0]]}\n"),
                           "error: families.f: rows have differing lengths"),
    "family_not_square": ("run", scenario(extra="families: {f: [[1, 0, 0], [0, 1, 0]]}\n"),
                          "NonSquareMatrix"),
    "family_not_unitary": ("run", scenario(extra="families: {f: [[1, 1], [0, 1]]}\n"),
                           "FamilyNotUnitary"),
    "families_false": ("run", scenario(extra="families: false\n"),
                       "error: families must be a mapping"),
    "families_empty_list": ("run", scenario(extra="families: []\n"),
                            "error: families must be a mapping"),
    # preparations
    "missing_preparation": ("run", scenario(preparations="{S: [1.0, 0.0]}"),
                            "MissingPreparation"),
    "preparation_size": ("run", scenario(preparations="{S: [1.0], O: [1.0, 0.0]}"),
                         "DimensionMismatch"),
    "preparation_not_unit": ("run", scenario(preparations="{S: [1.0, 1.0], O: [1.0, 0.0]}"),
                             "Normalization"),
    "preparation_of_unknown_system": ("run", scenario(
        preparations="{S: [1.0, 0.0], O: [1.0, 0.0], X: [1.0]}"), "UnknownSystem"),
    # events
    "events_not_a_list": ("run", scenario(events="{measure: {observer: O, target: S}}"),
                          "error: events must be a list"),
    "events_false": ("run", scenario(events="false"), "error: events must be a list"),
    "events_zero": ("run", scenario(events="0"), "error: events must be a list"),
    "measure_by_two": ("run", scenario(events=measure(observer="[O, S]")),
                       "SimultaneousMeasurement"),
    "measure_by_non_observer": ("run", scenario(events=measure(observer="S", target="O")),
                                "NotAnObserver"),
    "measure_unknown_target": ("run", scenario(events=measure(target="X")), "UnknownSystem"),
    "measure_self": ("run", scenario(events=measure(target="O")), "SelfMeasurement"),
    "measure_pointer_too_small": ("run", scenario(
        systems="[{name: S, dim: 3}, {name: O, dim: 2}]",
        preparations="{S: [1.0, 0.0, 0.0], O: [1.0, 0.0]}", events=measure()),
        "PointerTooSmall"),
    "measure_unknown_family": ("run", scenario(events=measure(family="nope")), "UnknownFamily"),
    "measure_declared_family_dim": ("run", scenario(
        extra="families: {tri: [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}\n",
        events=measure(family="tri")), "FamilyDimension"),
    "measure_hadamard_dim": ("run", scenario(systems=QUTRIT_S, preparations=QUTRIT_READY,
                                             events=measure(family="hadamard")),
                             "FamilyDimension"),
    "measure_premeasurement_too_large": ("run", scenario(systems=BIG_O, preparations=BIG_READY,
                                                         events=measure()), "TooLarge"),
    "evolve_unknown_target": ("run", scenario(events=evolve(target="X")), "UnknownSystem"),
    "evolve_unknown_hamiltonian": ("run", scenario(events=evolve(hamiltonian="pauli_w")),
                                   "UnknownHamiltonian"),
    "evolve_hamiltonian_size": ("run", scenario(
        events=evolve(hamiltonian="[[1, 0, 0], [0, 1, 0], [0, 0, 1]]")), "DimensionMismatch"),
    "evolve_non_hermitian": ("run", scenario(events=evolve(hamiltonian="[[0, 1], [0, 0]]")),
                             "NonHermitianHamiltonian"),
    "evolve_phase_overflow": ("run", scenario(events=evolve(t="1.0e+308")), "PhaseOverflow"),
    "query_relative_to_non_observer": ("run", scenario(
        events=query("kind: state, of: [O], relative_to: S")), "NotAnObserver"),
    "query_unknown_system": ("run", scenario(
        events=query("kind: marginal, target: X, relative_to: O")), "UnknownSystem"),
    "query_unknown_of_entry": ("run", scenario(
        events=query("kind: state, of: [X], relative_to: O")), "UnknownSystem"),
    "query_duplicate_of_entries": ("run", scenario(
        events=query("kind: state, of: [S, S], relative_to: O")),
        "error: events[0].query: duplicate systems in 'of'"),
    "query_self_description": ("run", scenario(
        events=query("kind: state, of: [O], relative_to: O")), "SelfDescription"),
    "interference_j_equals_k": ("run", scenario(
        events=query("kind: interference, target: S, family_a: computational, "
                     "family_b: hadamard, i: 1, j: 2, k: 2")), "IndexOutOfRange"),
    # kernel requests
    "kernel_without_dim": ("kernel", f"families: {{f: {TWO}}}\n",
                           "error: kernel file needs a 'dim' field"),
    "kernel_dim_not_positive": ("kernel", "dim: 0\n",
                                "error: kernel file: dim must be a positive integer"),
    "kernel_dim_too_large": ("kernel", "dim: 8193\n", "TooLarge"),  # 8193**2 > 2**26
    "kernel_one_name_pair": ("kernel", "dim: 2\npairs: [[computational]]\n",
                             "error: kernel file: pairs must be a list of [family, family] names"),
    "kernel_pairs_false": ("kernel", "dim: 2\npairs: false\n",
                           "error: kernel file: pairs must be a list of [family, family] names"),
    "kernel_pairs_empty": ("kernel", "dim: 2\npairs: []\n", "error: kernel file: pairs is empty"),
    "kernel_families_false": ("kernel", "dim: 2\nfamilies: false\n",
                              "error: families must be a mapping"),
}


@pytest.mark.parametrize("command, text, expected", CASES.values(), ids=CASES.keys())
def test_each_input_rule_exits_2_with_its_name(tmp_path, capsys, command, text, expected):
    doc = tmp_path / "input.yaml"
    doc.write_text(text)
    assert main([command, str(doc)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    prefix = expected if expected.startswith("error:") else f"error: {expected}:"
    assert err.startswith(prefix), err


def _parser_rules() -> set[str]:
    """The rules named in ``ValidationError("…"`` calls, and the fixed rule of
    each ValidationError subclass raised by class."""
    rules = set()
    for path in PARSER_SOURCES:
        text = path.read_text()
        rules |= set(re.findall(r'ValidationError\(\s*"(\w+)"', text))
        rules |= {cls("").rule for cls in ValidationError.__subclasses__()
                  if f"raise {cls.__name__}(" in text}
    return rules


def test_the_table_covers_every_rule_the_parser_raises():
    covered = {expected for _, _, expected in CASES.values() if not expected.startswith("error:")}
    assert _parser_rules() <= covered


def test_readme_names_every_rule_the_parser_raises():
    readme = (ROOT / "README.md").read_text()
    start = readme.index("Rules enforced at parse time")
    table = readme[start:readme.index("At run time", start)]
    assert not [rule for rule in sorted(_parser_rules()) if f"`{rule}`" not in table]


def _accounts(observers: int):
    """The accounts of n qubits, only parsed: a run would allocate them."""
    return lambda n, tmp_path, monkeypatch: parse_scenario(many_qubits(n, observers))


def _premeasurement(pointer_dim, tmp_path, monkeypatch):
    """O, of dimension ``pointer_dim``, measures the qubit S; only parsed: a
    run would build the (d_s·d_o)^2 unitary."""
    parse_scenario(scenario(systems=f"[{{name: S, dim: 2}}, {{name: O, dim: {pointer_dim}}}]",
                            preparations="{S: [1.0, 0.0], O: [1.0"
                                         + ", 0.0" * (pointer_dim - 1) + "]}",
                            events=measure()))


def _kernel_dim(dim, tmp_path, monkeypatch):
    """A `kernel` request of the default pair, its families not built."""
    monkeypatch.setattr(parsing, "resolve_family", lambda name, dim, declared: name)
    parsing._parse_kernel_request(f"dim: {dim}\n")


def _unistochastic(n, tmp_path, monkeypatch):
    """The uniform n x n matrix, the decision replaced so that it does not search."""
    monkeypatch.setattr(kernels, "decide_unistochastic", lambda p, seed: UnistochasticDecision(
        "inconclusive", residual=1.0, check=verify_double_stochastic(p)))
    matrix = tmp_path / "uniform.txt"
    matrix.write_text((" ".join([repr(1 / n)] * n) + "\n") * n)
    cli._cmd_unistochastic(argparse.Namespace(matrix=str(matrix), seed=None))


def _lattice_check(dim, tmp_path, monkeypatch):
    """A `lattice-check` of ``dim``, the sweep replaced so that it allocates nothing."""
    monkeypatch.setattr(cli, "_lattice_laws", lambda dim, rng: {"complement": 0})
    cli._cmd_lattice_check(argparse.Namespace(dim=dim, seed=None))


# id: (the rule, applied where it is enforced to an input of a given size;
# the largest size it accepts)
SIZE_LIMITS = {
    "accounts_one_observer": (_accounts(1), 24),  # RUN_ARRAYS * 2**23 = 2**26, the limit itself
    "accounts_two_observers": (_accounts(2), 23),  # RUN_ARRAYS * 2 * 2**22
    "premeasurement": (_premeasurement, 512),  # d_s·d_o = 1024
    "kernel_dim": (_kernel_dim, 8192),  # 8192**2 = 2**26
    "unistochastic": (_unistochastic, 68),  # 3 * 68**4 < 2**26 < 3 * 69**4, the polish
    "lattice_check": (_lattice_check, 1831),  # 20 * 1831**2 < 2**26 < 20 * 1832**2
}


@pytest.mark.parametrize("rule, largest", SIZE_LIMITS.values(), ids=SIZE_LIMITS.keys())
def test_each_size_limit_accepts_its_largest_input_and_refuses_the_next(
        tmp_path, monkeypatch, capsys, rule, largest):
    """Every `TooLarge` boundary, checked through the code that owns it."""
    rule(largest, tmp_path, monkeypatch)
    with pytest.raises(ValidationError, match="^TooLarge: "):
        rule(largest + 1, tmp_path, monkeypatch)


@pytest.mark.parametrize("rule, largest", SIZE_LIMITS.values(), ids=SIZE_LIMITS.keys())
def test_every_size_limit_raises_the_exported_too_large(tmp_path, monkeypatch, rule, largest):
    with pytest.raises(relaqm.TooLarge) as err:
        rule(largest + 1, tmp_path, monkeypatch)
    assert err.value.rule == "TooLarge"


def test_library_size_and_dimension_guards_are_validation_errors():
    with pytest.raises(relaqm.TooLarge) as err:
        relaqm.boolean_algebra(relaqm.CompleteFamily.computational(11))
    assert err.value.rule == "TooLarge"
    with pytest.raises(relaqm.InvalidDimension) as err:
        relaqm.info_capacity(1)
    assert err.value.rule == "InvalidDimension"
    with pytest.raises(relaqm.InvalidDimension) as err:
        cli._cmd_lattice_check(argparse.Namespace(dim=1, seed=None))
    assert isinstance(err.value, ValidationError) and err.value.rule == "InvalidDimension"


def test_a_run_peaks_within_run_arrays_times_its_accounts():
    """18 qubits, Q0 the one observer: a measure, an evolve, a measure on an
    inner axis of Q0's account and a state query, the heaviest sequence
    measured for RUN_ARRAYS (6.0 times the accounts)."""
    events = ["measure: {observer: Q0, target: Q1, family: hadamard}",
              "evolve: {target: Q1, hamiltonian: pauli_x, t: 0.7}",
              "measure: {observer: Q0, target: Q2, family: hadamard}",
              "query: {kind: state, of: [Q1], relative_to: Q0}"]
    sc = parse_scenario(many_qubits(18, 1) + "events: [" + ", ".join(
        "{" + event + "}" for event in events) + "]\n")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run(sc)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= RUN_ARRAYS * 16 * 2**17
