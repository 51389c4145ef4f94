"""Command-line behavior: subcommands, exit codes, seeds, determinism."""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import yaml

from relaqm import cli, hilbert, kernels, parsing, questions, scenario
from relaqm.cli import main
from relaqm.hilbert import haar_unitary
from relaqm.measurement import MeasurementSetup, premeasurement_unitary
from relaqm.questions import CompleteFamily
from relaqm.scenario import emit_report, fixture_path

WIGNER = str(fixture_path("wigner_friend.yaml"))
SELF = str(fixture_path("self_measurement.yaml"))
OFFDIAG = str(fixture_path("offdiagonal_half.txt"))
SYMMETRIC = str(fixture_path("symmetric_2x2.txt"))
KERNELS = str(fixture_path("kernel_pairs.yaml"))


def invoke(*argv):
    """Run the installed entry point in a fresh interpreter."""
    return subprocess.run([sys.executable, "-m", "relaqm", *argv],
                          capture_output=True, text=True)


def test_run_fixture_succeeds(capsys):
    assert main(["run", WIGNER]) == 0
    out = capsys.readouterr().out
    assert "wigner_friend" in out
    assert "relative to P" in out


def test_run_structured_output(capsys):
    assert main(["run", WIGNER, "--format", "structured"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("{")
    assert '"scenario": "wigner_friend"' in out


def test_run_writes_structured_file(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    assert main(["run", WIGNER, "--out", str(out_file)]) == 0
    capsys.readouterr()
    assert out_file.read_text() == fixture_path("wigner_friend.report.json").read_text()


def test_structured_run_with_out_renders_once(tmp_path, capsys, monkeypatch):
    """`--format structured --out FILE` writes the one rendering to both."""
    renders = []

    def counting_emit(report, format="table"):
        renders.append(format)
        return emit_report(report, format=format)

    monkeypatch.setattr(scenario, "emit_report", counting_emit)
    out_file = tmp_path / "report.json"
    assert main(["run", WIGNER, "--format", "structured", "--out", str(out_file)]) == 0
    stdout = capsys.readouterr().out
    assert out_file.read_bytes() == stdout.encode("utf-8")
    assert stdout == fixture_path("wigner_friend.report.json").read_text()
    assert renders == ["structured"]


def test_run_missing_file_exits_2(capsys):
    assert main(["run", "/nonexistent/scenario.yaml"]) == 2


def test_self_measurement_exits_2(capsys):
    assert main(["run", SELF]) == 2
    assert "SelfMeasurement" in capsys.readouterr().err


def test_unistochastic_rejection_exits_3(capsys):
    assert main(["unistochastic", OFFDIAG]) == 3
    out = capsys.readouterr().out
    assert "non-unistochastic" in out
    assert "violated" in out  # triangle criterion agrees
    assert "chain links: rows 0 and 1 open by 0.5\n" in out
    assert "residual:" not in out


def test_unistochastic_acceptance(capsys):
    assert main(["unistochastic", SYMMETRIC]) == 0
    out = capsys.readouterr().out
    assert "unistochastic" in out
    assert "realizing unitary" in out


def test_unistochastic_accepts_a_2x2_within_opt_atol(tmp_path, capsys):
    """Doubly stochastic within OPT_ATOL, its links (0, 3.2e-4) open on p as
    given; every doubly stochastic 2x2 is unistochastic."""
    near = tmp_path / "near.txt"
    near.write_text("1 1e-7\n0 1\n")
    assert main(["unistochastic", str(near)]) == 0
    out = capsys.readouterr().out
    assert "verdict: unistochastic\n" in out
    assert "chain links" not in out


def test_unistochastic_haar_4x4_is_decided_by_the_search(tmp_path, capsys, monkeypatch):
    """A 4x4 has no closed form and a Haar |U|^2 closes every chain link, so
    the search decides it, and it accepts."""
    p = np.abs(haar_unitary(4, np.random.default_rng(0))) ** 2
    matrix = tmp_path / "haar4.txt"
    np.savetxt(matrix, p, fmt="%.17g")
    searches = []
    search = kernels._search

    def counted(p, check, seed):
        searches.append(seed)
        return search(p, check, seed)

    monkeypatch.setattr(kernels, "_search", counted)
    assert main(["unistochastic", str(matrix)]) == 0
    assert searches == [0]
    out = capsys.readouterr().out.splitlines()
    assert "verdict: unistochastic" in out
    residual, = (line for line in out if line.startswith("residual: "))
    assert float(residual.split()[1]) < 1e-6


def test_unistochastic_invalid_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0.9 0.2\n0.1 0.8\n")
    assert main(["unistochastic", str(bad)]) == 2
    assert capsys.readouterr() == ("", "error: input violates double stochasticity: "
                                       "range 0, rows 0.1, columns 0\n")


@pytest.mark.parametrize("text, message", [
    ("1 0\n", "not a square matrix (1x2)"),
    # 70 rows would be refused as a 70 x 70 search if the shape went unchecked
    ("1\n" * 70, "not a square matrix (70x1)"),
    ("0.5 nan\n0.5 0.5\n", "row 1, column 2 is nan, not finite"),
    ("1 0\n0 -inf\n", "row 2, column 2 is -inf, not finite"),
], ids=["one_row", "one_column", "nan", "negative_inf"])
def test_unistochastic_refuses_a_non_square_or_non_finite_matrix(tmp_path, capsys, text,
                                                                 message):
    """Refused as it is read: one error line naming the shape or the first
    non-finite entry, and nothing on stdout."""
    matrix = tmp_path / "p.txt"
    matrix.write_text(text)
    assert main(["unistochastic", str(matrix)]) == 2
    assert capsys.readouterr() == ("", f"error: {matrix}: {message}\n")


def test_unistochastic_too_large_exits_2(tmp_path, capsys, monkeypatch):
    """A 69 x 69 matrix is refused before the decision runs: one error line
    naming its size, and nothing on stdout.  The boundary itself is checked in
    tests/test_input_rules.py."""
    decided = []
    monkeypatch.setattr(kernels, "decide_unistochastic", lambda p, seed: decided.append(p))
    uniform = tmp_path / "uniform.txt"
    uniform.write_text((" ".join([repr(1 / 69)] * 69) + "\n") * 69)
    assert main(["unistochastic", str(uniform)]) == 2
    assert decided == []
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: TooLarge:") and "69x69" in err


def test_kernel_tables(capsys):
    assert main(["kernel", KERNELS]) == 0
    out = capsys.readouterr().out
    assert "computational <- hadamard" in out
    assert "0.500000" in out


# Each family passes the parser's 1e-9 unitarity rule; paired with itself,
# the first gives a p 1.9e-9 from doubly stochastic, the second a U = B†B
# that is not unitary within 1e-9 although its p passes.
SCALED_HADAMARD = [[(1 + 0.95e-9) ** 0.5 / 2 ** 0.5 * sign for sign in row]
                   for row in ((1, 1), (1, -1))]
SKEWED = [[1.0, 9e-10], [0.0, (1 - 8.1e-19) ** 0.5]]
FAILED_KERNEL_CHECKS = {"scaled_hadamard": (SCALED_HADAMARD, "kernel is not doubly stochastic"),
                        "skewed": (SKEWED, "kernel unitary is not unitary")}
PAIR_QUERIES = {"kernel_query": "kind: kernel",
                "interference_query": "kind: interference, i: 1, j: 1, k: 2"}


def _pair_request(family, query: str | None) -> tuple[str, str]:
    """`relaqm kernel` on the pair [f, f], or `relaqm run` asking ``query`` of it."""
    rows = ", ".join("[" + ", ".join(f"{x:.17e}" for x in row) + "]" for row in family)
    families = f"families: {{f: [{rows}]}}\n"
    if query is None:
        return "kernel", f"dim: 2\n{families}pairs: [[f, f]]\n"
    return "run", (f"systems: [{{name: S, dim: 2}}, {{name: O, dim: 2}}]\nobservers: [O]\n"
                   f"{families}preparations: {{S: [1.0, 0.0], O: [1.0, 0.0]}}\n"
                   f"events: [{{query: {{{query}, target: S, family_a: f, family_b: f}}}}]\n")


@pytest.mark.parametrize("query", [None, *PAIR_QUERIES.values()],
                         ids=["kernel_request", *PAIR_QUERIES])
@pytest.mark.parametrize("family, check", FAILED_KERNEL_CHECKS.values(),
                         ids=FAILED_KERNEL_CHECKS.keys())
def test_a_pair_whose_kernel_fails_its_check_exits_3(tmp_path, capsys, query, family, check):
    command, text = _pair_request(family, query)
    doc = tmp_path / "pair.yaml"
    doc.write_text(text)
    assert main([command, str(doc)]) == 3
    assert capsys.readouterr().err.startswith(f"error: f <- f: {check}")


def test_a_wrong_basis_premeasurement_exits_3(tmp_path, capsys, monkeypatch):
    """O measures S = 0.6|0> + 0.8|1> in the computational family while P
    watches.  Built on the Hadamard basis instead, the premeasurement leaves
    P's marginal for S at [0.5, 0.5] against O's [0.36, 0.64], and the
    cross-observer check exits 3.  (S = |+>, as in wigner_friend, would leave
    every marginal at [0.5, 0.5].)"""
    doc = tmp_path / "measure.yaml"
    doc.write_text(_scenario(prep_s="[0.6, 0.8]", events="[{measure: {observer: O, target: S, "
                                                         "family: computational}}]"))
    assert main(["run", str(doc)]) == 0
    capsys.readouterr()
    hadamard = CompleteFamily.hadamard()
    monkeypatch.setattr(scenario, "premeasurement_unitary", lambda setup: premeasurement_unitary(
        MeasurementSetup(hadamard, setup.pointer_ready)))
    assert main(["run", str(doc)]) == 3
    assert capsys.readouterr().err.startswith("cross-observer marginal agreement 0.14 ")


def test_a_failing_pair_after_built_ones_exits_3(tmp_path, capsys):
    """Kernels are built once per run, at a pair's first query: a failing
    pair queried after a repeated good one still ends the run with exit 3."""
    command, text = _pair_request(SCALED_HADAMARD, PAIR_QUERIES["interference_query"])
    good = "{query: {kind: kernel, target: S, family_a: computational, family_b: hadamard}}"
    text = text.replace("events: [", f"events: [{good}, {good}, ").replace(
        "}}]", "}}, {query: {kind: kernel, target: S, family_a: f, family_b: f}}]")
    doc = tmp_path / "pairs.yaml"
    doc.write_text(text)
    assert main([command, str(doc)]) == 3
    assert capsys.readouterr().err.startswith("error: f <- f: kernel is not doubly stochastic")


LATTICE_LAWS = ("commutativity", "associativity", "de_morgan", "double_negation",
                "complement", "orthomodular")


# at dim 2 most operands are the bounds never and always, answered by
# identity; at dim 6 few are
@pytest.mark.parametrize("argv", [["3", "--seed", "5"], ["2"], ["6", "--seed", "1"]],
                         ids=["dim3_seed5", "dim2", "dim6_seed1"])
def test_lattice_check(capsys, argv):
    """One line per law, each reading `pass`."""
    assert main(["lattice-check", *argv]) == 0
    out = capsys.readouterr().out
    assert [line.split() for line in out.splitlines()] == [[law, "pass"] for law in LATTICE_LAWS]


def test_lattice_check_bad_dim(capsys):
    assert main(["lattice-check", "1"]) == 2


def test_lattice_sweep_builds_each_operand_once(monkeypatch):
    """Per trial: 8 joins and 5 negations, as join(a, b) and negate(a) are built once
    and shared by the laws; 5 meets, 8 subspace comparisons and 9 inclusions: one
    per comparison, as equal ranks and one inclusion decide it, and one for
    orthomodular_check's precondition, which the sweep does not check again.
    The calls orthomodular_check and same_question make are counted too."""
    calls = dict.fromkeys(("join", "negate", "meet", "same_question", "implies"), 0)
    for name in calls:
        def counted(*args, _name=name, _original=getattr(questions, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(questions, name, counted)
    assert set(cli._lattice_laws(3, np.random.default_rng(0)).values()) == {0}
    assert {name: count / cli.LATTICE_TRIALS for name, count in calls.items()} == {
        "join": 8, "negate": 5, "meet": 5, "same_question": 8, "implies": 9}


def test_lattice_sweep_checks_no_basis_it_computes(monkeypatch):
    """Every question of a sweep is drawn or computed by the library, which
    does not check the orthonormality of the bases it computes."""
    checked = _counting_checks(monkeypatch, hilbert.orthonormality_defect)
    assert set(cli._lattice_laws(3, np.random.default_rng(0)).values()) == {0}
    assert checked == []


# rng.random() after a dim-d sweep from default_rng(0): a sweep that draws
# its questions in another order, or draws more, moves it
NEXT_DRAW_AFTER_SWEEP = {2: 0.6926874566100577, 3: 0.4100481456407701,
                         4: 0.2578568416764847, 5: 0.25023640196463104,
                         6: 0.9664799121629685, 7: 0.5391835016417194,
                         8: 0.27231320822260474}


@pytest.mark.parametrize("dim", NEXT_DRAW_AFTER_SWEEP)
def test_lattice_sweep_draws_a_fixed_sequence(dim):
    rng = np.random.default_rng(0)
    assert set(cli._lattice_laws(dim, rng).values()) == {0}
    assert rng.random() == NEXT_DRAW_AFTER_SWEEP[dim]


def test_seed_flag_overrides_scenario_seed(capsys):
    assert main(["run", WIGNER, "--seed", "3", "--format", "structured"]) == 0
    first = capsys.readouterr().out
    assert '"seed": 3' in first


def test_env_seed_is_used_and_flag_wins(monkeypatch, capsys):
    monkeypatch.setenv("RELAQM_SEED", "11")
    assert main(["run", WIGNER, "--format", "structured"]) == 0
    via_env = capsys.readouterr().out
    assert '"seed": 11' in via_env
    assert main(["run", WIGNER, "--seed", "12", "--format", "structured"]) == 0
    via_flag = capsys.readouterr().out
    assert '"seed": 12' in via_flag
    monkeypatch.setenv("RELAQM_SEED", "not-a-number")
    assert main(["run", WIGNER]) == 2


def test_subprocess_runs_are_byte_identical():
    outputs = {invoke("run", WIGNER, "--format", "structured").stdout
               for _ in range(3)}
    assert len(outputs) == 1


def test_subprocess_exit_codes():
    assert invoke("run", WIGNER).returncode == 0
    assert invoke("run", SELF).returncode == 2
    assert invoke("unistochastic", OFFDIAG).returncode == 3


def test_an_undeclared_preparation_is_named_in_document_order(tmp_path):
    """Whatever the string hash seed, the error names the first undeclared
    system the preparations list."""
    doc = tmp_path / "extra.yaml"
    doc.write_text("systems: [{name: S, dim: 2}, {name: O, dim: 2}]\nobservers: [O]\n"
                   "preparations: {S: [1.0, 0.0], O: [1.0, 0.0], A: [1.0], B: [1.0]}\n")
    for hash_seed in ("0", "3"):
        result = subprocess.run([sys.executable, "-m", "relaqm", "run", str(doc)],
                                capture_output=True, text=True,
                                env={**os.environ, "PYTHONHASHSEED": hash_seed})
        assert (result.returncode, result.stdout, result.stderr) == (
            2, "", "error: UnknownSystem: preparations name undeclared system 'A'\n")


def _scenario(dim_s=2, prep_s="[[1.0, 0.0], [0.0, 0.0]]", extra="", events="[]"):
    ready = "[[1.0, 0.0], [0.0, 0.0]]"
    return (f"systems: [{{name: S, dim: {dim_s}}}, {{name: O, dim: 2}}, {{name: P, dim: 2}}]\n"
            f"observers: [O, P]\n{extra}\n"
            f"preparations: {{S: {prep_s}, O: {ready}, P: {ready}}}\n"
            f"events: {events}\n")


def _counting_checks(monkeypatch, original=kernels.verify_double_stochastic) -> list:
    """Record the shape of every matrix that ``original`` checks, by default
    for double stochasticity, in each relaqm module that binds it."""
    checked = []

    def counted(matrix):
        checked.append(np.shape(matrix))
        return original(matrix)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("relaqm")
                and getattr(module, original.__name__, None) is original):
            monkeypatch.setattr(module, original.__name__, counted)
    return checked


_PAIR_QUERIES = ("{query: {kind: kernel, target: S, family_a: %s, family_b: %s}}, "
                 "{query: {kind: interference, target: S, family_a: %s, family_b: %s, "
                 "i: 1, j: 1, k: 2}}")
_TWO_PAIRS_TWICE = ", ".join([_PAIR_QUERIES % (("computational", "hadamard") * 2),
                              _PAIR_QUERIES % (("hadamard", "computational") * 2)] * 2)


@pytest.mark.parametrize("command, text, checks", [
    ("kernel", "dim: 2\npairs: [[computational, hadamard], [computational, fourier], "
               "[computational, hadamard]]\n", 3),
    ("run", _scenario(events=f"[{_TWO_PAIRS_TWICE}]"), 2),
], ids=["kernel_three_pairs", "run_two_distinct_pairs"])
def test_each_kernel_is_checked_once(tmp_path, capsys, monkeypatch, command, text, checks):
    """`relaqm kernel` checks each requested pair once, and a run each
    distinct pair once, however many queries ask for it: the kernel keeps
    the check it was built with."""
    doc = tmp_path / "input.yaml"
    doc.write_text(text)
    checked = _counting_checks(monkeypatch)
    assert main([command, str(doc)]) == 0
    assert checked == [(2, 2)] * checks


@pytest.mark.parametrize("matrix", [SYMMETRIC, OFFDIAG, "haar4"],
                         ids=["closed_form", "chain_links", "search"])
def test_each_unistochastic_matrix_is_checked_once_per_layer(tmp_path, capsys, monkeypatch,
                                                             matrix):
    """`relaqm unistochastic` prints the check its decision made, and makes it
    once: the chain links, the closed form and the search all read the one
    report the decision verified."""
    if matrix == "haar4":
        matrix = tmp_path / "haar4.txt"
        np.savetxt(matrix, np.abs(haar_unitary(4, np.random.default_rng(0))) ** 2, fmt="%.17g")
    checked = _counting_checks(monkeypatch)
    main(["unistochastic", str(matrix)])
    assert capsys.readouterr().out.startswith("doubly stochastic check: range ")
    assert len(checked) == 1


_TILTED = "families: {tilted: [[0.6, 0.8], [0.8, -0.6]]}\n"


@pytest.mark.parametrize("parse, text, checks", [
    (scenario.parse_scenario, _scenario(
        extra=_TILTED, events="[{measure: {observer: O, target: S, family: tilted}}, "
                              "{query: {kind: marginal, target: S, family: tilted, "
                              "relative_to: P}}, {query: {kind: kernel, target: S, "
                              "family_a: tilted, family_b: tilted}}]"), 1),
    (parsing._parse_kernel_request, "dim: 2\n" + _TILTED
     + "pairs: [[tilted, tilted], [tilted, computational]]\n", 2),
], ids=["run_one_declared_family", "kernel_declared_and_builtin"])
def test_each_family_is_checked_for_unitarity_once(monkeypatch, parse, text, checks):
    """A declared family is checked once, as it is declared, however many
    events or pairs name it; a builtin one once, as it is resolved."""
    checked = _counting_checks(monkeypatch, hilbert.orthonormality_defect)
    parse(text)
    assert checked == [(2, 2)] * checks


# finite entries whose check overflows: the overflow reads as inf or NaN,
# which fails the check's rule, with no numpy warning on stderr
OVERFLOWING_INPUTS = {
    "overflowing_preparation": ("run", _scenario(prep_s="[1.0e+200, 0.0]")),
    "overflowing_hamiltonian": ("run", _scenario(
        events="[{evolve: {target: S, hamiltonian: [[0, 1.0e+308], [-1.0e+308, 0]], t: 1.0}}]")),
    "overflowing_family": ("run", _scenario(extra="families: {f: [[1.0e+200, 0], [0, 1]]}")),
    "kernel_overflowing_family": ("kernel", "dim: 2\nfamilies: {f: [[1.0e+200, 0], [0, 1]]}\n"),
    "unistochastic_overflowing_sums": ("unistochastic", "1e308 1e308\n1e308 1e308\n"),
}

REJECTED_INPUTS = {
    "nan_preparation": ("run", _scenario(prep_s="[.nan, 1.0]")),
    "nan_duration": ("run", _scenario(
        events="[{evolve: {target: S, hamiltonian: pauli_x, t: .nan}}]")),
    "inf_duration": ("run", _scenario(
        events="[{evolve: {target: S, hamiltonian: pauli_x, t: -.inf}}]")),
    "non_square_family": ("run", _scenario(
        extra="families: {wide: [[1, 0, 0], [0, 1, 0]]}")),
    "non_square_hamiltonian": ("run", _scenario(
        events="[{evolve: {target: S, hamiltonian: [[1, 0, 0], [0, 1, 0]], t: 1.0}}]")),
    "completion_pointer_too_small": ("run", _scenario(
        dim_s=3, prep_s="[1.0, 0.0, 0.0]",
        events="[{query: {kind: completion, system: S, pointer: O, relative_to: P}}]")),
    "scenario_families_as_list": ("run", _scenario(
        extra="families: [[[1, 0], [0, 1]]]")),
    "kernel_families_as_list": ("kernel", "dim: 2\nfamilies: [[[1, 0], [0, 1]]]\n"),
    "kernel_family_not_unitary": ("kernel", "dim: 2\nfamilies: {bad: [[1, 1], [0, 1]]}\n"
                                            "pairs: [[computational, bad]]\n"),
    "kernel_triple_entry": ("kernel", "dim: 2\nfamilies: {bad: [[[1, 2, 3], 0], [0, 1]]}\n"),
    "kernel_string_entry": ("kernel", "dim: 2\nfamilies: {bad: [['1', 0], [0, 1]]}\n"),
    "kernel_non_finite_entry": ("kernel", "dim: 2\nfamilies: {bad: [[.nan, 0], [0, 1]]}\n"),
    "kernel_non_square_family": ("kernel", "dim: 2\nfamilies: {wide: [[1, 0, 0], [0, 1, 0]]}\n"),
    "kernel_one_name_pair": ("kernel", "dim: 2\npairs: [[computational]]\n"),
    "kernel_dim_not_integer": ("kernel", "dim: two\n"),
    "kernel_dim_too_large": ("kernel", "dim: 2147483647\n"),
    "system_name_not_string": ("run", "systems: [{name: [S], dim: 2}]\nobservers: [S]\n"
                                      "preparations: {}\n"),
    "observer_name_not_string": ("run", _scenario().replace("observers: [O, P]",
                                                            "observers: [O, [P]]")),
    "family_name_not_string": ("run", _scenario(
        events="[{measure: {observer: O, target: S, family: [computational]}}]")),
    "state_of_nested_list": ("run", _scenario(
        events="[{query: {kind: state, of: [[S]], relative_to: P}}]")),
    "unistochastic_non_numeric_entry": ("unistochastic", "0.5 x\n0.5 0.5\n"),
    "unistochastic_ragged_rows": ("unistochastic", "0.5 0.5\n0.5 0.25 0.25\n"),
    "unistochastic_empty_file": ("unistochastic", ""),
    "unistochastic_non_square": ("unistochastic", "1 0\n"),
    "unistochastic_non_finite_entry": ("unistochastic", "0.5 nan\n0.5 0.5\n"),
    "duplicate_observer": ("run", _scenario().replace("observers: [O, P]",
                                                      "observers: [O, P, P]")),
    "boolean_interference_index": ("run", _scenario(
        events="[{query: {kind: interference, target: S, family_a: computational, "
               "family_b: hadamard, i: true, j: 1, k: 2}}]")),
    "empty_observer_name": ("run", "systems: [{name: '', dim: 2}]\nobservers: ['']\n"
                                   "preparations: {'': [1.0, 0.0]}\n"),
    "preparations_scalar": ("run", _scenario().replace(
        "preparations: {S: [[1.0, 0.0], [0.0, 0.0]], O: [[1.0, 0.0], [0.0, 0.0]], "
        "P: [[1.0, 0.0], [0.0, 0.0]]}", "preparations: 3")),
    "preparations_list": ("run", _scenario().replace(
        "preparations: {S: [[1.0, 0.0], [0.0, 0.0]], O: [[1.0, 0.0], [0.0, 0.0]], "
        "P: [[1.0, 0.0], [0.0, 0.0]]}", "preparations: [S, O]")),
    "scenario_name_not_string": ("run", "name: [a]\n" + _scenario()),
    "family_key_not_string": ("run", _scenario(extra="families: {1: [[1, 0], [0, 1]]}")),
    "kernel_family_key_not_string": ("kernel", "dim: 2\nfamilies: {1: [[1, 0], [0, 1]]}\n"),
    # a field that is present and not null has its type, falsy or not
    "events_false": ("run", _scenario(events="false")),
    "events_zero": ("run", _scenario(events="0")),
    "events_one": ("run", _scenario(events="1")),
    "families_false": ("run", _scenario(extra="families: false")),
    "families_empty_list": ("run", _scenario(extra="families: []")),
    "families_one": ("run", _scenario(extra="families: 1")),
    "kernel_families_false": ("kernel", "dim: 2\nfamilies: false\n"),
    "kernel_pairs_false": ("kernel", "dim: 2\npairs: false\n"),
    "kernel_pairs_empty": ("kernel", "dim: 2\npairs: []\n"),
    "kernel_pairs_one": ("kernel", "dim: 2\npairs: 1\n"),
    # a tagged scalar the loader cannot read, in a field nothing reads
    "kernel_float_tag_not_a_number": ("kernel", "dim: 2\nextra: !!float abc\n"),
    "kernel_int_tag_not_a_number": ("kernel", "dim: 2\nextra: !!int abc\n"),
    "kernel_timestamp_tag_not_a_date": ("kernel", "dim: 2\nextra: !!timestamp nope\n"),
    "kernel_bool_tag_not_a_bool": ("kernel", "dim: 2\nextra: !!bool maybe\n"),
    "kernel_empty_float_tag": ("kernel", "dim: 2\nextra: !!float ''\n"),
    "float_tag_not_a_number": ("run", _scenario(extra="extra: !!float abc")),
    "timestamp_tag_not_a_date": ("run", _scenario(extra="extra: !!timestamp 2024-13-01")),
    # the pure-Python loader refuses a control character as it opens the text
    "control_character": ("run", "name: a\x01b\n" + _scenario()),
    # a syntax error names its problem and where it is, on one line
    "bad_indentation": ("run", "name: x\n  bad: indent\n"),
    "kernel_bad_indentation": ("kernel", "dim: 2\n  bad: indent\n"),
    # deeper than the pure-Python loader composes; with libyaml, not an integer
    "kernel_dim_nested_600_deep": ("kernel", "dim: " + "[" * 600 + "]" * 600 + "\n"),
    **OVERFLOWING_INPUTS,
}


def _assert_rejected(tmp_path, capsys, command, text):
    doc = tmp_path / "input.yaml"
    doc.write_text(text)
    with warnings.catch_warnings():  # the error line is all the user sees
        warnings.simplefilter("error")
        assert main([command, str(doc)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command, text", REJECTED_INPUTS.values(), ids=REJECTED_INPUTS.keys())
def test_malformed_input_exits_2(tmp_path, capsys, command, text):
    _assert_rejected(tmp_path, capsys, command, text)


@pytest.mark.parametrize("command, text", REJECTED_INPUTS.values(), ids=REJECTED_INPUTS.keys())
def test_malformed_input_exits_2_without_libyaml(tmp_path, capsys, monkeypatch,
                                                 command, text):
    """The same inputs through PyYAML's pure-Python loader, the one used
    where PyYAML was built without libyaml."""
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    _assert_rejected(tmp_path, capsys, command, text)


@pytest.mark.parametrize("command, text, first_line", [
    ("run", _scenario(events="null"), "scenario: scenario"),
    ("run", _scenario(extra="families: null"), "scenario: scenario"),
    ("run", _scenario(extra="families: {}"), "scenario: scenario"),
    ("kernel", "dim: 2\nfamilies: null\npairs: null\n", "kernel computational <- fourier"),
], ids=["events_null", "families_null", "families_empty_mapping", "kernel_pairs_null"])
def test_null_fields_keep_their_defaults(tmp_path, capsys, command, text, first_line):
    doc = tmp_path / "input.yaml"
    doc.write_text(text)
    assert main([command, str(doc)]) == 0
    assert capsys.readouterr().out.startswith(first_line)


def _measure(family=""):
    return _scenario(events=f"[{{measure: {{observer: O, target: S{family}}}}}]")


def _marginal(family=""):
    return _scenario(events=f"[{{query: {{kind: marginal, target: S{family}, relative_to: O}}}}]")


def _completion(family=""):
    return _scenario(events="[{query: {kind: completion, system: S, pointer: O"
                            f"{family}, relative_to: P}}}}]")


# id: (a scenario with the field null, the same scenario without it)
NULL_FIELDS = {
    "seed": (_scenario(extra="seed: null"), _scenario()),
    "name": ("name: ~\n" + _scenario(), _scenario()),
    "measure_family": (_measure(", family: null"), _measure()),
    "marginal_family": (_marginal(", family: ~"), _marginal()),
    "completion_family": (_completion(", family: null"), _completion()),
}


@pytest.mark.parametrize("null, absent", NULL_FIELDS.values(), ids=NULL_FIELDS.keys())
def test_a_null_field_reads_as_an_absent_one(tmp_path, capsys, monkeypatch, null, absent):
    """An optional field that is ``null`` keeps its default, as if it were
    left out: the same exit and the same report.  (`events`, `families` and
    `pairs` are in test_null_fields_keep_their_defaults above.)"""
    monkeypatch.delenv("RELAQM_SEED", raising=False)
    reports = []
    for text in (null, absent):
        doc = tmp_path / "input.yaml"
        doc.write_text(text)
        assert main(["run", str(doc), "--format", "structured"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


def test_too_large_scenario_exits_2(tmp_path, capsys, monkeypatch):
    """34 qubits, two observers: refused with TooLarge before a run starts."""
    names = [f"Q{i}" for i in range(34)]
    doc = tmp_path / "large.yaml"
    doc.write_text("systems: [" + ", ".join(f"{{name: {q}, dim: 2}}" for q in names) + "]\n"
                   "observers: [Q0, Q1]\n"
                   "preparations: {" + ", ".join(f"{q}: [1.0, 0.0]" for q in names) + "}\n")

    def refuse(*args, **kwargs):  # a run would allocate 2 * 2**33 amplitudes
        raise AssertionError("the scenario reached the runner")

    monkeypatch.setattr(scenario, "run", refuse)
    assert main(["run", str(doc)]) == 2
    assert "error: TooLarge" in capsys.readouterr().err


def test_lattice_check_too_large_exits_2(capsys, monkeypatch):
    """A dim-1832 sweep is refused before it runs, with an error line; the
    boundary itself is checked in tests/test_input_rules.py."""
    swept = []
    monkeypatch.setattr(cli, "_lattice_laws", lambda dim, rng: swept.append(dim))
    assert main(["lattice-check", "1832"]) == 2
    assert swept == []
    assert capsys.readouterr() == ("", "error: TooLarge: a dim-1832 sweep of 20 dim x dim "
                                       "arrays would hold 67124480 amplitudes, more than "
                                       "the 67108864 allowed\n")


UNREADABLE_PATHS = {
    "run_directory": ["run", "{dir}"],
    "kernel_directory": ["kernel", "{dir}"],
    "unistochastic_directory": ["unistochastic", "{dir}"],
    "run_out_directory": ["run", WIGNER, "--out", "{dir}"],
    "run_not_utf8": ["run", "{latin1}"],
    "kernel_not_utf8": ["kernel", "{latin1}"],
}


@pytest.mark.parametrize("argv", UNREADABLE_PATHS.values(), ids=UNREADABLE_PATHS.keys())
def test_unreadable_paths_exit_2(tmp_path, capsys, argv):
    latin1 = tmp_path / "latin1.yaml"
    latin1.write_bytes("name: caf\u00e9\n".encode("latin-1"))
    assert main([arg.format(dir=tmp_path, latin1=latin1) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error:" in err
    if "{latin1}" in argv:
        assert f"error: {latin1}: not UTF-8 text" in err


def test_importing_the_package_does_not_load_yaml():
    """Only `run` and `kernel` read YAML; the other subcommands skip its import."""
    code = "import sys, relaqm, relaqm.cli; sys.exit('yaml' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


SCENARIO_LAYERS = "{'relaqm.scenario', 'relaqm.measurement', 'relaqm.dynamics'}"


def test_importing_the_cli_skips_the_scenario_layers():
    """`unistochastic` and `lattice-check` never load the scenario runner,
    the measurement layer or the dynamics."""
    code = ("import sys, relaqm.cli; "
            f"sys.exit(' '.join(sorted({SCENARIO_LAYERS} & set(sys.modules))) or None)")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_a_lattice_check_skips_the_kernels():
    """`lattice-check` sweeps questions only: it never loads relaqm.kernels."""
    code = ("import sys, relaqm.cli; code = relaqm.cli.main(['lattice-check', '2']); "
            "sys.exit(code or ('relaqm.kernels' in sys.modules and 'kernels loaded'))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert "orthomodular" in result.stdout


def test_a_kernel_request_skips_the_scenario_layers():
    """`kernel` reads its YAML and families without the scenario runner."""
    code = (f"import sys, relaqm.cli; code = relaqm.cli.main(['kernel', {KERNELS!r}]); "
            f"sys.exit(code or ' '.join(sorted({SCENARIO_LAYERS} & set(sys.modules))) or None)")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert "computational <- hadamard" in result.stdout


@pytest.mark.parametrize("argv", [
    ["run", WIGNER, "--tolerance", "1"],
    ["kernel", KERNELS, "--format", "structured"],
    ["kernel", KERNELS, "--seed", "1"],
    ["unistochastic", SYMMETRIC, "--tolerance", "0.5"],
    ["lattice-check", "3", "--format", "structured"],
    # the search budget and the sweep size are fixed: a smaller budget would
    # certify the unistochastic 2x2 as non-unistochastic (residual 0.72)
    ["unistochastic", SYMMETRIC, "--iters", "0"],
    ["unistochastic", SYMMETRIC, "--starts", "0"],
    ["unistochastic", SYMMETRIC, "--starts", "-2"],
    ["lattice-check", "3", "--trials", "0"],
    ["lattice-check", "3", "--trials", "-1"],
    ["unistochastic", SYMMETRIC, "--starts", "1", "--iters", "5"],
])
def test_flags_a_subcommand_does_not_read_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv, env_seed", [
    (["run", WIGNER, "--seed", "-3"], None),
    (["unistochastic", SYMMETRIC, "--seed", "-1"], None),
    (["lattice-check", "3", "--seed", "-1"], None),
    (["run", WIGNER], "-3"),
    (["unistochastic", SYMMETRIC], "-1"),
])
def test_negative_seeds_exit_2(monkeypatch, capsys, argv, env_seed):
    if env_seed is None:
        monkeypatch.delenv("RELAQM_SEED", raising=False)
    else:
        monkeypatch.setenv("RELAQM_SEED", env_seed)
    assert main(argv) == 2
    assert "error: BadSeed" in capsys.readouterr().err

