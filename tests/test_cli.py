"""Command-line behavior: subcommands, exit codes, seeds, determinism."""

import subprocess
import sys
import warnings

import numpy as np
import pytest
import yaml

from relaqm import cli, kernels, scenario
from relaqm.cli import main
from relaqm.hilbert import haar_unitary
from relaqm.kernels import UnistochasticDecision, unistochastic_search
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

    def search(p, seed=0):
        searches.append(seed)
        return unistochastic_search(p, seed)

    monkeypatch.setattr(kernels, "unistochastic_search", search)
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
    assert capsys.readouterr().err == ("error: input violates double stochasticity: "
                                       "range 0, rows 0.1, columns 0\n")


def test_unistochastic_too_large_exits_2(tmp_path, capsys, monkeypatch):
    """An n x n decision holds max(10 N_STARTS n**2, 3 n**4) amplitudes.  With
    the limit lowered to 300000, 17 x 17 is allowed and 18 x 18 refused by the
    polish term alone (314928, against 207360 for the projections), before
    the decision runs; the decision is replaced, so neither size searches."""
    assert (cli.SEARCH_ARRAYS, cli.POLISH_ARRAYS, cli.N_STARTS) == (10, 3, 64)
    monkeypatch.setattr(cli, "_MAX_AMPLITUDES", 300_000)
    decided = []

    def decide(p, seed):
        decided.append(len(p))
        return UnistochasticDecision("inconclusive", residual=1.0)

    monkeypatch.setattr(cli, "decide_unistochastic", decide)
    for n, code in ((18, 2), (17, 3)):
        uniform = tmp_path / f"uniform{n}.txt"
        uniform.write_text((" ".join([repr(1 / n)] * n) + "\n") * n)
        assert main(["unistochastic", str(uniform)]) == code
    assert decided == [17]
    err = capsys.readouterr().err
    assert err.startswith("error: TooLarge:") and "18x18" in err


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


def test_lattice_check(capsys):
    assert main(["lattice-check", "3", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "orthomodular" in out and "FAIL" not in out


def test_lattice_check_bad_dim(capsys):
    assert main(["lattice-check", "1"]) == 2


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


def _scenario(dim_s=2, prep_s="[[1.0, 0.0], [0.0, 0.0]]", extra="", events="[]"):
    ready = "[[1.0, 0.0], [0.0, 0.0]]"
    return (f"systems: [{{name: S, dim: {dim_s}}}, {{name: O, dim: 2}}, {{name: P, dim: 2}}]\n"
            f"observers: [O, P]\n{extra}\n"
            f"preparations: {{S: {prep_s}, O: {ready}, P: {ready}}}\n"
            f"events: {events}\n")


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
    # deeper than the pure-Python loader composes; with libyaml, not an integer
    "kernel_dim_nested_600_deep": ("kernel", "dim: " + "[" * 600 + "]" * 600 + "\n"),
}


def _assert_rejected(tmp_path, capsys, command, text):
    doc = tmp_path / "input.yaml"
    doc.write_text(text)
    with warnings.catch_warnings():  # the error line is all the user sees
        warnings.simplefilter("error")
        assert main([command, str(doc)]) == 2
    assert "error:" in capsys.readouterr().err


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
    """A dim-d sweep holds 18 d**2 amplitudes, at most 2**26: 1930 is the
    largest dim allowed.  The sweep is replaced, so neither dim allocates."""
    monkeypatch.setattr(cli, "_lattice_laws", lambda dim, rng: {"complement": 0})
    assert cli.LATTICE_ARRAYS == 18
    assert main(["lattice-check", "1931"]) == 2
    assert "error: TooLarge" in capsys.readouterr().err
    assert main(["lattice-check", "1930"]) == 0


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
    err = capsys.readouterr().err
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

