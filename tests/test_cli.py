"""Command-line behavior: subcommands, exit codes, seeds, determinism."""

import subprocess
import sys
import warnings

import pytest
import yaml

from relaqm import cli, scenario
from relaqm.cli import main
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


def test_unistochastic_invalid_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0.9 0.2\n0.1 0.8\n")
    assert main(["unistochastic", str(bad)]) == 2


def test_kernel_tables(capsys):
    assert main(["kernel", KERNELS]) == 0
    out = capsys.readouterr().out
    assert "computational <- hadamard" in out
    assert "0.500000" in out


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

