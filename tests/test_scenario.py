"""Scenario parsing, the multi-observer runner, and report emission."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from generators import random_hermitian, random_state

from relaqm.errors import (
    DescriptionUnavailable,
    NormalizationError,
    ParseError,
    PreconditionViolated,
    ValidationError,
)
from relaqm import measurement as measurement_module
from relaqm import scenario as scenario_module
from relaqm.hilbert import Operator, _apply_on_factors, haar_unitary, sample_index
from relaqm.measurement import (_born_weights, _collapse, _completion, correlation_operator,
                                standard_setup)
from relaqm.parsing import _parse_kernel_request
from relaqm.questions import CompleteFamily
from relaqm.scenario import (
    EvolveEvent,
    MeasureEvent,
    QueryEvent,
    Report,
    Scenario,
    emit_report,
    fixture_path,
    lint_report,
    load_scenario,
    parse_scenario,
    run,
)

WIGNER = fixture_path("wigner_friend.yaml").read_text()


def small_scenario(events: str, extra: str = "") -> str:
    return f"""
name: test
seed: 1
systems:
  - {{name: S, dim: 2}}
  - {{name: O, dim: 2}}
  - {{name: P, dim: 2}}
observers: [O, P]
{extra}
preparations:
  S: [[0.6, 0.0], [0.8, 0.0]]
  O: [[1.0, 0.0], [0.0, 0.0]]
  P: [[1.0, 0.0], [0.0, 0.0]]
events:
{events}
"""


def test_parse_wigner_fixture():
    sc = parse_scenario(WIGNER)
    assert len(sc.dims) == 3
    assert sc.observers == ("O", "P")
    assert len(sc.events) == 5
    assert isinstance(sc.events[0], MeasureEvent)
    assert isinstance(sc.events[1], QueryEvent)
    assert sc.seed == 7


def test_self_measurement_rejected():
    text = fixture_path("self_measurement.yaml").read_text()
    with pytest.raises(ValidationError) as err:
        parse_scenario(text)
    assert err.value.rule == "SelfMeasurement"


def test_simultaneous_measurement_rejected():
    text = fixture_path("simultaneous_measurement.yaml").read_text()
    with pytest.raises(ValidationError) as err:
        parse_scenario(text)
    assert err.value.rule == "SimultaneousMeasurement"


def test_unnormalized_preparation_rejected():
    text = fixture_path("unnormalized.yaml").read_text()
    with pytest.raises(NormalizationError):
        parse_scenario(text)


def test_exactly_normalized_amplitudes_accepted():
    sc = parse_scenario(small_scenario("  []").replace("events:\n  []", "events: []"))
    np.testing.assert_allclose(np.linalg.norm(sc.preparations["S"]), 1.0)


def test_observer_must_be_declared_system():
    text = small_scenario("  []").replace("observers: [O, P]", "observers: [O, Q]")
    with pytest.raises(ValidationError) as err:
        parse_scenario(text.replace("events:\n  []", "events: []"))
    assert err.value.rule == "ObserverNotDeclared"


def test_one_dimensional_observer_rejected():
    text = small_scenario("  []").replace("{name: P, dim: 2}", "{name: P, dim: 1}")
    with pytest.raises(ValidationError) as err:
        parse_scenario(text.replace("events:\n  []", "events: []")
                       .replace("P: [[1.0, 0.0], [0.0, 0.0]]", "P: [[1.0, 0.0]]"))
    assert err.value.rule == "ObserverTooSmall"


def test_self_description_query_rejected():
    text = small_scenario(
        "  - query: {kind: state, of: [S, P], relative_to: P}")
    with pytest.raises(ValidationError) as err:
        parse_scenario(text)
    assert err.value.rule == "SelfDescription"


def test_malformed_document_is_parse_error():
    with pytest.raises(ParseError):
        parse_scenario("systems: [1, 2")
    with pytest.raises(ParseError):
        parse_scenario("just a string")
    with pytest.raises(ParseError):
        parse_scenario("systems:\n  - {name: S, dim: 2}\n")


def test_run_wigner_collapse_and_entangled_accounts():
    sc = parse_scenario(WIGNER)
    outcomes = set()
    for seed in range(12):
        report = run(sc, seed=seed)
        measure = report.entries[0]
        outcome = measure["collapse"]["outcome"]
        outcomes.add(outcome)
        # O's account: the eigenstate matching the sampled value
        amps = measure["collapse"]["post_state"]["amplitudes"]
        assert amps[outcome - 1] == [1.0, 0.0]
        # P's account: the correlated pair with the measurement complete
        ent = measure["entangled"][0]
        assert ent["relative_to"] == "P"
        assert ent["completion_probability"] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(ent["q_marginal"], [0.5, 0.5], atol=1e-12)
        inv = 1 / np.sqrt(2)
        np.testing.assert_allclose(
            np.array(ent["post_state"]["amplitudes"], dtype=float)[:, 0],
            [inv, 0, 0, inv], atol=1e-12)
    assert outcomes == {1, 2}  # both values occur across seeds


def test_run_marginal_agreement_between_observers():
    sc = parse_scenario(WIGNER)
    report = run(sc)
    for entry in report.entries:
        for ent in entry.get("entangled", []):
            assert ent["marginal_agreement"] < 1e-12


def test_run_is_deterministic_and_matches_golden():
    sc = parse_scenario(WIGNER)
    first = emit_report(run(sc), "structured")
    second = emit_report(run(sc), "structured")
    assert first == second
    golden = fixture_path("wigner_friend.report.json").read_text()
    assert first == golden


def test_seed_override_wins_over_file_seed():
    """run(sc, seed=s) reports what the same document with `seed: s` reports;
    seeds 3 and 4 draw different outcomes for the friend's measurement."""
    sc = parse_scenario(WIGNER)
    reports = {}
    for seed in (3, 4):
        overridden = run(sc, seed=seed)
        from_file = run(parse_scenario(WIGNER.replace("seed: 7", f"seed: {seed}")))
        assert overridden.seed == from_file.seed == seed
        assert emit_report(overridden, "structured") == emit_report(from_file, "structured")
        reports[seed] = overridden
    assert reports[3].entries != reports[4].entries
    assert run(sc).seed == 7


def test_measured_observer_account_breaks():
    text = small_scenario(
        "  - measure: {observer: O, target: S, family: computational}\n"
        "  - measure: {observer: P, target: O, family: computational}\n"
        "  - query: {kind: marginal, target: S, family: computational, relative_to: O}")
    sc = parse_scenario(text)
    with pytest.raises(DescriptionUnavailable, match="broke"):
        run(sc)


def test_queries_before_breakage_are_fine():
    text = small_scenario(
        "  - measure: {observer: O, target: S, family: computational}\n"
        "  - query: {kind: marginal, target: S, family: computational, relative_to: O}\n"
        "  - measure: {observer: P, target: O, family: computational}")
    report = run(parse_scenario(text))
    marginal = report.entries[1]
    assert sorted(marginal["probabilities"]) == [0.0, 1.0]
    assert report.entries[2]["broken_accounts"] == ["O"]


def test_pointer_outcomes_correlate_with_system():
    """P measures q and then the pointer: the two outcomes agree (von Neumann)."""
    for seed in range(10):
        text = small_scenario(
            "  - measure: {observer: O, target: S, family: computational}\n"
            "  - measure: {observer: P, target: S, family: computational}\n"
            "  - measure: {observer: P, target: O, family: computational}")
        report = run(parse_scenario(text), seed=seed)
        q_outcome = report.entries[1]["collapse"]["outcome"]
        pointer_outcome = report.entries[2]["collapse"]["outcome"]
        assert q_outcome == pointer_outcome


def test_evolve_event_changes_states():
    text = small_scenario(
        "  - evolve: {target: S, hamiltonian: pauli_x, t: %f}\n"
        "  - query: {kind: marginal, target: S, family: computational, relative_to: O}"
        % (np.pi / 2))
    report = run(parse_scenario(text))
    # exp(-i pi X/2) swaps the basis weights 0.36 and 0.64
    np.testing.assert_allclose(report.entries[1]["probabilities"], [0.64, 0.36],
                               atol=1e-12)


def test_evolve_rejects_non_hermitian_matrix():
    text = small_scenario(
        "  - evolve: {target: S, hamiltonian: [[[0,0],[1,0]],[[0,0],[0,0]]], t: 1.0}")
    with pytest.raises(ValidationError) as err:
        parse_scenario(text)
    assert err.value.rule == "NonHermitianHamiltonian"


def test_state_query_on_entangled_subsystem_reports_cluster():
    text = small_scenario(
        "  - measure: {observer: O, target: S, family: computational}\n"
        "  - query: {kind: state, of: [S], relative_to: P}")
    report = run(parse_scenario(text))
    entry = report.entries[1]
    assert entry["defined"] is False
    assert entry["state"]["systems"] == ["S", "O"]
    assert "note" in entry


def test_kernel_and_interference_queries():
    text = small_scenario(
        "  - query: {kind: kernel, target: S, family_a: computational, family_b: hadamard}\n"
        "  - query: {kind: interference, target: S, family_a: computational, "
        "family_b: hadamard, i: 1, j: 1, k: 2}")
    report = run(parse_scenario(text))
    kernel = report.entries[0]
    np.testing.assert_allclose(kernel["p"], [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)
    interference = report.entries[1]
    assert interference["composite_probability"] == pytest.approx(1.0, abs=1e-12)
    assert interference["classical_probability"] == pytest.approx(0.5, abs=1e-12)
    assert interference["interference_gap"] == pytest.approx(0.5, abs=1e-12)


def test_declared_family_is_usable():
    inv = 1 / np.sqrt(2)
    extra = (f"families:\n  tilted: [[[{inv}, 0.0], [{inv}, 0.0]], "
             f"[[{inv}, 0.0], [{-inv}, 0.0]]]\n")
    text = small_scenario(
        "  - measure: {observer: O, target: S, family: tilted}", extra=extra)
    report = run(parse_scenario(text))
    probs = report.entries[0]["collapse"]["probabilities"]
    # |<tilted_i|psi>|^2 for psi = (0.6, 0.8): ((0.6+0.8)/sqrt2)^2 = 0.98
    np.testing.assert_allclose(probs, [0.98, 0.02], atol=1e-12)


def test_unknown_family_rejected():
    text = small_scenario(
        "  - measure: {observer: O, target: S, family: nonsense}")
    with pytest.raises(ValidationError) as err:
        parse_scenario(text)
    assert err.value.rule == "UnknownFamily"


def _matrix_yaml(matrix) -> str:
    """A complex matrix as YAML rows of [re, im] pairs, every float exact."""
    rows = (", ".join(f"[{float(z.real)!r}, {float(z.imag)!r}]" for z in row) for row in matrix)
    return "[" + ", ".join(f"[{row}]" for row in rows) + "]"


def test_each_document_reads_its_own_declared_families():
    """Two documents parsed one after the other declare different `haar`
    matrices; each run's kernel and marginal queries use its own."""
    rng = np.random.default_rng(7)
    haars = [haar_unitary(2, rng) for _ in range(2)]
    events = ("  - query: {kind: kernel, target: S, family_a: haar, family_b: computational}\n"
              "  - query: {kind: marginal, target: S, family: haar, relative_to: P}")
    parsed = [parse_scenario(small_scenario(events, f"families: {{haar: {_matrix_yaml(h)}}}"))
              for h in haars]
    psi = np.array([0.6, 0.8])
    for sc, haar in zip(parsed, haars):
        kernel, marginal = run(sc).entries
        np.testing.assert_array_equal(kernel["p"], np.abs(haar.conj().T) ** 2)
        np.testing.assert_allclose(marginal["probabilities"], np.abs(haar.conj().T @ psi) ** 2,
                                   atol=1e-15)


def test_events_naming_one_family_at_one_dim_share_it():
    text = """
systems: [{name: S, dim: 2}, {name: T, dim: 3}, {name: O, dim: 3}, {name: P, dim: 3}]
observers: [O, P]
preparations: {S: [1.0, 0.0], T: [1.0, 0.0, 0.0], O: [1.0, 0.0, 0.0], P: [1.0, 0.0, 0.0]}
events:
  - measure: {observer: O, target: S, family: fourier}
  - measure: {observer: O, target: T, family: fourier}
  - query: {kind: marginal, target: S, family: fourier, relative_to: P}
  - query: {kind: completion, system: S, pointer: O, family: fourier, relative_to: P}
  - query: {kind: kernel, target: S, family_a: fourier, family_b: computational}
  - query: {kind: interference, target: S, family_a: computational, family_b: fourier,
            i: 1, j: 1, k: 2}
  - query: {kind: marginal, target: T, family: fourier, relative_to: P}
"""
    events = parse_scenario(text).events
    on_s = [events[0].family, events[2].params["family"], events[3].params["family"],
            events[4].params["family_a"], events[5].params["family_b"]]
    assert all(family is on_s[0] for family in on_s)
    assert events[1].family is events[6].params["family"]
    assert events[1].family.dim == 3 and on_s[0].dim == 2
    pairs = _parse_kernel_request("dim: 2\npairs: [[computational, fourier], "
                                  "[fourier, computational]]\n")
    assert pairs[0][0] is pairs[1][1] and pairs[0][1] is pairs[1][0]


def test_a_declared_fourier_wins_over_the_builtin_in_every_event():
    inv = 1 / np.sqrt(2)
    declared = np.array([[inv, inv], [inv, -inv]], dtype=complex)
    events = ("  - measure: {observer: O, target: S, family: fourier}\n"
              "  - query: {kind: marginal, target: S, family: fourier, relative_to: P}\n"
              "  - query: {kind: completion, system: S, pointer: O, family: fourier, "
              "relative_to: P}\n"
              "  - query: {kind: kernel, target: S, family_a: fourier, family_b: computational}")
    sc = parse_scenario(small_scenario(events, f"families: {{fourier: {_matrix_yaml(declared)}}}"))
    families = [sc.events[0].family, sc.events[1].params["family"],
                sc.events[2].params["family"], sc.events[3].params["family_a"]]
    for family in families:
        assert family.label == "fourier"
        np.testing.assert_array_equal(family.basis, declared)
    # the builtin dim-2 Fourier basis is the Hadamard one, up to sign: (0.6, 0.8) gives 0.98
    report = run(sc)
    np.testing.assert_allclose(report.entries[0]["collapse"]["probabilities"], [0.98, 0.02],
                               atol=1e-12)


def _counting_kernels(monkeypatch) -> list:
    """Record the family pair of every kernel the runner builds."""
    built = []
    original = scenario_module.kernel_from_families

    def counted(b, c):
        built.append((b.label, c.label))
        return original(b, c)

    monkeypatch.setattr(scenario_module, "kernel_from_families", counted)
    return built


def _pair_queries(family_a: str, family_b: str) -> str:
    return (f"  - query: {{kind: kernel, target: S, family_a: {family_a}, family_b: {family_b}}}\n"
            f"  - query: {{kind: interference, target: S, family_a: {family_a}, "
            f"family_b: {family_b}, i: 1, j: 1, k: 2}}\n")


def test_a_run_builds_each_kernel_once(monkeypatch):
    events = (_pair_queries("computational", "hadamard")
              + _pair_queries("hadamard", "computational")) * 3
    sc = parse_scenario(small_scenario(events))
    expected = emit_report(run(sc), "structured")
    built = _counting_kernels(monkeypatch)
    report = run(sc)
    assert built == [("computational", "hadamard"), ("hadamard", "computational")]
    assert emit_report(report, "structured") == expected
    kernels = [entry for entry in report.entries if entry["query"] == "kernel"]
    assert [entry["p"] for entry in kernels[::2]] == [kernels[0]["p"]] * 3
    assert kernels[0]["p"] is not kernels[2]["p"]  # every entry holds its own rows
    run(sc)
    assert len(built) == 4  # a second run builds its own


# Passes the parser's 1e-9 unitarity rule, but paired with itself gives a p
# 1.9e-9 from doubly stochastic
SCALED_HADAMARD = np.sqrt((1 + 0.95e-9) / 2) * np.array([[1, 1], [1, -1]], dtype=complex)


def test_a_pair_that_fails_its_check_raises_at_its_first_query(monkeypatch):
    events = (_pair_queries("computational", "hadamard") * 2 + _pair_queries("f", "f")
              + _pair_queries("hadamard", "computational"))
    extra = f"families: {{f: {_matrix_yaml(SCALED_HADAMARD)}}}"
    sc = parse_scenario(small_scenario(events, extra))
    built = _counting_kernels(monkeypatch)
    with pytest.raises(PreconditionViolated, match="^f <- f: kernel is not doubly stochastic"):
        run(sc)
    assert built == [("computational", "hadamard"), ("f", "f")]


def test_every_reported_state_is_tagged():
    report = run(parse_scenario(WIGNER))
    assert report.violations == []
    assert lint_report(report) == []


def test_lint_catches_untagged_states():
    report = Report(scenario="bad", seed=0, entries=[
        {"kind": "query", "state": {"systems": ["S"], "amplitudes": [[1, 0]]}},
    ])
    problems = lint_report(report)
    assert len(problems) == 1
    assert "observer tag" in problems[0]


def test_emit_table_contains_the_story():
    report = run(parse_scenario(WIGNER))
    table = emit_report(report, "table")
    assert "O measures S" in table
    assert "relative to P" in table
    assert "completion probability" in table
    with pytest.raises(ValueError, match="format"):
        emit_report(report, "csv")


def test_emit_table_shows_both_interference_values():
    text = small_scenario(
        "  - query: {kind: interference, target: S, family_a: computational, "
        "family_b: hadamard, i: 1, j: 1, k: 2}")
    table = emit_report(run(parse_scenario(text)), "table")
    assert "composite 1" in table
    assert "classical 0.5" in table
    assert "gap 0.5" in table


def test_empty_report_is_header_only():
    text = small_scenario("  []").replace("events:\n  []", "events: []")
    report = run(parse_scenario(text))
    assert report.entries == []
    table = emit_report(report, "table")
    assert table == "scenario: test\nseed: 1\n"


# Reference bodies of the measure event's helpers, written with numpy's
# functions; the helpers must return the same bytes.


def reference_canonical_phase(amps):
    idx = int(np.argmax(np.abs(amps)))
    a = amps[idx]
    if abs(a) < 1e-12:
        return amps
    return amps * (np.conj(a) / abs(a))


def reference_minimal_cluster(account, targets):
    n = len(account.names)
    target_idx = tuple(account.position(t) for t in targets)
    reach = frozenset().union(*(account.blocks[t] for t in targets))
    pool = sorted(account.position(name) for name in reach - set(targets))
    tensor = account.amps.reshape(account.dims)
    extras = itertools.chain.from_iterable(
        itertools.combinations(pool, k) for k in range(len(pool) + 1))
    for extra in extras:
        subset = sorted(target_idx + extra)
        chosen = set(subset)
        block = tensor.transpose(subset + [i for i in range(n) if i not in chosen]).reshape(
            math.prod(account.dims[i] for i in subset), -1)
        if block.shape[1] == 1:
            factor = block[:, 0]
        else:
            if len(extra) < len(pool) and block.shape[0] > 1:
                wide = block if block.shape[0] <= block.shape[1] else block.T
                if np.linalg.eigvalsh(wide @ wide.conj().T)[-2] > scenario_module._GRAM_SCREEN:
                    continue
            u, s, _ = np.linalg.svd(block, full_matrices=False)
            if s.size > 1 and s[1] > 1e-9:
                continue
            factor = u[:, 0]
        names = tuple(account.names[i] for i in subset)
        return names, reference_canonical_phase(factor / np.linalg.norm(factor))
    raise RuntimeError("unreachable: the targets' blocks always factor")


def reference_born_weights(amps, dims, pos, basis):
    rotated = _apply_on_factors(amps, dims, (pos,), basis.conj().T)
    tensor = rotated.reshape(dims)
    other = tuple(ax for ax in range(len(dims)) if ax != pos)
    return (np.abs(tensor) ** 2).sum(axis=other), tensor


def reference_collapse(tensor, dims, pos, outcome, basis):
    mask = np.zeros(dims[pos])
    mask[outcome] = 1.0
    shape = [1] * len(dims)
    shape[pos] = dims[pos]
    collapsed = _apply_on_factors((tensor * mask.reshape(shape)).reshape(-1), dims,
                                  (pos,), basis)
    return collapsed / np.linalg.norm(collapsed)


def reference_completion(tensor, system_pos, pointer_pos):
    diagonal = np.diagonal(tensor, axis1=system_pos, axis2=pointer_pos)
    return min(float(np.sum(np.abs(diagonal) ** 2)), 1.0)


def test_canonical_phase_matches_the_reference_bit_for_bit():
    """Seeded vectors of 1-16 amplitudes: generic ones, ones whose largest
    magnitude is an exact tie between differently phased entries, and ones
    whose largest magnitude is below the 1e-12 cut, or just at it."""
    rng = np.random.default_rng(26)
    cases = [np.zeros(3, complex), np.array([1e-13j]), np.array([9.99e-13, -5e-13j]),
             np.array([1e-12 + 0j, 0.5e-12j]), np.array([0.6, 0.8j]), np.array([-1j])]
    ties = 0
    for k in range(600):
        size = int(rng.integers(1, 17))
        amps = rng.normal(size=size) + 1j * rng.normal(size=size)
        if k % 3 == 1:  # a + bi, -a + bi, b - ai and -b - ai share one magnitude exactly
            re, im = 4.0 + abs(rng.normal(size=2))
            slots = rng.permutation(size)[:4]
            amps[slots] = np.array([re + 1j * im, -re + 1j * im, im - 1j * re,
                                    -im - 1j * re])[:len(slots)]
            ties += np.count_nonzero(np.abs(amps) == np.abs(amps).max()) > 1
        elif k % 3 == 2:
            amps *= 1e-13
        cases.append(amps)
    assert ties > 150
    for amps in cases:
        assert scenario_module._canonical_phase(amps).tobytes() == \
            reference_canonical_phase(amps).tobytes()


def seeded_product_accounts(count: int, seed: int):
    """``count`` accounts drawn like :func:`product_accounts`, from one seed,
    with dims 1-3 so that one-dimensional systems appear too."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 8))
        dims = tuple(int(d) for d in rng.integers(1, 4, size=n))
        label, coarse = rng.integers(0, n, size=(2, n)).tolist()
        targets = rng.permutation(n)[:int(rng.integers(1, min(3, n) + 1))].tolist()
        account, targets, _ = _product_account(dims, label, coarse, targets, rng)
        yield account, targets, rng


def _seeded_basis(dim: int, rng) -> np.ndarray:
    kind = rng.integers(3)
    if kind == 0:
        return CompleteFamily.computational(dim).basis
    return CompleteFamily.fourier(dim).basis if kind == 1 else haar_unitary(dim, rng)


def test_minimal_cluster_matches_the_reference_bit_for_bit():
    for account, targets, _ in seeded_product_accounts(400, 26):
        names, amps = scenario_module._minimal_cluster(account, targets)
        ref_names, ref_amps = reference_minimal_cluster(account, targets)
        assert names == ref_names
        assert amps.tobytes() == ref_amps.tobytes()


def test_measure_helpers_match_the_reference_bit_for_bit():
    """A measure event's three helpers against their reference bodies, on a
    seeded account (the measurer's collapse) and on its minimal cluster (a
    bystander's statistics), in a builtin or Haar family on one factor."""
    for account, targets, rng in seeded_product_accounts(400, 27):
        names, amps = reference_minimal_cluster(account, targets)
        cluster_dims = tuple(account.dims[account.position(name)] for name in names)
        for state, dims in ((account.amps, account.dims), (amps, cluster_dims)):
            pos = int(rng.integers(len(dims)))
            basis = _seeded_basis(dims[pos], rng)
            probs, tensor = _born_weights(state, dims, pos, basis)
            ref_probs, ref_tensor = reference_born_weights(state, dims, pos, basis)
            assert probs.tobytes() == ref_probs.tobytes()
            assert tensor.tobytes() == ref_tensor.tobytes()
            outcome = sample_index(probs, rng)
            assert (_collapse(tensor, dims, pos, outcome, basis).tobytes()
                    == reference_collapse(tensor, dims, pos, outcome, basis).tobytes())
            pointer = int(rng.integers(len(dims)))
            if pointer != pos:
                assert np.float64(_completion(tensor, pos, pointer)).tobytes() == \
                    np.float64(reference_completion(tensor, pos, pointer)).tobytes()


def _exhaustive_cluster(account, targets):
    """Reference search: every subset containing the targets, by (size, positions)."""
    n = len(account.names)
    target_idx = frozenset(account.position(t) for t in targets)
    candidates = []
    for mask in range(1, 1 << n):
        subset = frozenset(i for i in range(n) if mask & (1 << i))
        if target_idx <= subset:
            candidates.append(sorted(subset))
    candidates.sort(key=lambda s: (len(s), s))
    tensor = account.amps.reshape(account.dims)
    for subset in candidates:
        rest = [i for i in range(n) if i not in subset]
        moved = np.transpose(tensor, subset + rest)
        block = moved.reshape(math.prod(account.dims[i] for i in subset), -1)
        if block.shape[1] == 1:
            factor = block[:, 0]
        else:
            u, s, _ = np.linalg.svd(block, full_matrices=False)
            if s.size > 1 and s[1] > 1e-9:
                continue
            factor = u[:, 0]
        names = tuple(account.names[i] for i in subset)
        return names, reference_canonical_phase(factor / np.linalg.norm(factor))
    raise AssertionError("the full set always factors")


@st.composite
def product_accounts(draw):
    """An account that is a product of random block states, its true blocks,
    coarser blocks (unions of true ones) and targets."""
    n = draw(st.integers(2, 7))
    dims = tuple(draw(st.lists(st.integers(2, 3), min_size=n, max_size=n)))
    label = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    coarse = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    targets = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _product_account(dims, label, coarse, targets, rng)


def _product_account(dims, label, coarse, targets, rng):
    """System i lies in true block label[i] and in the coarse block of its
    true block's coarse[label] value; the state is a random product across
    the true blocks.  Returns the account, the target names and the systems
    that the targets' true blocks hold."""
    n = len(dims)
    true_blocks = [[i for i in range(n) if label[i] == b] for b in sorted(set(label))]
    order = [i for block in true_blocks for i in block]
    amps = np.array([1.0], dtype=complex)
    for block in true_blocks:
        size = math.prod(dims[i] for i in block)
        psi = rng.normal(size=size) + 1j * rng.normal(size=size)
        amps = np.kron(amps, psi / np.linalg.norm(psi))
    amps = np.transpose(amps.reshape([dims[i] for i in order]), np.argsort(order))

    names = tuple(f"X{i}" for i in range(n))
    account = scenario_module._Account("O", names, dims, amps.reshape(-1))
    for block in true_blocks:  # a block may join others; never split
        joined = frozenset(names[j] for j in range(n)
                           if coarse[label[j]] == coarse[label[block[0]]])
        for i in block:
            account.blocks[names[i]] = joined
    expected = {names[i] for i in range(n) if label[i] in {label[t] for t in targets}}
    return account, tuple(names[t] for t in targets), expected


@settings(deadline=None)
@given(product_accounts())
def test_pruned_cluster_search_matches_exhaustive_scan(case):
    account, targets, expected = case
    names, amps = scenario_module._minimal_cluster(account, targets)
    ref_names, ref_amps = _exhaustive_cluster(account, targets)
    assert names == ref_names
    assert amps.tobytes() == ref_amps.tobytes()
    assert set(names) == expected  # generic block states do not factor further


@st.composite
def completion_cases(draw):
    """An entangled account of 2-5 systems of dim 2-4, a (system, pointer) pair
    whose pointer is at least as large as the system, and a builtin or Haar
    family on the system."""
    n = draw(st.integers(2, 5))
    dims = draw(st.lists(st.integers(2, 4), min_size=n, max_size=n))
    s, p = draw(st.permutations(range(n)))[:2]
    dims[s], dims[p] = sorted((dims[s], dims[p]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    name = draw(st.sampled_from(["computational", "fourier", "haar"]
                                + ["hadamard"] * (dims[s] == 2)))
    family = (CompleteFamily(haar_unitary(dims[s], rng), "random") if name == "haar"
              else scenario_module.resolve_family(name, dims[s], {}))
    size = math.prod(dims)
    psi = rng.normal(size=size) + 1j * rng.normal(size=size)
    names = tuple(f"X{i}" for i in range(n))
    account = scenario_module._Account("O", names, tuple(dims), psi / np.linalg.norm(psi))
    return account, names[s], names[p], family


@settings(deadline=None)
@given(completion_cases())
def test_completion_matches_the_correlation_operator(case):
    """The diagonal read of the rotated account equals completion_probability's
    min(|M psi|^2, 1), with M = correlation_operator embedded on (system, pointer)."""
    account, system, pointer, family = case
    s, p = account.position(system), account.position(pointer)
    m_op = correlation_operator(standard_setup(account.dims[s], account.dims[p], family))
    joint = _apply_on_factors(account.amps, account.dims, (s, p), m_op.matrix)
    expected = min(float(np.linalg.norm(joint)) ** 2, 1.0)
    _, tensor = _born_weights(account.amps, account.dims, s, family.basis)
    value = _completion(tensor, s, p)
    assert abs(value - expected) <= 1e-12


def test_cluster_search_cost_follows_the_entangled_blocks(monkeypatch):
    """k labs {S, F, W} and a bystander B: F measures S, then W measures F.

    S starts in |0>, so each Fourier measurement entangles S with F.  The SVD
    count must not grow with the 2^n subsets of the whole account, and the
    Gram screen leaves one SVD per search: the one that finds the cluster.
    """
    labs = 5
    names = [f"{x}{i}" for i in range(labs) for x in "SFW"]
    observers = [n for n in names if not n.startswith("S")] + ["B"]
    text = "\n".join(
        ["name: labs", "systems:"]
        + [f"  - {{name: {n}, dim: 2}}" for n in names + ["B"]]
        + [f"observers: [{', '.join(observers)}]", "preparations:"]
        + [f"  {n}: [1.0, 0.0]" for n in names + ["B"]]
        + ["events:"]
        + [line for i in range(labs) for line in (
            f"  - measure: {{observer: F{i}, target: S{i}, family: fourier}}",
            f"  - measure: {{observer: W{i}, target: F{i}}}")]) + "\n"
    sc = parse_scenario(text)
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    report = run(sc)
    entangled = sum(len(entry["entangled"]) for entry in report.entries)
    assert entangled == 75
    assert len(calls) == entangled


def _run_against_the_oracle(sc):
    """Run ``sc`` with every cluster search checked against the exhaustive
    scan, which decides every group by its SVD; returns the report and the
    number of searches."""
    screened = scenario_module._minimal_cluster
    searches = []

    def both(account, targets):
        names, amps = screened(account, targets)
        ref_names, ref_amps = _exhaustive_cluster(account, targets)
        assert names == ref_names
        assert np.array_equal(amps, ref_amps)
        assert amps.tobytes() == ref_amps.tobytes()
        searches.append(targets)
        return names, amps

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenario_module, "_minimal_cluster", both)
        report = run(sc)
    return report, len(searches)


def _scenario(dims: dict, observers, preparations: dict, events, seed=0) -> Scenario:
    return Scenario(name="shortcuts", dims=dict(dims),
                    observers=tuple(observers), preparations=preparations,
                    events=tuple(events), seed=seed)


def _family(kind: str, dim: int, rng) -> CompleteFamily:
    if kind == "haar":
        return CompleteFamily(haar_unitary(dim, rng), "random")
    return getattr(CompleteFamily, kind)(dim)


@st.composite
def random_scenarios(draw):
    """3-6 systems of dims 1-3, two or more observers.  Measurements chain
    pointers into targets (merging blocks), the measurer's collapse
    disentangles its own account, and evolutions and state queries fall in
    between.  No event touches an account that a measurement broke."""
    n = draw(st.integers(3, 6))
    dims = [draw(st.integers(2, 3)) for _ in range(2)]
    dims += draw(st.lists(st.integers(1, 3), min_size=n - 2, max_size=n - 2))
    names = [f"X{i}" for i in range(n)]
    dim = dict(zip(names, dims))
    observers = names[:2] + [x for x in names[2:]
                             if dim[x] >= 2 and draw(st.booleans())]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    preparations = {x: (np.eye(dim[x], dtype=complex)[0] if draw(st.booleans())
                        else random_state(dim[x], rng)) for x in names}

    broken: set[str] = set()
    events = []
    for _ in range(draw(st.integers(1, 12))):
        active = [o for o in observers if o not in broken]
        kind = draw(st.sampled_from(["measure", "measure", "evolve", "state"]))
        if kind == "measure":
            pairs = [(o, t) for o in active for t in names if t != o and dim[t] <= dim[o]]
            if not pairs:
                continue
            o, t = draw(st.sampled_from(pairs))
            family = draw(st.sampled_from(["computational", "fourier", "haar"]))
            events.append(MeasureEvent(o, t, _family(family, dim[t], rng)))
            if t in observers:
                broken.add(t)
        elif kind == "evolve":
            t = draw(st.sampled_from(names))
            h = Operator(random_hermitian(dim[t], rng), (dim[t],))
            events.append(EvolveEvent(t, h, float(rng.uniform(0.1, 2.0)), "matrix"))
        else:
            if not active:
                continue
            r = draw(st.sampled_from(active))
            of = draw(st.lists(st.sampled_from([x for x in names if x != r]),
                               min_size=1, max_size=2, unique=True))
            events.append(QueryEvent("state", {"of": tuple(of), "relative_to": r}))
    seed = draw(st.integers(0, 2**16))
    return _scenario(dim, observers, preparations, events, seed)


@settings(deadline=None, max_examples=150)
@given(random_scenarios())
def test_screened_cluster_search_matches_every_candidate_svd(sc):
    report, _ = _run_against_the_oracle(sc)
    assert report.violations == []


def test_a_one_dimensional_target_passes_the_screen():
    """A dim-1 target's unfolding has one row, so its Gram matrix is 1x1 and
    has no second eigenvalue; it is decided by the SVD alone."""
    dims = {"X": 1, "F": 2, "W": 2, "Y": 2}
    preps = {"X": np.array([1j]), "F": np.array([1, 0], complex),
             "W": np.array([1, 0], complex), "Y": np.array([0.6, 0.8j])}
    events = [MeasureEvent("F", "X", CompleteFamily.computational(1)),
              MeasureEvent("F", "Y", CompleteFamily.fourier(2)),
              QueryEvent("state", {"of": ("X",), "relative_to": "W"}),
              QueryEvent("state", {"of": ("X", "Y"), "relative_to": "W"})]
    report, searches = _run_against_the_oracle(_scenario(dims, ["F", "W"], preps, events))
    assert searches == 4
    assert report.entries[2]["state"]["systems"] == ["X"]
    assert report.entries[2]["defined"]


def _labs_scenario(case: int) -> Scenario:
    """4 labs x {S, F, W}, every system an observer ready in |0> except the
    random S: F measures S (fourier), F evolves, W measures F (labs 0, 2) or
    the previous lab's S (labs 1, 3); then a state query per lab."""
    rng = np.random.default_rng([3, case])
    names = [f"{role}{lab}" for lab in range(4) for role in "SFW"]
    preps = {x: np.array([1, 0], complex) for x in names}
    events = []
    for lab in range(4):
        preps[f"S{lab}"] = random_state(2, rng)
        events.append(MeasureEvent(f"F{lab}", f"S{lab}", CompleteFamily.fourier(2)))
        h = Operator(random_hermitian(2, rng), (2,))
        events.append(EvolveEvent(f"F{lab}", h, float(rng.uniform(0.1, 2.0)), "matrix"))
        target = f"F{lab}" if lab % 2 == 0 else f"S{lab - 1}"
        events.append(MeasureEvent(f"W{lab}", target, CompleteFamily.computational(2)))
    events += [QueryEvent("state", {"of": (f"S{lab}",), "relative_to": f"W{(lab + 2) % 4}"})
               for lab in range(4)]
    return _scenario({x: 2 for x in names}, names, preps, events, seed=case)


def _builds(sc: Scenario) -> tuple[int, str]:
    """Premeasurement unitaries built by a run of ``sc``, and its report."""
    before = measurement_module._premeasurement.cache_info().misses
    emitted = emit_report(run(sc), "structured")
    return measurement_module._premeasurement.cache_info().misses - before, emitted


def _unmemoised(monkeypatch, sc: Scenario) -> str:
    """The report of ``sc`` with one unitary built for every measure event."""
    with monkeypatch.context() as mp:
        mp.setattr(measurement_module, "_premeasurement",
                   measurement_module._premeasurement.__wrapped__)
        return emit_report(run(sc), "structured")


@pytest.mark.parametrize("case", [0, 1])
def test_labs_build_two_premeasurements_for_eight_measure_events(monkeypatch, case):
    sc = _labs_scenario(case)
    assert sum(isinstance(ev, MeasureEvent) for ev in sc.events) == 8
    measurement_module._premeasurement.cache_clear()
    built, shared = _builds(sc)
    assert built == 2
    assert _builds(sc) == (0, shared)
    assert _unmemoised(monkeypatch, sc) == shared


def test_observers_with_different_ready_states_share_no_premeasurement(monkeypatch):
    dims = {"S": 2, "O": 2, "P": 2, "Q": 2}
    preps = {"S": np.array([0.6, 0.8], complex), "O": np.array([1, 0], complex),
             "P": np.array([0, 1], complex), "Q": np.array([1, 0], complex)}
    family = CompleteFamily.computational(2)
    events = [MeasureEvent("O", "S", family), MeasureEvent("P", "S", family),
              MeasureEvent("O", "S", family)]
    sc = _scenario(dims, ["O", "P", "Q"], preps, events)
    measurement_module._premeasurement.cache_clear()
    built, shared = _builds(sc)
    assert built == 2
    assert _unmemoised(monkeypatch, sc) == shared


def test_interleaved_setups_build_each_premeasurement_once(monkeypatch):
    """A B A B builds A and B once each; the memo holds both."""
    fourier, computational = CompleteFamily.fourier(2), CompleteFamily.computational(2)
    ready = np.array([1, 0], complex)
    dims = {"S": 2, "O": 2, "P": 2}
    preps = {"S": np.array([0.6, 0.8], complex), "O": ready, "P": ready}
    interleaved = [MeasureEvent("O", "S", fourier), MeasureEvent("P", "S", computational)] * 2
    sc = _scenario(dims, ["O", "P"], preps, interleaved)
    measurement_module._premeasurement.cache_clear()
    built, shared = _builds(sc)
    assert built == 2
    assert _unmemoised(monkeypatch, sc) == shared
