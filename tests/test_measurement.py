"""The two accounts of one measurement and the pointer-correlation projector."""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from generators import random_state

from relaqm.errors import DimensionMismatch
from relaqm.hilbert import (
    StateVector,
    apply,
    basis_state,
    haar_unitary,
    projector_onto,
    tensor,
)
from relaqm.measurement import (
    MeasurementSetup,
    _premeasurement,
    collapse_description,
    completion_probability,
    consistency_check,
    correlation_operator,
    entangling_description,
    premeasurement_unitary,
    standard_setup,
)
from relaqm.questions import CompleteFamily

INV_SQRT2 = 1 / np.sqrt(2)


def qubit_pair_setup():
    return standard_setup(2, 2)


def correlated_state(coeffs, setup, tag="P"):
    """sum_i coeffs[i] |b_i> x |i> built by hand, independent of the library path."""
    out = np.zeros(setup.total_dim, dtype=complex)
    for i, a in enumerate(coeffs):
        out += a * np.kron(setup.system_basis.column(i), np.eye(setup.pointer_dim)[i])
    return StateVector(out, (setup.system_dim, setup.pointer_dim), tag)


def test_setup_validation():
    """The ready pointer is a read-only complex unit vector, relative to no
    observer, with a mark per system basis vector."""
    with pytest.raises(ValueError, match="pointer dim 2 smaller than system dim 3"):
        MeasurementSetup(CompleteFamily.computational(3), np.array([1, 0]))
    with pytest.raises(ValueError, match="pointer dim"):
        standard_setup(3, 2)
    for ready in ([1, 1], [0, 0], [np.inf, 0], [[1, 0]]):
        with pytest.raises(ValueError):
            MeasurementSetup(CompleteFamily.computational(2), np.array(ready))
    ready = standard_setup(2, 3).pointer_ready
    assert ready.tolist() == [1, 0, 0]
    assert ready.dtype == complex and not ready.flags.writeable


def test_standard_setup_refuses_a_basis_of_another_dim():
    """system_dim 3 with a dim-2 basis is refused, not read as a dim-2 setup."""
    with pytest.raises(DimensionMismatch, match="system_basis has dim 2 but system_dim is 3"):
        standard_setup(3, 4, CompleteFamily.computational(2))
    assert standard_setup(2, 4, CompleteFamily.hadamard()).system_dim == 2


def test_collapse_forced_outcome_yields_eigenvector():
    setup = qubit_pair_setup()
    psi = StateVector([0.6, 0.8], (2,), "O")
    # seed 1 lands in the second branch for this distribution; the point is
    # that the post-state is the sampled eigenvector, exactly
    for seed in range(10):
        value, post = collapse_description(setup, psi, seed)
        np.testing.assert_array_equal(post.amplitudes,
                                      np.eye(2)[:, value - 1])
        assert post.relative_to == "O"


def test_collapse_of_eigenstate_is_certain():
    setup = qubit_pair_setup()
    two = basis_state(2, 1, "O")
    for seed in range(20):
        value, post = collapse_description(setup, two, seed)
        assert value == 2
        np.testing.assert_array_equal(post.amplitudes, two.amplitudes)


def test_collapse_outcome_frequencies():
    setup = qubit_pair_setup()
    psi = StateVector([0.6, 0.8], (2,), "O")
    hits = sum(collapse_description(setup, psi, seed)[0] == 1
               for seed in range(10_000))
    assert 0.31 <= hits / 10_000 <= 0.41  # |0.6|^2 = 0.36


def test_entangling_description_general_state():
    setup = qubit_pair_setup()
    alpha, beta = 0.6, 0.8j
    psi = StateVector([alpha, beta], (2,), "P")
    ent = entangling_description(setup, psi)
    np.testing.assert_allclose(ent.amplitudes, [alpha, 0, 0, beta], atol=1e-12)
    assert ent.dim_factors == (2, 2)


def test_entangling_eigenstate_stays_product():
    setup = qubit_pair_setup()
    ent = entangling_description(setup, basis_state(2, 0, "P"))
    np.testing.assert_allclose(ent.amplitudes, [1, 0, 0, 0], atol=1e-12)


def test_entangling_schmidt_coefficients():
    setup = qubit_pair_setup()
    psi = StateVector([INV_SQRT2, INV_SQRT2], (2,), "P")
    ent = entangling_description(setup, psi)
    svals = np.linalg.svd(ent.amplitudes.reshape(2, 2), compute_uv=False)
    np.testing.assert_allclose(svals, [INV_SQRT2, INV_SQRT2], atol=1e-12)


def test_premeasurement_unitary_defining_columns():
    setup = qubit_pair_setup()
    u = premeasurement_unitary(setup)
    assert u.is_unitary
    # |i> x |ready| -> |i> x |mark_i|: columns 0 and 2 of a CNOT-like map
    for i in range(2):
        domain = np.kron(np.eye(2)[:, i], setup.pointer_ready)
        image = np.kron(np.eye(2)[:, i], np.eye(2)[i])
        np.testing.assert_allclose(u.matrix @ domain, image, atol=1e-12)


def test_premeasurement_is_isometry_on_ready_subspace():
    rng = np.random.default_rng(3)
    for _ in range(20):
        d_s = int(rng.integers(2, 5))
        d_o = int(rng.integers(d_s, 6))
        setup = standard_setup(d_s, d_o, system_basis=CompleteFamily(
            haar_unitary(d_s, rng), "sys"))
        u = premeasurement_unitary(setup)
        assert u.is_unitary
        for i in range(d_s):
            domain = np.kron(setup.system_basis.column(i),
                             setup.pointer_ready)
            image = np.kron(setup.system_basis.column(i), np.eye(d_o)[i])
            np.testing.assert_allclose(u.matrix @ domain, image, atol=1e-9)


def test_entangling_equals_premeasurement_on_random_states():
    rng = np.random.default_rng(7)
    setups = [standard_setup(2, 2), standard_setup(2, 3), standard_setup(3, 4)]
    for _ in range(200):
        setup = setups[int(rng.integers(len(setups)))]
        psi = StateVector(random_state(setup.system_dim, rng),
                          (setup.system_dim,), "P")
        via_map = entangling_description(setup, psi)
        via_unitary = apply(premeasurement_unitary(setup),
                            tensor(psi, StateVector(setup.pointer_ready, (setup.pointer_dim,),
                                                    psi.relative_to)))
        np.testing.assert_allclose(via_map.amplitudes, via_unitary.amplitudes,
                                   atol=1e-9)


def test_premeasurement_is_shared_between_equal_setups():
    """Setups whose basis and ready state have equal bytes get one read-only
    operator, bit-equal to an unmemoised build; any other setup gets another."""
    fourier = CompleteFamily.fourier(3)
    ready, marked = np.eye(4, dtype=complex)[:2]
    first = premeasurement_unitary(MeasurementSetup(fourier, ready))
    again = premeasurement_unitary(MeasurementSetup(
        CompleteFamily(fourier.basis.copy(), "copy"), np.eye(4)[0]))
    assert again is first
    assert not first.matrix.flags.writeable
    with pytest.raises(ValueError):
        first.matrix[0, 0] = 0
    unmemoised = _premeasurement.__wrapped__(fourier.basis.tobytes(), ready.tobytes())
    assert unmemoised is not first
    assert np.array_equal(unmemoised.matrix, first.matrix)
    assert unmemoised.dim_factors == first.dim_factors == (3, 4)
    other_family = premeasurement_unitary(MeasurementSetup(
        CompleteFamily.computational(3), ready))
    other_ready = premeasurement_unitary(MeasurementSetup(fourier, marked))
    assert other_family is not first and other_ready is not first
    assert not np.array_equal(other_family.matrix, first.matrix)
    assert not np.array_equal(other_ready.matrix, first.matrix)


def test_premeasurement_unitary_is_a_plain_function():
    """The benchmark's tracer wraps plain functions only, one span per call."""
    assert inspect.isfunction(premeasurement_unitary)


def test_correlation_operator_defining_relations():
    setup = qubit_pair_setup()
    m = correlation_operator(setup).matrix
    e = np.eye(4)
    # basis order (system, pointer): |1 O1>=0, |1 O2>=1, |2 O1>=2, |2 O2>=3
    np.testing.assert_array_equal(m @ e[:, 0], e[:, 0])
    np.testing.assert_array_equal(m @ e[:, 1], np.zeros(4))
    np.testing.assert_array_equal(m @ e[:, 3], e[:, 3])
    np.testing.assert_array_equal(m @ e[:, 2], np.zeros(4))


def test_correlation_operator_is_projector():
    setup = standard_setup(3, 4)
    m = correlation_operator(setup)
    assert m.is_projector
    assert np.max(np.abs(m.matrix @ m.matrix - m.matrix)) < 1e-9
    assert np.max(np.abs(m.matrix - m.matrix.conj().T)) < 1e-9


def test_correlated_state_is_eigenstate_of_m():
    setup = qubit_pair_setup()
    psi = StateVector([INV_SQRT2, INV_SQRT2], (2,), "P")
    ent = entangling_description(setup, psi)
    assert completion_probability(ent, setup) == pytest.approx(1.0, abs=1e-12)


def test_completion_probability_on_misprinted_state():
    setup = qubit_pair_setup()
    wrong = tensor(basis_state(2, 0, "P"), basis_state(2, 1, "P"))
    assert completion_probability(wrong, setup) == 0.0


def test_completion_probability_halfway_pointer():
    setup = qubit_pair_setup()
    theta = np.pi / 4
    pointer = StateVector([np.cos(theta), np.sin(theta)], (2,), "P")
    state = tensor(basis_state(2, 0, "P"), pointer)
    assert completion_probability(state, setup) == pytest.approx(0.5, abs=1e-12)


def test_completion_probability_bounds_and_eigenstate_condition():
    rng = np.random.default_rng(13)
    setup = qubit_pair_setup()
    m = correlation_operator(setup).matrix
    for _ in range(200):
        s = StateVector(random_state(4, rng), (2, 2), "P")
        value = completion_probability(s, setup)
        assert 0.0 <= value <= 1.0
        fixed = np.max(np.abs(m @ s.amplitudes - s.amplitudes)) < 1e-9
        assert (abs(value - 1.0) < 1e-9) == fixed


@st.composite
def two_factor_states(draw):
    """A setup with d_s 2-4, d_o >= d_s and a builtin or Haar family, and a
    joint state: random, correlated, misprinted (outcome i recorded as mark
    i + 1 mod d_s) or a correlated state partly mixed with a random one."""
    d_s = draw(st.integers(2, 4))
    d_o = draw(st.integers(d_s, d_s + 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    family = draw(st.sampled_from(["computational", "fourier", "haar"]
                                  + ["hadamard"] * (d_s == 2)))
    basis = {"computational": lambda: CompleteFamily.computational(d_s),
             "fourier": lambda: CompleteFamily.fourier(d_s),
             "hadamard": CompleteFamily.hadamard,
             "haar": lambda: CompleteFamily(haar_unitary(d_s, rng), "haar")}[family]()
    setup = standard_setup(d_s, d_o, system_basis=basis)
    coeffs = random_state(d_s, rng)
    kind = draw(st.sampled_from(["random", "correlated", "misprinted", "partial"]))
    marks = np.eye(d_o)
    shift = 1 if kind == "misprinted" else 0
    amps = sum(a * np.kron(basis.column(i), marks[(i + shift) % d_s])
               for i, a in enumerate(coeffs))
    if kind in ("random", "partial"):
        weight = 1.0 if kind == "random" else draw(st.floats(0.0, 1.0))
        amps = (1 - weight) * amps + weight * random_state(d_s * d_o, rng)
    return setup, StateVector(amps / np.linalg.norm(amps), (d_s, d_o), "P")


@settings(deadline=None, max_examples=300)
@given(two_factor_states())
def test_completion_probability_matches_the_correlation_operator(case):
    """completion_probability equals min(<psi|M|psi>, 1) for the dense M."""
    setup, state = case
    m = correlation_operator(setup).matrix
    expected = min(float(np.vdot(state.amplitudes, m @ state.amplitudes).real), 1.0)
    assert abs(completion_probability(state, setup) - expected) <= 1e-12


def test_completion_probability_dimension_check():
    with pytest.raises(DimensionMismatch):
        completion_probability(basis_state(2, 0, "P"), qubit_pair_setup())


def test_marginal_statistics_agree_between_descriptions():
    """Both observers assign identical outcome probabilities to q."""
    rng = np.random.default_rng(23)
    for _ in range(100):
        d_s = int(rng.integers(2, 4))
        setup = standard_setup(d_s, d_s + int(rng.integers(0, 2)))
        psi = StateVector(random_state(d_s, rng), (d_s,), "O")
        collapse_probs = np.abs(
            setup.system_basis.basis.conj().T @ psi.amplitudes) ** 2
        ent = entangling_description(setup, psi)
        partial = [
            projector_onto(np.kron(setup.system_basis.column(i)[:, None],
                                   np.eye(setup.pointer_dim)),
                           (d_s, setup.pointer_dim))
            for i in range(d_s)
        ]
        from relaqm.hilbert import born_probabilities
        entangled_probs = born_probabilities(ent, partial)
        np.testing.assert_allclose(entangled_probs, collapse_probs, atol=1e-12)


def test_consistency_check_on_correlated_state():
    setup = qubit_pair_setup()
    state = correlated_state([INV_SQRT2, INV_SQRT2], setup)
    for seed in range(100):
        agree, transcript = consistency_check(state, setup, seed)
        assert agree
        assert transcript["q_outcome"] == transcript["pointer_outcome"]


def test_consistency_check_on_product_state():
    setup = qubit_pair_setup()
    state = tensor(basis_state(2, 0, "P"), basis_state(2, 0, "P"))
    agree, transcript = consistency_check(state, setup, seed=0)
    assert agree
    assert transcript["q_outcome"] == 1
    assert transcript["pointer_outcome"] == 1


def test_consistency_check_fails_on_anticorrelated_state():
    setup = qubit_pair_setup()
    swapped = (np.kron([1, 0], [0, 1]) + np.kron([0, 1], [1, 0])) * INV_SQRT2
    state = StateVector(swapped, (2, 2), "P")
    for seed in range(50):
        agree, _ = consistency_check(state, setup, seed)
        assert not agree


def test_consistency_sweep_on_random_correlated_states():
    rng = np.random.default_rng(31)
    setup = standard_setup(3, 3)
    coeffs = random_state(3, rng)
    state = correlated_state(coeffs, setup)
    assert all(consistency_check(state, setup, seed)[0] for seed in range(1000))


def test_conditioning_the_entangled_state_selects_a_branch():
    """Conditioning on q=1 leaves the pointer fully determined."""
    from relaqm.hilbert import conditional_state
    setup = qubit_pair_setup()
    psi = StateVector([INV_SQRT2, INV_SQRT2], (2,), "P")
    ent = entangling_description(setup, psi)
    q1 = projector_onto(np.kron(np.eye(2)[:, :1], np.eye(2)), (2, 2))
    branch = conditional_state(ent, q1)
    np.testing.assert_allclose(branch.amplitudes, [1, 0, 0, 0], atol=1e-12)
