"""Core Hilbert-space numerics: tensors, Born weights, sampling, collapse."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from generators import random_state

from relaqm.errors import DimensionMismatch, NotAPartition, PreconditionViolated, ZeroBranch
from relaqm.hilbert import (
    Operator,
    PAULI_X,
    StateVector,
    _apply_on_factors,
    _norm,
    apply,
    basis_state,
    born_probabilities,
    conditional_state,
    haar_unitary,
    identity,
    orthonormality_defect,
    projector_onto,
    sample_index,
    tensor,
)

INV_SQRT2 = 1 / np.sqrt(2)


def reference_orthonormality_defect(columns):
    gram = columns.conj().T @ columns
    return float(np.max(np.abs(gram - np.eye(columns.shape[1])), initial=0.0))


def test_orthonormality_defect_matches_the_reference_bit_for_bit():
    rng = np.random.default_rng(12)
    cases = [np.zeros((3, 0)), np.eye(3, dtype=int), np.ones((2, 2))]
    for _ in range(300):
        dim = int(rng.integers(1, 9))
        rank = int(rng.integers(0, dim + 1))
        cases += [rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank)),
                  haar_unitary(dim, rng)[:, :rank],
                  rng.normal(size=(dim, rank))]
    for columns in cases:
        assert orthonormality_defect(columns) == reference_orthonormality_defect(columns)


def reference_apply_on_factors(amps, dims, positions, op):
    n = len(dims)
    tensor = amps.reshape(dims)
    order = list(positions) + [ax for ax in range(n) if ax not in positions]
    tensor = np.transpose(tensor, order)
    head = math.prod(dims[p] for p in positions)
    moved = tensor.reshape(head, -1)
    moved = op @ moved
    tensor = moved.reshape([dims[ax] for ax in order])
    return np.transpose(tensor, np.argsort(order)).reshape(-1)


def test_apply_on_factors_matches_the_reference_bit_for_bit():
    """The same bytes as the kernel's reference body, on seeded factors and
    positions in any order; and, where the dense operator is small, the same
    state as the operator embedded with kron on the moved axes."""
    rng = np.random.default_rng(25)
    cases = [((2, 2, 2, 2), (3, 1)), ((1, 3, 1), (2,)), ((4,), (0,)), ((2, 1, 3), (1, 0, 2))]
    for _ in range(300):
        dims = tuple(int(d) for d in rng.integers(1, 5, size=int(rng.integers(1, 7))))
        k = int(rng.integers(1, min(3, len(dims)) + 1))
        cases.append((dims, tuple(int(p) for p in rng.permutation(len(dims))[:k])))
    for dims, positions in cases:
        total = math.prod(dims)
        head = math.prod(dims[p] for p in positions)
        amps = rng.normal(size=total) + 1j * rng.normal(size=total)
        op = rng.normal(size=(head, head)) + 1j * rng.normal(size=(head, head))
        out = _apply_on_factors(amps, dims, positions, op)
        assert out.tobytes() == reference_apply_on_factors(amps, dims, positions, op).tobytes()
        if total <= 512:
            order = list(positions) + [ax for ax in range(len(dims)) if ax not in positions]
            # moved[j] is amps[index[j]]: the state read with the positions' axes first
            index = np.arange(total).reshape(dims).transpose(order).reshape(-1)
            expected = np.empty_like(amps)
            expected[index] = np.kron(op, np.eye(total // head)) @ amps[index]
            assert np.max(np.abs(out - expected), initial=0.0) <= 1e-12 * max(
                1.0, float(np.max(np.abs(expected))))


def test_norm_matches_numpy_bit_for_bit():
    """The same float as ``np.linalg.norm`` on complex vectors of 1-2048
    amplitudes, contiguous or a strided column like the SVD's ``u[:, 0]``."""
    rng = np.random.default_rng(26)
    for _ in range(300):
        rows, cols = int(rng.integers(1, 2049)), int(rng.integers(1, 5))
        matrix = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        for vec in (matrix[:, 0], matrix.reshape(-1)[:rows], matrix[:, -1] * 1e-160):
            assert np.float64(_norm(vec)).tobytes() == np.linalg.norm(vec).tobytes()


@pytest.mark.parametrize("qubits, positions, accounts", [
    (16, (0,), 1), (17, (0, 1), 1), (18, (0,), 1),
    (16, (7,), 2), (18, (9,), 2), (17, (16,), 2), (18, (5, 2), 2), (16, (15, 3), 2)])
def test_apply_on_factors_holds_at_most_two_accounts(qubits, positions, accounts):
    """The moved copy is released before the product is moved back, so the
    kernel allocates one account for a leading axis (no copy to move it)
    and two otherwise; ``RUN_ARRAYS`` counts on that budget."""
    dims = (2,) * qubits
    amps = np.full(2**qubits, 0.5 + 0.5j)
    op = haar_unitary(2 ** len(positions), np.random.default_rng(0))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = _apply_on_factors(amps, dims, positions, op)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert out.shape == amps.shape
    assert peak <= accounts * amps.nbytes + 8192


def test_state_vector_validates_norm_and_factors():
    with pytest.raises(ValueError, match="norm"):
        StateVector([1.0, 1.0], (2,), "O")
    with pytest.raises(ValueError, match="dim_factors"):
        StateVector([1.0, 0.0], (3,), "O")
    s = StateVector([0.6, 0.8j], (2,), "O")
    assert s.relative_to == "O"
    assert s.dim == 2


def test_state_vector_refuses_a_nan_amplitude():
    with pytest.raises(ValueError, match="norm"):
        StateVector([np.nan, 0.0], (2,), "O")


def test_state_vector_refuses_a_norm_that_overflows():
    """A finite amplitude whose norm overflows reads as an inf norm, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="norm inf"):
            StateVector([1e200, 0.0], (2,), "O")


def test_state_vector_is_immutable():
    s = basis_state(2, 0, "O")
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.0


def test_operator_flags_are_verified_not_trusted():
    assert identity(2).is_unitary and identity(2).is_hermitian and identity(2).is_projector
    x = Operator(PAULI_X, (2,))
    assert x.is_unitary and x.is_hermitian and not x.is_projector
    p = projector_onto(np.array([1.0, 0.0]))
    assert p.is_projector and not p.is_unitary
    skew = Operator([[0, 1], [0, 0]], (2,))
    assert not skew.is_hermitian and not skew.is_unitary and not skew.is_projector


def test_a_projector_check_that_overflows_reads_false():
    """P @ P overflows for a finite entry near 1e200: inf, not a projector, no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert Operator([[1e200, 0], [0, 0]], (2,)).is_projector is False


def test_tensor_basis_states():
    # |1> x |init> is the 2-qubit basis state indexed (1, init) = index 0
    one = basis_state(2, 0, "P")
    init = basis_state(2, 0, "P")
    out = tensor(one, init)
    np.testing.assert_array_equal(out.amplitudes, [1, 0, 0, 0])
    assert out.dim_factors == (2, 2)


def test_tensor_with_trivial_factor_is_identity():
    v = StateVector([0.6, 0.8], (2,), "O")
    scalar = StateVector([1.0], (1,), "O")
    out = tensor(v, scalar)
    np.testing.assert_allclose(out.amplitudes, v.amplitudes)
    assert out.dim_factors == (2, 1)


def test_tensor_superposition_with_ready_pointer():
    # (0.6|1> + 0.8|2>) x |init> -> (0.6, 0, 0.8, 0), expanded by hand
    psi = StateVector([0.6, 0.8], (2,), "P")
    init = basis_state(2, 0, "P")
    out = tensor(psi, init)
    np.testing.assert_allclose(out.amplitudes, [0.6, 0.0, 0.8, 0.0], atol=1e-15)


def test_tensor_operators_and_kind_mismatch():
    xx = tensor(Operator(PAULI_X, (2,)), Operator(PAULI_X, (2,)))
    assert xx.dim_factors == (2, 2) and xx.is_unitary
    with pytest.raises(TypeError):
        tensor(basis_state(2, 0, "O"), Operator(PAULI_X, (2,)))


def test_tensor_refuses_states_relative_to_different_observers():
    """Each state is one observer's description: joining O's and P's would
    relabel P's as O's, so the product names both and is refused."""
    with pytest.raises(PreconditionViolated, match="'O'.*'P'"):
        tensor(StateVector([1, 0], (2,), "O"), StateVector([0, 1], (2,), "P"))
    assert tensor(basis_state(2, 0, "P"), basis_state(2, 1, "P")).relative_to == "P"


def test_tensor_associativity_up_to_index_flattening():
    rng = np.random.default_rng(11)
    for _ in range(25):
        a = StateVector(random_state(2, rng), (2,), "O")
        b = StateVector(random_state(3, rng), (3,), "O")
        c = StateVector(random_state(2, rng), (2,), "O")
        left = tensor(tensor(a, b), c)
        right = tensor(a, tensor(b, c))
        np.testing.assert_allclose(left.amplitudes, right.amplitudes, atol=1e-12)


def test_apply_identity_and_pauli_x():
    v = StateVector([0.6, 0.8], (2,), "O")
    np.testing.assert_allclose(apply(identity(2), v).amplitudes, v.amplitudes)
    flipped = apply(Operator(PAULI_X, (2,)), basis_state(2, 0, "O"))
    np.testing.assert_array_equal(flipped.amplitudes, [0, 1])


def test_apply_projector_returns_raw_branch():
    alpha, beta = 0.6, 0.8
    s = StateVector([alpha, beta], (2,), "O")
    p = projector_onto(np.array([1.0, 0.0]))
    out = apply(p, s)
    np.testing.assert_allclose(out.amplitudes, [alpha, 0.0])
    assert out.norm ** 2 == pytest.approx(alpha ** 2)
    assert out.relative_to == "O"


def test_apply_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        apply(identity(3), basis_state(2, 0, "O"))


def test_unitary_application_preserves_norm():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        dim = int(rng.integers(2, 7))
        u = Operator(haar_unitary(dim, rng), (dim,))
        s = StateVector(random_state(dim, rng), (dim,), "O")
        assert abs(apply(u, s).norm - 1.0) < 1e-9


def test_born_probabilities_unbiased_state():
    s = StateVector([INV_SQRT2, INV_SQRT2], (2,), "O")
    part = [projector_onto(np.array([1.0, 0.0])), projector_onto(np.array([0.0, 1.0]))]
    np.testing.assert_allclose(born_probabilities(s, part), [0.5, 0.5], atol=1e-12)


def test_born_probabilities_eigenstate_is_one_hot():
    s = basis_state(3, 1, "O")
    part = [projector_onto(np.eye(3)[:, i]) for i in range(3)]
    np.testing.assert_allclose(born_probabilities(s, part), [0, 1, 0], atol=1e-15)


def test_born_probabilities_modulus_squared():
    s = StateVector([0.6, 0.8j], (2,), "O")
    part = [projector_onto(np.array([1.0, 0.0])), projector_onto(np.array([0.0, 1.0]))]
    np.testing.assert_allclose(born_probabilities(s, part), [0.36, 0.64], atol=1e-12)


def test_born_probabilities_rejects_bad_partitions():
    s = basis_state(2, 0, "O")
    p0 = projector_onto(np.array([1.0, 0.0]))
    with pytest.raises(NotAPartition, match="identity"):
        born_probabilities(s, [p0])
    plus = projector_onto(np.array([INV_SQRT2, INV_SQRT2]))
    with pytest.raises(NotAPartition):
        born_probabilities(s, [p0, plus])
    halves = [Operator(np.eye(2) / 2, (2,)), Operator(np.eye(2) / 2, (2,))]
    with pytest.raises(NotAPartition, match="projector"):
        born_probabilities(s, halves)


def test_born_output_is_probability_vector():
    rng = np.random.default_rng(5)
    for _ in range(50):
        dim = int(rng.integers(2, 7))
        u = haar_unitary(dim, rng)
        part = [projector_onto(u[:, i]) for i in range(dim)]
        probs = born_probabilities(StateVector(random_state(dim, rng), (dim,), "O"), part)
        assert np.all(probs >= 0)
        assert abs(probs.sum() - 1.0) < 1e-9


def test_sample_index_certain_cases():
    for seed in range(25):
        assert sample_index(np.array([1.0, 0.0]), np.random.default_rng(seed)) == 0
        assert sample_index(np.array([0.0, 1.0]), np.random.default_rng(seed)) == 1


def test_sample_index_deterministic_and_convergent():
    half = np.array([0.5, 0.5])
    draws = [sample_index(half, np.random.default_rng(seed)) for seed in range(10_000)]
    again = [sample_index(half, np.random.default_rng(seed)) for seed in range(10_000)]
    assert draws == again
    freq = draws.count(0) / len(draws)
    assert 0.45 <= freq <= 0.55


def test_conditional_state_examples():
    plus = StateVector([INV_SQRT2, INV_SQRT2], (2,), "O")
    two = projector_onto(np.array([0.0, 1.0]))
    np.testing.assert_allclose(conditional_state(plus, two).amplitudes, [0, 1], atol=1e-12)
    eig = basis_state(2, 1, "O")
    np.testing.assert_allclose(conditional_state(eig, two).amplitudes, eig.amplitudes)
    assert conditional_state(plus, two).relative_to == "O"


def test_conditional_state_zero_branch():
    with pytest.raises(ZeroBranch):
        conditional_state(basis_state(2, 0, "O"), projector_onto(np.array([0.0, 1.0])))


def test_conditional_then_born_is_one_hot():
    rng = np.random.default_rng(17)
    for _ in range(50):
        dim = int(rng.integers(2, 6))
        u = haar_unitary(dim, rng)
        part = [projector_onto(u[:, i]) for i in range(dim)]
        s = StateVector(random_state(dim, rng), (dim,), "O")
        probs = born_probabilities(s, part)
        branch = int(np.argmax(probs))
        collapsed = conditional_state(s, part[branch])
        expected = np.zeros(dim)
        expected[branch] = 1.0
        np.testing.assert_allclose(born_probabilities(collapsed, part), expected,
                                   atol=1e-9)
