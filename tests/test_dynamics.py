"""Propagators, the abelian group law, and Heisenberg/Schrodinger duality."""

import numpy as np
import pytest
from generators import random_hermitian, random_state

from relaqm.dynamics import heisenberg_evolve, propagator, schrodinger_evolve
from relaqm.errors import DimensionMismatch, NotHermitian, PreconditionViolated
from relaqm.hilbert import (
    Operator,
    PAULI_X,
    StateVector,
    basis_state,
)
from relaqm.questions import (
    Question,
    implies,
    join,
    meet,
    negate,
    random_question,
    same_question,
)


def hermitian_op(dim, rng):
    return Operator(random_hermitian(dim, rng), (dim,))


def test_zero_hamiltonian_gives_identity():
    h = Operator(np.zeros((3, 3)), (3,))
    for t in (0.0, 0.5, 10.0):
        np.testing.assert_allclose(propagator(h, t).matrix, np.eye(3),
                                   atol=1e-12)


def test_diagonal_hamiltonian_phases():
    omega = 2.0
    h = Operator(np.diag([0.0, omega]), (2,))
    u = propagator(h, np.pi / omega).matrix
    np.testing.assert_allclose(u, np.diag([1.0, -1.0]), atol=1e-12)


def test_propagator_requires_hermitian():
    with pytest.raises(NotHermitian):
        propagator(Operator([[0, 1], [0, 0]], (2,)), 1.0)


def test_group_law():
    rng = np.random.default_rng(1)
    for _ in range(200):
        dim = int(rng.integers(2, 7))
        h = hermitian_op(dim, rng)
        t1, t2 = rng.uniform(-3, 3, size=2)
        u1 = propagator(h, t1).matrix
        u2 = propagator(h, t2).matrix
        u12 = propagator(h, t1 + t2).matrix
        assert np.max(np.abs(u1 @ u2 - u12)) < 1e-9
        inverse = propagator(h, -t1).matrix
        assert np.max(np.abs(u1 @ inverse - np.eye(dim))) < 1e-9


def test_group_is_abelian():
    rng = np.random.default_rng(2)
    h = hermitian_op(4, rng)
    u1 = propagator(h, 0.7).matrix
    u2 = propagator(h, -1.3).matrix
    np.testing.assert_allclose(u1 @ u2, u2 @ u1, atol=1e-12)


def test_spectrum_preserved_under_conjugation():
    rng = np.random.default_rng(3)
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        prop = propagator(hermitian_op(dim, rng), float(rng.uniform(-2, 2)))
        a = random_hermitian(dim, rng)
        conjugated = prop.matrix @ a @ prop.matrix.conj().T
        np.testing.assert_allclose(np.linalg.eigvalsh(conjugated),
                                   np.linalg.eigvalsh(a), atol=1e-9)


def test_heisenberg_identity_propagator():
    rng = np.random.default_rng(4)
    q = random_question(3, 2, rng)
    prop = propagator(Operator(np.zeros((3, 3)), (3,)), 1.0)
    assert same_question(heisenberg_evolve(q, prop), q)


def test_heisenberg_preserves_rank():
    rng = np.random.default_rng(5)
    for _ in range(200):
        dim = int(rng.integers(2, 7))
        q = random_question(dim, int(rng.integers(0, dim + 1)), rng)
        prop = propagator(hermitian_op(dim, rng), float(rng.uniform(-2, 2)))
        assert heisenberg_evolve(q, prop).rank == q.rank


def test_heisenberg_preserves_implication():
    rng = np.random.default_rng(6)
    for _ in range(100):
        dim = int(rng.integers(2, 6))
        small = random_question(dim, int(rng.integers(0, dim)), rng)
        big = join(small, random_question(dim, int(rng.integers(0, dim)), rng))
        other = random_question(dim, int(rng.integers(0, dim + 1)), rng)
        prop = propagator(hermitian_op(dim, rng), float(rng.uniform(-2, 2)))
        assert implies(heisenberg_evolve(small, prop), heisenberg_evolve(big, prop))
        # and no false implications are created
        assert implies(small, other) == implies(
            heisenberg_evolve(small, prop), heisenberg_evolve(other, prop))


def test_lattice_isomorphism_under_evolution():
    rng = np.random.default_rng(7)
    for _ in range(100):
        dim = int(rng.integers(2, 6))
        a = random_question(dim, int(rng.integers(0, dim + 1)), rng)
        b = random_question(dim, int(rng.integers(0, dim + 1)), rng)
        prop = propagator(hermitian_op(dim, rng), float(rng.uniform(-2, 2)))

        def ev(q):
            return heisenberg_evolve(q, prop)

        assert same_question(ev(join(a, b)), join(ev(a), ev(b)))
        assert same_question(ev(meet(a, b)), meet(ev(a), ev(b)))
        assert same_question(ev(negate(a)), negate(ev(a)))


def test_schrodinger_identity_and_norm():
    rng = np.random.default_rng(8)
    s = StateVector(random_state(3, rng), (3,), "O")
    prop = propagator(Operator(np.zeros((3, 3)), (3,)), 2.0)
    np.testing.assert_allclose(schrodinger_evolve(s, prop).amplitudes,
                               s.amplitudes, atol=1e-12)
    for _ in range(100):
        prop = propagator(hermitian_op(3, rng), float(rng.uniform(-2, 2)))
        assert abs(schrodinger_evolve(s, prop).norm - 1.0) < 1e-9


def test_picture_duality():
    """Evolved question on a fixed state = fixed question on inverse-evolved state."""
    rng = np.random.default_rng(9)
    for _ in range(200):
        dim = int(rng.integers(2, 6))
        s = StateVector(random_state(dim, rng), (dim,), "O")
        q = random_question(dim, int(rng.integers(1, dim)), rng)
        h = hermitian_op(dim, rng)
        t = float(rng.uniform(-2, 2))
        forth = propagator(h, t)
        back = propagator(h, -t)
        p_heis = np.linalg.norm(
            heisenberg_evolve(q, forth).basis.conj().T @ s.amplitudes) ** 2
        p_schr = np.linalg.norm(
            q.basis.conj().T @ schrodinger_evolve(s, back).amplitudes) ** 2
        assert abs(p_heis - p_schr) < 1e-9


def test_pauli_x_half_period():
    prop = propagator(Operator(PAULI_X, (2,)), np.pi / 2)
    out = schrodinger_evolve(basis_state(2, 0, "O"), prop)
    # exp(-i pi X / 2) = -iX, so |1> goes to -i|2>: equal up to global phase
    np.testing.assert_allclose(out.amplitudes, [0.0, -1.0j], atol=1e-12)
    assert abs(np.abs(np.vdot(out.amplitudes, [0, 1])) - 1.0) < 1e-12
    np.testing.assert_allclose(np.abs(out.amplitudes) ** 2, [0.0, 1.0], atol=1e-12)


def test_dimension_checks():
    prop = propagator(Operator(np.zeros((3, 3)), (3,)), 1.0)
    with pytest.raises(DimensionMismatch):
        heisenberg_evolve(Question.always(2), prop)
    with pytest.raises(DimensionMismatch):
        schrodinger_evolve(basis_state(2, 0, "O"), prop)


def test_evolution_refuses_a_non_unitary_operator():
    """2 I is no propagator: evolved by it, a state would have norm 2."""
    doubled = Operator(2 * np.eye(2), (2,))
    with pytest.raises(PreconditionViolated, match="unitary"):
        schrodinger_evolve(StateVector([1, 0], (2,), "O"), doubled)
    with pytest.raises(PreconditionViolated, match="unitary"):
        heisenberg_evolve(Question.always(2), doubled)
