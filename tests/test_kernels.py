"""Transition kernels: constraints, interference, composition, unistochasticity."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaqm.errors import (
    FamilyMismatch,
    IndexOutOfRange,
    MissingUnitary,
    NotDoublyStochastic,
)
from relaqm.hilbert import haar_unitary
from relaqm.kernels import (
    STALL_RESIDUAL,
    TransitionKernel,
    _hermitian_basis,
    _project_modulus,
    _project_unitary,
    _tangent_jacobian,
    classical_composite_probability,
    compose,
    composite_probability,
    interference_gap,
    kernel_from_families,
    phase_fix,
    triangle_criterion_3x3,
    unistochastic_search,
    verify_double_stochastic,
)
from relaqm.questions import CompleteFamily

OFFDIAG_HALF = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])


def mix(t: float) -> np.ndarray:
    """(1 - t) J/3 + t W: unistochastic exactly for t <= 2/3 (triangle criterion)."""
    return (1 - t) * np.full((3, 3), 1 / 3) + t * OFFDIAG_HALF


def projection_only_start_residuals(p, seed=0, n_starts=64, max_iters=500):
    """Each start's best residual from the Douglas-Rachford loop with no polish."""
    p = np.asarray(p, dtype=float)
    dim = p.shape[0]
    root = np.sqrt(p)
    theta = np.random.default_rng(seed).uniform(0.0, 2 * np.pi, size=(n_starts, dim, dim))
    theta[0] = 0.0
    z = root[None] * np.exp(1j * theta)
    best_res = np.full(n_starts, np.inf)
    for _ in range(max_iters):
        u = _project_unitary(z)
        best_res = np.minimum(best_res,
                              np.linalg.norm(np.abs(u) ** 2 - p[None], axis=(1, 2)))
        if best_res.min() < 1e-12:
            break
        z = z + _project_modulus(2 * u - z, root[None]) - u
    return best_res


def projective_sequence_oracle(b: CompleteFamily, c: CompleteFamily,
                               i: int, j: int, k: int) -> float:
    """|| P_b(i) (P_c(j) + P_c(k)) |b_i> ||^2 from raw projector arithmetic."""
    b_i = b.basis[:, i]
    p_i = np.outer(b_i, b_i.conj())
    p_jk = (np.outer(c.basis[:, j], c.basis[:, j].conj())
            + np.outer(c.basis[:, k], c.basis[:, k].conj()))
    return float(np.linalg.norm(p_i @ (p_jk @ b_i)) ** 2)


def test_kernel_same_family_is_identity():
    b = CompleteFamily.computational(3, "b")
    k = kernel_from_families(b, b)
    np.testing.assert_allclose(k.p, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(k.U, np.eye(3), atol=1e-12)


def test_kernel_computational_vs_hadamard():
    k = kernel_from_families(CompleteFamily.computational(2, "b"),
                             CompleteFamily.hadamard("c"))
    np.testing.assert_allclose(k.p, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)


def test_kernel_reverse_is_transpose():
    rng = np.random.default_rng(1)
    for _ in range(50):
        dim = int(rng.integers(2, 7))
        b = CompleteFamily.random(dim, rng, "b")
        c = CompleteFamily.random(dim, rng, "c")
        forward = kernel_from_families(b, c)
        reverse = kernel_from_families(c, b)
        np.testing.assert_allclose(reverse.p, forward.p.T, atol=1e-9)


def test_kernels_are_doubly_stochastic():
    rng = np.random.default_rng(2)
    for _ in range(200):
        dim = int(rng.integers(2, 7))
        k = kernel_from_families(CompleteFamily.random(dim, rng, "b"),
                                 CompleteFamily.random(dim, rng, "c"))
        assert verify_double_stochastic(k.p).ok(1e-9)


def test_verify_double_stochastic_reports():
    assert verify_double_stochastic(np.eye(3)).max_violation == 0.0
    had = np.abs(CompleteFamily.hadamard().basis) ** 2
    assert verify_double_stochastic(had).max_violation < 1e-12
    report = verify_double_stochastic([[0.9, 0.2], [0.1, 0.8]])
    assert report.row_sum_violation == pytest.approx(0.1, abs=1e-12)
    assert report.column_sum_violation == pytest.approx(0.0, abs=1e-12)
    assert not report.ok()


def test_composite_probability_hadamard():
    k = kernel_from_families(CompleteFamily.computational(2, "b"),
                             CompleteFamily.hadamard("c"))
    assert composite_probability(k, 0, (0, 1)) == pytest.approx(1.0, abs=1e-12)


def test_composite_probability_identity():
    assert composite_probability(np.eye(2), 0, (0, 1)) == pytest.approx(1.0)


def test_composite_probability_index_checks():
    u = np.eye(3, dtype=complex)
    with pytest.raises(IndexOutOfRange):
        composite_probability(u, 0, (1, 1))
    with pytest.raises(IndexOutOfRange):
        composite_probability(u, 3, (0, 1))


def test_composite_probability_needs_amplitudes():
    k = TransitionKernel(np.eye(2), to_family="b", from_family="c")
    with pytest.raises(MissingUnitary):
        composite_probability(k, 0, (0, 1))
    assert classical_composite_probability(k, 0, (0, 1)) == 1.0


def test_composite_matches_projective_oracle_exhaustively():
    rng = np.random.default_rng(3)
    for dim in (2, 3, 4):
        for _ in range(20):
            b = CompleteFamily.random(dim, rng, "b")
            c = CompleteFamily.random(dim, rng, "c")
            kernel = kernel_from_families(b, c)
            for i in range(dim):
                for j, k in itertools.combinations(range(dim), 2):
                    expected = projective_sequence_oracle(b, c, i, j, k)
                    assert composite_probability(kernel, i, (j, k)) == \
                        pytest.approx(expected, abs=1e-9)


def test_classical_composite_and_gap():
    k = kernel_from_families(CompleteFamily.computational(2, "b"),
                             CompleteFamily.hadamard("c"))
    classical = classical_composite_probability(k, 0, (0, 1))
    assert classical == pytest.approx(0.5, abs=1e-12)
    assert interference_gap(k, 0, (0, 1)) == pytest.approx(0.5, abs=1e-12)
    assert interference_gap(np.eye(2), 0, (0, 1)) == 0.0


def test_gap_vanishes_for_permutation_kernels():
    for perm in itertools.permutations(range(3)):
        u = np.zeros((3, 3), dtype=complex)
        for row, col in enumerate(perm):
            u[row, col] = 1.0
        for i in range(3):
            for j, k in itertools.combinations(range(3), 2):
                assert interference_gap(u, i, (j, k)) == 0.0


def test_gap_nonnegative_for_same_phase_rows():
    rng = np.random.default_rng(4)
    for _ in range(50):
        u = haar_unitary(3, rng)
        for i in range(3):
            for j, k in itertools.combinations(range(3), 2):
                assert interference_gap(u, i, (j, k)) >= -1e-12


def test_compose_inverse_pair_is_identity():
    rng = np.random.default_rng(5)
    b = CompleteFamily.random(3, rng, "b")
    c = CompleteFamily.random(3, rng, "c")
    left = kernel_from_families(c, b)
    right = kernel_from_families(b, c)
    out = compose(left, right)
    np.testing.assert_allclose(out.p, np.eye(3), atol=1e-9)
    assert out.to_family == "c" and out.from_family == "c"


def test_compose_differs_from_probability_product():
    comp = CompleteFamily.computational(2, "a")
    had = CompleteFamily.hadamard("b")
    k1 = kernel_from_families(comp, had)
    k2 = kernel_from_families(had, comp)
    composed = compose(k1, k2)
    np.testing.assert_allclose(composed.p, np.eye(2), atol=1e-12)
    incoherent = k1.p @ k2.p
    np.testing.assert_allclose(incoherent, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)
    assert np.max(np.abs(composed.p - incoherent)) > 0.4


def test_compose_associativity():
    rng = np.random.default_rng(6)
    a, b, c, d = (CompleteFamily.random(3, rng, lbl) for lbl in "abcd")
    k1 = kernel_from_families(a, b)
    k2 = kernel_from_families(b, c)
    k3 = kernel_from_families(c, d)
    left = compose(compose(k1, k2), k3)
    right = compose(k1, compose(k2, k3))
    np.testing.assert_allclose(left.U, right.U, atol=1e-12)


def test_compose_checks_labels_and_amplitudes():
    rng = np.random.default_rng(7)
    a, b, c = (CompleteFamily.random(2, rng, lbl) for lbl in "abc")
    k1 = kernel_from_families(a, b)
    k3 = kernel_from_families(c, a)
    with pytest.raises(FamilyMismatch):
        compose(k1, k3)
    bare = TransitionKernel(k1.p, to_family="a", from_family="b")
    with pytest.raises(MissingUnitary):
        compose(bare, kernel_from_families(b, c))


def test_transition_kernel_validation():
    with pytest.raises(ValueError, match="stochastic"):
        TransitionKernel(np.array([[0.9, 0.2], [0.1, 0.8]]), "b", "c")
    with pytest.raises(ValueError, match="reproduce"):
        TransitionKernel(np.eye(2), "b", "c",
                         U=np.array([[0, 1], [1, 0]], dtype=complex))


def test_unistochastic_search_symmetric_2x2():
    t = 0.36
    result = unistochastic_search([[t, 1 - t], [1 - t, t]], seed=0)
    assert result.residual < 1e-6
    assert result.verdict == "unistochastic"
    np.testing.assert_allclose(np.abs(result.U) ** 2, [[t, 1 - t], [1 - t, t]],
                               atol=1e-6)


def test_unistochastic_search_permutation_is_exact():
    identity = np.eye(3)
    result = unistochastic_search(identity, seed=0)
    assert result.residual == 0.0
    np.testing.assert_array_equal(np.abs(result.U) ** 2, identity)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    result = unistochastic_search(swap, seed=0)
    assert result.residual == 0.0
    np.testing.assert_array_equal(np.abs(result.U) ** 2, swap)


def test_unistochastic_search_recovers_random_moduli():
    rng = np.random.default_rng(8)
    for trial in range(20):
        dim = 2 + trial % 2
        p = np.abs(haar_unitary(dim, rng)) ** 2
        result = unistochastic_search(p, seed=trial)
        assert result.residual < 1e-6
        np.testing.assert_allclose(np.abs(result.U) ** 2, p, atol=1e-5)


def test_unistochastic_search_rejects_offdiagonal_half():
    result = unistochastic_search(OFFDIAG_HALF, seed=0)
    assert result.verdict == "non-unistochastic"
    assert np.min(result.start_residuals) > 1e-2
    assert len(result.start_residuals) == 64


def test_unistochastic_search_validates_input():
    with pytest.raises(NotDoublyStochastic):
        unistochastic_search([[0.9, 0.2], [0.1, 0.8]])


@pytest.mark.parametrize("p", [OFFDIAG_HALF, mix(0.678)], ids=["witness", "mix_t0.678"])
def test_hand_off_leaves_the_projection_trajectories_alone(p):
    """Infeasible inputs run all 500 iterations.  A start that stays above the
    stall threshold is never polished: its residual is bit-identical to the
    bare loop's.  A polished start (at t = 0.678 every start dips below it)
    is kept only where the polish lowered it, here by rounding noise."""
    result = unistochastic_search(p)
    bare = projection_only_start_residuals(p)
    assert result.iterations == 500
    stalled = bare > STALL_RESIDUAL
    np.testing.assert_array_equal(result.start_residuals[stalled], bare[stalled])
    assert np.all(result.start_residuals <= bare)
    np.testing.assert_allclose(result.start_residuals, bare, rtol=1e-10, atol=0)


def test_hand_off_stops_haar_searches_early():
    """The benchmark corpus's Haar draws at d = 6 and 8 (generator seed 3,
    drawn in the order d = 3, 4, 6, 8) stop within 100 iterations of 500.
    Other draws can take hundreds: see ROADMAP item 4."""
    rng = np.random.default_rng(3)
    draws = {dim: np.abs(haar_unitary(dim, rng)) ** 2 for dim in (3, 4, 6, 8)}
    for dim in (6, 8):
        result = unistochastic_search(draws[dim])
        assert result.accepted()
        assert result.iterations < 100


@settings(max_examples=25, deadline=None)
@given(dim=st.integers(2, 6), draw=st.integers(0, 2**32 - 1),
       seed=st.integers(0, 2**32 - 1))
def test_search_on_haar_moduli_never_rejects_and_accepts_only_solutions(dim, draw, seed):
    """Acceptance itself is not guaranteed: the d = 5 draw 4017056815 with
    search seed 233029220 ends inconclusive at 7.3e-5 (see CHANGES.md)."""
    p = np.abs(haar_unitary(dim, np.random.default_rng(draw))) ** 2
    result = unistochastic_search(p, seed=seed)
    assert result.verdict != "non-unistochastic"
    if result.accepted():
        assert np.max(np.abs(np.abs(result.U) ** 2 - p)) < 1e-6
        assert np.max(np.abs(result.U.conj().T @ result.U - np.eye(dim))) < 1e-9


# t over [0.3, 1], with 2/3 +- {0.001, 0.01} on both sides of the boundary
BOUNDARY_MIXES = (0.3, 0.4, 0.5, 0.6, 0.62, 2 / 3 - 0.01, 2 / 3 - 0.001,
                  2 / 3 + 0.001, 2 / 3 + 0.01, 0.72, 0.8, 0.9, 1.0)


@pytest.mark.parametrize("t", BOUNDARY_MIXES, ids=[f"t{t:.4f}" for t in BOUNDARY_MIXES])
def test_search_agrees_with_the_triangle_criterion_across_the_boundary(t):
    p = mix(t)
    verdict = unistochastic_search(p).verdict
    if t <= 0.62 or t >= 0.72:
        assert verdict != "inconclusive"
    if verdict != "inconclusive":
        assert (verdict == "unistochastic") == triangle_criterion_3x3(p)


def test_tangent_jacobian_matches_the_column_loop():
    rng = np.random.default_rng(11)
    for dim in (2, 3, 5, 8):
        u = haar_unitary(dim, rng)
        basis = _hermitian_basis(dim)
        columns = [(2 * np.real(np.conj(u) * (-1j * (e @ u)))).ravel() for e in basis]
        np.testing.assert_allclose(_tangent_jacobian(u, basis),
                                   np.stack(columns, axis=1), rtol=0, atol=1e-15)


def test_triangle_criterion():
    assert not triangle_criterion_3x3(OFFDIAG_HALF)
    assert triangle_criterion_3x3(np.full((3, 3), 1 / 3))
    assert triangle_criterion_3x3(np.eye(3))
    rng = np.random.default_rng(9)
    for _ in range(20):
        p = np.abs(haar_unitary(3, rng)) ** 2
        assert triangle_criterion_3x3(p)


def test_phase_fix_leaves_hadamard_alone():
    had = CompleteFamily.hadamard().basis
    np.testing.assert_allclose(phase_fix(had), had, atol=1e-12)


def test_phase_fix_removes_global_phase():
    u = np.exp(1j * 0.7) * np.eye(3)
    np.testing.assert_allclose(phase_fix(u), np.eye(3), atol=1e-12)


def test_phase_fix_properties_on_random_unitaries():
    rng = np.random.default_rng(10)
    for _ in range(50):
        u = haar_unitary(4, rng)
        fixed = phase_fix(u)
        assert np.max(np.abs(np.imag(fixed[0, :]))) < 1e-12
        assert np.max(np.abs(np.imag(fixed[:, 0]))) < 1e-12
        assert np.min(np.real(fixed[0, :])) > -1e-12
        assert np.min(np.real(fixed[:, 0])) > -1e-12
        np.testing.assert_allclose(np.abs(fixed) ** 2, np.abs(u) ** 2, atol=1e-12)
