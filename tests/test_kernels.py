"""Transition kernels: constraints, interference, composition, unistochasticity."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaqm.errors import (
    FamilyMismatch,
    IndexOutOfRange,
    NotDoublyStochastic,
    PreconditionViolated,
)
from relaqm import kernels
from relaqm.hilbert import OPT_ATOL, haar_unitary, orthonormality_defect
from relaqm.kernels import (
    STALL_RESIDUAL,
    TransitionKernel,
    _generator_entries,
    _hermitian,
    _open_chain_link,
    _project_modulus,
    _project_unitary,
    _tangent_jacobian,
    classical_composite_probability,
    compose,
    composite_probability,
    decide_unistochastic,
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
    b = CompleteFamily.computational(3)
    k = kernel_from_families(b, b)
    np.testing.assert_allclose(k.p, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(k.U, np.eye(3), atol=1e-12)


def test_kernel_computational_vs_hadamard():
    k = kernel_from_families(CompleteFamily.computational(2),
                             CompleteFamily.hadamard())
    np.testing.assert_allclose(k.p, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)


def test_kernel_reverse_is_transpose():
    rng = np.random.default_rng(1)
    for _ in range(50):
        dim = int(rng.integers(2, 7))
        b = CompleteFamily(haar_unitary(dim, rng), "b")
        c = CompleteFamily(haar_unitary(dim, rng), "c")
        forward = kernel_from_families(b, c)
        reverse = kernel_from_families(c, b)
        np.testing.assert_allclose(reverse.p, forward.p.T, atol=1e-9)


def test_kernels_are_doubly_stochastic():
    rng = np.random.default_rng(2)
    for _ in range(200):
        dim = int(rng.integers(2, 7))
        k = kernel_from_families(CompleteFamily(haar_unitary(dim, rng), "b"),
                                 CompleteFamily(haar_unitary(dim, rng), "c"))
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
    k = kernel_from_families(CompleteFamily.computational(2),
                             CompleteFamily.hadamard())
    assert composite_probability(k, 0, (0, 1)) == pytest.approx(1.0, abs=1e-12)


def test_composite_probability_identity():
    identity = TransitionKernel(np.eye(2), to_family="b", from_family="c")
    assert composite_probability(identity, 0, (0, 1)) == pytest.approx(1.0)


def test_composite_probability_index_checks():
    k = TransitionKernel(np.eye(3), to_family="b", from_family="c")
    with pytest.raises(IndexOutOfRange):
        composite_probability(k, 0, (1, 1))
    with pytest.raises(IndexOutOfRange):
        composite_probability(k, 3, (0, 1))


@pytest.mark.parametrize("question", [composite_probability, classical_composite_probability,
                                      interference_gap])
def test_composite_questions_refuse_a_raw_matrix(question):
    """Each composite question reads the p of a kernel; a raw matrix, which
    could be taken for U or for p, is refused."""
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    with pytest.raises(AttributeError):
        question(hadamard, 0, (0, 1))


def test_composite_probability_needs_only_p():
    """The loop i -> m -> i has amplitude U[i, m] conj(U[i, m]) = p[i, m], so
    the composite question reads only the kernel's p: (p[i, j] + p[i, k])^2."""
    k = TransitionKernel(np.eye(2), to_family="b", from_family="c")
    assert composite_probability(k, 0, (0, 1)) == 1.0
    assert classical_composite_probability(k, 0, (0, 1)) == 1.0
    rng = np.random.default_rng(41)
    kernel = TransitionKernel(haar_unitary(3, rng), to_family="b", from_family="c")
    pj, pk = kernel.p[0, 1], kernel.p[0, 2]
    assert composite_probability(kernel, 0, (1, 2)) == (pj + pk) ** 2
    assert classical_composite_probability(kernel, 0, (1, 2)) == pj ** 2 + pk ** 2
    assert interference_gap(kernel, 0, (1, 2)) == pytest.approx(2 * pj * pk, abs=1e-15)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_composite_questions_agree_on_kernel_bare_kernel_and_unitary(dim):
    """Haar U: the kernel of U and that of U with its columns rephased by
    powers of i (the same p to the bit, other phases) give one composite
    value, and the gap is 2 p[i, j] p[i, k]."""
    rng = np.random.default_rng(40 + dim)
    for _ in range(10):
        u = haar_unitary(dim, rng)
        full = TransitionKernel(u, to_family="b", from_family="c")
        bare = TransitionKernel(u * np.array([1, 1j, -1, -1j, 1])[:dim],
                                to_family="b", from_family="c")
        assert bare.p.tobytes() == full.p.tobytes()
        for i in range(dim):
            for j, k in itertools.combinations(range(dim), 2):
                values = [composite_probability(x, i, (j, k)) for x in (full, bare)]
                assert max(values) - min(values) <= 1e-15
                gaps = [interference_gap(x, i, (j, k)) for x in (full, bare)]
                for gap in gaps:
                    assert abs(gap - 2 * full.p[i, j] * full.p[i, k]) <= 1e-15


def test_composite_matches_projective_oracle_exhaustively():
    rng = np.random.default_rng(3)
    for dim in (2, 3, 4):
        for _ in range(20):
            b = CompleteFamily(haar_unitary(dim, rng), "b")
            c = CompleteFamily(haar_unitary(dim, rng), "c")
            kernel = kernel_from_families(b, c)
            for i in range(dim):
                for j, k in itertools.combinations(range(dim), 2):
                    expected = projective_sequence_oracle(b, c, i, j, k)
                    assert composite_probability(kernel, i, (j, k)) == \
                        pytest.approx(expected, abs=1e-9)


def test_classical_composite_and_gap():
    k = kernel_from_families(CompleteFamily.computational(2),
                             CompleteFamily.hadamard())
    classical = classical_composite_probability(k, 0, (0, 1))
    assert classical == pytest.approx(0.5, abs=1e-12)
    assert interference_gap(k, 0, (0, 1)) == pytest.approx(0.5, abs=1e-12)
    identity = TransitionKernel(np.eye(2), to_family="b", from_family="c")
    assert interference_gap(identity, 0, (0, 1)) == 0.0


def test_gap_vanishes_for_permutation_kernels():
    for perm in itertools.permutations(range(3)):
        u = np.zeros((3, 3), dtype=complex)
        for row, col in enumerate(perm):
            u[row, col] = 1.0
        kernel = TransitionKernel(u, to_family="b", from_family="c")
        for i in range(3):
            for j, k in itertools.combinations(range(3), 2):
                assert interference_gap(kernel, i, (j, k)) == 0.0


def test_gap_nonnegative_for_same_phase_rows():
    rng = np.random.default_rng(4)
    for _ in range(50):
        u = haar_unitary(3, rng)
        kernel = TransitionKernel(u, to_family="b", from_family="c")
        for i in range(3):
            for j, k in itertools.combinations(range(3), 2):
                assert interference_gap(kernel, i, (j, k)) >= -1e-12


def test_compose_inverse_pair_is_identity():
    rng = np.random.default_rng(5)
    b = CompleteFamily(haar_unitary(3, rng), "b")
    c = CompleteFamily(haar_unitary(3, rng), "c")
    left = kernel_from_families(c, b)
    right = kernel_from_families(b, c)
    out = compose(left, right)
    np.testing.assert_allclose(out.p, np.eye(3), atol=1e-9)
    assert out.to_family == "c" and out.from_family == "c"


def test_compose_differs_from_probability_product():
    comp = CompleteFamily.computational(2)
    had = CompleteFamily.hadamard()
    k1 = kernel_from_families(comp, had)
    k2 = kernel_from_families(had, comp)
    composed = compose(k1, k2)
    np.testing.assert_allclose(composed.p, np.eye(2), atol=1e-12)
    incoherent = k1.p @ k2.p
    np.testing.assert_allclose(incoherent, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)
    assert np.max(np.abs(composed.p - incoherent)) > 0.4


def test_compose_associativity():
    rng = np.random.default_rng(6)
    a, b, c, d = (CompleteFamily(haar_unitary(3, rng), lbl) for lbl in "abcd")
    k1 = kernel_from_families(a, b)
    k2 = kernel_from_families(b, c)
    k3 = kernel_from_families(c, d)
    left = compose(compose(k1, k2), k3)
    right = compose(k1, compose(k2, k3))
    np.testing.assert_allclose(left.U, right.U, atol=1e-12)


def test_compose_checks_labels_and_amplitudes():
    rng = np.random.default_rng(7)
    a, b, c = (CompleteFamily(haar_unitary(2, rng), lbl) for lbl in "abc")
    k1 = kernel_from_families(a, b)
    k3 = kernel_from_families(c, a)
    with pytest.raises(FamilyMismatch):
        compose(k1, k3)


def test_families_whose_kernel_fails_its_check_raise_a_named_error():
    """Each family passes the ATOL unitarity rule, U = B†C does not: the
    kernel's own check fails as PreconditionViolated, naming pair and check."""
    scaled = CompleteFamily(CompleteFamily.hadamard().basis * np.sqrt(1 + 0.95e-9), "scaled")
    skew = CompleteFamily(np.array([[1.0, 9e-10], [0.0, np.sqrt(1 - 8.1e-19)]]), "skew")
    with pytest.raises(PreconditionViolated, match="scaled <- scaled: .*doubly stochastic"):
        kernel_from_families(scaled, scaled)
    with pytest.raises(PreconditionViolated, match="skew <- skew: .*not unitary"):
        kernel_from_families(skew, skew)


def test_composing_kernels_whose_product_fails_its_check_raises_a_named_error():
    """Both kernels of the scaled Hadamard basis with the computational one
    pass their checks; their product U = S†S = (1 + 0.95e-9) I does not."""
    scaled = CompleteFamily(CompleteFamily.hadamard().basis * np.sqrt(1 + 0.95e-9), "scaled")
    comp = CompleteFamily.computational(2)
    forth, back = kernel_from_families(scaled, comp), kernel_from_families(comp, scaled)
    with pytest.raises(PreconditionViolated,
                       match=r"^scaled <- scaled: kernel is not doubly stochastic: range 1.9e-09"):
        compose(forth, back)


def test_kernel_keeps_the_check_its_constructor_made():
    """``check`` is p's StochasticReport field for field; p and ``check`` are
    never passed in."""
    u = CompleteFamily.hadamard().basis * np.sqrt(1 + 4e-10)
    rng = np.random.default_rng(5)
    built = kernel_from_families(CompleteFamily(haar_unitary(4, rng), "b"),
                                 CompleteFamily(haar_unitary(4, rng), "c"))
    for kernel in (TransitionKernel(u, "b", "c"), built):
        assert dataclasses.astuple(kernel.check) == dataclasses.astuple(
            verify_double_stochastic(kernel.p))
    assert TransitionKernel(u, "b", "c").check.row_sum_violation > 0
    with pytest.raises(TypeError):
        TransitionKernel(u, "b", "c", check=built.check)
    with pytest.raises(TypeError):
        TransitionKernel(u, "b", "c", p=built.p)


def test_transition_kernel_validation():
    """Square, then p = |U|^2 doubly stochastic, then U unitary."""
    with pytest.raises(ValueError, match="square"):
        TransitionKernel(np.ones((2, 3)), "b", "c")
    with pytest.raises(ValueError, match="stochastic"):
        TransitionKernel(np.sqrt([[0.9, 0.2], [0.1, 0.8]]), "b", "c")
    with pytest.raises(ValueError, match="not unitary"):
        TransitionKernel(np.array([[1, 1], [1, 1]]) / np.sqrt(2), "b", "c")


def test_transition_kernel_refuses_a_nan_unitary_entry():
    """A NaN in U is a NaN in p, which fails the first check on p."""
    with pytest.raises(ValueError, match="doubly stochastic"):
        TransitionKernel([[np.nan, 0], [0, 1]], "a", "b")


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
        assert result.verdict == "unistochastic"
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
    if result.verdict == "unistochastic":
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


def _refuse_search(p, check, seed):
    raise AssertionError("the decision fell through to the search")


def _count_searches(monkeypatch) -> list:
    """Let the search run, recording each call."""
    calls = []
    search = kernels._search

    def counted(p, check, seed):
        calls.append(seed)
        return search(p, check, seed)

    monkeypatch.setattr(kernels, "_search", counted)
    return calls


def test_a_decision_that_reaches_the_search_verifies_p_once(monkeypatch):
    """The decision hands its report to the search, which returns what
    unistochastic_search returns, bit for bit."""
    p = np.abs(haar_unitary(4, np.random.default_rng(3))) ** 2
    expected = unistochastic_search(p, seed=5)
    verified = []
    verify = kernels.verify_double_stochastic

    def counted(q):
        verified.append(q.shape)
        return verify(q)

    monkeypatch.setattr(kernels, "verify_double_stochastic", counted)
    searches = _count_searches(monkeypatch)
    decision = decide_unistochastic(p, seed=5)
    assert searches == [5] and verified == [(4, 4)]
    assert decision.verdict == expected.verdict and decision.iterations == expected.iterations
    assert decision.U.tobytes() == expected.U.tobytes()
    assert decision.start_residuals.tobytes() == expected.start_residuals.tobytes()


@settings(max_examples=200, deadline=None)
@given(dim=st.integers(2, 3), draw=st.integers(0, 2**32 - 1))
def test_decision_builds_u_for_haar_moduli_in_closed_form(dim, draw):
    p = np.abs(haar_unitary(dim, np.random.default_rng(draw))) ** 2
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_search", _refuse_search)
        decision = decide_unistochastic(p)
    assert decision.verdict == "unistochastic"
    assert np.max(np.abs(np.abs(decision.U) ** 2 - p)) < 1e-12
    assert orthonormality_defect(decision.U) < 1e-12


@settings(max_examples=100, deadline=None)
@given(dim=st.integers(4, 8), draw=st.integers(0, 2**32 - 1))
def test_haar_moduli_are_never_certified_non_unistochastic(dim, draw):
    p = np.abs(haar_unitary(dim, np.random.default_rng(draw))) ** 2
    assert _open_chain_link(p) is None
    assert _open_chain_link(p.T) is None


@pytest.mark.parametrize("t", BOUNDARY_MIXES + (2 / 3,),
                         ids=[f"t{t:.4f}" for t in BOUNDARY_MIXES + (2 / 3,)])
def test_decision_matches_the_triangle_criterion_without_a_search(t, monkeypatch):
    monkeypatch.setattr(kernels, "_search", _refuse_search)
    p = mix(t)
    decision = decide_unistochastic(p)
    assert decision.verdict != "inconclusive"
    assert (decision.verdict == "unistochastic") == triangle_criterion_3x3(p)
    if decision.verdict == "unistochastic":
        assert decision.residual < 1e-12
    else:
        assert decision.U is None and decision.open_links[0] == "rows"


def _zero_link_inputs():
    half = np.block([[np.eye(1), np.zeros((1, 2))], [np.zeros((2, 1)), np.full((2, 2), 0.5)]])
    perms = [np.eye(3)[list(perm)] for perm in itertools.permutations(range(3))]
    blocks = [half[np.ix_(rows, cols)] for rows in itertools.permutations(range(3))
              for cols in itertools.permutations(range(3))]
    return [np.eye(1), np.eye(2), np.eye(2)[::-1], *perms, *blocks]


def test_decision_handles_zero_links(monkeypatch):
    """Permutations, diag(1, 1/2 (+) 1/2) under row and column permutations and
    the identities: links vanish, or two of three cancel exactly."""
    monkeypatch.setattr(kernels, "_search", _refuse_search)
    for p in _zero_link_inputs():
        decision = decide_unistochastic(p)
        assert decision.verdict == "unistochastic", p
        assert np.max(np.abs(np.abs(decision.U) ** 2 - p)) < 1e-15
        assert orthonormality_defect(decision.U) < 1e-15


# rows all close; columns 2 and 3 have links (0, 0.285, 0.148, 0.076), which do not
FOUR_OPEN_COLUMNS = np.array([[0.13, 0.36, 0.51, 0.00],
                              [0.15, 0.26, 0.37, 0.22],
                              [0.44, 0.25, 0.11, 0.20],
                              [0.28, 0.13, 0.01, 0.58]])


@pytest.mark.parametrize("p, kind", [(FOUR_OPEN_COLUMNS, "columns"),
                                     (FOUR_OPEN_COLUMNS.T, "rows")], ids=["columns", "rows"])
def test_open_links_certify_a_4x4_without_a_search(p, kind, monkeypatch):
    monkeypatch.setattr(kernels, "_search", _refuse_search)
    decision = decide_unistochastic(p)
    assert decision.verdict == "non-unistochastic"
    assert decision.open_links[:3] == (kind, 2, 3)
    assert decision.open_links[3] == pytest.approx(0.0608, abs=1e-4)


def test_closed_form_is_checked_against_p(monkeypatch):
    """p is doubly stochastic only within OPT_ATOL: two entries of row 2 moved
    by -+9e-7.  The closed form matches rows 0 and 1 and fixes row 2 by
    unitarity, a residual of 1.3e-6, so it is refused and the search, which
    can spread the error, decides."""
    p = np.abs(haar_unitary(3, np.random.default_rng(5))) ** 2
    p[2, :2] += [9e-7, -9e-7]
    searches = _count_searches(monkeypatch)
    decision = decide_unistochastic(p)
    assert searches == [0]
    assert decision.verdict == "unistochastic" and decision.residual < OPT_ATOL
    assert np.linalg.norm(np.abs(decision.U) ** 2 - p) == pytest.approx(decision.residual)


def _with_a_stray_entry(p: np.ndarray) -> np.ndarray:
    """p with its entry (0, -1) raised to 1e-7: doubly stochastic within
    OPT_ATOL and within 1e-7 of p, yet the last row's links with row 0
    include sqrt(1e-7), which on the raised matrix does not close."""
    p = np.array(p, dtype=float)
    p[0, -1] += 1e-7
    return p


HALF_BLOCKS = np.kron(np.eye(2), np.full((2, 2), 0.5))
NEAR_UNISTOCHASTIC = {
    "2x2": _with_a_stray_entry(np.eye(2)),
    "3x3": _with_a_stray_entry(np.eye(3)),
    "4x4": _with_a_stray_entry(HALF_BLOCKS),
    # exactly doubly stochastic; rows 1 and 2 have the single link 7e-5
    "4x4 exact": (1 - 1e-8) * HALF_BLOCKS + 1e-8 * np.eye(4)[[2, 1, 0, 3]],
}


@pytest.mark.parametrize("name", NEAR_UNISTOCHASTIC)
def test_a_link_within_opt_atol_of_closing_is_not_certified(name, monkeypatch):
    """The search accepts |U|^2 within OPT_ATOL of p, so a link opened only by
    moving entries that far is no certificate: the closed form (size <= 3)
    or the search decides, and accepts."""
    p = NEAR_UNISTOCHASTIC[name]
    searches = _count_searches(monkeypatch)
    decision = decide_unistochastic(p)
    assert decision.verdict == "unistochastic" and decision.residual < OPT_ATOL
    assert decision.open_links is None and _open_chain_link(p) is None
    assert searches == ([0] if len(p) == 4 else [])
    if name == "3x3":
        assert triangle_criterion_3x3(p)


@settings(max_examples=100, deadline=None)
@given(dim=st.integers(3, 8), data=st.data(), exponent=st.floats(-12.0, -6.1))
def test_block_moduli_with_a_stray_entry_are_never_certified(dim, data, exponent):
    """|U|^2 of a Haar U = U1 (+) U2 with one entry outside the blocks raised
    by up to 10^-6.1: the stray link is all that joins a row of one block
    to a row of the other, yet within OPT_ATOL it can close."""
    k = data.draw(st.integers(1, dim - 1), label="first block")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="draw"))
    p = np.zeros((dim, dim))
    p[:k, :k] = np.abs(haar_unitary(k, rng)) ** 2
    p[k:, k:] = np.abs(haar_unitary(dim - k, rng)) ** 2
    i = data.draw(st.integers(0, k - 1), label="row")
    j = data.draw(st.integers(k, dim - 1), label="column")
    p[i, j] += 10.0**exponent
    assert _open_chain_link(p) is None


def test_decision_hands_larger_feasible_inputs_to_the_search(monkeypatch):
    p = np.abs(haar_unitary(4, np.random.default_rng(0))) ** 2
    result = unistochastic_search(p, seed=3)
    searches = _count_searches(monkeypatch)
    decision = decide_unistochastic(p, seed=3)
    assert searches == [3]
    assert decision.verdict == result.verdict
    assert decision.residual == result.residual
    np.testing.assert_array_equal(decision.U, result.U)


def test_decision_validates_input():
    with pytest.raises(NotDoublyStochastic):
        decide_unistochastic([[0.9, 0.2], [0.1, 0.8]])


def dense_hermitian_basis(dim: int) -> np.ndarray:
    """The dim^2 generators as dense matrices, in the polish's coordinate order."""
    basis = []
    for i in range(dim):
        e = np.zeros((dim, dim), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
    for i in range(dim):
        for j in range(i + 1, dim):
            e = np.zeros((dim, dim), dtype=complex)
            e[i, j] = e[j, i] = 1 / np.sqrt(2)
            basis.append(e)
            e = np.zeros((dim, dim), dtype=complex)
            e[i, j] = -1j / np.sqrt(2)
            e[j, i] = 1j / np.sqrt(2)
            basis.append(e)
    return np.array(basis)


def test_tangent_jacobian_matches_the_column_loop():
    """The generator table gives the dense basis's Jacobian and step H bit for
    bit.  The diagonal columns hold rounding noise, not zeros, and J stays
    Fortran-ordered, so that J^T J takes the same BLAS path."""
    rng = np.random.default_rng(11)
    for dim in (2, 3, 5, 8, 16):
        u = haar_unitary(dim, rng)
        basis = dense_hermitian_basis(dim)
        entries = _generator_entries(dim)
        assert len(entries[0]) == 2 * dim * dim - dim
        columns = [(2 * np.real(np.conj(u) * (-1j * (e @ u)))).ravel() for e in basis]
        jac = _tangent_jacobian(u, entries)
        np.testing.assert_array_equal(jac, np.stack(columns, axis=1))
        assert jac.flags.f_contiguous
        for step in rng.normal(size=(20, dim * dim)):
            np.testing.assert_array_equal(_hermitian(step, entries, dim),
                                          np.tensordot(step, basis, axes=(0, 0)))


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
