"""Question lattice, complete families, Boolean algebras, and asking."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaqm.errors import (
    InvalidDimension,
    PreconditionViolated,
    TooLarge,
    ZeroBranch,
)
from relaqm.hilbert import ATOL, basis_state, haar_unitary, orthonormality_defect, random_state
from relaqm.questions import (
    AnswerString,
    CompleteFamily,
    Question,
    ask_sequence,
    boolean_algebra,
    complete_questions,
    implies,
    info_capacity,
    join,
    meet,
    negate,
    orthogonal,
    orthomodular_check,
    random_question,
    redundant_flags,
    same_question,
)

INV_SQRT2 = 1 / np.sqrt(2)


def ray(*amps):
    return Question.ray(np.array(amps, dtype=complex))


def test_question_validates_orthonormality():
    with pytest.raises(ValueError, match="orthonormal"):
        Question(np.array([[1.0, 1.0], [0.0, 0.0]]))
    assert Question.never(3).rank == 0
    assert Question.always(3).rank == 3


def test_implies_basics():
    q0 = Question.never(2)
    assert implies(q0, ray(1, 0))
    assert implies(q0, q0)
    assert implies(ray(1, 0), Question.from_span(np.eye(2)))
    assert not implies(ray(INV_SQRT2, INV_SQRT2), ray(1, 0))


def test_join_of_independent_rays_is_full():
    assert join(ray(1, 0), ray(INV_SQRT2, INV_SQRT2)).rank == 2


def test_meet_of_orthogonal_rays_is_never():
    assert meet(ray(1, 0), ray(0, 1)).is_never


def meet_by_double_complement(q1, q2):
    """The intersection as ¬(¬q1 ∨ ¬q2): the oracle for the one-SVD meet."""
    return negate(join(negate(q1), negate(q2)))


def _rotated(columns: np.ndarray, rng) -> Question:
    """The span of orthonormal ``columns``, with a random basis of it."""
    if columns.shape[1] == 0:
        return Question(columns)
    return Question(columns @ haar_unitary(columns.shape[1], rng))


def _sharing(u: np.ndarray, k: int, r1: int, r2: int, rng):
    """Questions of ranks r1 and r2 whose intersection is the span of u[:, :k]."""
    second = np.hstack([u[:, :k], u[:, r1:r1 + r2 - k]])
    return _rotated(u[:, :r1], rng), _rotated(second, rng)


@st.composite
def meet_pairs(draw):
    """(q1, q2, the rank of their intersection, a basis of it or None)."""
    dim = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(["trivial", "nested", "shared", "generic"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = haar_unitary(dim, rng)
    if kind == "trivial":  # one side rank 0 or full rank
        edge = draw(st.sampled_from([0, dim]))
        other = random_question(dim, draw(st.integers(0, dim)), rng)
        pair = (Question(u[:, :edge]), other)
        rank, inside = (other.rank, other.basis) if edge else (0, None)
    elif kind == "nested":
        big = draw(st.integers(0, dim))
        small = draw(st.integers(0, big))
        pair = (_rotated(u[:, :small], rng), _rotated(u[:, :big], rng))
        rank, inside = small, u[:, :small]
    elif kind == "shared":  # exactly k shared dimensions, for any possible k
        k = draw(st.integers(0, dim))
        r1 = draw(st.integers(k, dim))
        r2 = draw(st.integers(k, dim - r1 + k))
        pair = _sharing(u, k, r1, r2, rng)
        rank, inside = k, u[:, :k]
    else:
        r1, r2 = draw(st.integers(0, dim)), draw(st.integers(0, dim))
        pair = (random_question(dim, r1, rng), random_question(dim, r2, rng))
        rank, inside = max(0, r1 + r2 - dim), None
    if draw(st.booleans()):
        pair = pair[::-1]
    return pair + (rank, inside)


@settings(max_examples=400, deadline=None)
@given(meet_pairs())
def test_meet_agrees_with_the_double_complement(case):
    q1, q2, rank, inside = case
    got, oracle = meet(q1, q2), meet_by_double_complement(q1, q2)
    assert got.rank == oracle.rank == rank
    assert same_question(got, oracle)
    assert orthonormality_defect(got.basis) <= ATOL
    if inside is not None:
        assert same_question(got, Question(inside))


@pytest.mark.parametrize("dim", range(2, 7))
def test_meet_finds_every_exact_intersection_dimension(dim):
    """Every (k, r1, r2) with r1 + r2 - k <= dim, each on a random frame."""
    rng = np.random.default_rng(dim)
    for k in range(dim + 1):
        for r1 in range(k, dim + 1):
            for r2 in range(k, dim - r1 + k + 1):
                u = haar_unitary(dim, rng)
                q1, q2 = _sharing(u, k, r1, r2, rng)
                got = meet(q1, q2)
                assert got.rank == k
                assert same_question(got, Question(u[:, :k]))
                assert same_question(got, meet_by_double_complement(q1, q2))


@pytest.mark.parametrize("angle, shared", [(1e-3, False), (1e-5, False), (1e-10, True)])
def test_meet_of_nearly_equal_planes(angle, shared):
    """Planes of C^3 tilted by a small angle meet in a line; whether they
    share the plane is decided at the rank tolerance, as the oracle does."""
    tilted = np.array([[1, 0], [0, np.cos(angle)], [0, np.sin(angle)]], dtype=complex)
    q1, q2 = Question(np.eye(3)[:, :2]), Question(tilted)
    got = meet(q1, q2)
    assert got.rank == (2 if shared else 1)
    assert same_question(got, meet_by_double_complement(q1, q2))


def test_orthogonality():
    assert orthogonal(ray(1, 0), ray(0, 1))
    assert not orthogonal(ray(1, 0), ray(INV_SQRT2, INV_SQRT2))


def test_complement_laws_on_random_subspaces():
    rng = np.random.default_rng(2)
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        q = random_question(dim, int(rng.integers(0, dim + 1)), rng)
        assert same_question(join(q, negate(q)), Question.always(dim))
        assert same_question(meet(q, negate(q)), Question.never(dim))
        assert same_question(negate(negate(q)), q)


def test_lattice_laws_random_sweep():
    rng = np.random.default_rng(8)
    for _ in range(500):
        dim = int(rng.integers(2, 7))
        a = random_question(dim, int(rng.integers(0, dim + 1)), rng)
        b = random_question(dim, int(rng.integers(0, dim + 1)), rng)
        c = random_question(dim, int(rng.integers(0, dim + 1)), rng)
        assert same_question(join(a, b), join(b, a))
        assert same_question(meet(a, b), meet(b, a))
        assert same_question(join(join(a, b), c), join(a, join(b, c)))
        assert same_question(meet(meet(a, b), c), meet(a, meet(b, c)))
        assert same_question(negate(join(a, b)), meet(negate(a), negate(b)))
        assert same_question(negate(meet(a, b)), join(negate(a), negate(b)))


def test_orthomodular_on_nested_coordinate_subspaces():
    q1 = Question(np.eye(4)[:, :1])
    q2 = Question(np.eye(4)[:, :3])
    assert orthomodular_check(q1, q2)


def test_orthomodular_random_nested_pairs():
    rng = np.random.default_rng(21)
    for _ in range(500):
        dim = int(rng.integers(2, 7))
        small = random_question(dim, int(rng.integers(0, dim)), rng)
        extra = random_question(dim, int(rng.integers(0, dim)), rng)
        big = join(small, extra)
        assert implies(small, big)
        assert orthomodular_check(small, big)


def test_orthomodular_rank_arithmetic():
    rng = np.random.default_rng(33)
    small = random_question(3, 1, rng)
    big = Question.always(3)
    assert orthomodular_check(small, big)
    assert meet(big, negate(small)).rank == 2


def test_orthomodular_requires_nesting():
    rng = np.random.default_rng(4)
    q1 = ray(INV_SQRT2, INV_SQRT2)
    q2 = ray(1, 0)
    with pytest.raises(PreconditionViolated):
        orthomodular_check(q1, q2)


def test_distributivity_fails_for_noncommuting_triple():
    """The must-fail witness: the question lattice is not Boolean."""
    q = ray(1, 0)
    r = ray(INV_SQRT2, INV_SQRT2)
    s = negate(r)
    lhs = meet(q, join(r, s))       # q ∧ (r ∨ s) = q
    rhs = join(meet(q, r), meet(q, s))  # = never
    assert same_question(lhs, q)
    assert rhs.is_never
    assert not same_question(lhs, rhs)


def test_info_capacity():
    assert info_capacity(2) == 1
    assert info_capacity(4) == 2
    assert info_capacity(5) == 3
    with pytest.raises(InvalidDimension):
        info_capacity(1)


def test_complete_questions_computational():
    atoms = complete_questions(CompleteFamily.computational(2))
    assert [a.rank for a in atoms] == [1, 1]
    assert same_question(atoms[0], ray(1, 0))
    assert same_question(atoms[1], ray(0, 1))


def test_complete_questions_are_exclusive_and_exhaustive():
    rng = np.random.default_rng(6)
    fam = CompleteFamily.random(4, rng)
    atoms = complete_questions(fam)
    for i in range(4):
        for j in range(i + 1, 4):
            assert orthogonal(atoms[i], atoms[j])
    total = atoms[0]
    for a in atoms[1:]:
        total = join(total, a)
    assert total.is_always


def test_complete_questions_hadamard():
    atoms = complete_questions(CompleteFamily.hadamard())
    assert same_question(atoms[0], ray(INV_SQRT2, INV_SQRT2))
    assert same_question(atoms[1], ray(INV_SQRT2, -INV_SQRT2))


def test_boolean_algebra_sizes():
    assert len(boolean_algebra(CompleteFamily.computational(2))) == 4
    assert len(boolean_algebra(CompleteFamily.computational(3))) == 8


def test_boolean_algebra_dim2_members():
    algebra = boolean_algebra(CompleteFamily.computational(2))
    ranks = sorted(q.rank for q in algebra)
    assert ranks == [0, 1, 1, 2]
    assert any(q.is_never for q in algebra)
    assert any(q.is_always for q in algebra)


def test_boolean_algebra_is_distributive():
    algebra = boolean_algebra(CompleteFamily.fourier(3))
    for q in algebra:
        for r in algebra:
            for s in algebra:
                lhs = meet(q, join(r, s))
                rhs = join(meet(q, r), meet(q, s))
                assert same_question(lhs, rhs)


def test_boolean_algebra_closure():
    algebra = boolean_algebra(CompleteFamily.computational(3))

    def member(q):
        return any(same_question(q, m) for m in algebra)

    for q in algebra[:4]:
        assert member(negate(q))
        for r in algebra[4:]:
            assert member(join(q, r))
            assert member(meet(q, r))


def test_boolean_algebra_guard():
    with pytest.raises(TooLarge):
        boolean_algebra(CompleteFamily.computational(11))


def test_ask_eigenstate_atom_is_deterministic():
    fam = CompleteFamily.computational(2)
    state = basis_state(2, 0, "O")
    for seed in range(20):
        answer, post = ask_sequence(state, [fam.atom(0)], seed)
        assert answer.bits == (1,)
        np.testing.assert_allclose(post.amplitudes, state.amplitudes, atol=1e-12)


def test_asking_twice_repeats_the_answer():
    rng = np.random.default_rng(9)
    for seed in range(50):
        dim = int(rng.integers(2, 5))
        q = random_question(dim, int(rng.integers(1, dim)), rng)
        state_amps = random_state(dim, rng)
        from relaqm.hilbert import StateVector
        state = StateVector(state_amps, (dim,), "O")
        answer, _ = ask_sequence(state, [q, q], seed)
        assert answer.bits[0] == answer.bits[1]


def test_unbiased_question_yes_rate():
    # prepare |1>, ask the Hadamard-family atom on fresh preparations
    fam = CompleteFamily.hadamard()
    state = basis_state(2, 0, "O")
    yes = sum(ask_sequence(state, [fam.atom(0)], seed)[0].bits[0]
              for seed in range(10_000))
    assert 0.45 <= yes / 10_000 <= 0.55


def test_asking_all_atoms_gives_exactly_one_yes():
    rng = np.random.default_rng(12)
    for seed in range(50):
        dim = int(rng.integers(2, 5))
        fam = CompleteFamily.random(dim, rng, "f")
        from relaqm.hilbert import StateVector
        state = StateVector(random_state(dim, rng), (dim,), "O")
        answer, _ = ask_sequence(state, complete_questions(fam), seed, family=fam)
        assert sum(answer.bits) == 1
        assert answer.family is fam


def test_answer_string_validation():
    fam = CompleteFamily.computational(2)
    with pytest.raises(ValueError, match="bits"):
        AnswerString((0, 2), fam)
    with pytest.raises(ValueError, match="exceed"):
        AnswerString((0, 1, 0), fam)


def test_answer_patterns_encode_atom_indices():
    fam = CompleteFamily.computational(5)
    # capacity is 3 bits; codes 101, 110, 111 are unreachable (only 5 atoms)
    assert fam.answer_pattern(0).bits == (0, 0, 0)
    assert fam.answer_pattern(4).bits == (1, 0, 0)
    assert info_capacity(5) == 3


def test_redundant_flags_detect_determined_bits():
    fam = CompleteFamily.computational(2)
    had = CompleteFamily.hadamard()
    state = basis_state(2, 0, "O")
    # first question undetermined, repeat of it determined, eigen-question determined
    questions = [had.atom(0), had.atom(0), fam.atom(0)]
    answer, _ = ask_sequence(state, questions, seed=3)
    flags = redundant_flags(state, questions, answer.bits)
    assert flags[0] is False
    assert flags[1] is True


def test_redundant_flags_reject_contradictory_bits():
    fam = CompleteFamily.computational(2)
    state = basis_state(2, 0, "O")
    with pytest.raises(ZeroBranch):
        redundant_flags(state, [fam.atom(0)], [0])


def test_complete_ask_determines_the_family_algebra():
    """After all atoms are asked, the family's algebra holds no surprises."""
    rng = np.random.default_rng(44)
    fam = CompleteFamily.random(4, rng, "c")
    algebra = boolean_algebra(fam)
    from relaqm.hilbert import StateVector
    state = StateVector(random_state(4, rng), (4,), "O")
    for seed in range(100):
        _, post = ask_sequence(state, complete_questions(fam), seed)
        for q in algebra:
            p_yes = float(np.linalg.norm(q.basis.conj().T @ post.amplitudes) ** 2)
            assert p_yes < 1e-9 or p_yes > 1 - 1e-9


def test_fresh_question_outside_algebra_stays_random():
    """A question outside the algebra stays genuinely random."""
    rng = np.random.default_rng(45)
    fam = CompleteFamily.random(4, rng, "c")
    unbiased = Question.ray((fam.column(0) + fam.column(1)) * INV_SQRT2)
    from relaqm.hilbert import StateVector
    prepared = StateVector(fam.column(0), (4,), "O")
    yes = sum(ask_sequence(prepared, [unbiased], seed)[0].bits[0]
              for seed in range(2000))
    assert 0.4 < yes / 2000 < 0.6
