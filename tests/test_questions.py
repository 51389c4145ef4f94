"""Question lattice, complete families, Boolean algebras, and asking."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from generators import random_state

from relaqm.errors import (
    IndexOutOfRange,
    InvalidDimension,
    PreconditionViolated,
    TooLarge,
)
from relaqm.hilbert import ATOL, basis_state, haar_unitary, orthonormality_defect
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


def test_question_refuses_a_nan_basis():
    with pytest.raises(ValueError, match="orthonormal"):
        Question(np.array([[np.nan], [0.0]]))
    for amps in ([np.nan, 0.0], [np.inf, 0.0], [0.0, 0.0]):
        with pytest.raises(ValueError, match="ray question"):
            Question.ray(amps)


def test_complete_family_refuses_a_nan_entry():
    with pytest.raises(ValueError, match="not unitary"):
        CompleteFamily(np.array([[np.nan, 0.0], [0.0, 1.0]]), "nan")


def test_implies_basics():
    q0 = Question.never(2)
    assert implies(q0, ray(1, 0))
    assert implies(q0, q0)
    assert implies(ray(1, 0), Question.always(2))
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


def _projector(q: Question) -> np.ndarray:
    return q.basis @ q.basis.conj().T


def _eigenspace_projector(h: np.ndarray, zero: bool) -> np.ndarray:
    """Projector onto the eigenvectors of the PSD matrix h whose eigenvalue is
    zero (``zero``) or not, at a threshold of 1e-10."""
    w, v = np.linalg.eigh(h)
    v = v[:, (w <= 1e-10) == zero]
    return v @ v.conj().T


@st.composite
def bounded_pairs(draw):
    """Two questions at dim 2-5, each rank 0..dim equally likely, so that
    never and always are frequent operands: independent, nested or equal."""
    dim = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r1, r2 = sorted(draw(st.integers(0, dim)) for _ in range(2))
    relation = draw(st.sampled_from(["independent", "nested", "equal"]))
    if relation == "independent":
        pair = random_question(dim, r1, rng), random_question(dim, r2, rng)
    else:
        u = haar_unitary(dim, rng)
        r2 = r1 if relation == "equal" else r2
        pair = _rotated(u[:, :r1], rng), _rotated(u[:, :r2], rng)
    return pair[::-1] if draw(st.booleans()) else pair


@settings(max_examples=400, deadline=None)
@given(bounded_pairs())
def test_lattice_operations_agree_with_projector_arithmetic(pair):
    """join, meet and negate, shortcuts included, give orthonormal bases of
    range(P1 + P2), ker((I - P1) + (I - P2)) and range(I - P1); implies and
    same_question agree with the residual computed in both directions."""
    q1, q2 = pair
    p1, p2 = _projector(q1), _projector(q2)
    eye = np.eye(q1.ambient_dim)
    for got, oracle in ((join(q1, q2), _eigenspace_projector(p1 + p2, zero=False)),
                        (meet(q1, q2), _eigenspace_projector(2 * eye - p1 - p2, zero=True)),
                        (negate(q1), eye - p1)):
        assert orthonormality_defect(got.basis) <= ATOL
        assert np.abs(_projector(got) - oracle).max() < 1e-8
    inside_q2 = np.linalg.norm((eye - p2) @ q1.basis) < ATOL
    inside_q1 = np.linalg.norm((eye - p1) @ q2.basis) < ATOL
    assert implies(q1, q2) == inside_q2
    assert implies(q2, q1) == inside_q1
    assert same_question(q1, q2) == same_question(q2, q1) == (inside_q2 and inside_q1)


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
    fam = CompleteFamily(haar_unitary(4, rng), "random")
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
        fam = CompleteFamily(haar_unitary(dim, rng), "f")
        from relaqm.hilbert import StateVector
        state = StateVector(random_state(dim, rng), (dim,), "O")
        answer, _ = ask_sequence(state, complete_questions(fam), seed)
        assert sum(answer.bits) == 1


def test_answer_string_validation():
    with pytest.raises(ValueError, match="bits"):
        AnswerString((0, 2))
    # checked as given, before int() could read 0.5 as 0, 1.9 as 1 or "1" as 1
    for bits in [(0.5, 1.9), ("1", 0), (0, 1.5)]:
        with pytest.raises(ValueError, match="bits"):
            AnswerString(bits)
    assert AnswerString((True, 0.0)).bits == (1, 0)


@pytest.mark.parametrize("method", ["atom", "column"])
@pytest.mark.parametrize("index", [-1, 5, 7, 9, 100, 1.5])
def test_a_family_refuses_an_atom_index_outside_its_dimension(method, index):
    """Not the rank-0 question, the last column, a TypeError or numpy's
    IndexError: an index outside [0, 5), or one that is no integer, names
    itself and the range."""
    fam = CompleteFamily.computational(5)
    with pytest.raises(IndexOutOfRange, match=rf"atom index {index} outside \[0, 5\)"):
        getattr(fam, method)(index)


def test_answer_patterns_encode_atom_indices():
    """info_capacity(5) = 3 bit questions, most significant first, each the
    join of the atoms whose index has that bit set, answer an atom's index."""
    fam = CompleteFamily.computational(5)
    width = info_capacity(5)
    assert width == 3
    algebra = boolean_algebra(fam)
    bit_questions = [
        algebra[sum(1 << i for i in range(fam.dim) if (i >> k) & 1)]
        for k in reversed(range(width))]
    for i in range(fam.dim):
        answer, _ = ask_sequence(basis_state(5, i, "O"), bit_questions, seed=i)
        assert answer.bits == tuple((i >> k) & 1 for k in reversed(range(width)))
    assert ask_sequence(basis_state(5, 0, "O"), bit_questions, 0)[0].bits == (0, 0, 0)
    assert ask_sequence(basis_state(5, 4, "O"), bit_questions, 0)[0].bits == (1, 0, 0)
    # codes 101, 110, 111 are unreachable: the bit-2 question is atom 4 alone
    assert same_question(bit_questions[0], fam.atom(4))


def test_complete_ask_determines_the_family_algebra():
    """After all atoms are asked, the family's algebra holds no surprises."""
    rng = np.random.default_rng(44)
    fam = CompleteFamily(haar_unitary(4, rng), "c")
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
    fam = CompleteFamily(haar_unitary(4, rng), "c")
    unbiased = Question.ray((fam.column(0) + fam.column(1)) * INV_SQRT2)
    from relaqm.hilbert import StateVector
    prepared = StateVector(fam.column(0), (4,), "O")
    yes = sum(ask_sequence(prepared, [unbiased], seed)[0].bits[0]
              for seed in range(2000))
    assert 0.4 < yes / 2000 < 0.6
