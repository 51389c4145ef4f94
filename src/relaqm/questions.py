"""Yes/no questions as closed subspaces, and the lattice they form.

A question is the elementary one-bit measurement: a closed subspace of a
finite Hilbert space, stored as orthonormal basis columns.  Implication is
subspace inclusion, join is closed span, meet is intersection, negation is
the orthogonal complement.  The resulting lattice is orthomodular but not
distributive; a complete family (an orthonormal basis read as mutually
exclusive rank-1 questions) generates a Boolean subalgebra.

Question equality throughout means subspace equality (mutual implication),
never equality of basis matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidDimension,
    PreconditionViolated,
    TooLarge,
    ZeroBranch,
)
from .hilbert import (ATOL, RANK_TOL, StateVector, haar_unitary, orthonormality_defect,
                      sample_index)

__all__ = [
    "Question",
    "AnswerString",
    "CompleteFamily",
    "implies",
    "join",
    "meet",
    "negate",
    "orthogonal",
    "same_question",
    "orthomodular_check",
    "info_capacity",
    "complete_questions",
    "boolean_algebra",
    "ask_sequence",
    "redundant_flags",
    "random_question",
]


def _orthonormalize(columns: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal basis for the column span, rank by SV threshold."""
    if columns.size == 0:
        return np.zeros((dim, 0), dtype=complex)
    u, s, _ = np.linalg.svd(columns, full_matrices=False)
    rank = int(np.sum(s > RANK_TOL))
    return u[:, :rank]


@dataclass(frozen=True, eq=False)
class Question:
    """A yes/no question: a subspace given by orthonormal basis columns.

    Rank 0 is the always-false question, full rank the always-true one.
    """

    basis: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=complex)
        if b.ndim != 2:
            raise ValueError(f"basis must be a (dim, rank) matrix, got shape {b.shape}")
        if orthonormality_defect(b) > ATOL:
            raise ValueError("basis columns are not orthonormal")
        b = b.copy()
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    @property
    def is_never(self) -> bool:
        return self.rank == 0

    @property
    def is_always(self) -> bool:
        return self.rank == self.ambient_dim

    @classmethod
    def never(cls, dim: int) -> "Question":
        return cls(np.zeros((dim, 0), dtype=complex))

    @classmethod
    def always(cls, dim: int) -> "Question":
        return cls(np.eye(dim, dtype=complex))

    @classmethod
    def ray(cls, vector) -> "Question":
        v = np.asarray(vector, dtype=complex).reshape(-1)
        n = np.linalg.norm(v)
        if n < RANK_TOL:
            raise ValueError("cannot build a ray question from a zero vector")
        return cls((v / n)[:, None])

    @classmethod
    def from_span(cls, vectors, dim: int | None = None) -> "Question":
        """Question spanned by arbitrary (possibly dependent) vectors."""
        arr = np.asarray(vectors, dtype=complex)
        if arr.ndim == 1:
            arr = arr[:, None]
        return cls(_orthonormalize(arr, dim or arr.shape[0]))

    def __repr__(self):
        return f"Question(rank={self.rank}, ambient_dim={self.ambient_dim})"


def _require_same_dim(q1: Question, q2: Question) -> None:
    if q1.ambient_dim != q2.ambient_dim:
        raise DimensionMismatch(
            f"ambient dims differ: {q1.ambient_dim} vs {q2.ambient_dim}")


def implies(q1: Question, q2: Question) -> bool:
    """Subspace inclusion: every vector of q1 lies in q2."""
    _require_same_dim(q1, q2)
    if q1.rank == 0:
        return True
    residual = q1.basis - q2.basis @ (q2.basis.conj().T @ q1.basis)
    return bool(np.linalg.norm(residual) < ATOL)


def negate(q: Question) -> Question:
    """Orthogonal complement."""
    dim = q.ambient_dim
    if q.rank == 0:
        return Question.always(dim)
    u, s, _ = np.linalg.svd(q.basis, full_matrices=True)
    rank = int(np.sum(s > RANK_TOL))
    return Question(u[:, rank:])


def join(q1: Question, q2: Question) -> Question:
    """Closed span of the union."""
    _require_same_dim(q1, q2)
    return Question(_orthonormalize(np.hstack([q1.basis, q2.basis]), q1.ambient_dim))


def meet(q1: Question, q2: Question) -> Question:
    """Intersection, from the principal angles between q1 and q2.

    The singular values of the part of q1's basis outside q2 are the sines
    of the principal angles (Björck & Golub 1973); the right singular
    vectors whose sine is at most RANK_TOL pick out the directions of q1
    that lie in q2.
    One SVD, where the double complement ¬(¬q1 ∨ ¬q2) takes four.
    """
    _require_same_dim(q1, q2)
    if q1.rank == 0 or q2.rank == 0:
        return Question.never(q1.ambient_dim)
    outside = q1.basis - q2.basis @ (q2.basis.conj().T @ q1.basis)
    _, s, vh = np.linalg.svd(outside)
    return Question(q1.basis @ vh.conj().T[:, s <= RANK_TOL])


def orthogonal(q1: Question, q2: Question) -> bool:
    """q1 and q2 are orthogonal iff q1 implies the negation of q2."""
    return implies(q1, negate(q2))


def same_question(q1: Question, q2: Question) -> bool:
    """Subspace equality via mutual implication."""
    return q1.rank == q2.rank and implies(q1, q2) and implies(q2, q1)


def orthomodular_check(q1: Question, q2: Question) -> bool:
    """Verify q2 = q1 ∨ (q2 ∧ ¬q1) for a nested pair q1 ⇒ q2."""
    if not implies(q1, q2):
        raise PreconditionViolated("orthomodular_check needs q1 ⇒ q2")
    rhs = join(q1, meet(q2, negate(q1)))
    return same_question(q2, rhs)


def info_capacity(dim: int) -> int:
    """Maximum relevant information of a dim-level system: ceil(log2 dim) bits."""
    if dim < 2:
        raise InvalidDimension(f"need dimension >= 2, got {dim}")
    return (dim - 1).bit_length()


@dataclass(frozen=True, eq=False)
class CompleteFamily:
    """An ordered orthonormal basis read as mutually exclusive rank-1 questions.

    Asking all atoms exhausts what can be known about the system in this
    basis; different families of the same space give incompatible maximal
    descriptions.
    """

    basis: np.ndarray
    label: str

    def __post_init__(self):
        b = np.array(self.basis, dtype=complex)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError(f"family basis must be square, got shape {b.shape}")
        if orthonormality_defect(b) > ATOL:
            raise ValueError(f"family {self.label!r}: basis is not unitary")
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def column(self, i: int) -> np.ndarray:
        return self.basis[:, i]

    def atom(self, i: int) -> Question:
        return Question(self.basis[:, i:i + 1])

    def answer_pattern(self, i: int) -> "AnswerString":
        """Binary encoding of atom index i as an N-bit answer string.

        For dimensions that are not powers of two, codes >= dim are
        unreachable; atoms are therefore primarily addressed by index.
        """
        n = info_capacity(self.dim)
        bits = tuple((i >> (n - 1 - b)) & 1 for b in range(n))
        return AnswerString(bits, self)

    @classmethod
    def computational(cls, dim: int, label: str = "computational") -> "CompleteFamily":
        return cls(np.eye(dim, dtype=complex), label)

    @classmethod
    def hadamard(cls, label: str = "hadamard") -> "CompleteFamily":
        return cls(np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2), label)

    @classmethod
    def fourier(cls, dim: int, label: str = "fourier") -> "CompleteFamily":
        k = np.arange(dim)
        return cls(np.exp(2j * np.pi * np.outer(k, k) / dim) / np.sqrt(dim), label)

    @classmethod
    def random(cls, dim: int, rng: np.random.Generator,
               label: str = "random") -> "CompleteFamily":
        return cls(haar_unitary(dim, rng), label)

    def __repr__(self):
        return f"CompleteFamily(label={self.label!r}, dim={self.dim})"


@dataclass(frozen=True)
class AnswerString:
    """Ordered yes/no answers, optionally attributed to a complete family."""

    bits: tuple[int, ...]
    family: CompleteFamily | None = None

    def __post_init__(self):
        object.__setattr__(self, "bits", tuple(int(b) for b in self.bits))
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("answer bits must be 0 or 1")
        if self.family is not None and len(self.bits) > self.family.dim:
            raise ValueError(
                f"{len(self.bits)} answers exceed the {self.family.dim} atoms "
                f"of family {self.family.label!r}")


def complete_questions(f: CompleteFamily) -> list[Question]:
    """The dim rank-1 atoms of a family: pairwise orthogonal, joint span full."""
    return [f.atom(i) for i in range(f.dim)]


def boolean_algebra(f: CompleteFamily) -> list[Question]:
    """All joins of atom subsets: the 2^dim-element Boolean algebra of a family.

    Guarded against enumeration blowups; elements are ordered by the subset
    bitmask of the atoms they contain.
    """
    k = f.dim
    if k > 10:
        raise TooLarge(f"refusing to enumerate 2^{k} questions")
    out = []
    for mask in range(1 << k):
        cols = [i for i in range(k) if mask & (1 << i)]
        out.append(Question(f.basis[:, cols]))
    return out


def _yes_probability(amps: np.ndarray, q: Question) -> float:
    return min(float(np.linalg.norm(q.basis.conj().T @ amps) ** 2), 1.0)


def _branch(amps: np.ndarray, q: Question, bit: int, zero_message: str) -> np.ndarray:
    """Normalized projection of ``amps`` onto the answer ``bit`` to ``q``."""
    inside = q.basis @ (q.basis.conj().T @ amps)
    branch = inside if bit else amps - inside
    weight = np.linalg.norm(branch)
    if weight <= 1e-12:
        raise ZeroBranch(zero_message)
    return branch / weight


def ask_sequence(state: StateVector, questions, seed: int,
                 family: CompleteFamily | None = None):
    """Ask a sequence of questions, projecting after each answer.

    Yes answers collapse onto the question's subspace, no answers onto its
    complement, with Born-rule sampling.  Returns the answer string and the
    post-measurement state; deterministic for a fixed seed and question order.
    """
    rng = np.random.default_rng(seed)
    amps = state.amplitudes.copy()
    bits = []
    for q in questions:
        if q.ambient_dim != state.dim:
            raise DimensionMismatch(
                f"question dim {q.ambient_dim} vs state dim {state.dim}")
        p_yes = _yes_probability(amps, q)
        bit = 1 if sample_index(np.array([1.0 - p_yes, p_yes]), rng) else 0
        amps = _branch(amps, q, bit, "sampled a branch of zero weight")
        bits.append(bit)
    answer = AnswerString(tuple(bits), family)
    return answer, StateVector(amps, state.dim_factors, state.relative_to)


def redundant_flags(state: StateVector, questions, bits) -> list[bool]:
    """Which answers in a realized string were already determined.

    A bit is redundant iff, given the preceding answers, its question had
    probability 0 or 1 -- checked by exact Born computation along the branch
    the given bits select, never by sampling.
    """
    amps = state.amplitudes.copy()
    flags = []
    for q, bit in zip(questions, bits):
        p_yes = _yes_probability(amps, q)
        flags.append(p_yes < ATOL or p_yes > 1.0 - ATOL)
        amps = _branch(amps, q, bit, f"given answers contradict the state (bit={bit})")
    return flags


def random_question(dim: int, rank: int, rng: np.random.Generator) -> Question:
    """Haar-random subspace of the given rank."""
    if not 0 <= rank <= dim:
        raise ValueError(f"rank {rank} outside [0, {dim}]")
    if rank == 0:
        return Question.never(dim)
    return Question(haar_unitary(dim, rng)[:, :rank])
