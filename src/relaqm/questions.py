"""Yes/no questions as closed subspaces, and the lattice they form.

A question is the elementary one-bit measurement: a closed subspace of a
finite Hilbert space, stored as orthonormal basis columns.  Implication is
subspace inclusion, join is closed span, meet is intersection, negation is
the orthogonal complement.  The resulting lattice is orthomodular but not
distributive; a complete family (an orthonormal basis read as mutually
exclusive rank-1 questions) generates a Boolean subalgebra.

Question equality throughout means subspace equality (mutual implication),
never equality of basis matrices; for subspaces of equal rank one inclusion
decides it, since ||(I - P2) Q1||_F = ||(I - P1) Q2||_F.

The lattice bounds are answered by identity, with no SVD or product:
a v 0 = a, a v 1 = 1, a ^ 0 = 0, a ^ 1 = a, not 0 = 1, not 1 = 0, 0 => a and
a => 1; a question implies none of smaller rank.

A basis this module computes is not re-checked: SVD and QR columns are
orthonormal to rounding, so are the columns of a verified family, and the
meet's basis, q1's basis times SVD columns, is as orthonormal as q1's.  A
basis a caller passes to ``Question`` is checked.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
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
    "random_question",
]


def _orthonormalize(columns: np.ndarray) -> np.ndarray:
    """Orthonormal basis for the column span, rank by SV threshold."""
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
        b = np.array(self.basis, dtype=complex)
        if b.ndim != 2:
            raise ValueError(f"basis must be a (dim, rank) matrix, got shape {b.shape}")
        if not orthonormality_defect(b) <= ATOL:
            raise ValueError("basis columns are not orthonormal")
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
        return _computed(np.zeros((dim, 0), dtype=complex))

    @classmethod
    def always(cls, dim: int) -> "Question":
        return _computed(np.eye(dim, dtype=complex))

    @classmethod
    def ray(cls, vector) -> "Question":
        v = np.asarray(vector, dtype=complex).reshape(-1)
        n = np.linalg.norm(v)
        if not RANK_TOL <= n < np.inf:
            raise ValueError(f"cannot build a ray question from a vector of norm {n}")
        return cls((v / n)[:, None])

    def __repr__(self):
        return f"Question(rank={self.rank}, ambient_dim={self.ambient_dim})"


def _computed(basis: np.ndarray) -> Question:
    """A Question on a basis this module computed, orthonormal by construction:
    built without ``orthonormality_defect``.  The basis is copied, so a column
    slice does not keep its whole parent array alive."""
    b = np.array(basis, dtype=complex)
    b.setflags(write=False)
    q = object.__new__(Question)
    object.__setattr__(q, "basis", b)
    return q


def _require_same_dim(q1: Question, q2: Question) -> None:
    if q1.ambient_dim != q2.ambient_dim:
        raise DimensionMismatch(
            f"ambient dims differ: {q1.ambient_dim} vs {q2.ambient_dim}")


def implies(q1: Question, q2: Question) -> bool:
    """Subspace inclusion: every vector of q1 lies in q2.

    A larger q1 never does: its residual ||(I - P2) Q1||_F is then at least 1."""
    _require_same_dim(q1, q2)
    if q1.is_never or q2.is_always:
        return True
    if q1.rank > q2.rank:
        return False
    residual = q1.basis - q2.basis @ (q2.basis.conj().T @ q1.basis)
    return bool(np.linalg.norm(residual) < ATOL)


def negate(q: Question) -> Question:
    """Orthogonal complement: the left singular vectors of q's basis past its
    rank.  Orthonormal within ATOL, the basis has every singular value within
    rank * ATOL of 1, far above RANK_TOL, so none of the first rank is dropped."""
    if q.is_never:
        return Question.always(q.ambient_dim)
    if q.is_always:
        return Question.never(q.ambient_dim)
    u, _, _ = np.linalg.svd(q.basis, full_matrices=True)
    return _computed(u[:, q.rank:])


def join(q1: Question, q2: Question) -> Question:
    """Closed span of the union."""
    _require_same_dim(q1, q2)
    if q1.is_always or q2.is_never:
        return q1
    if q2.is_always or q1.is_never:
        return q2
    return _computed(_orthonormalize(np.hstack([q1.basis, q2.basis])))


def meet(q1: Question, q2: Question) -> Question:
    """Intersection, from the principal angles between q1 and q2.

    The singular values of the part of q1's basis outside q2 are the sines
    of the principal angles (Björck & Golub 1973); the right singular
    vectors whose sine is at most RANK_TOL pick out the directions of q1
    that lie in q2.
    One SVD, where the double complement ¬(¬q1 ∨ ¬q2) takes four.
    """
    _require_same_dim(q1, q2)
    if q1.is_never or q2.is_always:
        return q1
    if q2.is_never or q1.is_always:
        return q2
    outside = q1.basis - q2.basis @ (q2.basis.conj().T @ q1.basis)
    _, s, vh = np.linalg.svd(outside)
    return _computed(q1.basis @ vh.conj().T[:, s <= RANK_TOL])


def orthogonal(q1: Question, q2: Question) -> bool:
    """q1 and q2 are orthogonal iff q1 implies the negation of q2."""
    return implies(q1, negate(q2))


def same_question(q1: Question, q2: Question) -> bool:
    """Subspace equality: equal ranks and one inclusion, which for equal ranks
    implies the other."""
    return q1.rank == q2.rank and implies(q1, q2)


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
        if not orthonormality_defect(b) <= ATOL:
            raise ValueError(f"family {self.label!r}: basis is not unitary")
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def _atom_index(self, i) -> int:
        """i read by ``operator.index``, if it is an atom's index in [0, dim)."""
        try:
            index = operator.index(i)
        except TypeError:
            index = -1
        if not 0 <= index < self.dim:
            raise IndexOutOfRange(
                f"atom index {i} outside [0, {self.dim}) of family {self.label!r}")
        return index

    def column(self, i: int) -> np.ndarray:
        return self.basis[:, self._atom_index(i)]

    def atom(self, i: int) -> Question:
        i = self._atom_index(i)
        return _computed(self.basis[:, i:i + 1])

    @classmethod
    def computational(cls, dim: int) -> "CompleteFamily":
        return cls(np.eye(dim, dtype=complex), "computational")

    @classmethod
    def hadamard(cls) -> "CompleteFamily":
        return cls(np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2), "hadamard")

    @classmethod
    def fourier(cls, dim: int) -> "CompleteFamily":
        k = np.arange(dim)
        return cls(np.exp(2j * np.pi * np.outer(k, k) / dim) / np.sqrt(dim), "fourier")

    def __repr__(self):
        return f"CompleteFamily(label={self.label!r}, dim={self.dim})"


@dataclass(frozen=True)
class AnswerString:
    """Ordered yes/no answers."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.bits):  # before int(), which reads 0.5 as 0
            raise ValueError(f"answer bits must be 0 or 1, got {tuple(self.bits)!r}")
        object.__setattr__(self, "bits", tuple(int(b) for b in self.bits))


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
        out.append(_computed(f.basis[:, cols]))
    return out


def ask_sequence(state: StateVector, questions, seed: int):
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
        coords = q.basis.conj().T @ amps
        p_yes = min(float(np.linalg.norm(coords) ** 2), 1.0)
        bit = 1 if sample_index(np.array([1.0 - p_yes, p_yes]), rng) else 0
        inside = q.basis @ coords
        branch = inside if bit else amps - inside
        weight = np.linalg.norm(branch)
        if weight <= 1e-12:
            raise ZeroBranch("sampled a branch of zero weight")
        amps = branch / weight
        bits.append(bit)
    return AnswerString(tuple(bits)), StateVector(amps, state.dim_factors, state.relative_to)


def random_question(dim: int, rank: int, rng: np.random.Generator) -> Question:
    """Haar-random subspace of the given rank."""
    if not 0 <= rank <= dim:
        raise ValueError(f"rank {rank} outside [0, {dim}]")
    if rank == 0:
        return Question.never(dim)
    return _computed(haar_unitary(dim, rng)[:, :rank])
