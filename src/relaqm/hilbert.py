"""Finite-dimensional complex Hilbert-space numerics.

Everything downstream builds on the two value types defined here:

* :class:`StateVector` -- a normalized amplitude vector that always names the
  observer relative to whom it is a description.  The package never
  manipulates an "absolute" state; the tag travels through every operation.
* :class:`Operator` -- a dense square matrix with verified (never trusted)
  structural flags for hermiticity, unitarity and idempotence.

Tensor index convention: row-major (lexicographic), first factor slowest.
``tensor(a, b)`` therefore puts ``a``'s index on the most significant digit,
matching ``numpy.kron``.  This convention is used everywhere in the package.

All values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DimensionMismatch, NotAPartition, TooLarge, ZeroBranch

__all__ = [
    "ATOL",
    "OPT_ATOL",
    "RANK_TOL",
    "StateVector",
    "Operator",
    "orthonormality_defect",
    "tensor",
    "apply",
    "born_probabilities",
    "sample_outcome",
    "sample_index",
    "conditional_state",
    "basis_state",
    "identity",
    "projector_onto",
    "haar_unitary",
    "random_state",
    "random_hermitian",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
]

# Structural checks (norms, unitarity, orthogonality) use ATOL; optimizer
# outputs are accepted at the looser OPT_ATOL; subspace ranks come from
# singular values thresholded at RANK_TOL.  A check that must pass is
# written ``not x <= tol``, so that a NaN fails it (``nan > tol`` is False).
ATOL = 1e-9
OPT_ATOL = 1e-6
RANK_TOL = 1e-7

# The most amplitudes an input may ask for, 2**26 complex128 values (1 GiB),
# read only by _refuse_too_large.  Each rule that calls it passes its own
# count: a scenario's run (RUN_ARRAYS x its accounts), `lattice-check` and
# `unistochastic` their measured peak, and a `kernel` request's family the
# amplitudes it holds.
_MAX_AMPLITUDES = 2**26

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _as_complex_vector(values) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    if arr.ndim != 1:
        raise ValueError(f"amplitudes must be one-dimensional, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def _as_complex_matrix(values) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"operator matrix must be square, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def _refuse_too_large(amplitudes: int, what: str) -> None:
    """Refuse, before anything is allocated, ``what`` holding more than
    _MAX_AMPLITUDES amplitudes with :class:`TooLarge`."""
    if amplitudes > _MAX_AMPLITUDES:
        raise TooLarge(f"{what} would hold {amplitudes} amplitudes, "
                       f"more than the {_MAX_AMPLITUDES} allowed")


def orthonormality_defect(columns: np.ndarray) -> float:
    """Largest entry of ``|B†B - I|`` for the columns of B; 0 when B has none,
    inf or NaN when B†B overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = columns.conj().T @ columns
        gram.flat[::gram.shape[0] + 1] -= 1  # subtract I in place
        return float(np.abs(gram).max(initial=0.0))


@dataclass(frozen=True, eq=False)
class StateVector:
    """A pure state, tagged with the observer it is a description for.

    ``dim_factors`` records the subsystem dimensions whose product equals the
    total dimension, so composite states remember their tensor structure.
    The amplitudes of a freshly constructed state must be normalized to
    within ``ATOL``; sub-normalized vectors appear only as raw projector
    outputs (see :func:`apply`) and are flagged by ``require_normalized=False``.
    """

    amplitudes: np.ndarray
    dim_factors: tuple[int, ...]
    relative_to: str
    require_normalized: InitVar[bool] = True

    def __post_init__(self, require_normalized: bool):
        object.__setattr__(self, "amplitudes", _as_complex_vector(self.amplitudes))
        object.__setattr__(self, "dim_factors", tuple(int(d) for d in self.dim_factors))
        if math.prod(self.dim_factors) != self.amplitudes.size:
            raise ValueError(
                f"dim_factors {self.dim_factors} do not multiply to {self.amplitudes.size}"
            )
        if require_normalized and not abs(self.norm - 1.0) <= ATOL:
            raise ValueError(f"state norm {self.norm!r} differs from 1 by more than {ATOL}")

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @property
    def norm(self) -> float:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads as inf
            return float(np.linalg.norm(self.amplitudes))

    def __repr__(self):
        return (f"StateVector(dim={self.dim}, factors={self.dim_factors}, "
                f"relative_to={self.relative_to!r})")


@dataclass(frozen=True, eq=False)
class Operator:
    """A dense operator whose structural flags are computed, never asserted."""

    matrix: np.ndarray
    dim_factors: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "matrix", _as_complex_matrix(self.matrix))
        object.__setattr__(self, "dim_factors", tuple(int(d) for d in self.dim_factors))
        if math.prod(self.dim_factors) != self.matrix.shape[0]:
            raise ValueError(
                f"dim_factors {self.dim_factors} do not multiply to {self.matrix.shape[0]}"
            )

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def is_hermitian(self) -> bool:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads as inf: not hermitian
            return bool(np.max(np.abs(self.matrix - self.matrix.conj().T)) < ATOL)

    @cached_property
    def is_unitary(self) -> bool:
        return bool(orthonormality_defect(self.matrix) < ATOL)

    @cached_property
    def is_projector(self) -> bool:
        if not self.is_hermitian:
            return False
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads as inf: not a projector
            return bool(np.max(np.abs(self.matrix @ self.matrix - self.matrix)) < ATOL)

    def __repr__(self):
        return f"Operator(dim={self.dim}, factors={self.dim_factors})"


def tensor(a, b):
    """Kronecker product of two states or two operators.

    ``dim_factors`` concatenate; for states the left operand's observer tag
    is kept (tensoring only makes sense within one observer's description).
    """
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector(np.kron(a.amplitudes, b.amplitudes),
                           a.dim_factors + b.dim_factors, a.relative_to)
    if isinstance(a, Operator) and isinstance(b, Operator):
        return Operator(np.kron(a.matrix, b.matrix), a.dim_factors + b.dim_factors)
    raise TypeError(f"tensor needs two values of the same kind, got {type(a)}, {type(b)}")


def apply(op: Operator, s: StateVector) -> StateVector:
    """Apply an operator to a state.

    Unitary operators return a renormalized state (the norm drift must stay
    below ``ATOL``); every other operator returns the raw image, which is in
    general sub-normalized -- its squared norm is the branch weight needed
    for projector statistics.
    """
    if op.dim != s.dim:
        raise DimensionMismatch(f"operator dim {op.dim} vs state dim {s.dim}")
    out = op.matrix @ s.amplitudes
    if op.is_unitary:
        norm = float(np.linalg.norm(out))
        if not abs(norm - 1.0) <= ATOL:
            raise ValueError(f"unitary application drifted norm to {norm!r}")
        out = out / norm
        return StateVector(out, s.dim_factors, s.relative_to)
    return StateVector(out, s.dim_factors, s.relative_to, require_normalized=False)


@lru_cache(maxsize=1024)
def _axis_plan(dims: tuple[int, ...], positions: tuple[int, ...]):
    """The axis order that puts ``positions`` first, its inverse, the moved
    head's size and the moved shape, for :func:`_apply_on_factors`; kept,
    since a run applies to the same few factor sets at every event."""
    order = positions + tuple(ax for ax in range(len(dims)) if ax not in positions)
    inverse = [0] * len(order)
    for i, ax in enumerate(order):
        inverse[ax] = i
    return order, tuple(inverse), math.prod(dims[p] for p in positions), tuple(
        dims[ax] for ax in order)


def _apply_on_factors(amps: np.ndarray, dims: tuple[int, ...],
                      positions: tuple[int, ...], op: np.ndarray) -> np.ndarray:
    """Apply an operator to selected tensor factors (identity elsewhere).

    Holds at most two arrays of the state's size: the moved copy is released
    when the product is bound, before the product is moved back."""
    order, inverse, head, shape = _axis_plan(dims, positions)
    moved = amps.reshape(dims).transpose(order).reshape(head, -1)
    moved = op @ moved
    return moved.reshape(shape).transpose(inverse).reshape(-1)


def _norm(vec: np.ndarray) -> float:
    """``np.linalg.norm`` of a complex vector, bit for bit: the same two real
    dot products and square root, without its Python-level dispatch."""
    re, im = vec.real, vec.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _check_partition(partition: list[Operator] | tuple[Operator, ...], dim: int) -> None:
    total = np.zeros((dim, dim), dtype=complex)
    for i, p in enumerate(partition):
        if p.dim != dim:
            raise DimensionMismatch(f"projector {i} has dim {p.dim}, expected {dim}")
        if not p.is_projector:
            raise NotAPartition(f"element {i} is not a projector")
        total += p.matrix
    if not np.max(np.abs(total - np.eye(dim))) <= ATOL:
        raise NotAPartition("projectors do not sum to the identity")
    for i in range(len(partition)):
        for j in range(i + 1, len(partition)):
            if not np.max(np.abs(partition[i].matrix @ partition[j].matrix)) <= ATOL:
                raise NotAPartition(f"projectors {i} and {j} are not orthogonal")


def born_probabilities(s: StateVector, partition) -> np.ndarray:
    """Born weights ``p_i = ||P_i s||^2`` for a complete orthogonal partition."""
    partition = list(partition)
    _check_partition(partition, s.dim)
    probs = np.array([float(np.linalg.norm(p.matrix @ s.amplitudes) ** 2)
                      for p in partition])
    return probs


def sample_index(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Draw one outcome index by inverse-CDF using a single uniform draw."""
    cdf = np.cumsum(probs)
    u = rng.random() * cdf[-1]
    return min(int(np.searchsorted(cdf, u, side="right")), len(probs) - 1)


def sample_outcome(probs, rng_seed: int) -> int:
    """Sample an outcome index from a probability vector, reproducibly.

    The seed is part of the call so runs are bit-for-bit repeatable given the
    same seed and draw order.
    """
    probs = np.asarray(probs, dtype=float)
    if not abs(probs.sum() - 1.0) <= ATOL:
        raise ValueError(f"probabilities sum to {probs.sum()!r}, not 1")
    return sample_index(probs, np.random.default_rng(rng_seed))


def conditional_state(s: StateVector, p: Operator) -> StateVector:
    """Project onto a branch and renormalize, keeping the observer tag."""
    if p.dim != s.dim:
        raise DimensionMismatch(f"projector dim {p.dim} vs state dim {s.dim}")
    out = p.matrix @ s.amplitudes
    weight = float(np.linalg.norm(out))
    if weight <= 1e-12:
        raise ZeroBranch("conditioning on a branch of zero weight")
    return StateVector(out / weight, s.dim_factors, s.relative_to)


def basis_state(dim: int, index: int, relative_to: str) -> StateVector:
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return StateVector(amps, (dim,), relative_to)


def identity(dim: int) -> Operator:
    return Operator(np.eye(dim, dtype=complex), (dim,))


def projector_onto(columns: np.ndarray,
                   dim_factors: tuple[int, ...] | None = None) -> Operator:
    """Projector ``B B†`` onto the span of orthonormal columns."""
    cols = np.atleast_2d(np.asarray(columns, dtype=complex))
    if cols.shape[0] == 1 and cols.shape[1] > 1:
        cols = cols.T  # a single vector was passed
    return Operator(cols @ cols.conj().T, dim_factors or (cols.shape[0],))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly random unit vector (amplitudes only, untagged)."""
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (z + z.conj().T) / 2
