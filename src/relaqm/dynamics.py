"""Heisenberg-picture dynamics: questions evolve, states can too.

Time evolution is a symmetry of the question lattice, so the questions at
two times are related by conjugation with a unitary propagator
U(t) = exp(-i t H) generated by a self-adjoint Hamiltonian (hbar = 1).
The propagators form an abelian one-parameter group.  Conjugation preserves
ranks, spectra and all lattice relations; moving the evolution onto states
instead (the Schrodinger picture) predicts identical probabilities.

The exponential is computed by hermitian eigendecomposition, which keeps
the propagator unitary to machine precision at the small dimensions used
here.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotHermitian, PreconditionViolated
from .hilbert import ATOL, Operator, StateVector, apply
from .questions import Question

__all__ = ["propagator", "heisenberg_evolve", "schrodinger_evolve"]


def propagator(h: Operator, t: float) -> Operator:
    """The unitary exp(-i t H) of a hermitian H, built via eigendecomposition
    and verified unitary."""
    if not h.is_hermitian:
        raise NotHermitian("propagator needs a hermitian Hamiltonian")
    w, v = np.linalg.eigh(h.matrix)
    u = (v * np.exp(-1j * t * w)) @ v.conj().T
    op = Operator(u, h.dim_factors)
    if not op.is_unitary:
        raise ValueError(f"propagator drifted from unitarity beyond {ATOL}")
    return op


def _require_propagator(u: Operator, dim: int, what: str) -> None:
    if dim != u.dim:
        raise DimensionMismatch(f"{what} dim {dim} vs propagator dim {u.dim}")
    if not u.is_unitary:
        raise PreconditionViolated("evolution needs a unitary propagator")


def heisenberg_evolve(q: Question, u: Operator) -> Question:
    """Conjugate a question: its subspace basis is mapped by the unitary u.

    Rank is preserved, and so is every lattice relation among a family of
    questions -- evolution is an isomorphism of the question lattice.
    """
    _require_propagator(u, q.ambient_dim, "question")
    return Question(u.matrix @ q.basis)


def schrodinger_evolve(s: StateVector, u: Operator) -> StateVector:
    """Evolve the state instead of the question.

    Dual to :func:`heisenberg_evolve`: the Born probability of an evolved
    question on a fixed state equals that of the fixed question on the
    inverse-evolved state.
    """
    _require_propagator(u, s.dim, "state")
    return apply(u, s)
