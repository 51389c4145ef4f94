"""The two descriptions of one measurement, and the correlation check.

A measurement of a system variable by a pointer admits two equally correct
accounts.  Relative to the measuring observer the state jumps to an
eigenvector with Born-rule statistics (:func:`collapse_description`).
Relative to an external observer the same interaction is a unitary that
correlates system eigenstates with pointer marks, producing an entangled
superposition (:func:`entangling_description`).  The external observer can
still certify that a measurement happened: the projector built by
:func:`correlation_operator` asks "is the pointer correctly correlated with
the measured variable?", and its expectation value
(:func:`completion_probability`) is the probability that this verification
answers yes.  The two accounts never contradict each other on outcome
statistics, which :func:`consistency_check` verifies by sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .hilbert import (
    ATOL,
    Operator,
    StateVector,
    basis_state,
    orthonormality_defect,
    sample_index,
)
from .questions import CompleteFamily

__all__ = [
    "MeasurementSetup",
    "collapse_description",
    "entangling_description",
    "premeasurement_unitary",
    "correlation_operator",
    "completion_probability",
    "consistency_check",
    "standard_setup",
]


@dataclass(frozen=True, eq=False)
class MeasurementSetup:
    """System eigenbasis plus the pointer states that will record the outcome.

    ``pointer_marks[i]`` is the pointer state meaning "the hand points at
    mark i"; ``pointer_ready`` is the pre-measurement pointer state.  Marks
    must be pairwise orthonormal and there must be one per system basis
    vector, so the pointer space can be larger than the system space but not
    smaller.
    """

    system_basis: CompleteFamily
    pointer_ready: StateVector
    pointer_marks: tuple[StateVector, ...]

    def __post_init__(self):
        object.__setattr__(self, "pointer_marks", tuple(self.pointer_marks))
        marks = self.pointer_marks
        if len(marks) != self.system_basis.dim:
            raise ValueError(
                f"{len(marks)} pointer marks for a dim-{self.system_basis.dim} system")
        pointer_dim = self.pointer_ready.dim
        if pointer_dim < self.system_basis.dim:
            raise ValueError(
                f"pointer dim {pointer_dim} smaller than system dim {self.system_basis.dim}")
        mark_matrix = self.mark_matrix()
        if mark_matrix.shape[0] != pointer_dim:
            raise DimensionMismatch("pointer marks and ready state have different dims")
        if orthonormality_defect(mark_matrix) > ATOL:
            raise ValueError("pointer marks are not pairwise orthonormal")

    @property
    def system_dim(self) -> int:
        return self.system_basis.dim

    @property
    def pointer_dim(self) -> int:
        return self.pointer_ready.dim

    @property
    def total_dim(self) -> int:
        return self.system_dim * self.pointer_dim

    def mark_matrix(self) -> np.ndarray:
        return np.column_stack([m.amplitudes for m in self.pointer_marks])


def standard_setup(system_dim: int, pointer_dim: int | None = None,
                   system_basis: CompleteFamily | None = None,
                   tag: str = "setup") -> MeasurementSetup:
    """Computational-basis setup: ready state e_0, marks e_0..e_{d-1}.

    The mark phases are a modeling choice; computational basis states are
    used throughout the package.
    """
    pointer_dim = pointer_dim or system_dim
    if pointer_dim < system_dim:
        raise ValueError(
            f"pointer dim {pointer_dim} smaller than system dim {system_dim}")
    basis = system_basis or CompleteFamily.computational(system_dim)
    marks = tuple(basis_state(pointer_dim, i, tag) for i in range(system_dim))
    return MeasurementSetup(basis, basis_state(pointer_dim, 0, tag), marks)


def _system_amplitudes(setup: MeasurementSetup, psi: StateVector) -> np.ndarray:
    if psi.dim != setup.system_dim:
        raise DimensionMismatch(
            f"state dim {psi.dim} but the measured system has dim {setup.system_dim}")
    return setup.system_basis.basis.conj().T @ psi.amplitudes


def collapse_description(setup: MeasurementSetup, psi: StateVector,
                         outcome_seed: int) -> tuple[int, StateVector]:
    """The account relative to the measuring observer.

    Samples an outcome with Born weight and returns ``(value, post_state)``
    where the value is the 1-based basis index and the post state is the
    corresponding eigenvector, tagged like the input.
    """
    coeffs = _system_amplitudes(setup, psi)
    probs = np.abs(coeffs) ** 2
    i = sample_index(probs, np.random.default_rng(outcome_seed))
    post = StateVector(setup.system_basis.column(i), psi.dim_factors, psi.relative_to)
    return i + 1, post


def entangling_description(setup: MeasurementSetup, psi: StateVector) -> StateVector:
    """The account relative to an external observer: sum_i a_i |i>|mark_i>.

    Deterministic, and equal to the premeasurement unitary applied to
    psi ⊗ ready.
    """
    coeffs = _system_amplitudes(setup, psi)
    out = np.zeros(setup.total_dim, dtype=complex)
    for i, a in enumerate(coeffs):
        out += a * np.kron(setup.system_basis.column(i),
                           setup.pointer_marks[i].amplitudes)
    return StateVector(out, (setup.system_dim, setup.pointer_dim), psi.relative_to)


def _extend_to_basis(columns: np.ndarray) -> np.ndarray:
    """Deterministically extend orthonormal columns to a full basis.

    Sweeps the canonical basis vectors in order, keeping each one's component
    orthogonal to everything accepted so far (re-orthogonalized twice for
    numerical hygiene).
    """
    dim, r = columns.shape
    full = np.zeros((dim, dim), dtype=complex)
    full[:, :r] = columns
    count = r
    for k in range(dim):
        if count == dim:
            break
        v = np.zeros(dim, dtype=complex)
        v[k] = 1.0
        for _ in range(2):
            v = v - full[:, :count] @ (full[:, :count].conj().T @ v)
        norm = np.linalg.norm(v)
        if norm > 1e-7:
            full[:, count] = v / norm
            count += 1
    if count != dim:
        raise RuntimeError("basis completion failed")  # cannot happen for orthonormal input
    return full


def premeasurement_unitary(setup: MeasurementSetup) -> Operator:
    """The interaction unitary mapping |i> ⊗ ready to |i> ⊗ mark_i.

    Only the action on the physical subspace span{|i> ⊗ ready} is fixed;
    both domain and image are extended to full bases by deterministic
    Gram-Schmidt sweeps and paired in order.
    """
    d_s, d_o = setup.system_dim, setup.pointer_dim
    domain = np.column_stack([
        np.kron(setup.system_basis.column(i), setup.pointer_ready.amplitudes)
        for i in range(d_s)
    ])
    image = np.column_stack([
        np.kron(setup.system_basis.column(i), setup.pointer_marks[i].amplitudes)
        for i in range(d_s)
    ])
    domain_full = _extend_to_basis(domain)
    image_full = _extend_to_basis(image)
    u = image_full @ domain_full.conj().T
    return Operator(u, (d_s, d_o))


def correlation_operator(setup: MeasurementSetup) -> Operator:
    """The projector asking "is the pointer correctly correlated with q?".

    M = sum_i |i><i| ⊗ |mark_i><mark_i|; eigenvalue 1 exactly on correctly
    correlated states, 0 on misprinted ones.
    """
    d_s, d_o = setup.system_dim, setup.pointer_dim
    m = np.zeros((d_s * d_o, d_s * d_o), dtype=complex)
    for i in range(d_s):
        col = setup.system_basis.column(i)
        mark = setup.pointer_marks[i].amplitudes
        m += np.kron(np.outer(col, col.conj()), np.outer(mark, mark.conj()))
    return Operator(m, (d_s, d_o))


def completion_probability(state: StateVector, setup: MeasurementSetup) -> float:
    """Probability that the verification question "has a measurement
    happened?" answers yes on a joint system-pointer state.

    Equals 1 exactly when the state is correctly correlated; imperfect
    correlation means a smaller-than-1 chance the measurement is complete,
    never half a measurement.
    """
    if state.dim != setup.total_dim:
        raise DimensionMismatch(
            f"state dim {state.dim}, setup needs {setup.total_dim}")
    m = correlation_operator(setup)
    value = float(np.linalg.norm(m.matrix @ state.amplitudes) ** 2)
    return min(value, 1.0)


def consistency_check(state: StateVector, setup: MeasurementSetup,
                      seed: int) -> tuple[bool, dict]:
    """Measure the system variable, then the pointer, and compare.

    The external observer samples q on the joint state, collapses, then
    samples the pointer on the collapsed state.  On any correctly correlated
    state the two outcomes agree for every seed.  Returns the verdict and a
    transcript of both draws.
    """
    if state.dim != setup.total_dim:
        raise DimensionMismatch(
            f"state dim {state.dim}, setup needs {setup.total_dim}")
    rng = np.random.default_rng(seed)
    d_s, d_o = setup.system_dim, setup.pointer_dim
    amps = state.amplitudes.reshape(d_s, d_o)

    # q measurement: project onto system eigenvectors
    sys_coeffs = setup.system_basis.basis.conj().T @ amps  # rows: outcome i
    q_probs = np.sum(np.abs(sys_coeffs) ** 2, axis=1)
    q_out = sample_index(q_probs, rng)
    collapsed = np.outer(setup.system_basis.column(q_out), sys_coeffs[q_out])
    collapsed /= np.linalg.norm(collapsed)

    # pointer measurement on the collapsed state; a residual bucket covers
    # pointer components outside the marks when the pointer space is larger
    mark_matrix = setup.mark_matrix()
    pointer_coeffs = collapsed @ np.conj(mark_matrix)  # (d_s, n_marks)
    pointer_probs = np.sum(np.abs(pointer_coeffs) ** 2, axis=0)
    residual = max(1.0 - float(pointer_probs.sum()), 0.0)
    pointer_out = sample_index(np.append(pointer_probs, residual), rng)
    on_mark = pointer_out < len(setup.pointer_marks)

    agree = bool(on_mark and pointer_out == q_out)
    transcript = {
        "q_outcome": q_out + 1,
        "q_probs": q_probs.tolist(),
        "pointer_outcome": pointer_out + 1 if on_mark else None,
        "pointer_probs": pointer_probs.tolist(),
        "agree": agree,
    }
    return agree, transcript
