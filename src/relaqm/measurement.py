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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .hilbert import (ATOL, Operator, StateVector, _apply_on_factors, _as_complex_vector,
                      _norm, sample_index)
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
    """System eigenbasis plus the pointer's pre-measurement state.

    Outcome i is recorded as the pointer's i-th computational basis state
    |i> ("the hand points at mark i"); ``pointer_ready`` holds the amplitudes
    the pointer starts with, a read-only unit vector.  There must be a mark
    per system basis vector, so the pointer space can be larger than the
    system space but not smaller.
    """

    system_basis: CompleteFamily
    pointer_ready: np.ndarray

    def __post_init__(self):
        ready = _as_complex_vector(self.pointer_ready)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads as inf
            norm = float(np.linalg.norm(ready))
        if not abs(norm - 1.0) <= ATOL:
            raise ValueError(f"pointer ready norm {norm!r} differs from 1 by more than {ATOL}")
        object.__setattr__(self, "pointer_ready", ready)
        if self.pointer_dim < self.system_dim:
            raise ValueError(
                f"pointer dim {self.pointer_dim} smaller than system dim {self.system_dim}")

    @property
    def system_dim(self) -> int:
        return self.system_basis.dim

    @property
    def pointer_dim(self) -> int:
        return self.pointer_ready.size

    @property
    def total_dim(self) -> int:
        return self.system_dim * self.pointer_dim


def standard_setup(system_dim: int, pointer_dim: int | None = None,
                   system_basis: CompleteFamily | None = None) -> MeasurementSetup:
    """Computational-basis setup with the pointer ready in |0>.

    ``system_basis`` replaces the computational basis, and must have
    ``system_dim``.  It is a dense primitive of the independent oracle in
    ``tests/oracle.py``, which reads a completion in the scenario's declared
    family through it."""
    pointer_dim = pointer_dim or system_dim
    basis = system_basis or CompleteFamily.computational(system_dim)
    if basis.dim != system_dim:
        raise DimensionMismatch(
            f"system_basis has dim {basis.dim} but system_dim is {system_dim}")
    ready = np.zeros(pointer_dim, dtype=complex)
    ready[0] = 1.0
    return MeasurementSetup(basis, ready)


def _born_weights(amps: np.ndarray, dims: tuple[int, ...], pos: int,
                  basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Born weights of the family ``basis`` (columns) on factor ``pos`` of a
    state over factors ``dims``, and the state as a tensor whose ``pos`` axis
    is in that basis.  The scenario runner measures its accounts with this
    helper, :func:`_collapse` and :func:`_completion`, as the functions below
    measure a system or a system-pointer pair."""
    tensor = _apply_on_factors(amps, dims, (pos,), basis.conj().T).reshape(dims)
    return (abs(tensor) ** 2).sum(axis=(*range(pos), *range(pos + 1, len(dims)))), tensor


def _collapse(tensor: np.ndarray, dims: tuple[int, ...], pos: int, outcome: int,
              basis: np.ndarray) -> np.ndarray:
    """The normalised state after outcome ``outcome`` on factor ``pos``, from
    the tensor :func:`_born_weights` returns."""
    mask = np.zeros(dims[pos])
    mask[outcome] = 1.0
    shape = [1] * len(dims)
    shape[pos] = dims[pos]
    collapsed = _apply_on_factors((tensor * mask.reshape(shape)).reshape(-1), dims,
                                  (pos,), basis)
    return collapsed / _norm(collapsed)


def _completion(tensor: np.ndarray, system_pos: int, pointer_pos: int) -> float:
    """min(<psi|M|psi>, 1) for M = sum_i |b_i><b_i| ⊗ |i><i| on system and pointer:
    the weight on the two axes' diagonal of the tensor :func:`_born_weights`
    returns, which holds every mark since the pointer is no smaller."""
    diagonal = tensor.diagonal(axis1=system_pos, axis2=pointer_pos)
    return min(float((abs(diagonal) ** 2).sum()), 1.0)


def collapse_description(setup: MeasurementSetup, psi: StateVector,
                         outcome_seed: int) -> tuple[int, StateVector]:
    """The account relative to the measuring observer.

    Samples an outcome with Born weight and returns ``(value, post_state)``
    where the value is the 1-based basis index and the post state is the
    corresponding eigenvector, tagged like the input.
    """
    if psi.dim != setup.system_dim:
        raise DimensionMismatch(
            f"state dim {psi.dim} but the measured system has dim {setup.system_dim}")
    probs, _ = _born_weights(psi.amplitudes, (psi.dim,), 0, setup.system_basis.basis)
    i = sample_index(probs, np.random.default_rng(outcome_seed))
    post = StateVector(setup.system_basis.column(i), psi.dim_factors, psi.relative_to)
    return i + 1, post


def entangling_description(setup: MeasurementSetup, psi: StateVector) -> StateVector:
    """The account relative to an external observer: sum_i a_i |b_i>|i>.

    Deterministic, and equal to the premeasurement unitary applied to
    psi ⊗ ready.
    """
    if psi.dim != setup.system_dim:
        raise DimensionMismatch(
            f"state dim {psi.dim} but the measured system has dim {setup.system_dim}")
    _, coeffs = _born_weights(psi.amplitudes, (psi.dim,), 0, setup.system_basis.basis)
    out = np.zeros((setup.system_dim, setup.pointer_dim), dtype=complex)
    out[:, :setup.system_dim] = setup.system_basis.basis * coeffs
    return StateVector(out.reshape(-1), (setup.system_dim, setup.pointer_dim),
                       psi.relative_to)


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
    """The interaction unitary mapping |b_i> ⊗ ready to |b_i> ⊗ |i>.

    Only the action on the physical subspace span{|i> ⊗ ready} is fixed;
    both domain and image are extended to full bases by deterministic
    Gram-Schmidt sweeps and paired in order.

    The unitary depends only on the family basis and the ready state, so
    setups with the same bytes share one read-only operator.  The two most
    recently used are kept, 32 MiB at d_s·d_o = 1024; a third setup evicts
    the older one, and it is rebuilt on its next use.
    """
    return _premeasurement(setup.system_basis.basis.tobytes(),
                           setup.pointer_ready.tobytes())


# The largest d_s·d_o a scenario may measure on.  A premeasurement is a dense
# (d_s·d_o)^2 unitary with an O((d_s·d_o)^3) completion: at 1024, 16 MiB and
# 10-13 s on a 2-core Xeon.  The memo below keeps the two most recently used,
# so a process holds at most 32 MiB of them, whatever the number of setups.
_MAX_PREMEASUREMENT_DIM = 1024


@functools.lru_cache(maxsize=2)
def _premeasurement(basis_bytes: bytes, ready_bytes: bytes) -> Operator:
    """:func:`premeasurement_unitary` of the complex family basis (C order)
    and ready state with these bytes."""
    ready = np.frombuffer(ready_bytes, dtype=complex)
    basis = np.frombuffer(basis_bytes, dtype=complex)
    basis = basis.reshape(math.isqrt(basis.size), -1)
    domain = np.column_stack([np.kron(b, ready) for b in basis.T])
    marks = np.eye(ready.size, dtype=complex)
    image = np.column_stack([np.kron(b, mark) for b, mark in zip(basis.T, marks)])
    u = _extend_to_basis(image) @ _extend_to_basis(domain).conj().T
    return Operator(u, (len(basis), ready.size))


def correlation_operator(setup: MeasurementSetup) -> Operator:
    """The projector asking "is the pointer correctly correlated with q?".

    M = sum_i |b_i><b_i| ⊗ |i><i|, built densely; eigenvalue 1 exactly on
    correctly correlated states, 0 on misprinted ones.
    :func:`completion_probability` reads <M> without building it.
    """
    d_s, d_o = setup.system_dim, setup.pointer_dim
    m = np.zeros((d_s * d_o, d_s * d_o), dtype=complex)
    for i in range(d_s):
        col = setup.system_basis.column(i)
        mark = np.eye(d_o)[i]
        m += np.kron(np.outer(col, col.conj()), np.outer(mark, mark))
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
    _, tensor = _born_weights(state.amplitudes, (setup.system_dim, setup.pointer_dim), 0,
                              setup.system_basis.basis)
    return _completion(tensor, 0, 1)


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
    dims = (setup.system_dim, setup.pointer_dim)
    basis = setup.system_basis.basis

    # q measurement: Born weights on the system, then collapse
    q_probs, tensor = _born_weights(state.amplitudes, dims, 0, basis)
    q_out = sample_index(q_probs, rng)
    collapsed = _collapse(tensor, dims, 0, q_out, basis).reshape(dims)

    # pointer measurement on the collapsed state, marks |0>..|d_s - 1>; a
    # residual bucket covers the pointer states past the marks
    pointer_probs = np.sum(np.abs(collapsed[:, :setup.system_dim]) ** 2, axis=0)
    residual = max(1.0 - float(pointer_probs.sum()), 0.0)
    pointer_out = sample_index(np.append(pointer_probs, residual), rng)
    on_mark = pointer_out < setup.system_dim

    agree = bool(on_mark and pointer_out == q_out)
    transcript = {
        "q_outcome": q_out + 1,
        "q_probs": q_probs.tolist(),
        "pointer_outcome": pointer_out + 1 if on_mark else None,
        "pointer_probs": pointer_probs.tolist(),
        "agree": agree,
    }
    return agree, transcript
