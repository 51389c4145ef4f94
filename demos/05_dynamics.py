"""Dynamics as a symmetry of the question lattice.

Questions asked at different times are related by conjugation with the
propagator U(t) = exp(-i t H); the propagators form an abelian group, and
moving the evolution onto the state (the Schrodinger picture) changes no
probability.
"""

import numpy as np

from relaqm import (
    Operator,
    Question,
    StateVector,
    heisenberg_evolve,
    propagator,
    schrodinger_evolve,
)
from relaqm.hilbert import PAULI_X

h = Operator(PAULI_X, (2,))

print("== the abelian group of propagators ==")
u1 = propagator(h, 0.4).matrix
u2 = propagator(h, 1.1).matrix
u12 = propagator(h, 1.5).matrix
print(f"  ||U(0.4) U(1.1) - U(1.5)|| = {np.max(np.abs(u1 @ u2 - u12)):.2e}")
print(f"  ||U(t) U(-t) - 1||         = "
      f"{np.max(np.abs(u1 @ propagator(h, -0.4).matrix - np.eye(2))):.2e}")

print("\n== a half period of the Pauli-X Hamiltonian flips the qubit ==")
prop = propagator(h, np.pi / 2)
state = StateVector([1, 0], (2,), relative_to="O")
evolved = schrodinger_evolve(state, prop)
print(f"  |1> evolves to {np.round(evolved.amplitudes, 6)}  "
      f"(= -i|2>, i.e. |2> up to a global phase)")

print("\n== Heisenberg vs Schrodinger: same probabilities ==")
q = Question.ray([1, 0])
p_heis = np.linalg.norm(
    heisenberg_evolve(q, prop).basis.conj().T @ state.amplitudes) ** 2
p_schr = np.linalg.norm(
    q.basis.conj().T @ schrodinger_evolve(state, propagator(h, -np.pi / 2)).amplitudes) ** 2
print(f"  evolved question on the fixed state:      {p_heis:.12f}")
print(f"  fixed question on the counter-evolved state: {p_schr:.12f}")
