"""One measurement, two correct accounts.

A qubit S in the superposition 0.6|1> + 0.8|2> is measured by a pointer O.
Relative to O the state jumps to an eigenvector.  Relative to an external
observer P the same interaction is a unitary that entangles S with O -- and
P can verify *that* a measurement happened without knowing its outcome, by
asking the correlation question M.
"""

import numpy as np

from relaqm import (
    StateVector,
    collapse_description,
    completion_probability,
    consistency_check,
    entangling_description,
    premeasurement_unitary,
    standard_setup,
    tensor,
)

setup = standard_setup(system_dim=2, pointer_dim=2)
psi = StateVector([0.6, 0.8], (2,), relative_to="O")

print("== the account relative to O (collapse) ==")
for seed in range(5):
    value, post = collapse_description(setup, psi, outcome_seed=seed)
    print(f"  seed {seed}: outcome q={value}, post state {np.round(post.amplitudes, 3)}")

print("\n== the account relative to P (unitary entanglement) ==")
entangled = entangling_description(setup, psi)
print(f"  joint state of S-O: {np.round(entangled.amplitudes, 3)}")
print(f"  (0.6|1,O1> + 0.8|2,O2>: the pointer is correlated, no outcome chosen)")

u = premeasurement_unitary(setup)
via_unitary = np.kron(psi.amplitudes, setup.pointer_ready)
print(f"  same thing via the interaction unitary: "
      f"{np.allclose(u.matrix @ via_unitary, entangled.amplitudes)}")

print("\n== P asks: has a measurement happened? ==")
print(f"  <M> on the entangled state  = {completion_probability(entangled, setup):.6f}")
half = tensor(StateVector([1, 0], (2,), "P"),
              StateVector([np.cos(np.pi / 4), np.sin(np.pi / 4)], (2,), "P"))
print(f"  <M> with the pointer only halfway rotated = "
      f"{completion_probability(half, setup):.6f}")
print("  (there is no half-a-measurement, only probability 1/2 that it is done)")

print("\n== consistency: P measures q, then the pointer ==")
agreements = sum(consistency_check(entangled, setup, seed)[0] for seed in range(1000))
print(f"  outcomes agree in {agreements}/1000 seeded runs")
