"""Transition kernels and the interference that refuses to be classical.

Probabilities between two complete families form a doubly stochastic matrix
realized by a unitary, p = |U|^2.  Kernels compose through U, not through p:
the Hadamard kernel composed with itself gives the identity, while the
probability matrices alone would predict a flat coin.  The composite-question
probabilities quantify the mismatch.
"""

import numpy as np

from relaqm import (
    CompleteFamily,
    TransitionKernel,
    classical_composite_probability,
    compose,
    composite_probability,
    interference_gap,
    kernel_from_families,
    verify_double_stochastic,
)

comp = CompleteFamily.computational(2)
had = CompleteFamily.hadamard()

print("== the qubit kernel between the computational and Hadamard families ==")
k = kernel_from_families(comp, had)
print(f"  p =\n{k.p}")
print(f"  doubly stochastic: {verify_double_stochastic(k.p)}")

print("\n== composite questions: through j OR k coherently ==")
composite = composite_probability(k, 0, (0, 1))
classical = classical_composite_probability(k, 0, (0, 1))
print(f"  coherent value   {composite:.6f}")
print(f"  incoherent value {classical:.6f}")
print(f"  interference gap {composite - classical:+.6f}")

print("\n== classical kernels carry no interference ==")
perm = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=complex)
perm_kernel = TransitionKernel(np.abs(perm) ** 2, to_family="a", from_family="b", U=perm)
gaps = [interference_gap(perm_kernel, i, (j, j2))
        for i in range(3) for j in range(3) for j2 in range(j + 1, 3)]
print(f"  3-cycle permutation kernel: max |gap| over all triples = {max(map(abs, gaps))}")

print("\n== composition goes through amplitudes, not probabilities ==")
forward = kernel_from_families(comp, had)   # computational <- hadamard
backward = kernel_from_families(had, comp)  # hadamard <- computational
chained = compose(forward, backward)
print(f"  |U_ab U_bc|^2 =\n{np.round(chained.p, 12)}")
print(f"  p_ab p_bc     =\n{forward.p @ backward.p}")
print("  the first is the identity (interference restores certainty);")
print("  the second is the flat matrix a classical chain would give.")
