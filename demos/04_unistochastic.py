"""Which doubly stochastic matrices come from a unitary?

Every 2x2 doubly stochastic matrix is |U|^2 for some unitary U.  From 3x3 on
that is no longer true: the matrix with 1/2 on all off-diagonal entries is
doubly stochastic but no unitary realizes it.  The multi-start projection
search certifies feasible cases with residuals near machine precision and
stalls uniformly on the infeasible witness, in agreement with the analytic
chain-links (triangle) criterion.
"""

import numpy as np

from relaqm import (
    haar_unitary,
    phase_fix,
    triangle_criterion_3x3,
    unistochastic_search,
)

print("== recovering moduli of random unitaries ==")
rng = np.random.default_rng(1)
for dim in (2, 3, 4):
    target = np.abs(haar_unitary(dim, rng)) ** 2
    result = unistochastic_search(target, seed=dim)
    print(f"  dim {dim}: residual {result.residual:.2e}  -> {result.verdict}")

print("\n== every 2x2 doubly stochastic matrix is unistochastic ==")
t = 0.36
result = unistochastic_search([[t, 1 - t], [1 - t, t]], seed=0)
print(f"  [[{t}, {1-t}], [{1-t}, {t}]]: residual {result.residual:.2e}")
print(f"  a realizing unitary (gauge-fixed):\n{np.round(phase_fix(result.U), 6)}")

print("\n== the 3x3 witness that no unitary realizes ==")
witness = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
result = unistochastic_search(witness, seed=0)
print(f"  best residual over 64 starts: {result.residual:.4f}")
print(f"  worst start residual:         {result.start_residuals.max():.4f}")
print(f"  verdict: {result.verdict}")
print(f"  triangle criterion agrees: satisfied={triangle_criterion_3x3(witness)}")
print("  (rows 1,2 give link moduli (0, 0, 1/2): no triangle closes)")
