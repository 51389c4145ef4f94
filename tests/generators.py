"""Seeded random inputs for the tests, beside the oracle.

Each draws from the generator it is given, in a fixed order, so a test's
inputs are reproduced by its seed.  A Haar-random complete family is
``CompleteFamily(haar_unitary(dim, rng), label)``.
"""

import numpy as np


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly random unit vector (amplitudes only, untagged)."""
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (z + z.conj().T) / 2
