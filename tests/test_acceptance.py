"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned here and nothing is deferred to later
calibration.
"""

import functools
import itertools
import subprocess
import sys

import numpy as np
import pytest
from generators import random_hermitian, random_state

from relaqm.dynamics import heisenberg_evolve, propagator, schrodinger_evolve
from relaqm.hilbert import (
    Operator,
    StateVector,
    basis_state,
    born_probabilities,
    haar_unitary,
    projector_onto,
    tensor,
)
from relaqm.kernels import (
    TransitionKernel,
    classical_composite_probability,
    composite_probability,
    kernel_from_families,
    triangle_criterion_3x3,
    unistochastic_search,
    verify_double_stochastic,
)
from relaqm.measurement import (
    completion_probability,
    correlation_operator,
    entangling_description,
    standard_setup,
)
from relaqm.questions import (
    CompleteFamily,
    Question,
    ask_sequence,
    boolean_algebra,
    complete_questions,
    implies,
    join,
    meet,
    negate,
    orthomodular_check,
    random_question,
    same_question,
)
from relaqm.scenario import fixture_path

INV_SQRT2 = 1 / np.sqrt(2)


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d}: FAIL  {description}")
                raise
            print(f"criterion {number:2d}: PASS  {description}")
        return wrapper
    return decorate


@criterion(1, "entangled description and its q-marginal for alpha=beta=1/sqrt2")
def test_criterion_01_entangled_description():
    setup = standard_setup(2, 2)
    psi = StateVector([INV_SQRT2, INV_SQRT2], (2,), "P")
    ent = entangling_description(setup, psi)
    expected = np.array([INV_SQRT2, 0.0, 0.0, INV_SQRT2])
    assert np.max(np.abs(ent.amplitudes - expected)) < 1e-12
    partial = [projector_onto(np.kron(np.eye(2)[:, i:i + 1], np.eye(2)), (2, 2))
               for i in range(2)]
    marginal = born_probabilities(ent, partial)
    assert np.max(np.abs(marginal - [0.5, 0.5])) < 1e-12


@criterion(2, "correlation projector defining relations and unit expectation")
def test_criterion_02_correlation_operator():
    setup = standard_setup(2, 2)
    m = correlation_operator(setup).matrix
    assert np.array_equal(np.unique(m), [0.0, 1.0])
    e = np.eye(4)
    np.testing.assert_array_equal(m @ e[:, 0], e[:, 0])   # |1 O1> kept
    np.testing.assert_array_equal(m @ e[:, 1], np.zeros(4))  # |1 O2> killed
    np.testing.assert_array_equal(m @ e[:, 3], e[:, 3])   # |2 O2> kept
    np.testing.assert_array_equal(m @ e[:, 2], np.zeros(4))  # |2 O1> killed
    psi = StateVector([INV_SQRT2, INV_SQRT2], (2,), "P")
    ent = entangling_description(setup, psi)
    assert abs(completion_probability(ent, setup) - 1.0) < 1e-12


@criterion(3, "partial correlation: completion equals cos^2(theta) on a 100-point grid")
def test_criterion_03_partial_correlation():
    setup = standard_setup(2, 2)
    thetas = np.append(np.linspace(0.0, np.pi / 2, 99), np.pi / 4)
    for theta in thetas:
        pointer = StateVector([np.cos(theta), np.sin(theta)], (2,), "P")
        state = tensor(basis_state(2, 0, "P"), pointer)
        value = completion_probability(state, setup)
        assert abs(value - np.cos(theta) ** 2) < 1e-12
    halfway = completion_probability(
        tensor(basis_state(2, 0, "P"),
               StateVector([np.cos(np.pi / 4), np.sin(np.pi / 4)], (2,), "P")),
        setup)
    assert abs(halfway - 0.5) < 1e-12


@criterion(4, "kernel constraints and reverse-transpose symmetry, 1000 random pairs")
def test_criterion_04_kernel_constraints():
    rng = np.random.default_rng(2026)
    for trial in range(1000):
        dim = 2 + trial % 5
        b = CompleteFamily(haar_unitary(dim, rng), "b")
        c = CompleteFamily(haar_unitary(dim, rng), "c")
        kernel = kernel_from_families(b, c)
        assert verify_double_stochastic(kernel.p).max_violation < 1e-9
        reverse = kernel_from_families(c, b)
        assert np.max(np.abs(reverse.p - kernel.p.T)) < 1e-9


@criterion(5, "interference gap: 1/2 for the Hadamard pair, 0 for permutations")
def test_criterion_05_interference():
    kernel = kernel_from_families(CompleteFamily.computational(2),
                                  CompleteFamily.hadamard())
    composite = composite_probability(kernel, 0, (0, 1))
    classical = classical_composite_probability(kernel, 0, (0, 1))
    assert abs(composite - 1.0) < 1e-12
    assert abs(classical - 0.5) < 1e-12
    assert abs((composite - classical) - 0.5) < 1e-12
    perms = [np.eye(3)[list(p)] for p in itertools.permutations(range(3))]
    perms.append(np.eye(4)[[1, 2, 3, 0]])
    for perm in perms:
        u = perm.astype(complex)
        dim = u.shape[0]
        perm_kernel = TransitionKernel(u, to_family="b", from_family="c")
        for i in range(dim):
            for j, k in itertools.combinations(range(dim), 2):
                gap = (composite_probability(perm_kernel, i, (j, k))
                       - classical_composite_probability(perm_kernel, i, (j, k)))
                assert abs(gap) < 1e-12


@criterion(6, "composite probability equals the projective-sequence oracle, dims 2-4")
def test_criterion_06_oracle_equivalence():
    rng = np.random.default_rng(6)
    for dim in (2, 3, 4):
        for _ in range(25):
            b = CompleteFamily(haar_unitary(dim, rng), "b")
            c = CompleteFamily(haar_unitary(dim, rng), "c")
            kernel = kernel_from_families(b, c)
            for i in range(dim):
                b_i = b.basis[:, i]
                p_i = np.outer(b_i, b_i.conj())
                for j, k in itertools.combinations(range(dim), 2):
                    p_jk = (np.outer(c.basis[:, j], c.basis[:, j].conj())
                            + np.outer(c.basis[:, k], c.basis[:, k].conj()))
                    oracle = float(np.linalg.norm(p_i @ (p_jk @ b_i)) ** 2)
                    assert abs(composite_probability(kernel, i, (j, k)) - oracle) < 1e-9


@criterion(7, "unistochastic search: recovery in dims 2-3 and the 3x3 witness rejection")
def test_criterion_07_unistochastic_search():
    rng = np.random.default_rng(7)
    for trial in range(100):
        dim = 2 + trial % 2
        target = np.abs(haar_unitary(dim, rng)) ** 2
        result = unistochastic_search(target, seed=trial)
        assert result.residual < 1e-6
    witness = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
    result = unistochastic_search(witness, seed=0)
    assert result.start_residuals.size == 64
    assert np.min(result.start_residuals) > 1e-2
    analytic = triangle_criterion_3x3(witness)
    assert analytic is False
    assert (result.verdict == "non-unistochastic") == (not analytic)


@criterion(8, "orthomodularity, the non-distributivity witness, Boolean distributivity")
def test_criterion_08_lattice_suite():
    rng = np.random.default_rng(8)
    for _ in range(500):
        dim = int(rng.integers(2, 7))
        small = random_question(dim, int(rng.integers(0, dim)), rng)
        big = join(small, random_question(dim, int(rng.integers(0, dim)), rng))
        assert implies(small, big)
        assert orthomodular_check(small, big)

    q = Question.ray(np.array([1.0, 0.0]))
    r = Question.ray(np.array([INV_SQRT2, INV_SQRT2]))
    s = negate(r)
    lhs = meet(q, join(r, s))
    rhs = join(meet(q, r), meet(q, s))
    assert not same_question(lhs, rhs)  # the lattice is not Boolean

    for dim in (2, 3, 4):
        algebra = boolean_algebra(CompleteFamily(haar_unitary(dim, rng), "c"))
        for a in algebra:
            for b in algebra:
                for c in algebra:
                    assert same_question(meet(a, join(b, c)),
                                         join(meet(a, b), meet(a, c)))


@criterion(9, "limited information inside the algebra, fresh randomness outside it")
def test_criterion_09_information_limits():
    rng = np.random.default_rng(9)
    fam = CompleteFamily(haar_unitary(4, rng), "c")
    algebra = boolean_algebra(fam)
    start = StateVector(random_state(4, rng), (4,), "O")
    atoms = complete_questions(fam)
    for seed in range(1000):
        _, post = ask_sequence(start, atoms, seed)
        for q in algebra:
            p_yes = float(np.linalg.norm(q.basis.conj().T @ post.amplitudes) ** 2)
            assert p_yes < 1e-9 or p_yes > 1.0 - 1e-9

    unbiased = Question.ray((fam.column(0) + fam.column(1)) * INV_SQRT2)
    prepared = StateVector(fam.column(0), (4,), "O")
    yes = sum(ask_sequence(prepared, [unbiased], seed)[0].bits[0]
              for seed in range(10_000))
    assert 0.45 <= yes / 10_000 <= 0.55


@criterion(10, "dynamics: group law, spectrum preservation, picture duality")
def test_criterion_10_dynamics():
    rng = np.random.default_rng(10)
    for _ in range(200):
        dim = int(rng.integers(2, 7))
        h = Operator(random_hermitian(dim, rng), (dim,))
        t1, t2 = rng.uniform(-2, 2, size=2)
        u1 = propagator(h, t1).matrix
        u2 = propagator(h, t2).matrix
        assert np.max(np.abs(u1 @ u2 - propagator(h, t1 + t2).matrix)) < 1e-9
        assert np.max(np.abs(u1 @ propagator(h, -t1).matrix
                             - np.eye(dim))) < 1e-9
        a = random_hermitian(dim, rng)
        assert np.max(np.abs(np.linalg.eigvalsh(u1 @ a @ u1.conj().T)
                             - np.linalg.eigvalsh(a))) < 1e-9
    for _ in range(200):
        dim = int(rng.integers(2, 6))
        s = StateVector(random_state(dim, rng), (dim,), "O")
        q = random_question(dim, int(rng.integers(1, dim)), rng)
        h = Operator(random_hermitian(dim, rng), (dim,))
        t = float(rng.uniform(-2, 2))
        p_heis = np.linalg.norm(
            heisenberg_evolve(q, propagator(h, t)).basis.conj().T
            @ s.amplitudes) ** 2
        p_schr = np.linalg.norm(
            q.basis.conj().T
            @ schrodinger_evolve(s, propagator(h, -t)).amplitudes) ** 2
        assert abs(p_heis - p_schr) < 1e-9


@criterion(11, "CLI determinism on the shipped fixture and exit code 2 on self-measurement")
def test_criterion_11_cli():
    wigner = str(fixture_path("wigner_friend.yaml"))
    outputs = set()
    for _ in range(5):
        proc = subprocess.run(
            [sys.executable, "-m", "relaqm", "run", wigner, "--format", "structured"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        outputs.add(proc.stdout)
    assert len(outputs) == 1
    assert outputs.pop() == fixture_path("wigner_friend.report.json").read_text()

    proc = subprocess.run(
        [sys.executable, "-m", "relaqm", "run",
         str(fixture_path("self_measurement.yaml"))],
        capture_output=True, text=True)
    assert proc.returncode == 2
