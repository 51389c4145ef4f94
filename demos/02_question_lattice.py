"""Yes/no questions and the shape of what can be known.

Questions are subspaces.  They form an orthomodular lattice that is *not*
distributive -- that single failure separates quantum from classical logic.
A complete family of questions generates a Boolean (classical) island inside
the lattice, and asking all of its atoms exhausts the N = ceil(log2 k) bits
a k-level system can yield.  Yet a fresh question outside the island is
genuinely random again: information is limited and inexhaustible at once.
"""

import numpy as np

from relaqm import (
    CompleteFamily,
    Question,
    ask_sequence,
    basis_state,
    boolean_algebra,
    complete_questions,
    info_capacity,
    join,
    meet,
    negate,
    orthomodular_check,
    same_question,
)

print("== information capacity ==")
for dim in (2, 3, 4, 5, 8):
    print(f"  a dim-{dim} system answers at most {info_capacity(dim)} independent bits")

print("\n== distributivity fails (the non-Boolean witness) ==")
q = Question.ray([1, 0])
r = Question.ray(np.array([1, 1]) / np.sqrt(2))
s = negate(r)
lhs = meet(q, join(r, s))
rhs = join(meet(q, r), meet(q, s))
print(f"  q AND (r OR not-r)      has rank {lhs.rank}  (= q)")
print(f"  (q AND r) OR (q AND not-r) has rank {rhs.rank}  (= never)")
print(f"  equal? {same_question(lhs, rhs)}")

print("\n== but the orthomodular law always holds ==")
rng = np.random.default_rng(0)
from relaqm.questions import random_question
checks = []
for _ in range(200):
    small = random_question(4, int(rng.integers(0, 4)), rng)
    big = join(small, random_question(4, int(rng.integers(0, 4)), rng))
    checks.append(orthomodular_check(small, big))
print(f"  q2 = q1 OR (q2 AND not-q1) on {sum(checks)}/200 random nested pairs")

print("\n== a complete family and its Boolean island ==")
fam = CompleteFamily.hadamard()
algebra = boolean_algebra(fam)
print(f"  the Hadamard family on a qubit generates {len(algebra)} questions "
      f"(ranks {[a.rank for a in algebra]})")

print("\n== asking: repeatable, exclusive, and never exhausted ==")
state = basis_state(2, 0, relative_to="O")
atoms = complete_questions(fam)
answer, post = ask_sequence(state, atoms + atoms, seed=42)
print(f"  asking both atoms twice: bits {answer.bits} "
      f"(second round repeats the first)")
yes = sum(ask_sequence(state, [atoms[0]], seed)[0].bits[0] for seed in range(10_000))
print(f"  fresh preparations, one unbiased question: yes-rate {yes / 10_000:.3f}")
