"""Transition probabilities between complete families, and their unitary form.

If an observer holds the maximal answer for one family and then asks the
atoms of another, the outcome probabilities form a matrix that is doubly
stochastic (rows and columns sum to one) and, for Hilbert-space families,
arises as the squared moduli of a unitary change of basis: p = |U|^2.
Kernels compose through their unitaries, U_ac = U_ab U_bc, never through
their probability matrices -- the mismatch between |U_ab U_bc|^2 and
p_ab p_bc is exactly quantum interference, which the composite-question
probabilities below quantify.

Not every doubly stochastic matrix is unistochastic for size >= 3.
:func:`decide_unistochastic` decides it exactly where theory allows: the
chain-link condition (Bengtsson et al., "Birkhoff's polytope and unistochastic
matrices, N = 3 and N = 4", CMP 259 (2005)) certifies a rejection at any size,
and for size <= 3, where the condition is also sufficient, U has a closed
form.  Only what is left goes to :func:`unistochastic_search`, which decides
feasibility numerically by multi-start projection onto the unitary manifold.
:func:`triangle_criterion_3x3` is the chain-link condition at size 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    DimensionMismatch,
    FamilyMismatch,
    IndexOutOfRange,
    NotDoublyStochastic,
    PreconditionViolated,
)
from .hilbert import ATOL, OPT_ATOL, orthonormality_defect

if TYPE_CHECKING:
    from .questions import CompleteFamily

__all__ = [
    "TransitionKernel",
    "StochasticReport",
    "UnistochasticDecision",
    "kernel_from_families",
    "verify_double_stochastic",
    "composite_probability",
    "classical_composite_probability",
    "interference_gap",
    "compose",
    "unistochastic_search",
    "decide_unistochastic",
    "triangle_criterion_3x3",
    "phase_fix",
]


@dataclass(frozen=True, eq=False)
class TransitionKernel:
    """Outcome probabilities p[i, j] = |U[i, j]|^2 of to-family atom i given
    from-family atom j, built from the unitary U that realizes them.

    Operations that need phases read U; ``p`` and ``check``, p's
    :class:`StochasticReport`, are computed by the constructor, never passed
    in.
    """

    U: np.ndarray
    to_family: str
    from_family: str
    p: np.ndarray = field(init=False)
    check: StochasticReport = field(init=False)

    def __post_init__(self):
        u = np.array(self.U, dtype=complex)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ValueError(f"kernel matrix must be square, got {u.shape}")
        p = np.abs(u) ** 2
        check = verify_double_stochastic(p)
        if not check.ok(ATOL):
            raise ValueError(f"kernel is not doubly stochastic: {check}")
        if not orthonormality_defect(u) <= ATOL:
            raise ValueError("kernel unitary is not unitary")
        u.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "U", u)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "check", check)

    @property
    def dim(self) -> int:
        return self.p.shape[0]

    def __repr__(self):
        return f"TransitionKernel({self.to_family!r} <- {self.from_family!r}, dim={self.dim})"


@dataclass(frozen=True)
class StochasticReport:
    """Worst-case violations of the doubly stochastic constraints."""

    range_violation: float
    row_sum_violation: float
    column_sum_violation: float

    @property
    def max_violation(self) -> float:
        return max(self.range_violation, self.row_sum_violation,
                   self.column_sum_violation)

    def ok(self, tol: float = ATOL) -> bool:
        return self.max_violation <= tol

    def __str__(self):
        return (f"range {self.range_violation:.3g}, rows {self.row_sum_violation:.3g}, "
                f"columns {self.column_sum_violation:.3g}")


def verify_double_stochastic(p) -> StochasticReport:
    """Report how far a matrix is from doubly stochastic (diagnostic, no raise)."""
    p = np.asarray(p, dtype=float)
    range_violation = max(float(np.max(-p, initial=0.0)),
                          float(np.max(p - 1.0, initial=0.0)), 0.0) + 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # a sum that overflows reads as inf
        row = float(np.max(np.abs(p.sum(axis=1) - 1.0)))
        col = float(np.max(np.abs(p.sum(axis=0) - 1.0)))
    return StochasticReport(range_violation, row, col)


def kernel_from_families(b: CompleteFamily, c: CompleteFamily) -> TransitionKernel:
    """Kernel for measuring family b given maximal information in family c.

    U = B†C is the change-of-basis matrix, so U[i, j] = <b_i|c_j> and
    p[i, j] = |<b_i|c_j>|^2.  Each family is unitary within ATOL, but U, a
    product of two, can miss it; the kernel's own check then fails as
    :class:`PreconditionViolated`, naming the pair and the check.
    """
    if b.dim != c.dim:
        raise DimensionMismatch(f"family dims differ: {b.dim} vs {c.dim}")
    return _kernel_of(b.basis.conj().T @ c.basis, b.label, c.label)


def _kernel_of(u: np.ndarray, to_family: str, from_family: str) -> TransitionKernel:
    """The kernel of U; a U that fails the kernel's own check is a
    :class:`PreconditionViolated` naming the pair and the check."""
    try:
        return TransitionKernel(u, to_family, from_family)
    except ValueError as exc:
        raise PreconditionViolated(f"{to_family} <- {from_family}: {exc}") from exc


def _row_pair(kernel: TransitionKernel, i: int, jk: tuple[int, int]) -> tuple[float, float]:
    """p[i, j] and p[i, k] of the kernel, its indices checked."""
    p = kernel.p
    j, k = jk
    for name, idx in (("i", i), ("j", j), ("k", k)):
        if not 0 <= idx < p.shape[0]:
            raise IndexOutOfRange(f"index {name}={idx} outside [0, {p.shape[0]})")
    if j == k:
        raise IndexOutOfRange("composite question needs two distinct atoms")
    return p[i, j], p[i, k]


def composite_probability(kernel: TransitionKernel, i: int, jk: tuple[int, int]) -> float:
    """Probability of yes-to-atom-i after yes-to-atom-i then yes to the
    composite question "atom j or atom k" of the other family.

    Coherent two-leg chain: each closed loop i -> m -> i contributes the
    forward amplitude U[i, m] times the reverse amplitude (the conjugate,
    since the reverse kernel carries U†), that is p[i, m], and the legs
    through j and k add before squaring: (p[i, j] + p[i, k])^2, which needs
    only the kernel's p.  Equals the projective-sequence value
    ``|| P_i (P_j + P_k) |b_i> ||^2``.
    """
    pj, pk = _row_pair(kernel, i, jk)
    return float((pj + pk) ** 2)


def classical_composite_probability(kernel: TransitionKernel, i: int,
                                    jk: tuple[int, int]) -> float:
    """Incoherent value of the same chain on the kernel's p: (p[i,j])^2 + (p[i,k])^2.

    What the composite probability would be if the two exclusive alternatives
    contributed independently; the difference from
    :func:`composite_probability` is the interference term.
    """
    pj, pk = _row_pair(kernel, i, jk)
    return float(pj ** 2 + pk ** 2)


def interference_gap(kernel: TransitionKernel, i: int, jk: tuple[int, int]) -> float:
    """Composite minus classical probability of the kernel, 2 p[i,j] p[i,k];
    zero for permutation kernels."""
    pj, pk = _row_pair(kernel, i, jk)
    return float((pj + pk) ** 2 - (pj ** 2 + pk ** 2))


def compose(k1: TransitionKernel, k2: TransitionKernel) -> TransitionKernel:
    """Chain two kernels through their shared middle family: U_ac = U_ab U_bc.

    The probability matrix of the result is |U_ab U_bc|^2, which differs from
    the product p_ab p_bc whenever interference is present.  Each kernel
    passes its check within ATOL, but their product can miss it; that is a
    :class:`PreconditionViolated`, as in :func:`kernel_from_families`.
    """
    if k1.from_family != k2.to_family:
        raise FamilyMismatch(
            f"no shared middle family: {k1.from_family!r} vs {k2.to_family!r}")
    return _kernel_of(k1.U @ k2.U, k1.to_family, k2.from_family)


def phase_fix(u) -> np.ndarray:
    """Canonical gauge: first row and first column made real nonnegative.

    Row/column phase multiplications leave |U|^2 untouched, so this fixes the
    freedom left by a probability matrix without changing any prediction.
    """
    u = np.array(u, dtype=complex)
    for j in range(u.shape[1]):
        a = u[0, j]
        if abs(a) > 1e-12:
            u[:, j] *= np.conj(a) / abs(a)
    for i in range(1, u.shape[0]):
        a = u[i, 0]
        if abs(a) > 1e-12:
            u[i, :] *= np.conj(a) / abs(a)
    # columns with a vanishing first-row entry keep a free phase; anchor them
    # on their first nonzero entry (cannot disturb the first row or column)
    for j in range(u.shape[1]):
        if abs(u[0, j]) > 1e-12:
            continue
        nonzero = np.flatnonzero(np.abs(u[:, j]) > 1e-12)
        if nonzero.size:
            a = u[nonzero[0], j]
            u[:, j] *= np.conj(a) / abs(a)
    return u


# a start whose best residual stays above this has stalled: it is not polished,
# and when every start stalls the matrix is declared non-unistochastic
STALL_RESIDUAL = 1e-2
# the search budget that STALL_RESIDUAL's non-unistochastic verdict is tuned for;
# a smaller one would let a unistochastic matrix look stalled
N_STARTS = 64
MAX_ITERS = 500
# complex values an n x n unistochastic search holds at its peak, measured on
# Haar |U|^2: the projections hold SEARCH_ARRAYS N_STARTS x n x n arrays (peak
# resident growth 9.6-9.7 at n = 64 and 96, tracemalloc 8.1-9.1 at n = 8-32);
# the Gauss-Newton polish holds POLISH_ARRAYS n^2 x n^2 arrays' worth, its real
# Jacobian, J^T J and the damped copy the solve takes (resident 2.2-2.6 at
# n = 24-40, tracemalloc 2.0-2.7 at n = 8-32)
SEARCH_ARRAYS = 10
POLISH_ARRAYS = 3


def _search_amplitudes(dim: int) -> int:
    """What a dim x dim search holds at its peak, in complex values."""
    return max(SEARCH_ARRAYS * N_STARTS * dim * dim, POLISH_ARRAYS * dim ** 4)


@dataclass(frozen=True)
class UnistochasticDecision:
    """The verdict on p = |U|^2: ``unistochastic``, ``non-unistochastic`` or
    ``inconclusive``.

    ``U`` and ``residual`` (||U|^2 - p| in the Frobenius norm) belong to the
    unitary decided on.  A rejection certified by the chain links has
    neither; its ``open_links`` is (``"rows"`` or ``"columns"``, a, b, gap).
    A search also keeps each start's best residual (``start_residuals``) and
    the ``iterations`` it ran.  ``check`` is the :class:`StochasticReport`
    p was verified with.
    """

    verdict: str
    U: np.ndarray | None = None
    residual: float | None = None
    open_links: tuple[str, int, int, float] | None = None
    start_residuals: np.ndarray | None = None
    iterations: int = 0
    check: StochasticReport = field(kw_only=True)


def _project_unitary(a: np.ndarray) -> np.ndarray:
    w, _, vh = np.linalg.svd(a)
    return w @ vh


def _project_modulus(a: np.ndarray, root: np.ndarray) -> np.ndarray:
    mag = np.abs(a)
    return root * np.divide(a, mag, out=np.ones_like(a), where=mag > 1e-15)


def _generator_entries(dim: int) -> tuple[np.ndarray, ...]:
    """The nonzero entries of the Hermitian generators, in coordinate order.

    Coordinate i < dim is E_ii; each pair i < j then takes two coordinates,
    (E_ij + E_ji)/sqrt(2) and i(E_ji - E_ij)/sqrt(2).  Returns the
    coordinate, row, column and coefficient of each of the 2 dim^2 - dim
    entries.
    """
    s, t = 1 / np.sqrt(2), 1j / np.sqrt(2)
    entries = [(i, i, i, 1.0) for i in range(dim)]
    a = dim
    for i in range(dim):
        for j in range(i + 1, dim):
            entries += [(a, i, j, s), (a, j, i, s), (a + 1, i, j, -t), (a + 1, j, i, t)]
            a += 2
    coord, row, col, coef = zip(*entries)
    return np.array(coord), np.array(row), np.array(col), np.array(coef, dtype=complex)


def _tangent_jacobian(u: np.ndarray, entries: tuple[np.ndarray, ...]) -> np.ndarray:
    """d|U|^2 / dh_a at h = 0 for U -> e^{-iH} U, H = sum_a h_a G_a.

    One column per generator G_a, one row per entry of U (row-major).  Row r
    of G_a U is coef * U[col] for G_a's one entry in row r, and zero if it
    has none.  The diagonal generators go through the same complex multiply,
    which leaves rounding noise where exact arithmetic gives zero, and J is
    returned Fortran-ordered: both keep J^T J, and so the polish, the same
    to the last bit as with the dense basis.
    """
    coord, row, col, coef = entries
    dim = len(u)
    jac = np.zeros((dim * dim, dim, dim))
    jac[coord, row] = 2 * np.real(np.conj(u[row]) * (-1j * (coef[:, None] * u[col])))
    return jac.reshape(dim * dim, -1).T


def _hermitian(step: np.ndarray, entries: tuple[np.ndarray, ...], dim: int) -> np.ndarray:
    """H = sum_a step[a] G_a, filled entry by entry."""
    coord, row, col, coef = entries
    h = np.zeros((dim, dim), dtype=complex)
    np.add.at(h, (row, col), step[coord] * coef)
    return h


def _gauss_newton_polish(u: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, float]:
    """Local refinement on the unitary manifold.

    Levenberg-damped Gauss-Newton in the tangent coordinates U -> e^{-iH} U,
    at most 40 steps and none once the residual is below 1e-13;
    quadratically convergent where the projection iteration only crawls.
    """
    dim = p.shape[0]
    entries = _generator_entries(dim)
    resid = (np.abs(u) ** 2 - p).ravel()
    f = float(np.linalg.norm(resid))
    lam = 1e-8
    for _ in range(40):
        if f < 1e-13:
            break
        jac = _tangent_jacobian(u, entries)
        jtj, grad = jac.T @ jac, -jac.T @ resid
        improved = False
        for _attempt in range(8):
            step = np.linalg.solve(jtj + lam * np.eye(dim * dim), grad)
            w, v = np.linalg.eigh(_hermitian(step, entries, dim))
            u_new = (v * np.exp(-1j * w)) @ v.conj().T @ u
            resid_new = (np.abs(u_new) ** 2 - p).ravel()
            f_new = float(np.linalg.norm(resid_new))
            if f_new < f:
                u, resid, f = u_new, resid_new, f_new
                lam = max(lam * 0.3, 1e-12)
                improved = True
                break
            lam *= 10
        if not improved:
            break
    return u, f


def _polish_start(best_u: np.ndarray, best_res: np.ndarray, b: int, p: np.ndarray) -> float:
    """Polish start b's best unitary, keep the result if its residual is lower,
    and return start b's best residual."""
    u, f = _gauss_newton_polish(best_u[b], p)
    if f < best_res[b]:
        best_u[b] = u
        best_res[b] = f
    return best_res[b]


def unistochastic_search(p, seed: int = 0) -> UnistochasticDecision:
    """Search for a unitary with |U|^2 = p by multi-start projections.

    Each of N_STARTS starts runs, for at most MAX_ITERS iterations,
    reflection-averaged alternating projections (Douglas-Rachford) between
    the unitary manifold -- reached by polar decomposition via the SVD -- and
    the fixed-modulus set sqrt(p) * phases, from seeded random phases (start
    0 uses zero phases).  Starts are independent and merged by minimum
    residual with a deterministic tie-break (lowest start index).

    The projections only crawl near a solution, so the best start is handed
    to a Gauss-Newton polish as soon as its residual falls below a bar that
    starts at 1e-2 and drops tenfold past each polished residual; the search
    stops once any residual is below 1e-12.  The polish never touches the
    projection iterates, so starts that stay above 1e-2 follow the same path
    as without it.  If the loop ends without reaching 1e-12, the three best
    starts below 1e-2 are polished once more.

    The verdict is ``unistochastic`` when the best residual is below OPT_ATOL
    (1e-6), ``non-unistochastic`` only when every start stalls above
    STALL_RESIDUAL (1e-2), and ``inconclusive`` otherwise.
    """
    p = np.asarray(p, dtype=float)
    return _search(p, _check_double_stochastic(p), seed)


def _search(p: np.ndarray, check: StochasticReport, seed: int) -> UnistochasticDecision:
    """:func:`unistochastic_search` on a p already verified, whose report is ``check``."""
    dim = p.shape[0]
    root = np.sqrt(np.maximum(p, 0.0))
    stop = 1e-12

    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2 * np.pi, size=(N_STARTS, dim, dim))
    theta[0] = 0.0
    z = root[None, :, :] * np.exp(1j * theta)
    best_res = np.full(N_STARTS, np.inf)
    best_u = np.zeros_like(z)
    bar = STALL_RESIDUAL
    for iterations in range(1, MAX_ITERS + 1):
        u = _project_unitary(z)
        res = np.linalg.norm(np.abs(u) ** 2 - p[None], axis=(1, 2))
        mask = res < best_res
        best_res[mask] = res[mask]
        best_u[mask] = u[mask]
        b = int(np.argmin(best_res))
        if stop <= best_res[b] < bar:
            polished = _polish_start(best_u, best_res, b, p)
            while bar > polished:
                bar /= 10
        if best_res[b] < stop:
            break
        reflected = _project_modulus(2 * u - z, root[None])
        z = z + reflected - u

    if best_res.min() >= stop:
        for b in np.argsort(best_res, kind="stable")[:3]:
            if best_res[b] < STALL_RESIDUAL and _polish_start(best_u, best_res, b, p) < stop:
                break

    b = int(np.argmin(best_res))
    residual = float(best_res[b])
    if residual < OPT_ATOL:
        verdict = "unistochastic"
    elif best_res.min() > STALL_RESIDUAL:
        verdict = "non-unistochastic"
    else:
        verdict = "inconclusive"
    return UnistochasticDecision(verdict, U=best_u[b], residual=residual,
                                 start_residuals=best_res, iterations=iterations, check=check)


def _check_double_stochastic(p: np.ndarray) -> StochasticReport:
    """p's report, if p is doubly stochastic within OPT_ATOL; else
    :class:`NotDoublyStochastic`."""
    report = verify_double_stochastic(p)
    if not report.ok(OPT_ATOL):
        raise NotDoublyStochastic(f"input violates double stochasticity: {report}")
    return report


def _open_chain_link(p: np.ndarray) -> tuple[str, int, int, float] | None:
    """The first pair of rows, then of columns, whose links do not close.

    Row orthogonality of a unitary forces the links L_m = sqrt(p[a, m] p[b, m])
    of any row pair (a, b), and likewise of any column pair, to close into a
    polygon: the largest is at most the sum of the others.  The search
    accepts a U with ||U|^2 - p| < OPT_ATOL, so a pair counts as open only
    if it stays open for every matrix within OPT_ATOL of p entrywise: the
    largest link, its two entries moved OPT_ATOL down, still exceeds the
    sum of the others, theirs moved OPT_ATOL up, by more than ATOL.  Near a
    zero entry, a move of OPT_ATOL moves a link by up to sqrt(OPT_ATOL).  Returns
    (``"rows"`` or ``"columns"``, a, b, gap) for the first open pair, the
    gap being its largest link minus the sum of the others, or None.
    """
    p = np.maximum(p, 0.0)
    for kind, q in (("rows", p), ("columns", p.T)):
        low, high = np.maximum(q - OPT_ATOL, 0.0), q + OPT_ATOL
        for a in range(len(q) - 1):
            # row k of each: the links of the pair (a, a + 1 + k)
            links = np.sqrt(q[a] * q[a + 1:])
            lo, hi = np.sqrt(low[a] * low[a + 1:]), np.sqrt(high[a] * high[a + 1:])
            open_ = np.flatnonzero((lo + hi).max(axis=1) > hi.sum(axis=1) + ATOL)
            if open_.size:
                k = int(open_[0])
                return kind, a, a + 1 + k, float(2 * links[k].max() - links[k].sum())
    return None


def triangle_criterion_3x3(p) -> bool:
    """Analytic unistochasticity test for 3x3 doubly stochastic matrices.

    Row orthogonality of a unitary forces the three link moduli
    L_m = sqrt(p[a, m] p[b, m]) of any row pair (a, b) to close into a
    triangle; for 3x3 matrices this chain-links condition is also
    sufficient.  All row and column pairs are checked, each closing within
    ATOL for some matrix within OPT_ATOL of p.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (3, 3):
        raise DimensionMismatch(f"criterion is specific to 3x3, got {p.shape}")
    _check_double_stochastic(p)
    return _open_chain_link(p) is None


def _triangle_phases(links: np.ndarray) -> np.ndarray:
    """Phases phi with sum_m links[m] e^{i phi_m} = 0, for three links that
    close into a triangle.

    The largest link lies on the real axis; the law of cosines gives the
    turn to each of the other two, one on each side.  With a zero link the
    triangle is degenerate: the two others are equal and opposite.
    """
    a = int(np.argmax(links))
    b, c = (m for m in range(3) if m != a)
    la, lb, lc = links[a], links[b], links[c]
    phases = np.zeros(3)
    if lb > 0 and lc > 0:
        phases[b] = np.arccos(np.clip((lc**2 - la**2 - lb**2) / (2 * la * lb), -1.0, 1.0))
        phases[c] = -np.arccos(np.clip((lb**2 - la**2 - lc**2) / (2 * la * lc), -1.0, 1.0))
    else:
        phases[b] = phases[c] = np.pi
    return phases


def _closed_form_unitary(p: np.ndarray) -> np.ndarray:
    """A candidate U with |U|^2 = p for size <= 3, built without a search.

    Row 0 is sqrt(p[0, j]).  Row 1 is sqrt(p[1, j]) with the phases that close
    its links with row 0 (for size 2, the sign flip that makes it orthogonal).
    Both are normalised, and row 1 orthogonalised against row 0, so that U is
    unitary even where p is doubly stochastic only within OPT_ATOL.  Row 2 is
    the conjugated cross product of rows 0 and 1, the one unit row orthogonal
    to both.  The caller checks the result against p.
    """
    root = np.sqrt(np.maximum(p, 0.0))
    dim = len(p)
    u = np.zeros((dim, dim), dtype=complex)
    u[0] = root[0] / np.linalg.norm(root[0])
    if dim == 2:
        u[1] = -u[0, 1], u[0, 0]
    elif dim == 3:
        row = root[1] * np.exp(1j * _triangle_phases(root[0] * root[1]))
        row -= np.vdot(u[0], row) * u[0]
        u[1] = row / np.linalg.norm(row)
        u[2] = np.conj(np.cross(u[0], u[1]))
    return u


def decide_unistochastic(p, seed: int = 0) -> UnistochasticDecision:
    """Decide whether p = |U|^2 for a unitary U, by the first step that can.

    1. p must be doubly stochastic within OPT_ATOL, else NotDoublyStochastic.
    2. For size >= 3, a pair of rows or columns whose links do not close,
       even with p's entries moved by OPT_ATOL, certifies p
       non-unistochastic.  Every doubly stochastic 2x2 is unistochastic.
    3. For size <= 3 the closed form is accepted if it is unitary within
       ATOL and reproduces p with a residual below OPT_ATOL, the search's
       own acceptance bar.
    4. Otherwise the search of :func:`unistochastic_search` decides, with
       ``seed`` and step 1's report, and its decision is returned as it is.
    """
    p = np.asarray(p, dtype=float)
    check = _check_double_stochastic(p)
    open_links = _open_chain_link(p) if len(p) > 2 else None
    if open_links is not None:
        return UnistochasticDecision("non-unistochastic", open_links=open_links, check=check)
    if len(p) <= 3:
        u = _closed_form_unitary(p)
        residual = float(np.linalg.norm(np.abs(u) ** 2 - p))
        if residual < OPT_ATOL and orthonormality_defect(u) <= ATOL:
            return UnistochasticDecision("unistochastic", U=u, residual=residual, check=check)
    return _search(p, check, seed)
