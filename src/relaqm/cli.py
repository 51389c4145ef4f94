"""Command-line front end.

Subcommands::

    relaqm run <scenario.yaml>        run a scenario, print its report
    relaqm kernel <file.yaml>         transition-kernel tables for family pairs
    relaqm unistochastic <matrix.txt> decide whether |U|^2 = p has a solution
    relaqm lattice-check <dim>        randomized sweep of the question-lattice laws

Exit codes: 0 success, 2 validation error (malformed or rule-violating
input), 3 numeric-check failure.  The environment variable RELAQM_SEED
provides a default seed; an explicit --seed flag wins over it, and both win
over a seed stored in a scenario file.

Each subcommand imports the layers it runs when it runs, so a cold
``kernel``, ``unistochastic`` or ``lattice-check`` never loads the scenario
runner.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

import numpy as np

from .errors import (
    DescriptionUnavailable,
    NotDoublyStochastic,
    ParseError,
    RelaqmError,
    ValidationError,
)
from .hilbert import _MAX_AMPLITUDES, ATOL
from .kernels import (
    N_STARTS,
    decide_unistochastic,
    kernel_from_families,
    phase_fix,
    verify_double_stochastic,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

# random triples per lattice-check sweep
LATTICE_TRIALS = 200
# dim x dim complex arrays a lattice-check sweep holds at its peak: its peak
# resident growth over 16 dim^2 bytes was 17.6-18.9 at dims 512 and 768, of
# which tracemalloc sees ~12 (numpy arrays); the rest is allocated outside numpy
LATTICE_ARRAYS = 18
# complex values an n x n unistochastic search holds at its peak, measured on
# Haar |U|^2: the projections hold SEARCH_ARRAYS N_STARTS x n x n arrays (peak
# resident growth 9.6-9.7 at n = 64 and 96, tracemalloc 8.1-9.1 at n = 8-32);
# the Gauss-Newton polish holds POLISH_ARRAYS n^2 x n^2 arrays' worth, its real
# Jacobian, J^T J and the damped copy the solve takes (resident 2.2-2.6 at
# n = 24-40, tracemalloc 2.0-2.7 at n = 8-32)
SEARCH_ARRAYS = 10
POLISH_ARRAYS = 3


def _effective_seed(flag: int | None, fallback: int | None = None) -> int | None:
    """--seed, else RELAQM_SEED, else ``fallback``; a seed given either way
    is a nonnegative integer."""
    if flag is not None:
        seed, source = flag, f"--seed {flag}"
    else:
        raw = os.environ.get("RELAQM_SEED")
        if raw is None:
            return fallback
        source = f"RELAQM_SEED={raw!r}"
        try:
            seed = int(raw)
        except ValueError as exc:
            raise ValidationError("BadSeed", f"{source} is not an integer") from exc
    if seed < 0:
        raise ValidationError("BadSeed", f"{source} is negative")
    return seed


def _cmd_run(args) -> int:
    from .scenario import emit_report, load_scenario, run

    sc = load_scenario(args.scenario)
    report = run(sc, seed=_effective_seed(args.seed))
    text = emit_report(report, format=args.format)
    sys.stdout.write(text)
    if args.out:
        if args.format != "structured":
            text = emit_report(report, format="structured")
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    worst = report.worst_marginal_agreement()
    if report.violations:
        sys.stderr.write("report linter found untagged states\n")
        return EXIT_NUMERIC
    if worst > ATOL:
        sys.stderr.write(
            f"cross-observer marginal agreement {worst:.3g} exceeds "
            f"tolerance {ATOL:g}\n")
        return EXIT_NUMERIC
    return EXIT_OK


def _cmd_kernel(args) -> int:
    from .parsing import _parse_kernel_request, read_text

    out_lines = []
    for fam_a, fam_b in _parse_kernel_request(read_text(args.file)):
        kernel = kernel_from_families(fam_a, fam_b)
        check = verify_double_stochastic(kernel.p)
        out_lines.append(f"kernel {kernel.to_family} <- {kernel.from_family} "
                         f"(dim {kernel.dim}), max violation {check.max_violation:.3g}")
        for row in kernel.p:
            out_lines.append("  " + "  ".join(f"{x:.6f}" for x in row))
    sys.stdout.write("\n".join(out_lines) + "\n")
    return EXIT_OK


def _cmd_unistochastic(args) -> int:
    try:
        with warnings.catch_warnings():  # an empty file is reported below
            warnings.simplefilter("ignore", UserWarning)
            p = np.loadtxt(args.matrix, ndmin=2)
    except ValueError as exc:  # a non-numeric entry or ragged rows
        raise ParseError(f"{args.matrix}: not a matrix of real numbers ({exc})") from exc
    if p.size == 0:
        raise ParseError(f"{args.matrix}: no matrix entries")
    dim = len(p)
    held = max(SEARCH_ARRAYS * N_STARTS * dim * dim, POLISH_ARRAYS * dim ** 4)
    if held > _MAX_AMPLITUDES:
        raise ValidationError("TooLarge", f"{args.matrix}: a {dim}x{dim} search holds {held} "
                                          f"amplitudes, more than the {_MAX_AMPLITUDES} allowed")
    check = verify_double_stochastic(p)
    sys.stdout.write(f"doubly stochastic check: {check}\n")
    decision = decide_unistochastic(p, seed=_effective_seed(args.seed, 0))
    if decision.open_links is None:
        sys.stdout.write(f"residual: {decision.residual:.6g}\n")
    else:
        kind, a, b, gap = decision.open_links
        sys.stdout.write(f"chain links: {kind} {a} and {b} open by {gap:.6g}\n")
    sys.stdout.write(f"verdict: {decision.verdict}\n")
    if p.shape == (3, 3):  # decide_unistochastic has run the chain links on p
        analytic = decision.open_links is None
        sys.stdout.write(f"triangle criterion (3x3): "
                         f"{'satisfied' if analytic else 'violated'}\n")
        if analytic != (decision.verdict == "unistochastic") and decision.verdict != "inconclusive":
            sys.stderr.write("verdict disagrees with the analytic criterion\n")
            return EXIT_NUMERIC
    if decision.verdict == "unistochastic":
        u = phase_fix(decision.U)
        sys.stdout.write("realizing unitary (gauge-fixed):\n")
        for row in u:
            sys.stdout.write("  " + "  ".join(f"{x.real:+.6f}{x.imag:+.6f}i"
                                              for x in row) + "\n")
        return EXIT_OK
    return EXIT_NUMERIC


def _lattice_laws(dim: int, rng: np.random.Generator):
    """Randomized checks of the subspace-lattice laws; yields (law, failures)."""
    from .questions import (Question, implies, join, meet, negate, orthomodular_check,
                            random_question, same_question)

    fails = {"commutativity": 0, "associativity": 0, "de_morgan": 0,
             "double_negation": 0, "complement": 0, "orthomodular": 0}
    always, never = Question.always(dim), Question.never(dim)
    for _ in range(LATTICE_TRIALS):
        ranks = rng.integers(0, dim + 1, size=3)
        a, b, c = (random_question(dim, int(r), rng) for r in ranks)
        if not same_question(join(a, b), join(b, a)):
            fails["commutativity"] += 1
        if not same_question(meet(a, b), meet(b, a)):
            fails["commutativity"] += 1
        if not same_question(join(join(a, b), c), join(a, join(b, c))):
            fails["associativity"] += 1
        if not same_question(negate(join(a, b)), meet(negate(a), negate(b))):
            fails["de_morgan"] += 1
        if not same_question(negate(negate(a)), a):
            fails["double_negation"] += 1
        if not (same_question(join(a, negate(a)), always)
                and same_question(meet(a, negate(a)), never)):
            fails["complement"] += 1
        small = random_question(dim, int(rng.integers(0, dim)), rng)
        extension = join(small, random_question(dim, int(rng.integers(0, dim)), rng))
        if not implies(small, extension) or not orthomodular_check(small, extension):
            fails["orthomodular"] += 1
    return fails


def _cmd_lattice_check(args) -> int:
    if args.dim < 2:
        raise ValidationError("InvalidDimension", f"dim must be >= 2, got {args.dim}")
    held = LATTICE_ARRAYS * args.dim * args.dim
    if held > _MAX_AMPLITUDES:
        raise ValidationError("TooLarge", f"a dim-{args.dim} sweep holds {held} amplitudes "
                                          f"({LATTICE_ARRAYS} dim x dim arrays), more than "
                                          f"the {_MAX_AMPLITUDES} allowed")
    rng = np.random.default_rng(_effective_seed(args.seed, 0))
    fails = _lattice_laws(args.dim, rng)
    bad = 0
    for law, count in fails.items():
        status = "pass" if count == 0 else f"FAIL ({count}/{LATTICE_TRIALS})"
        sys.stdout.write(f"{law:16s} {status}\n")
        bad += count
    return EXIT_OK if bad == 0 else EXIT_NUMERIC


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="relaqm",
        description="Observer-relative quantum scenarios, question lattices, "
                    "and transition kernels.")
    sub = parser.add_subparsers(dest="command", required=True)
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=None,
                      help="override the default seed (RELAQM_SEED, then 0)")

    p_run = sub.add_parser("run", help="run a scenario file", parents=[seed])
    p_run.add_argument("scenario", help="scenario document (YAML)")
    p_run.add_argument("--format", choices=("table", "structured"),
                       default="table", help="stdout report format")
    p_run.add_argument("--out", default=None,
                       help="also write the structured report to this path")

    p_kernel = sub.add_parser("kernel", help="family-pair kernel tables")
    p_kernel.add_argument("file", help="kernel request document (YAML)")

    p_uni = sub.add_parser("unistochastic", parents=[seed],
                           help="decide whether a unitary has |U|^2 = p")
    p_uni.add_argument("matrix", help="whitespace-separated rows of reals")

    p_lat = sub.add_parser("lattice-check", parents=[seed],
                           help="random sweep of lattice laws")
    p_lat.add_argument("dim", type=int)

    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "kernel": _cmd_kernel,
        "unistochastic": _cmd_unistochastic,
        "lattice-check": _cmd_lattice_check,
    }
    try:
        return handlers[args.command](args)
    # OSError: a missing or unreadable path (a non-UTF-8 one is a ParseError)
    except (ParseError, ValidationError, DescriptionUnavailable, NotDoublyStochastic,
            OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except RelaqmError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
