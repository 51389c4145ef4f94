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
    InvalidDimension,
    NotDoublyStochastic,
    ParseError,
    PreconditionViolated,
    RelaqmError,
    ValidationError,
)
from .hilbert import ATOL, _refuse_too_large
from .kernels import _search_amplitudes, decide_unistochastic, kernel_from_families, phase_fix

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

# random triples per lattice-check sweep
LATTICE_TRIALS = 200
# dim x dim complex arrays a lattice-check sweep holds at its peak: its peak
# resident growth over 16 dim^2 bytes was 19.1 at dim 512 and 15.3 at dim 768
# (seed 0, single-threaded BLAS); a v b and not-a, kept through a trial's first
# laws, account for 1.0-1.5 of it
LATTICE_ARRAYS = 20


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
        out_lines.append(f"kernel {kernel.to_family} <- {kernel.from_family} "
                         f"(dim {kernel.dim}), max violation {kernel.check.max_violation:.3g}")
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
    if p.shape[0] != p.shape[1]:
        raise ParseError(f"{args.matrix}: not a square matrix ({p.shape[0]}x{p.shape[1]})")
    if not np.isfinite(p).all():
        i, j = np.argwhere(~np.isfinite(p))[0]
        raise ParseError(f"{args.matrix}: row {i + 1}, column {j + 1} is {p[i, j]}, not finite")
    dim = len(p)
    _refuse_too_large(_search_amplitudes(dim), f"{args.matrix}: a {dim}x{dim} search")
    decision = decide_unistochastic(p, seed=_effective_seed(args.seed, 0))
    sys.stdout.write(f"doubly stochastic check: {decision.check}\n")
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
    from .questions import (Question, join, meet, negate, orthomodular_check,
                            random_question, same_question)

    fails = {"commutativity": 0, "associativity": 0, "de_morgan": 0,
             "double_negation": 0, "complement": 0, "orthomodular": 0}
    always, never = Question.always(dim), Question.never(dim)
    for _ in range(LATTICE_TRIALS):
        ranks = rng.integers(0, dim + 1, size=3)
        a, b, c = (random_question(dim, int(r), rng) for r in ranks)
        ab, not_a = join(a, b), negate(a)
        if not same_question(ab, join(b, a)):
            fails["commutativity"] += 1
        if not same_question(meet(a, b), meet(b, a)):
            fails["commutativity"] += 1
        if not same_question(join(ab, c), join(a, join(b, c))):
            fails["associativity"] += 1
        if not same_question(negate(ab), meet(not_a, negate(b))):
            fails["de_morgan"] += 1
        if not same_question(negate(not_a), a):
            fails["double_negation"] += 1
        if not (same_question(join(a, not_a), always)
                and same_question(meet(a, not_a), never)):
            fails["complement"] += 1
        del ab, not_a  # not held through the orthomodular law: a lower peak (LATTICE_ARRAYS)
        small = random_question(dim, int(rng.integers(0, dim)), rng)
        extension = join(small, random_question(dim, int(rng.integers(0, dim)), rng))
        try:  # checks small => extension once, as its precondition
            holds = orthomodular_check(small, extension)
        except PreconditionViolated:
            holds = False
        if not holds:
            fails["orthomodular"] += 1
    return fails


def _cmd_lattice_check(args) -> int:
    if args.dim < 2:
        raise InvalidDimension(f"dim must be >= 2, got {args.dim}")
    _refuse_too_large(LATTICE_ARRAYS * args.dim * args.dim,
                      f"a dim-{args.dim} sweep of {LATTICE_ARRAYS} dim x dim arrays")
    rng = np.random.default_rng(_effective_seed(args.seed, 0))
    fails = _lattice_laws(args.dim, rng)
    for law, count in fails.items():
        status = "pass" if count == 0 else f"FAIL ({count}/{LATTICE_TRIALS})"
        sys.stdout.write(f"{law:16s} {status}\n")
    return EXIT_NUMERIC if any(fails.values()) else EXIT_OK


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
