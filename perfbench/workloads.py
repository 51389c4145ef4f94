"""Seeded inputs, one op and its output check for each benchmark workload.

Every generator is a pure function of its seed, so the same seed gives the
same inputs.  relaqm only ever sees the generated YAML text, matrices or
command lines.  Checks raise :class:`CheckFailed`; an op whose check fails
counts as failed, and still counts in the latency figures.
"""

from __future__ import annotations

import json
import lzma
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import yaml

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
FIXTURES = SRC / "relaqm" / "fixtures"
REFERENCE_DIR = BENCH_DIR / "reference"
OUT_DIR = BENCH_DIR / "out"         # trace files; ignored by git

TOL = 1e-9          # golden floats, norms, probability sums
OPT_TOL = 1e-6      # |U|^2 against p for an accepted unistochastic search
CORPUS_SIZE = 32    # recorded labs / qudit cases


class CheckFailed(Exception):
    """An op produced an output that the benchmark does not accept."""


# ---------------------------------------------------------------------------
# scenario generators


def _amps(vec) -> list:
    return [[float(z.real), float(z.imag)] for z in vec]


def _unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _hermitian(rng: np.random.Generator, dim: int) -> list:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (a + a.conj().T) / 2
    return [_amps(row) for row in h]


def _haar(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _ready(dim: int) -> list:
    return _amps(np.eye(dim)[0])


def labs_scenario(case: int) -> str:
    """4 labs x {S, F, W}: 12 qubits, all observers; labs 1 and 3 merge into 0 and 2."""
    rng = np.random.default_rng([1, case])
    names = [f"{role}{lab}" for lab in range(4) for role in "SFW"]
    preps = {n: _ready(2) for n in names}
    events = []
    for lab in range(4):
        preps[f"S{lab}"] = _amps(_unit(rng, 2))
        events.append({"measure": {"observer": f"F{lab}", "target": f"S{lab}",
                                   "family": "fourier"}})
        events.append({"evolve": {"target": f"F{lab}", "hamiltonian": _hermitian(rng, 2),
                                  "t": float(rng.uniform(0.1, 2.0))}})
        target = f"F{lab}" if lab % 2 == 0 else f"S{lab - 1}"
        events.append({"measure": {"observer": f"W{lab}", "target": target,
                                   "family": "computational"}})
    for lab in range(4):
        other = f"W{(lab + 2) % 4}"
        events.append({"query": {"kind": "state", "of": [f"S{lab}"], "relative_to": other}})
        events.append({"query": {"kind": "completion", "system": f"S{lab}",
                                 "pointer": f"F{lab}", "family": "fourier",
                                 "relative_to": other}})
        events.append({"query": {"kind": "marginal", "target": f"S{lab}",
                                 "family": "fourier", "relative_to": other}})
    doc = {"name": f"labs_{case}", "seed": case,
           "systems": [{"name": n, "dim": 2} for n in names],
           "observers": names, "preparations": preps, "events": events}
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=None)


QUDIT_DIM = 8


def qudit_scenario(case: int) -> str:
    """4 observers of dim 8; two measurements, one evolve, 5 rounds of queries.

    B measures A, A evolves, C measures B: relative to D the three others end
    in one entangled block, so its state queries carry all 512 amplitudes.
    """
    rng = np.random.default_rng([2, case])
    d = QUDIT_DIM
    names = ["A", "B", "C", "D"]
    preps = {n: _ready(d) for n in names}
    preps["A"] = _amps(_unit(rng, d))
    families = {"haar": [_amps(row) for row in _haar(rng, d)]}
    events = [
        {"measure": {"observer": "B", "target": "A", "family": "fourier"}},
        {"evolve": {"target": "A", "hamiltonian": _hermitian(rng, d),
                    "t": float(rng.uniform(0.1, 2.0))}},
        {"measure": {"observer": "C", "target": "B", "family": "computational"}},
    ]
    pairs = [("computational", "fourier"), ("fourier", "haar"), ("haar", "computational"),
             ("computational", "haar"), ("fourier", "computational")]
    for rnd, (fa, fb) in enumerate(pairs):
        viewer = "D" if rnd % 2 == 0 else "C"
        i, j, k = (int(x) for x in rng.choice(np.arange(1, d + 1), size=3, replace=False))
        events.extend([
            {"query": {"kind": "completion", "system": "A", "pointer": "B",
                       "family": "fourier", "relative_to": "D"}},
            {"query": {"kind": "kernel", "target": "A", "family_a": fa, "family_b": fb}},
            {"query": {"kind": "interference", "target": "A", "family_a": fa,
                       "family_b": fb, "i": i, "j": j, "k": k}},
            {"query": {"kind": "state", "of": ["A"], "relative_to": viewer}},
            {"query": {"kind": "marginal", "target": "A", "family": fb,
                       "relative_to": viewer}},
        ])
    doc = {"name": f"qudit_{case}", "seed": case,
           "systems": [{"name": n, "dim": d} for n in names],
           "observers": names, "preparations": preps, "families": families,
           "events": events}
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=None)


SCENARIO_GENERATORS = {"labs": labs_scenario, "qudit": qudit_scenario}


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.xz"


def load_reference(workload: str) -> dict[int, str]:
    """Structured reports recorded at the commit that defined the benchmark."""
    with lzma.open(reference_path(workload), "rt", encoding="utf-8") as fh:
        return {int(k): v for k, v in json.load(fh).items()}


def scenario_op(relaqm, text: str):
    """One user job: parse, run and emit the structured report."""
    report = relaqm.run(relaqm.parse_scenario(text))
    return report, relaqm.emit_report(report, format="structured")


def _close(a, b, path: str) -> None:
    """Non-floats exact, floats within TOL; numbers compare as numbers, since
    the report renders integral floats without a decimal point."""
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            raise CheckFailed(f"{path}: keys {list(a)} != {list(b)}")
        for key in a:
            _close(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise CheckFailed(f"{path}: length {len(a)} != {len(b)}")
        for n, (x, y) in enumerate(zip(a, b)):
            _close(x, y, f"{path}[{n}]")
    elif (isinstance(a, (int, float)) and not isinstance(a, bool)
          and isinstance(b, (int, float)) and not isinstance(b, bool)):
        if not abs(a - b) <= TOL:
            raise CheckFailed(f"{path}: {a!r} != {b!r}")
    elif a != b or type(a) is not type(b):
        raise CheckFailed(f"{path}: {a!r} != {b!r}")


def _walk(node):
    if isinstance(node, dict):
        yield node
        for value in node.values():
            yield from _walk(value)
    elif isinstance(node, list):
        for value in node:
            yield from _walk(value)


def check_report(violations, emitted: str, reference: str) -> bool:
    """Check one scenario report; returns whether the CLI's cross-observer
    check would fire on it (a finding, not a failure)."""
    if violations:
        raise CheckFailed(f"report linter: {violations}")
    tree = json.loads(emitted)
    _close(tree, json.loads(reference), "report")
    worst = 0.0
    for node in _walk(tree):
        if "amplitudes" in node:
            norm = math.sqrt(sum(re * re + im * im for re, im in node["amplitudes"]))
            if abs(norm - 1.0) > TOL:
                raise CheckFailed(f"state of {node['systems']} has norm {norm!r}")
        rows = [node[k] for k in ("probabilities", "q_marginal") if k in node]
        rows += node.get("p", [])
        for row in rows:
            if abs(sum(row) - 1.0) > TOL:
                raise CheckFailed(f"probabilities {row} sum to {sum(row)!r}")
        if "completion_probability" in node:
            value = node["completion_probability"]
            if not 0.0 <= value <= 1.0:
                raise CheckFailed(f"completion probability {value!r} outside [0, 1]")
        worst = max(worst, node.get("marginal_agreement", 0.0))
    return worst > TOL


# ---------------------------------------------------------------------------
# unistochastic corpus

WITNESS = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
HAAR_DIMS = (3, 4, 6, 8)
# t in (1 - t) J/3 + t W; the triangle criterion flips at t = 2/3
MIX_OFFSETS = (-0.3, -0.05, -0.01, 0.01, 0.05, 0.15, 0.25)  # jittered by x0.8-1.2; t < 1


def unistochastic_corpus() -> list[tuple[str, np.ndarray]]:
    """The fixed corpus: a Haar |U|^2 per dimension and seven 3x3 mixes.

    It is fixed so that every run does the same work; the seed draws the
    order.  The mixes straddle the triangle boundary t = 2/3, two of them
    within 0.012 of it.
    """
    rng = np.random.default_rng(3)
    cases = [(f"haar_d{d}", np.abs(_haar(rng, d)) ** 2) for d in HAAR_DIMS]
    for offset in MIX_OFFSETS:
        t = 2 / 3 + offset * float(rng.uniform(0.8, 1.2))
        cases.append((f"mix_t{t:.4f}", (1 - t) * np.full((3, 3), 1 / 3) + t * WITNESS))
    return cases


def unistochastic_op(relaqm, p: np.ndarray):
    """One search with default starts, iterations and seed, plus its verdict check."""
    result = relaqm.unistochastic_search(p)
    analytic = relaqm.triangle_criterion_3x3(p) if p.shape == (3, 3) else None
    return result, analytic


def check_unistochastic(label: str, p: np.ndarray, result, analytic) -> bool:
    """Returns whether the search reached a verdict (not ``inconclusive``)."""
    verdict = result.verdict
    if label.startswith("haar") and verdict != "unistochastic":
        raise CheckFailed(f"{label}: Haar |U|^2 judged {verdict}")
    if analytic is not None and verdict != "inconclusive":
        if (verdict == "unistochastic") != analytic:
            raise CheckFailed(f"{label}: verdict {verdict} vs triangle criterion {analytic}")
    if verdict == "unistochastic":
        u = np.asarray(result.U)
        if np.max(np.abs(np.abs(u) ** 2 - p)) > OPT_TOL:
            raise CheckFailed(f"{label}: |U|^2 misses p by more than {OPT_TOL}")
        if np.max(np.abs(u.conj().T @ u - np.eye(len(p)))) > TOL:
            raise CheckFailed(f"{label}: U is not unitary within {TOL}")
    return verdict != "inconclusive"


# ---------------------------------------------------------------------------
# command-line processes


def cli_commands(seed: int) -> list[tuple[list[str], int]]:
    """One rotation over the shipped fixtures: (arguments, expected exit code)."""
    rotation = [
        (["run", str(FIXTURES / "wigner_friend.yaml"), "--format", "structured"], 0),
        (["kernel", str(FIXTURES / "kernel_pairs.yaml")], 0),
        (["unistochastic", str(FIXTURES / "symmetric_2x2.txt")], 0),
        (["unistochastic", str(FIXTURES / "offdiagonal_half.txt")], 3),
        (["lattice-check", "3"], 0),
    ]
    start = int(np.random.default_rng([4, seed]).integers(len(rotation)))
    return rotation[start:] + rotation[:start]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(argv: list[str]):
    """Run one child process to completion: (exit code, stdout bytes, peak RSS MB)."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss / 1024


def cli_op(args: list[str], launcher: list[str] | None = None):
    return run_child([sys.executable] + (launcher or ["-m", "relaqm"]) + args)


def check_cli(args: list[str], expected: int, code: int, out: bytes, golden: bytes) -> None:
    if code != expected:
        raise CheckFailed(f"relaqm {' '.join(args[:1])}: exit {code}, expected {expected}")
    if args[0] == "run" and out != golden:
        raise CheckFailed("run stdout differs from wigner_friend.report.json")


# ---------------------------------------------------------------------------
# workloads: set-up (inputs, references, warm-up) and one op each


def import_relaqm():
    """Import relaqm from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import relaqm

    if Path(relaqm.__file__).resolve().parent != (SRC / "relaqm").resolve():
        raise ImportError(f"relaqm imported from {relaqm.__file__}, not from {SRC}")
    return relaqm


class ScenarioWorkload:
    """labs / qudit: the recorded corpus, in an order drawn from the seed."""

    def __init__(self, name: str, seed: int):
        self.relaqm = import_relaqm()
        self.reference = load_reference(name)
        generate = SCENARIO_GENERATORS[name]
        order = np.random.default_rng([5, seed]).permutation(CORPUS_SIZE)
        self.cases = [(int(case), generate(int(case))) for case in order]

    def warmup(self) -> None:
        scenario_op(self.relaqm, self.cases[0][1])

    def op(self, i: int, trace=None, pause=None):
        case, text = self.cases[i % len(self.cases)]
        report, emitted = scenario_op(self.relaqm, text)
        return f"case {case}", (report.violations, emitted, self.reference[case])

    @staticmethod
    def check(out) -> dict:
        return {"misfire": check_report(*out)}


# a 3x3 mix well inside the unistochastic set: a cheap, seed-free warm-up
WARMUP_MIX = (2 / 3) * np.full((3, 3), 1 / 3) + (1 / 3) * WITNESS


class UnistochasticWorkload:
    """One op decides the whole corpus, in an order drawn from the seed.

    Single searches differ in cost by up to 50x, so their median jumps
    between neighbouring cases as the machine's speed drifts; the time to
    decide the whole corpus does not.
    """

    def __init__(self, seed: int):
        self.relaqm = import_relaqm()
        corpus = unistochastic_corpus()
        order = np.random.default_rng([6, seed]).permutation(len(corpus))
        self.cases = [corpus[i] for i in order]

    def warmup(self) -> None:
        unistochastic_op(self.relaqm, WARMUP_MIX)

    def op(self, i: int, trace=None, pause=None):
        """``pause`` (from the timed loop) runs between searches, so that the
        host's speed is sampled within a pass that takes seconds."""
        results = []
        for n, (label, p) in enumerate(self.cases):
            if n and pause is not None:
                pause()
            results.append((label, p) + unistochastic_op(self.relaqm, p))
        return f"corpus pass {i}", results

    @staticmethod
    def check(out) -> dict:
        return {"decided": sum(check_unistochastic(*case) for case in out)}


class CliWorkload:
    """Cold ``python -m relaqm`` processes, one at a time; an op is one pass
    over the rotation, so that every op does the same work.

    With a trace log given, each child runs under ``traced_cli.py`` and its
    spans are merged into the log under the op's id.
    """

    def __init__(self, seed: int):
        if not (SRC / "relaqm" / "__main__.py").is_file():
            raise ImportError(f"no relaqm package under {SRC}")
        self.commands = cli_commands(seed)
        self.golden = (FIXTURES / "wigner_friend.report.json").read_bytes()
        self.peak_rss_mb = 0.0

    def _child(self, args, launcher=None):
        code, out, rss = cli_op(args, launcher)
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        return code, out

    def warmup(self) -> None:
        self._child(["kernel", str(FIXTURES / "kernel_pairs.yaml")])

    def op(self, i: int, trace=None, pause=None):
        results = []
        for n, (args, expected) in enumerate(self.commands):
            if trace is None:
                code, out = self._child(args)
            else:
                spans_path = OUT_DIR / f"cli-{os.getpid()}-{i}-{n}.jsonl"
                code, out = self._child(args, [str(BENCH_DIR / "traced_cli.py"), str(spans_path)])
                with open(spans_path, encoding="utf-8") as fh:
                    trace.merge(fh, i)
                spans_path.unlink()
            results.append((args, expected, code, out, self.golden))
        return f"rotation pass {i}", results

    @staticmethod
    def check(out) -> dict:
        for result in out:
            check_cli(*result)
        return {}


def make_workload(name: str, seed: int):
    if name in SCENARIO_GENERATORS:
        return ScenarioWorkload(name, seed)
    if name == "unistochastic":
        return UnistochasticWorkload(seed)
    if name == "cli":
        return CliWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")
