"""Declarative scenarios: systems, observers, events, and per-observer reports.

A scenario file names a set of systems, says which of them act as observers,
prepares every system, and lists a strictly ordered sequence of events
(measurements, unitary evolutions, queries).  The runner keeps one account
per observer -- a joint state over all *other* systems, tagged with that
observer -- and updates every account through each event:

* a measurement updates the measuring observer's account by outcome sampling
  and collapse, and every non-participating observer's account by the
  premeasurement unitary (the same physical event, two correct descriptions);
* an observer that gets measured loses its own unitary bookkeeping: its
  account is marked broken and later queries against it raise
  :class:`~relaqm.errors.DescriptionUnavailable`.

Two rules are enforced structurally: no system ever measures or describes
itself, and two observers cannot measure the same system "at the same event"
-- events are totally ordered, one of the two has to go first.

Every state in a report carries the observer it is relative to; the report
linter rejects untagged amplitude payloads.  Reports render as aligned text
or as a stable machine-readable tree (fixed key order, floats with 12
significant digits) suitable for golden-file comparison.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from importlib import resources
from json.encoder import encode_basestring

import numpy as np

from .errors import (
    DescriptionUnavailable,
    NormalizationError,
    ParseError,
    TooLarge,
    ValidationError,
)
from .dynamics import propagator
from .hilbert import (ATOL, PAULI_X, PAULI_Y, PAULI_Z, Operator, _apply_on_factors,
                      _norm, _refuse_too_large, _safe_norm, sample_index)
from .kernels import (
    TransitionKernel,
    classical_composite_probability,
    composite_probability,
    kernel_from_families,
)
from .measurement import (_MAX_PREMEASUREMENT_DIM, MeasurementSetup, _born_weights,
                          _collapse, _completion, premeasurement_unitary)
from .parsing import (_complex_vector, _family_reader, _name, _optional, _real_value,
                      _square_matrix, parse_families, parse_yaml, read_text, resolve_family)
from .questions import CompleteFamily

__all__ = [
    "Scenario",
    "MeasureEvent",
    "EvolveEvent",
    "QueryEvent",
    "Report",
    "parse_yaml",
    "parse_scenario",
    "load_scenario",
    "run",
    "emit_report",
    "lint_report",
    "fixture_path",
    "parse_families",
    "resolve_family",
]

_BUILTIN_HAMILTONIANS = {
    "pauli_x": PAULI_X,
    "pauli_y": PAULI_Y,
    "pauli_z": PAULI_Z,
}


@dataclass(frozen=True)
class MeasureEvent:
    observer: str
    target: str
    family: CompleteFamily


@dataclass(frozen=True)
class EvolveEvent:
    target: str
    hamiltonian: Operator
    t: float
    label: str


@dataclass(frozen=True)
class QueryEvent:
    kind: str
    params: dict


@dataclass(frozen=True)
class Scenario:
    name: str
    dims: dict[str, int]
    observers: tuple[str, ...]
    preparations: dict[str, np.ndarray]
    events: tuple
    seed: int


@dataclass
class Report:
    scenario: str
    seed: int
    entries: list = field(default_factory=list)
    violations: list = field(default_factory=list)

    def worst_marginal_agreement(self) -> float:
        """Largest measurer-vs-observer marginal gap over all measure events, or 0."""
        return max([0.0] + [ent["marginal_agreement"] for entry in self.entries
                            for ent in entry.get("entangled", [])])


def fixture_path(name: str):
    """Filesystem path of a shipped fixture (scenario or matrix file)."""
    return resources.files("relaqm") / "fixtures" / name


# ---------------------------------------------------------------------------
# parsing


def _require(mapping, key, where: str):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ParseError(f"{where}: missing required field {key!r}")
    return mapping[key]


def _system(raw, where: str, dims) -> str:
    """A field naming a declared system."""
    name = _name(raw, where)
    if name not in dims:
        raise ValidationError("UnknownSystem", f"{where}: unknown system {name!r}")
    return name


def _observer(raw, where: str, observers, forbidden=()) -> str:
    """A field naming an observer, one outside ``forbidden``: the systems that
    a query relative to it asks about."""
    obs = _name(raw, where)
    if obs not in observers:
        raise ValidationError("NotAnObserver", f"{where}: {obs!r} is not an observer")
    if obs in forbidden:
        raise ValidationError(
            "SelfDescription",
            f"{where}: no state of {obs!r} is defined relative to {obs!r} itself")
    return obs


def _family(body, where: str, dim: int, families) -> CompleteFamily:
    """The optional ``family`` field, ``computational`` by default, at ``dim``;
    ``families`` is the document's :func:`~relaqm.parsing._family_reader`."""
    return families(_name(_optional(body, "family", "computational"), where), dim)


def _check_pointer(where: str, pointer: str, system: str, dims) -> None:
    """The rules a pointer recording a system obeys, in a measure event or a query."""
    if pointer == system:
        raise ValidationError(
            "SelfMeasurement",
            f"{where}: {pointer!r} cannot measure itself; there is no meaning "
            "in being correlated with oneself")
    if dims[pointer] < dims[system]:
        raise ValidationError(
            "PointerTooSmall",
            f"{where}: pointer {pointer!r} (dim {dims[pointer]}) cannot record "
            f"all outcomes of {system!r} (dim {dims[system]})")


def _parse_measure(body, idx: int, scenario_fields) -> MeasureEvent:
    where = f"events[{idx}].measure"
    observers, families, dims = scenario_fields
    observer = _require(body, "observer", where)
    if isinstance(observer, (list, tuple)):
        raise ValidationError(
            "SimultaneousMeasurement",
            f"{where}: {list(observer)} cannot measure in one event; events are "
            "strictly ordered, one observer has to obtain the information first")
    observer = _observer(observer, where, observers)
    target = _system(_require(body, "target", where), where, dims)
    _check_pointer(where, observer, target, dims)
    family = _family(body, where, dims[target], families)
    joint = dims[target] * dims[observer]
    if joint > _MAX_PREMEASUREMENT_DIM:
        raise TooLarge(
            f"{where}: the premeasurement of {target!r} by {observer!r} acts on "
            f"dimension {joint}, more than the {_MAX_PREMEASUREMENT_DIM} allowed")
    return MeasureEvent(observer, target, family)


def _parse_evolve(body, idx: int, scenario_fields) -> EvolveEvent:
    where = f"events[{idx}].evolve"
    _, _, dims = scenario_fields
    target = _system(_require(body, "target", where), where, dims)
    t = _real_value(_require(body, "t", where), where, "a number for the duration t")
    raw_h = _require(body, "hamiltonian", where)
    if isinstance(raw_h, str):
        if raw_h not in _BUILTIN_HAMILTONIANS:
            raise ValidationError("UnknownHamiltonian",
                                  f"{where}: no builtin Hamiltonian {raw_h!r}")
        h = _BUILTIN_HAMILTONIANS[raw_h]
        label = raw_h
    else:
        h = _square_matrix(raw_h, where)
        label = "matrix"
    if h.shape[0] != dims[target]:
        raise ValidationError("DimensionMismatch",
                              f"{where}: Hamiltonian dim {h.shape[0]} vs "
                              f"system {target!r} dim {dims[target]}")
    h = Operator(h, (dims[target],))
    if not h.is_hermitian:
        raise ValidationError("NonHermitianHamiltonian",
                              f"{where}: Hamiltonian is not hermitian")
    if not math.isfinite(t * h.dim * float(np.max(np.abs(h.matrix)))):  # |E| <= dim·max|h|
        raise ValidationError("PhaseOverflow", f"{where}: t times the Hamiltonian overflows")
    return EvolveEvent(target, h, t, label)


def _parse_query(body, idx: int, scenario_fields) -> QueryEvent:
    where = f"events[{idx}].query"
    observers, families, dims = scenario_fields
    kind = _require(body, "kind", where)

    def relative_to(*asked):
        return _observer(_require(body, "relative_to", where), where, observers, asked)

    def system_field(key):
        return _system(_require(body, key, where), where, dims)

    if kind == "state":
        of = _require(body, "of", where)
        if isinstance(of, str):
            of = [of]
        if not isinstance(of, list) or not of:
            raise ParseError(f"{where}: 'of' must be a system name or list of names")
        for name in of:
            _system(name, where, dims)
        if len(set(of)) != len(of):
            raise ParseError(f"{where}: duplicate systems in 'of'")
        return QueryEvent("state", {"of": tuple(of), "relative_to": relative_to(*of)})
    if kind == "marginal":
        target = system_field("target")
        family = _family(body, where, dims[target], families)
        return QueryEvent("marginal", {"target": target, "family": family,
                                       "relative_to": relative_to(target)})
    if kind == "completion":
        system = system_field("system")
        pointer = system_field("pointer")
        _check_pointer(where, pointer, system, dims)
        family = _family(body, where, dims[system], families)
        return QueryEvent("completion", {"system": system, "pointer": pointer,
                                         "family": family,
                                         "relative_to": relative_to(system, pointer)})
    if kind in ("kernel", "interference"):
        target = system_field("target")
        fam_a = _name(_require(body, "family_a", where), where)
        fam_b = _name(_require(body, "family_b", where), where)
        pair = {"target": target, "family_a": families(fam_a, dims[target]),
                "family_b": families(fam_b, dims[target])}
        if kind == "kernel":
            return QueryEvent("kernel", pair)
        i = _require(body, "i", where)
        j = _require(body, "j", where)
        k = _require(body, "k", where)
        d = dims[target]
        for name, idx_ in (("i", i), ("j", j), ("k", k)):
            if not isinstance(idx_, int) or isinstance(idx_, bool) or not 1 <= idx_ <= d:
                raise ValidationError(
                    "IndexOutOfRange",
                    f"{where}: {name}={idx_!r} outside outcome labels 1..{d}")
        if j == k:
            raise ValidationError("IndexOutOfRange",
                                  f"{where}: j and k must name distinct outcomes")
        return QueryEvent("interference", {**pair, "i": i, "j": j, "k": k})
    raise ParseError(f"{where}: unknown query kind {kind!r}")


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario document.

    Raises :class:`ParseError` on malformed structure and
    :class:`ValidationError` (with the violated rule's name) on semantic
    violations; every invariant is checked here, not at run time.
    """
    doc = parse_yaml(text)
    if not isinstance(doc, dict):
        raise ParseError("scenario document must be a mapping")

    seed = _optional(doc, "seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ParseError("seed must be a nonnegative integer")

    raw_systems = _require(doc, "systems", "scenario")
    if not isinstance(raw_systems, list) or not raw_systems:
        raise ParseError("systems must be a non-empty list")
    dims: dict[str, int] = {}
    for i, entry in enumerate(raw_systems):
        sname = _name(_require(entry, "name", f"systems[{i}]"), f"systems[{i}]")
        sdim = _require(entry, "dim", f"systems[{i}]")
        if not isinstance(sdim, int) or isinstance(sdim, bool) or sdim < 1:
            raise ParseError(f"systems[{i}]: dim must be a positive integer")
        if sname in dims:
            raise ValidationError("DuplicateSystem", f"system {sname!r} declared twice")
        dims[sname] = sdim

    raw_observers = _require(doc, "observers", "scenario")
    if not isinstance(raw_observers, list) or not raw_observers:
        raise ParseError("observers must be a non-empty list")
    for n, obs in enumerate(raw_observers):
        if _name(obs, "observers") not in dims:
            raise ValidationError(
                "ObserverNotDeclared",
                f"observer {obs!r} is not a declared system; all systems are "
                "equivalent and observers are systems too")
        if dims[obs] < 2:
            raise ValidationError(
                "ObserverTooSmall",
                f"observer {obs!r} has dim {dims[obs]}; an observer needs more "
                "than one state to carry correlations")
        if obs in raw_observers[:n]:
            raise ValidationError("DuplicateObserver", f"observer {obs!r} listed twice")
    observers = tuple(raw_observers)
    total = math.prod(dims.values())
    accounts = sum(total // dims[obs] for obs in observers)
    _refuse_too_large(RUN_ARRAYS * accounts, f"a run over {accounts} account amplitudes")

    families = _family_reader(parse_families(doc.get("families")))

    raw_preps = _require(doc, "preparations", "scenario")
    if not isinstance(raw_preps, dict):
        raise ParseError("preparations must be a mapping from system names to amplitudes")
    preparations: dict[str, np.ndarray] = {}
    for sname, sdim in dims.items():
        if sname not in raw_preps:
            raise ValidationError("MissingPreparation",
                                  f"no preparation for system {sname!r}")
        vec = _complex_vector(raw_preps[sname], f"preparations.{sname}")
        if vec.size != sdim:
            raise ValidationError(
                "DimensionMismatch",
                f"preparations.{sname}: {vec.size} amplitudes for a dim-{sdim} system")
        norm = _safe_norm(vec)
        if not abs(norm - 1.0) <= ATOL:
            raise NormalizationError(
                f"preparations.{sname}: norm is {norm!r}, amplitudes must be "
                "normalized to 1")
        preparations[sname] = vec
    for extra in raw_preps:  # in document order, so the error names the first
        if extra not in dims:
            raise ValidationError("UnknownSystem",
                                  f"preparations name undeclared system {extra!r}")

    scenario_fields = (observers, families, dims)
    raw_events = _optional(doc, "events", [])
    if not isinstance(raw_events, list):
        raise ParseError("events must be a list")
    events = []
    for idx, entry in enumerate(raw_events):
        if not isinstance(entry, dict) or len(entry) != 1:
            raise ParseError(f"events[{idx}]: each event is a one-key mapping "
                             "(measure / evolve / query)")
        (key, body), = entry.items()
        if key == "measure":
            events.append(_parse_measure(body, idx, scenario_fields))
        elif key == "evolve":
            events.append(_parse_evolve(body, idx, scenario_fields))
        elif key == "query":
            events.append(_parse_query(body, idx, scenario_fields))
        else:
            raise ParseError(f"events[{idx}]: unknown event kind {key!r}")

    name = _name(_optional(doc, "name", "scenario"), "name")
    return Scenario(name=name, dims=dims, observers=observers,
                    preparations=preparations, events=tuple(events), seed=seed)


def load_scenario(path) -> Scenario:
    return parse_scenario(read_text(path))


# ---------------------------------------------------------------------------
# running


class _Account:
    """One observer's joint description of every other system.

    ``blocks`` maps each system to the set of systems it has interacted with,
    directly or through others (a partition, starting from singletons).  Only
    an operator acting on several factors joins blocks, so the amplitudes are
    always an exact product across blocks.
    """

    def __init__(self, observer: str, names: tuple[str, ...], dims: tuple[int, ...],
                 amps: np.ndarray):
        self.observer = observer
        self.names = names
        self.dims = dims
        self.amps = amps
        self.broken: str | None = None
        self.blocks = {name: frozenset((name,)) for name in names}
        self._positions = {name: i for i, name in enumerate(names)}

    def position(self, name: str) -> int:
        return self._positions[name]

    def apply_on(self, positions: tuple[int, ...], op: np.ndarray) -> None:
        self.amps = _apply_on_factors(self.amps, self.dims, positions, op)
        joined = frozenset().union(*(self.blocks[self.names[p]] for p in positions))
        for name in joined:
            self.blocks[name] = joined


def _canonical_phase(amps: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude amplitude real nonnegative (global phase fix)."""
    # not kernels.phase_fix, which gauges a unitary's row and column phases on its first row/column
    a = amps[abs(amps).argmax()]
    r = abs(a)
    if r < 1e-12:
        return amps
    return amps * (np.conj(a) / r)


# Screen on the second eigenvalue of a candidate's Gram matrix, which is s_1^2
# for the unfolding's second singular value s_1.  The Gram matrix of a unit
# vector's unfolding has norm <= 1, so eigvalsh errs by ~1e-16 and a candidate
# the SVD accepts (s_1 <= 1e-9) has lambda_2 <= ~1e-15, far below this screen:
# it rejects only candidates whose SVD would reject them too.
_GRAM_SCREEN = 1e-6


def _minimal_cluster(account: _Account, targets: tuple[str, ...]):
    """Smallest group of systems containing the targets whose joint state factors out.

    Returns (names, amplitudes).  Scans groups in deterministic order of
    increasing size, then of sorted positions, and looks only at systems that
    have interacted with the targets: the account is a product across its
    blocks, so a factoring group that reaches outside the targets' blocks
    leaves a smaller one inside them.  Those blocks together always factor,
    so the last group goes straight to the SVD.  Any other group is first
    screened by the second eigenvalue of the smaller Gram matrix of its
    unfolding (at most 16x16 for qubit labs); one clearly entangled with the
    rest is dropped without an SVD.  A group that passes is decided, and its
    factor taken, by the SVD alone, so the screen changes no amplitude.
    """
    names, dims, positions = account.names, account.dims, account._positions
    n = len(names)
    target_idx = tuple([positions[t] for t in targets])
    reach = frozenset().union(*[account.blocks[t] for t in targets])
    pool = sorted([positions[name] for name in reach.difference(targets)])
    tensor = account.amps.reshape(dims)
    # by size, then lexicographically; sorted(targets + extra) orders the same way
    extras = itertools.chain.from_iterable(
        itertools.combinations(pool, k) for k in range(len(pool) + 1))
    for extra in extras:
        subset = sorted(target_idx + extra)
        chosen = set(subset)
        block = tensor.transpose(subset + [i for i in range(n) if i not in chosen]).reshape(
            math.prod([dims[i] for i in subset]), -1)
        if block.shape[1] == 1:
            factor = block[:, 0]
        else:
            if len(extra) < len(pool) and block.shape[0] > 1:
                wide = block if block.shape[0] <= block.shape[1] else block.T
                if np.linalg.eigvalsh(wide @ wide.conj().T)[-2] > _GRAM_SCREEN:
                    continue
            u, s, _ = np.linalg.svd(block, full_matrices=False)
            if s.size > 1 and s[1] > 1e-9:
                continue
            factor = u[:, 0]
        return tuple([names[i] for i in subset]), _canonical_phase(factor / _norm(factor))
    raise RuntimeError("unreachable: the targets' blocks always factor")


def _state_payload(amps: np.ndarray, systems, relative_to: str) -> dict:
    return {
        "relative_to": relative_to,
        "systems": list(systems),
        "amplitudes": np.ascontiguousarray(amps, complex).view(float).reshape(-1, 2).tolist(),
    }


def _require_active(account: _Account, context: str) -> None:
    if account.broken is not None:
        raise DescriptionUnavailable(
            f"{context}: the unitary account of {account.observer!r} broke down "
            f"({account.broken})")


def _run_measure(sc: Scenario, ev: MeasureEvent, idx: int, accounts, rng,
                 report: Report) -> None:
    measurer = accounts[ev.observer]
    _require_active(measurer, f"event {idx}: {ev.observer} measuring {ev.target}")

    # collapse description, relative to the measuring observer
    basis = ev.family.basis
    pos = measurer.position(ev.target)
    probs, tensor = _born_weights(measurer.amps, measurer.dims, pos, basis)
    outcome = sample_index(probs, rng)
    measurer.amps = _collapse(tensor, measurer.dims, pos, outcome, basis)

    entry = {
        "event": idx,
        "kind": "measure",
        "observer": ev.observer,
        "target": ev.target,
        "family": ev.family.label,
        "collapse": {
            "relative_to": ev.observer,
            "outcome": outcome + 1,
            "probabilities": probs.tolist(),
            "post_state": _state_payload(_canonical_phase(basis[:, outcome]),
                                         [ev.target], ev.observer),
        },
        "entangled": [],
    }

    # entangling description, relative to every non-participating observer;
    # the measurer's prepared state is the pointer's ready state
    setup = MeasurementSetup(ev.family, sc.preparations[ev.observer])
    u_pre = premeasurement_unitary(setup).matrix
    for obs in sc.observers:
        if obs in (ev.observer, ev.target):
            continue
        account = accounts[obs]
        if account.broken is not None:
            continue
        positions = account._positions
        account.apply_on((positions[ev.target], positions[ev.observer]), u_pre)
        cluster_names, cluster_amps = _minimal_cluster(
            account, (ev.target, ev.observer))
        # the pair's statistics are its cluster's, which factors out of the account
        target, pointer = cluster_names.index(ev.target), cluster_names.index(ev.observer)
        cluster_dims = tuple([sc.dims[name] for name in cluster_names])
        q_marginal, tensor = _born_weights(cluster_amps, cluster_dims, target, basis)
        entry["entangled"].append({
            "relative_to": obs,
            "post_state": _state_payload(cluster_amps, cluster_names, obs),
            "completion_probability": _completion(tensor, target, pointer),
            "q_marginal": q_marginal.tolist(),
            "marginal_agreement": float(abs(q_marginal - probs).max()),
        })

    if ev.target in accounts:
        accounts[ev.target].broken = (
            f"measured by {ev.observer!r} at event {idx}; the interaction is not "
            "part of its own bookkeeping")
        entry["broken_accounts"] = [ev.target]
    report.entries.append(entry)


def _run_evolve(sc: Scenario, ev: EvolveEvent, idx: int, accounts,
                report: Report) -> None:
    u = propagator(ev.hamiltonian, ev.t).matrix
    for obs in sc.observers:
        account = accounts[obs]
        if account.broken is not None or ev.target == obs:
            continue
        account.apply_on((account.position(ev.target),), u)
    report.entries.append({
        "event": idx,
        "kind": "evolve",
        "target": ev.target,
        "hamiltonian": ev.label,
        "t": ev.t,
    })


def _kernel(params: dict, kernels: dict) -> TransitionKernel:
    """The kernel of a query's family pair, built at the pair's first query
    and kept in ``kernels``, which one run owns."""
    pair = (params["family_a"], params["family_b"])
    if pair not in kernels:
        kernels[pair] = kernel_from_families(*pair)
    return kernels[pair]


def _run_query(ev: QueryEvent, idx: int, accounts, kernels: dict, report: Report) -> None:
    params = ev.params
    entry = {"event": idx, "kind": "query", "query": ev.kind}
    if ev.kind in ("kernel", "interference"):
        kernel = _kernel(params, kernels)
    else:
        account = accounts[params["relative_to"]]
        _require_active(account, f"event {idx}: {ev.kind} query")
    if ev.kind == "state":
        names, amps = _minimal_cluster(account, params["of"])
        defined = set(names) == set(params["of"])
        entry["of"] = list(params["of"])
        entry["relative_to"] = params["relative_to"]
        entry["defined"] = defined
        if not defined:
            entry["note"] = (f"{list(params['of'])} carry no state of their own; "
                             f"smallest factoring group is {list(names)}")
        entry["state"] = _state_payload(amps, names, params["relative_to"])
    elif ev.kind == "marginal":
        probs, _ = _born_weights(account.amps, account.dims,
                                 account.position(params["target"]),
                                 params["family"].basis)
        entry.update({
            "target": params["target"],
            "family": params["family"].label,
            "relative_to": params["relative_to"],
            "probabilities": probs.tolist(),
        })
    elif ev.kind == "completion":
        system = account.position(params["system"])
        _, tensor = _born_weights(account.amps, account.dims, system,
                                  params["family"].basis)
        value = _completion(tensor, system, account.position(params["pointer"]))
        entry.update({
            "system": params["system"],
            "pointer": params["pointer"],
            "family": params["family"].label,
            "relative_to": params["relative_to"],
            "completion_probability": value,
        })
    elif ev.kind == "kernel":
        entry.update({
            "target": params["target"],
            "to_family": kernel.to_family,
            "from_family": kernel.from_family,
            "p": kernel.p.tolist(),
            "unitary": np.stack((kernel.U.real, kernel.U.imag), axis=-1).tolist(),
            "max_stochastic_violation": kernel.check.max_violation,
        })
    elif ev.kind == "interference":
        i, j, k = params["i"] - 1, params["j"] - 1, params["k"] - 1
        composite = composite_probability(kernel, i, (j, k))
        classical = classical_composite_probability(kernel, i, (j, k))
        entry.update({
            "target": params["target"],
            "family_a": params["family_a"].label,
            "family_b": params["family_b"].label,
            "i": params["i"],
            "jk": [params["j"], params["k"]],
            "composite_probability": composite,
            "classical_probability": classical,
            "interference_gap": composite - classical,
        })
    report.entries.append(entry)


# account-sized arrays a run holds at its peak, read by parse_scenario's size
# rule: under tracemalloc, run() on 14-20 qubits in |0> peaked at 6.0-6.1x the
# accounts' bytes with one observer (a measure on an inner axis; 4.0 on the
# first axis, an evolve 2.0-3.5), 3.5-3.6x with two and 2.7-2.8x with three;
# the premeasurement, kept apart, is bounded by _MAX_PREMEASUREMENT_DIM
RUN_ARRAYS = 8


def run(sc: Scenario, seed: int | None = None) -> Report:
    """Execute a scenario and return the per-observer report.

    Fully deterministic for a given seed; the optional argument overrides the
    scenario's own seed (command-line flag or environment variable).
    """
    effective_seed = sc.seed if seed is None else seed
    rng = np.random.default_rng(effective_seed)
    report = Report(scenario=sc.name, seed=effective_seed)

    accounts: dict[str, _Account] = {}
    for obs in sc.observers:
        names = tuple(n for n in sc.dims if n != obs)
        dims = tuple(sc.dims[n] for n in names)
        amps = np.array([1.0], dtype=complex)
        for n in names:  # the products np.kron forms, without its reshapes
            amps = np.multiply.outer(amps, sc.preparations[n]).ravel()
        accounts[obs] = _Account(obs, names, dims, amps)

    # (family_a, family_b) -> kernel; CompleteFamily compares by
    # identity, and the scenario holds every family while the run lasts
    kernels: dict = {}
    for idx, ev in enumerate(sc.events):
        if isinstance(ev, MeasureEvent):
            _run_measure(sc, ev, idx, accounts, rng, report)
        elif isinstance(ev, EvolveEvent):
            _run_evolve(sc, ev, idx, accounts, report)
        elif isinstance(ev, QueryEvent):
            _run_query(ev, idx, accounts, kernels, report)
        else:  # pragma: no cover - parse produces only the three kinds
            raise TypeError(f"unknown event type {type(ev)}")

    report.violations = lint_report(report)
    return report


# ---------------------------------------------------------------------------
# reporting


_LEAF_TYPES = frozenset((float, int, str, bool, type(None)))
_LISTS_ONLY = frozenset((list,))
_FLOATS_ONLY = frozenset((float,))


def lint_report(report: Report) -> list[str]:
    """Every amplitude payload must say which observer it is relative to.

    Returns one ``"<path>: state without an observer tag"`` line per untagged
    payload, in tree order; a path is built only for a payload that fails.
    """
    problems: list[str] = []
    trail: list = []  # (container, key) pairs from the entries down to the node

    def walk(node):
        if isinstance(node, dict):
            if "amplitudes" in node and not node.get("relative_to"):
                path = "".join(f"[{key}]" if isinstance(parent, list) else f".{key}"
                               for parent, key in trail)
                problems.append(f"entries{path}: state without an observer tag")
            items = node.items()
        else:
            items = enumerate(node)
        for key, value in items:
            if type(value) is list:  # a row, or a list of rows, of plain scalars holds no payload
                kinds = set(map(type, value))
                if _LEAF_TYPES.issuperset(kinds) or kinds == _LISTS_ONLY and (
                        _LEAF_TYPES.issuperset(map(type, itertools.chain.from_iterable(value)))):
                    continue
            if isinstance(value, (dict, list)):
                trail.append((node, key))
                walk(value)
                trail.pop()

    if isinstance(report.entries, (dict, list)):
        walk(report.entries)
    return problems


def _fmt_float(x: float) -> str:
    """12 significant digits; -0.0 prints as 0."""
    return "%.12g" % x if x else "0"


def _render_json(node) -> str:
    """The structured form of a report tree: two-space indents, lists of at
    most 16 scalars on one line, floats via :func:`_fmt_float`, strings
    escaped as JSON requires.  Keys are the report's own field names and
    are written as they are."""
    out: list[str] = []
    _render_into(node, "", out)
    return "".join(out)


def _render_into(node, pad: str, out: list[str]) -> None:
    """Append the rendering of ``node``, nested at indent ``pad``, to ``out``."""
    if isinstance(node, dict):
        if not node:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{\n"
        for key, value in node.items():
            out.append(f'{sep}{inner}"{key}": ')
            sep = ",\n"
            _render_into(value, inner, out)
        out.append(f"\n{pad}}}")
    elif isinstance(node, (list, tuple)):
        text = _flat_text(node) or _float_rows_text(node, pad)
        if text is not None:
            out.append(text)
            return
        inner = pad + "  "
        sep = "[\n"
        for value in node:
            out.append(sep + inner)
            sep = ",\n"
            _render_into(value, inner, out)
        out.append(f"\n{pad}]")
    else:
        out.append(_scalar_text(node))


# "[%.12g, ..., %.12g]" for n = 0..16: the template of one row of floats
_FLOAT_ROWS = tuple("[" + ", ".join(["%.12g"] * n) + "]" for n in range(17))


def _flat_text(node) -> str | None:
    """A list or tuple on one line -- empty, or at most 16 scalars -- else None."""
    if len(node) <= 16 and all(isinstance(v, (int, float, bool, str)) or v is None
                               for v in node):
        return "[" + ", ".join(map(_scalar_text, node)) + "]"
    return None


def _float_rows_text(node, pad: str) -> str | None:
    """A list of flat float rows (amplitude pairs, kernel rows) in one % call,
    one row per line; None for any other list."""
    if not all(type(row) is list and len(row) <= 16 for row in node):
        return None
    values = list(itertools.chain.from_iterable(node))
    if not _FLOATS_ONLY.issuperset(map(type, values)):
        return None
    if 0.0 in values:  # true for -0.0 too, which prints as 0
        values = [v or 0.0 for v in values]
    inner = ",\n" + pad + "  "
    rows = inner.join([_FLOAT_ROWS[len(row)] for row in node])
    return f"[\n{pad}  {rows}\n{pad}]" % tuple(values)


def _scalar_text(node) -> str:
    kind = type(node)
    if kind is float:
        return _fmt_float(node)
    if kind is str:
        return encode_basestring(node)
    if kind is int:
        return str(node)
    if isinstance(node, (bool, np.bool_)):
        return "true" if node else "false"
    if isinstance(node, (int, np.integer)):
        return str(int(node))
    if isinstance(node, (float, np.floating)):
        return _fmt_float(float(node))
    if node is None:
        return "null"
    return encode_basestring(str(node))


def _amplitudes_text(pairs) -> str:
    parts = []
    for re_, im_ in pairs:
        if im_ == 0:
            parts.append(_fmt_float(re_))
        else:
            parts.append(f"{_fmt_float(re_)}{'+' if im_ >= 0 else '-'}{_fmt_float(abs(im_))}i")
    return "(" + ", ".join(parts) + ")"


def _probs_text(probs) -> str:
    return "[" + ", ".join(_fmt_float(p) for p in probs) + "]"


def _post_state_line(st: dict) -> str:
    return (f"   relative to {st['relative_to']}: state of {','.join(st['systems'])} = "
            f"{_amplitudes_text(st['amplitudes'])}")


def _table_lines(report: Report) -> list[str]:
    lines = [f"scenario: {report.scenario}", f"seed: {report.seed}"]
    for entry in report.entries:
        if entry["kind"] == "measure":
            lines.append(f"-- event {entry['event']}: {entry['observer']} measures "
                         f"{entry['target']} in family {entry['family']}")
            c = entry["collapse"]
            lines.append(f"   relative to {c['relative_to']}: outcome {c['outcome']}"
                         f"  probabilities {_probs_text(c['probabilities'])}")
            lines.append(_post_state_line(c["post_state"]))
            for ent in entry["entangled"]:
                lines.append(_post_state_line(ent["post_state"]))
                lines.append(f"   relative to {ent['relative_to']}: completion "
                             f"probability {_fmt_float(ent['completion_probability'])}"
                             f"  q-marginal {_probs_text(ent['q_marginal'])}")
        elif entry["kind"] == "evolve":
            lines.append(f"-- event {entry['event']}: evolve {entry['target']} "
                         f"under {entry['hamiltonian']} for t={_fmt_float(entry['t'])}")
        else:
            lines.append(f"-- event {entry['event']}: query {entry['query']}")
            if entry["query"] == "state":
                st = entry["state"]
                status = "" if entry["defined"] else "  (no factor state; showing cluster)"
                lines.append(f"   state of {','.join(st['systems'])} relative to "
                             f"{st['relative_to']} = "
                             f"{_amplitudes_text(st['amplitudes'])}{status}")
            elif entry["query"] == "marginal":
                lines.append(f"   marginal of {entry['target']} ({entry['family']}) "
                             f"relative to {entry['relative_to']} = "
                             f"{_probs_text(entry['probabilities'])}")
            elif entry["query"] == "completion":
                lines.append(f"   completion probability of {entry['pointer']} having "
                             f"measured {entry['system']}, relative to "
                             f"{entry['relative_to']} = "
                             f"{_fmt_float(entry['completion_probability'])}")
            elif entry["query"] == "kernel":
                lines.append(f"   kernel {entry['to_family']} <- {entry['from_family']} "
                             f"on {entry['target']} (max stochastic violation "
                             f"{_fmt_float(entry['max_stochastic_violation'])})")
                for row in entry["p"]:
                    lines.append("     " + "  ".join(f"{x:.6f}" for x in row))
            elif entry["query"] == "interference":
                lines.append(
                    f"   composite {_fmt_float(entry['composite_probability'])}"
                    f"  classical {_fmt_float(entry['classical_probability'])}"
                    f"  gap {_fmt_float(entry['interference_gap'])}"
                    f"  (i={entry['i']}, jk={entry['jk']})")
    if report.violations:
        lines.append("-- violations")
        lines.extend(f"   {v}" for v in report.violations)
    return lines


def emit_report(report: Report, format: str = "table") -> str:
    """Render a report as aligned text or as a stable structured tree.

    The structured form is byte-identical across runs with the same scenario
    and seed: keys keep insertion order and floats print with 12 significant
    digits.
    """
    if format == "structured":
        tree = {
            "scenario": report.scenario,
            "seed": report.seed,
            "entries": report.entries,
            "violations": report.violations,
        }
        return _render_json(tree) + "\n"
    if format == "table":
        return "\n".join(_table_lines(report)) + "\n"
    raise ValueError(f"unknown report format {format!r}")
