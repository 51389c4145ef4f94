"""An independent account of a scenario run, from the library's public primitives.

:func:`run_oracle` replays a parsed :class:`~relaqm.scenario.Scenario` the
way the paper describes it, densely and without any of the runner's helpers:

* each observer keeps one :class:`~relaqm.hilbert.StateVector` over every
  other system, in the scenario's system order;
* the measurer's account takes Born weights over the family's projectors
  (``projector_onto``, embedded with ``tensor`` and ``identity``), draws one
  outcome with ``sample_index`` from the run's generator, and conditions on
  it with ``conditional_state``;
* every other active account applies the embedded
  ``premeasurement_unitary`` with ``apply``, and reads its completion as the
  expectation of the embedded ``correlation_operator``;
* an evolution applies the embedded ``propagator`` unitary;
* a state query scans every group of systems containing the asked ones, by
  size and then lexicographically, for the first whose joint state factors.

It returns report entries shaped like the runner's, with amplitudes as
complex arrays, and the index of the event that asked a broken account, if
any (the runner raises :class:`~relaqm.errors.DescriptionUnavailable` there).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from relaqm.dynamics import propagator
from relaqm.hilbert import (Operator, StateVector, apply, born_probabilities,
                            conditional_state, identity, projector_onto, sample_index, tensor)
from relaqm.kernels import (classical_composite_probability, composite_probability,
                            kernel_from_families)
from relaqm.measurement import (MeasurementSetup, correlation_operator,
                                premeasurement_unitary, standard_setup)
from relaqm.scenario import EvolveEvent, MeasureEvent, Scenario


@dataclass
class Account:
    names: tuple[str, ...]
    dims: tuple[int, ...]
    state: StateVector
    broken: bool = False

    def positions(self, *names: str) -> tuple[int, ...]:
        return tuple(self.names.index(name) for name in names)


def embed(op: Operator, dims: tuple[int, ...], positions: tuple[int, ...]) -> Operator:
    """``op`` on the factors at ``positions``, in that order, and the identity on
    the others: op ⊗ I, conjugated by the permutation matrix that brings
    those factors to the front."""
    rest = [ax for ax in range(len(dims)) if ax not in positions]
    order = list(positions) + rest
    front = tensor(op, identity(math.prod(dims[ax] for ax in rest)))
    total = math.prod(dims)
    # row j of the permutation picks the account's basis state that comes j-th
    # once the factors are reordered
    perm = np.eye(total)[np.arange(total).reshape(dims).transpose(order).reshape(-1)]
    return Operator(perm.T @ front.matrix @ perm, dims)


def family_projectors(basis: np.ndarray, dims, pos: int) -> list[Operator]:
    return [embed(projector_onto(basis[:, i]), dims, (pos,)) for i in range(basis.shape[1])]


def expectation(op: Operator, state: StateVector) -> float:
    """<psi|M|psi> for a projector M: the squared norm of M psi."""
    return float(np.linalg.norm(apply(op, state).amplitudes) ** 2)


def factoring_group(account: Account, asked: tuple[str, ...]):
    """The first group containing ``asked`` whose joint state is a factor of
    the account (second singular value at most 1e-9), scanning all groups by
    size and then lexicographically; returns its names and its unit state."""
    n = len(account.names)
    asked_pos = account.positions(*asked)
    others = [i for i in range(n) if i not in asked_pos]
    amps = account.state.amplitudes.reshape(account.dims)
    for size in range(len(others) + 1):
        for extra in itertools.combinations(others, size):
            group = sorted(asked_pos + extra)
            rest = [i for i in range(n) if i not in group]
            block = amps.transpose(group + rest).reshape(
                math.prod(account.dims[i] for i in group), -1)
            u, s, _ = np.linalg.svd(block, full_matrices=False)
            if s.size > 1 and s[1] > 1e-9:
                continue
            return [account.names[i] for i in group], u[:, 0] / np.linalg.norm(u[:, 0])
    raise AssertionError("the whole account always factors")


def payload(amps: np.ndarray, systems, relative_to: str) -> dict:
    return {"relative_to": relative_to, "systems": list(systems), "amplitudes": amps}


def run_oracle(sc: Scenario) -> tuple[list[dict], int | None]:
    """The report entries of ``sc`` at its own seed, and the index of the event
    that asked a broken account (None if none did; no entries follow it)."""
    rng = np.random.default_rng(sc.seed)
    accounts = {}
    for obs in sc.observers:
        names = [n for n in sc.dims if n != obs]
        states = [StateVector(sc.preparations[n], (sc.dims[n],), obs) for n in names]
        state = states[0]
        for other in states[1:]:
            state = tensor(state, other)
        accounts[obs] = Account(tuple(names), tuple(sc.dims[n] for n in names), state)
    entries: list[dict] = []
    for idx, ev in enumerate(sc.events):
        if isinstance(ev, MeasureEvent):
            asked = ev.observer
        elif isinstance(ev, EvolveEvent) or ev.kind in ("kernel", "interference"):
            asked = None
        else:
            asked = ev.params["relative_to"]
        if asked is not None and accounts[asked].broken:
            return entries, idx
        if isinstance(ev, MeasureEvent):
            entries.append(_measure(sc, ev, idx, accounts, rng))
        elif isinstance(ev, EvolveEvent):
            u = propagator(ev.hamiltonian, ev.t)
            for obs, account in accounts.items():
                if not account.broken and obs != ev.target:
                    account.state = apply(embed(u, account.dims, account.positions(ev.target)),
                                          account.state)
            entries.append({"event": idx, "kind": "evolve", "target": ev.target,
                            "hamiltonian": ev.label, "t": ev.t})
        else:
            entries.append(_query(ev, idx, accounts))
    return entries, None


def _measure(sc: Scenario, ev: MeasureEvent, idx: int, accounts, rng) -> dict:
    basis = ev.family.basis
    measurer = accounts[ev.observer]
    projectors = family_projectors(basis, measurer.dims, *measurer.positions(ev.target))
    probs = born_probabilities(measurer.state, projectors)
    outcome = sample_index(probs, rng)
    measurer.state = conditional_state(measurer.state, projectors[outcome])
    entry = {
        "event": idx, "kind": "measure", "observer": ev.observer, "target": ev.target,
        "family": ev.family.label,
        "collapse": {"relative_to": ev.observer, "outcome": outcome + 1, "probabilities": probs,
                     "post_state": payload(basis[:, outcome], [ev.target], ev.observer)},
        "entangled": [],
    }
    setup = MeasurementSetup(ev.family, sc.preparations[ev.observer])
    for obs, account in accounts.items():
        if obs in (ev.observer, ev.target) or account.broken:
            continue
        pair = account.positions(ev.target, ev.observer)
        account.state = apply(embed(premeasurement_unitary(setup), account.dims, pair),
                              account.state)
        q_marginal = born_probabilities(account.state,
                                        family_projectors(basis, account.dims, pair[0]))
        names, amps = factoring_group(account, (ev.target, ev.observer))
        completion = expectation(embed(correlation_operator(setup), account.dims, pair),
                                 account.state)
        entry["entangled"].append({
            "relative_to": obs,
            "post_state": payload(amps, names, obs),
            "completion_probability": min(completion, 1.0),
            "q_marginal": q_marginal,
            "marginal_agreement": float(np.max(np.abs(q_marginal - probs))),
        })
    if ev.target in accounts:
        accounts[ev.target].broken = True
        entry["broken_accounts"] = [ev.target]
    return entry


def _query(ev, idx: int, accounts) -> dict:
    params = ev.params
    entry = {"event": idx, "kind": "query", "query": ev.kind}
    if ev.kind in ("kernel", "interference"):
        kernel = kernel_from_families(params["family_a"], params["family_b"])
    else:
        account = accounts[params["relative_to"]]
    if ev.kind == "state":
        of = list(params["of"])
        names, amps = factoring_group(account, params["of"])
        entry.update({"of": of, "relative_to": params["relative_to"],
                      "defined": set(names) == set(of)})
        if not entry["defined"]:
            entry["note"] = (f"{of} carry no state of their own; "
                             f"smallest factoring group is {names}")
        entry["state"] = payload(amps, names, params["relative_to"])
    elif ev.kind == "marginal":
        family = params["family"]
        probs = born_probabilities(account.state, family_projectors(
            family.basis, account.dims, *account.positions(params["target"])))
        entry.update({"target": params["target"], "family": family.label,
                      "relative_to": params["relative_to"], "probabilities": probs})
    elif ev.kind == "completion":
        family = params["family"]
        pair = account.positions(params["system"], params["pointer"])
        setup = standard_setup(account.dims[pair[0]], account.dims[pair[1]], family)
        value = expectation(embed(correlation_operator(setup), account.dims, pair),
                            account.state)
        entry.update({"system": params["system"], "pointer": params["pointer"],
                      "family": family.label, "relative_to": params["relative_to"],
                      "completion_probability": min(value, 1.0)})
    elif ev.kind == "kernel":
        entry.update({"target": params["target"], "to_family": kernel.to_family,
                      "from_family": kernel.from_family, "p": kernel.p,
                      "unitary": np.stack((kernel.U.real, kernel.U.imag), axis=-1),
                      "max_stochastic_violation": kernel.check.max_violation})
    else:
        i, j, k = params["i"] - 1, params["j"] - 1, params["k"] - 1
        composite = composite_probability(kernel, i, (j, k))
        classical = classical_composite_probability(kernel, i, (j, k))
        entry.update({"target": params["target"], "family_a": params["family_a"].label,
                      "family_b": params["family_b"].label, "i": params["i"],
                      "jk": [params["j"], params["k"]], "composite_probability": composite,
                      "classical_probability": classical,
                      "interference_gap": composite - classical})
    return entry
