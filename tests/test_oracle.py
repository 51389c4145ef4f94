"""`run()` against the dense oracle of tests/oracle.py, on random scenarios.

Outcomes, names and flags must match exactly; every number within 1e-12;
every state payload within 1e-12 up to one unit complex factor.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from generators import random_hermitian, random_state
from oracle import run_oracle

from relaqm.errors import DescriptionUnavailable
from relaqm.hilbert import Operator, haar_unitary
from relaqm.parsing import parse_families, resolve_family
from relaqm.scenario import EvolveEvent, MeasureEvent, QueryEvent, Scenario, run

KINDS = ("measure", "measure", "evolve", "state", "marginal", "completion", "kernel",
         "interference")


@st.composite
def scenarios(draw):
    """2-6 systems of dim 2-3 (an account holds at most 3^5 = 243 amplitudes),
    1-3 observers, declared Haar families beside the builtin ones, and up to
    ten events of every kind.  Measure targets include observers, whose
    accounts then break, and later events may still ask them."""
    n = draw(st.integers(2, 6))
    names = [f"X{i}" for i in range(n)]
    dim = {x: draw(st.integers(2, 3)) for x in names}
    observers = draw(st.permutations(names))[:draw(st.integers(1, min(3, n)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    preparations = {x: (np.eye(dim[x], dtype=complex)[0] if draw(st.booleans())
                        else random_state(dim[x], rng)) for x in names}
    declared = parse_families({
        f"haar{d}": [[[z.real, z.imag] for z in row] for row in haar_unitary(d, rng)]
        for d in (2, 3)})

    def family(d):
        return resolve_family(draw(st.sampled_from(["computational", "fourier", f"haar{d}"]
                                                   + ["hadamard"] * (d == 2))), d, declared)

    events = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(KINDS))
        if kind == "measure":
            pairs = [(o, t) for o in observers for t in names if t != o and dim[t] <= dim[o]]
            if pairs:
                o, t = draw(st.sampled_from(pairs))
                events.append(MeasureEvent(o, t, family(dim[t])))
        elif kind == "evolve":
            t = draw(st.sampled_from(names))
            h = Operator(random_hermitian(dim[t], rng), (dim[t],))
            events.append(EvolveEvent(t, h, float(rng.uniform(0.1, 2.0)), "matrix"))
        elif kind in ("kernel", "interference"):
            t = draw(st.sampled_from(names))
            params = {"target": t, "family_a": family(dim[t]), "family_b": family(dim[t])}
            if kind == "interference":
                i = draw(st.integers(1, dim[t]))
                j, k = draw(st.permutations(range(1, dim[t] + 1)))[:2]
                params.update({"i": i, "j": j, "k": k})
            events.append(QueryEvent(kind, params))
        else:
            r = draw(st.sampled_from(observers))
            others = [x for x in names if x != r]
            if kind == "state":
                of = draw(st.lists(st.sampled_from(others), min_size=1, max_size=2,
                                   unique=True))
                events.append(QueryEvent("state", {"of": tuple(of), "relative_to": r}))
            elif kind == "marginal":
                t = draw(st.sampled_from(others))
                events.append(QueryEvent("marginal", {"target": t, "family": family(dim[t]),
                                                      "relative_to": r}))
            else:
                pairs = [(s, p) for s in others for p in others if s != p and dim[s] <= dim[p]]
                if pairs:
                    s, p = draw(st.sampled_from(pairs))
                    events.append(QueryEvent("completion", {
                        "system": s, "pointer": p, "family": family(dim[s]),
                        "relative_to": r}))
    return Scenario(name="oracle", dims={x: dim[x] for x in names},
                    observers=tuple(observers), preparations=preparations,
                    events=tuple(events), seed=draw(st.integers(0, 2**16)))


def assert_matches(actual, expected, where: str) -> None:
    """``actual`` from the report, ``expected`` from the oracle."""
    if isinstance(expected, dict):
        assert actual.keys() == expected.keys(), where
        for key, value in expected.items():
            if key == "amplitudes":
                pairs = np.asarray(actual[key], dtype=float)
                got = pairs[:, 0] + 1j * pairs[:, 1]
                overlap = np.vdot(value, got)
                assert abs(overlap) > 0.5, where
                assert np.max(np.abs(got - overlap / abs(overlap) * value)) <= 1e-12, where
            else:
                assert_matches(actual[key], value, f"{where}.{key}")
    elif isinstance(expected, (np.ndarray, float)):
        assert np.shape(actual) == np.shape(expected), where
        assert np.max(np.abs(np.asarray(actual) - expected), initial=0.0) <= 1e-12, where
    elif isinstance(expected, list) and not all(isinstance(v, str) for v in expected):
        assert len(actual) == len(expected), where
        for n, (a, e) in enumerate(zip(actual, expected)):
            assert_matches(a, e, f"{where}[{n}]")
    else:
        assert actual == expected, where


@settings(deadline=None, max_examples=300)
@given(scenarios())
def test_run_agrees_with_the_dense_oracle(sc):
    expected, asked_broken = run_oracle(sc)
    if asked_broken is not None:
        with pytest.raises(DescriptionUnavailable, match=f"^event {asked_broken}:"):
            run(sc)
        sc = Scenario(sc.name, sc.dims, sc.observers, sc.preparations,
                      sc.events[:asked_broken], sc.seed)
    report = run(sc)
    assert report.violations == []
    assert_matches(report.entries, expected, "entries")
